#!/usr/bin/env python3
"""Print the performance trajectory: one line per ``BENCH_*.json`` file.

Reads every ``BENCH_*.json`` at the repository root, in name order.  Each
line gives the file's tag, the parent commit its numbers were measured
against, and its headline claim where it states one.  The files use several
layouts; a missing tag falls back to the file name, a missing parent prints
as ``?``, and a file without a claim prints none.  No file is rewritten; a
file that is not JSON is reported on stderr and makes the exit status 1.

Example:
    python3 scripts/bench_trajectory.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _one_line(text) -> str:
    return " ".join(str(text).split())


def claim_text(claim) -> str | None:
    """The headline of a ``claim`` entry: a string as it is, or a dict's
    metric, workload, seed, result and seed-1 figures in that order."""
    if not isinstance(claim, dict):
        return None if claim is None else str(claim)
    what = " ".join(
        f"{label}{claim[key]}"
        for key, label in (("metric", ""), ("workload", "on "), ("seed", "seed "))
        if key in claim
    )
    said = "; ".join(str(claim[key]) for key in ("result", "seed_1") if key in claim)
    return ": ".join(filter(None, (what, said))) or json.dumps(claim)


def trajectory_line(path: Path) -> str:
    """One line for one BENCH file: tag, parent and, where there is one, claim."""
    data = json.loads(path.read_text(encoding="utf-8"))
    fields = data if isinstance(data, dict) else {}
    tag = fields.get("tag") or path.stem.removeprefix("BENCH_")
    line = f"{_one_line(tag)}  parent {_one_line(fields.get('parent') or '?')}"
    claim = claim_text(fields.get("claim"))
    return f"{line}  claim {_one_line(claim)}" if claim else line


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    status = 0
    for path in sorted(ROOT.glob("BENCH_*.json")):
        try:
            print(trajectory_line(path))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            print(f"bench_trajectory.py: {path}: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
