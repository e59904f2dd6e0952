#!/usr/bin/env python3
"""Run the scaling benchmarks across problems and write one CSV per problem.

Example:
    python3 scripts/scaling_experiment.py --out-dir results --seed 1
    python3 scripts/scaling_experiment.py --quick   # small sizes, fast sanity

The curve-pair benchmark doubles n three times; on a quadratic-time solver
each doubling should roughly quadruple wall_ns, which is exactly what the
emitted CSV lets you check (wall_ns column, min over repeats per size).

Beside the CSVs, ``summary.json`` holds one row per problem and size: the
min and median wall time over the repeats, in ms, and the answer and
its witness (the same for every repeat, since both depend only on the
seed; see ``ovgeom.bench.BenchRecord``).
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from ovgeom.bench import bench_csv, run_bench
from ovgeom.formats import parse_int

FULL_PLAN = {
    "ov": dict(sizes=[128, 256, 512, 1024], d=16),
    "ov-none": dict(sizes=[256, 512, 1024, 2048], d=32),
    "bcp-euclid": dict(sizes=[32, 64, 128, 256], d=8),
    "bcp-frechet": dict(sizes=[8, 16, 32], d=6),
    "frechet-pair": dict(sizes=[128, 256, 512, 1024], d=2),
    "nn-query": dict(sizes=[256, 512, 1024, 2048], d=4),
}

QUICK_PLAN = {
    "ov": dict(sizes=[32, 64], d=8),
    "ov-none": dict(sizes=[32, 64], d=8),
    "bcp-euclid": dict(sizes=[8, 16], d=4),
    "bcp-frechet": dict(sizes=[4, 8], d=4),
    "frechet-pair": dict(sizes=[32, 64], d=2),
    "nn-query": dict(sizes=[64, 128], d=4),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="bench-results", help="CSV output directory")
    ap.add_argument("--seed", type=parse_int, default=0)
    ap.add_argument("--repeats", type=parse_int, default=3)
    ap.add_argument("--quick", action="store_true", help="small sizes for a fast run")
    args = ap.parse_args()
    if args.repeats < 0:
        ap.error(f"--repeats must be >= 0, got {args.repeats}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = QUICK_PLAN if args.quick else FULL_PLAN

    rows = []
    for problem, cfg in plan.items():
        records = run_bench(
            problem, cfg["sizes"], repeats=args.repeats, d=cfg["d"], seed=args.seed
        )
        path = out_dir / f"{problem}.csv"
        path.write_text(bench_csv(records))
        for n in cfg["sizes"]:
            runs = [r for r in records if r.n == n]
            if not runs:  # --repeats 0
                continue
            walls = [r.wall_ns / 1e6 for r in runs]
            rows.append({
                "problem": problem, "n": n, "d": cfg["d"], "repeats": len(runs),
                "min_ms": round(min(walls), 3),
                "median_ms": round(statistics.median(walls), 3),
                "answer": runs[0].answer,
                "witness": list(runs[0].witness),
            })
        trend = "  ".join(
            f"n={r['n']}:{r['min_ms']:.2f}ms" for r in rows if r["problem"] == problem
        )
        print(f"{problem:<14} -> {path}   {trend}")
    summary = out_dir / "summary.json"
    summary.write_text(json.dumps({"seed": args.seed, "rows": rows}, indent=1) + "\n")
    print(f"summary        -> {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
