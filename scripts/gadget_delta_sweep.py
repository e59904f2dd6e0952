#!/usr/bin/env python3
"""Certify candidate amplitudes for the disjunction gadget.

For each delta the exact per-dimension check of ``validate_gadget_config``
runs at every dimension up to ``--max-d`` and prints the verdict: either
CERTIFIED, or FAILED at the first dimension where the vertex-type relation
breaks, with a counterexample instance the gadget decides wrongly when the
candidate list holds one.  Amplitudes up to (sqrt(3) - 1)/2 certify at every
dimension; 3/8 fails from d = 42, 1/2 from d = 4 and 2/3 at d = 1.

Example:
    python3 scripts/gadget_delta_sweep.py --deltas 1/4,1/8,1/16,2/3
    python3 scripts/gadget_delta_sweep.py --deltas 1/3,3/8 --max-d 64
"""

from __future__ import annotations

import argparse

from ovgeom.formats import FormatError, format_instance, parse_int, parse_rat
from ovgeom.gadgets import GadgetConfig, validate_gadget_config


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--deltas", default="1/4,1/8,1/16,2/3", help="comma-separated rationals"
    )
    ap.add_argument("--max-d", type=parse_int, default=64)
    args = ap.parse_args()
    if args.max_d < 1:
        ap.error(f"--max-d must be >= 1, got {args.max_d}")
    try:
        deltas = [(tok, parse_rat(tok)) for tok in args.deltas.split(",")]
    except FormatError as exc:
        ap.error(f"--deltas: {exc}")

    any_bad = False
    for tok, delta in deltas:
        try:
            cfg = GadgetConfig(delta)
        except ValueError as exc:
            print(f"delta={tok:<8} REJECTED  {exc}")
            any_bad = True
            continue
        result = validate_gadget_config(cfg, max_d=args.max_d)
        if result.ok:
            print(f"delta={tok:<8} CERTIFIED  (d <= {args.max_d})")
            continue
        any_bad = True
        inst = result.counterexample
        if inst is None:
            print(f"delta={tok:<8} FAILED     at a d <= {args.max_d}, no counterexample")
            continue
        print(f"delta={tok:<8} FAILED     at d={inst.d}; counterexample:")
        for line in format_instance(inst).splitlines():
            print(f"    {line}")
    return 1 if any_bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
