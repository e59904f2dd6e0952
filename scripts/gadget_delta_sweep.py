#!/usr/bin/env python3
"""Certify candidate amplitudes for the disjunction gadget.

For each delta the certification sweep compares the gadget's curve-pair
decision against the pair-scan oracle (exhaustive tiny instances plus
seeded random ones) and prints the verdict with a counterexample when one
exists.

The default domain stops at dimension 3, as the package's own start-up
certification does.  The grid gadget is sound at every dimension, so
pushing ``--max-d`` to 4 or beyond (give it a few hundred trials: uniform
sampling rarely draws the witness-free instances where a false positive
could show) certifies the small amplitudes there too.  Too wide an
amplitude fails: 2/3 leaves a one-dimensional b-vertex with a 1 bit out of
reach of the s/t waiting points and decides a false no.

Example:
    python3 scripts/gadget_delta_sweep.py --deltas 1/4,1/8,1/16,2/3
    python3 scripts/gadget_delta_sweep.py --deltas 1/4,1/3 --max-d 6 --trials 400
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
    ap.add_argument(
        "--trials", type=parse_int, default=128, help="random instances per delta"
    )
    ap.add_argument("--max-n", type=parse_int, default=6)
    ap.add_argument("--max-d", type=parse_int, default=3)
    ap.add_argument("--seed", type=parse_int, default=0)
    args = ap.parse_args()
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
        result = validate_gadget_config(
            cfg,
            trials=args.trials,
            max_n=args.max_n,
            max_d=args.max_d,
            seed=args.seed,
        )
        if result.ok:
            print(f"delta={tok:<8} CERTIFIED  (max_n={args.max_n}, max_d={args.max_d})")
        else:
            any_bad = True
            print(f"delta={tok:<8} FAILED     first disagreeing instance:")
            for line in format_instance(result.counterexample).splitlines():
                print(f"    {line}")
    return 1 if any_bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
