"""Command-line front end: gen / solve / reduce / verify / bench.

Exit codes: 0 success (or full agreement for ``verify``), 1 a verification
disagreement was found, 2 usage or I/O error.  Positions printed for humans
(witness and pair indices) are 1-based, matching the file-format docs.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .bench import PROBLEMS, bench_csv, run_bench
from .formats import (
    FormatError,
    format_curve,
    format_curve_set,
    format_instance,
    format_point_set,
    format_rat,
    parse_curve_set,
    parse_instance,
    parse_point_set,
    parse_rat,
    read_text,
    write_text,
)
from .frechet import frechet_decide, frechet_sq
from .gadgets import default_gadget_config, or_gadget
from .generate import FAMILIES, GenSpec, generate
from .embed import embed_euclid, embed_frechet
from .ov import ov_decide
from .proximity import bcp_euclid, bcp_frechet
from .verify import KINDS, agreement_table, report_csv, run_verify

__all__ = ["main"]

_SOLVE_PROBLEMS = ("ov", "frechet", "bcp-euclid", "bcp-frechet")
_REDUCE_KINDS = ("euclid", "frechet", "or-gadget")


def _build_parser() -> argparse.ArgumentParser:
    # Each verb takes only the flags its handler reads: --out everywhere,
    # --seed where a PRNG is drawn from, --format on verify.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default: standard output)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    parser = argparse.ArgumentParser(
        prog="ovgeom",
        description="Exact geometric reductions from orthogonal-vectors "
        "instances, with oracle verification and scaling benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"ovgeom {__version__}")
    subs = parser.add_subparsers(dest="verb", required=True)

    gen = subs.add_parser("gen", parents=[seeded], help="generate a random instance")
    gen.add_argument("--family", choices=FAMILIES, default="uniform-random")
    gen.add_argument("--n", type=int, required=True, help="instance size")
    gen.add_argument("--d", type=int, required=True, help="vector dimension")
    gen.add_argument(
        "--alpha", default=None, help="rational in (0,1); only for family=unbalanced"
    )

    solve = subs.add_parser("solve", parents=[out], help="solve a problem file")
    solve.add_argument("problem", choices=_SOLVE_PROBLEMS)
    solve.add_argument("--in", dest="in_file", help="instance or curve-set file")
    solve.add_argument("--in-p", dest="in_p", help="first set file (bcp problems)")
    solve.add_argument("--in-q", dest="in_q", help="second set file (bcp problems)")
    solve.add_argument(
        "--tau-sq", default=None, help="squared threshold; turns frechet into a decision"
    )

    reduce_p = subs.add_parser(
        "reduce", parents=[out], help="transform an instance into geometry files"
    )
    reduce_p.add_argument("--kind", choices=_REDUCE_KINDS, required=True)
    reduce_p.add_argument("--in", dest="in_file", required=True, help="instance file")
    reduce_p.add_argument(
        "--out-prefix", required=True, help="output path prefix for the emitted files"
    )

    verify = subs.add_parser(
        "verify", parents=[seeded], help="sweep reductions against the oracle"
    )
    verify.add_argument(
        "--kinds",
        default=",".join(KINDS),
        help=f"comma-separated subset of {','.join(KINDS)} (default: all)",
    )
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--max-n", type=int, default=8, help="max side size per trial")
    verify.add_argument("--max-d", type=int, default=6, help="max dimension per trial")
    verify.add_argument("--format", choices=("text", "csv"), default="text")
    verify.add_argument(
        "--corrupt-kind",
        default=None,
        help="testing hook: flip this kind's reduced answers to prove "
        "disagreements are caught",
    )

    bench = subs.add_parser(
        "bench", parents=[seeded], help="time a problem across sizes, emit CSV"
    )
    bench.add_argument("--problem", choices=PROBLEMS, required=True)
    bench.add_argument(
        "--sizes", required=True, help="comma-separated ascending sizes, e.g. 256,512"
    )
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--d", type=int, default=8, help="dimension for the workload")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_gen(args) -> int:
    alpha = parse_rat(args.alpha) if args.alpha is not None else None
    spec = GenSpec(family=args.family, n=args.n, d=args.d, seed=args.seed, alpha=alpha)
    inst = generate(spec)
    header = (
        f"ovgeom {__version__} instance\n"
        f"family={spec.family} n={spec.n} d={spec.d} seed={spec.seed}"
        + (f" alpha={spec.alpha}" if spec.alpha is not None else "")
        + f"\nprng=mt19937 stream={args.seed}:{spec.tag}"
    )
    _emit(format_instance(inst, header=header), args.out)
    return 0


def _require(value, flag: str):
    if value is None:
        raise FormatError(f"missing required flag {flag} for this problem")
    return value


def _cmd_solve(args) -> int:
    if args.problem == "ov":
        inst = parse_instance(read_text(_require(args.in_file, "--in")))
        witness = ov_decide(inst)
        if witness is None:
            _emit("no-witness", args.out)
        else:
            _emit(f"witness {witness.index_a + 1} {witness.index_b + 1}", args.out)
        return 0

    if args.problem == "frechet":
        curves = parse_curve_set(read_text(_require(args.in_file, "--in")))
        if len(curves) != 2:
            raise FormatError(f"frechet needs a 2-curve file, got {len(curves)}")
        if args.tau_sq is not None:
            ok = frechet_decide(curves[0], curves[1], parse_rat(args.tau_sq))
            _emit("yes" if ok else "no", args.out)
        else:
            _emit(f"sq {format_rat(frechet_sq(*curves).sq_value)}", args.out)
        return 0

    in_p = read_text(_require(args.in_p, "--in-p"))
    in_q = read_text(_require(args.in_q, "--in-q"))
    if args.problem == "bcp-euclid":
        res = bcp_euclid(parse_point_set(in_p), parse_point_set(in_q))
    else:
        res = bcp_frechet(parse_curve_set(in_p), parse_curve_set(in_q))
    _emit(
        f"pair {res.index_p + 1} {res.index_q + 1} sq {format_rat(res.sq_value)}",
        args.out,
    )
    return 0


def _cmd_reduce(args) -> int:
    inst = parse_instance(read_text(args.in_file))
    prefix = args.out_prefix
    if args.kind == "euclid":
        emb = embed_euclid(inst)
        files = {
            f"{prefix}-p.txt": format_point_set(emb.points_a),
            f"{prefix}-q.txt": format_point_set(emb.points_b),
        }
        tau_sq = emb.tau_sq
    elif args.kind == "frechet":
        emb = embed_frechet(inst)
        files = {
            f"{prefix}-p.txt": format_curve_set(emb.curves_a),
            f"{prefix}-q.txt": format_curve_set(emb.curves_b),
        }
        tau_sq = emb.tau_sq
    else:
        out = or_gadget(inst, default_gadget_config())
        files = {
            f"{prefix}-pi.txt": format_curve(out.curve_a),
            f"{prefix}-sigma.txt": format_curve(out.curve_b),
        }
        tau_sq = out.tau_sq
    for path, text in files.items():
        write_text(path, text)
    lines = [f"tau_sq {format_rat(tau_sq)}"] + [f"wrote {p}" for p in files]
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    kinds = tuple(k for k in args.kinds.split(",") if k)
    reports = run_verify(
        kinds=kinds,
        trials=args.trials,
        max_n=args.max_n,
        max_d=args.max_d,
        seed=args.seed,
        corrupt_kind=args.corrupt_kind,
    )
    text = report_csv(reports) if args.format == "csv" else agreement_table(reports)
    _emit(text, args.out)
    return 0 if all(r.agree for r in reports) else 1


def _cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError as exc:
        raise FormatError(f"bad --sizes value {args.sizes!r}") from exc
    records = run_bench(
        args.problem, sizes, repeats=args.repeats, d=args.d, seed=args.seed
    )
    _emit(bench_csv(records), args.out)
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.verb](args)
    except (FormatError, ValueError, OSError) as exc:
        print(f"ovgeom: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
