"""Command-line front end: gen / solve / reduce / verify / bench.

Each ``solve`` problem takes only the flags it reads, after its name.
``reduce`` writes what ``solve`` reads as is: ``{prefix}-p.txt`` and
``{prefix}-q.txt`` for the bcp problems, or one 2-curve set
``{prefix}-pair.txt`` for ``frechet``; it prints the ``tau_sq`` that
answers the instance.  Integer and rational flags take the token grammars
of ``ovgeom.formats``.

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
    format_curve_set,
    format_instance,
    format_point_set,
    format_rat,
    parse_curve_set,
    parse_instance,
    parse_int,
    parse_point_set,
    parse_rat,
    read_text,
    write_text,
)
from .frechet import frechet_decide, frechet_sq_value
from .gadgets import default_gadget_config, or_gadget
from .generate import FAMILIES, GenSpec, generate
from .embed import embed_euclid, embed_frechet
from .ov import ov_decide
from .proximity import bcp_euclid, bcp_frechet
from .verify import KINDS, agreement_table, report_csv, run_verify

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    # Each verb takes only the flags its handler reads: --out everywhere,
    # --seed where a PRNG is drawn from, --format on verify.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default: standard output)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument(
        "--seed", type=parse_int, default=0, help="PRNG seed (default 0)"
    )
    parser = argparse.ArgumentParser(
        prog="ovgeom",
        description="Exact geometric reductions from orthogonal-vectors "
        "instances, with oracle verification and scaling benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"ovgeom {__version__}")
    subs = parser.add_subparsers(dest="verb", required=True)

    gen = subs.add_parser("gen", parents=[seeded], help="generate a random instance")
    gen.add_argument("--family", choices=FAMILIES, default="uniform-random")
    gen.add_argument("--n", type=parse_int, required=True, help="instance size")
    gen.add_argument("--d", type=parse_int, required=True, help="vector dimension")
    gen.add_argument(
        "--alpha", default=None, help="rational in (0,1); only for family=unbalanced"
    )

    # Each problem takes only the files it reads.  Abbreviations are off
    # there, since --in is a prefix of --in-p and --in-q.
    problems = subs.add_parser("solve", help="solve a problem file").add_subparsers(
        dest="problem", required=True
    )

    def problem(name: str, about: str) -> argparse.ArgumentParser:
        return problems.add_parser(name, parents=[out], help=about, allow_abbrev=False)

    problem("ov", "orthogonal pair of an instance").add_argument(
        "--in", dest="in_file", required=True, help="instance file"
    )
    frechet = problem("frechet", "discrete Frechet distance of a curve pair")
    frechet.add_argument("--in", dest="in_file", required=True, help="2-curve set file")
    frechet.add_argument(
        "--tau-sq", default=None, help="squared threshold; asks for a yes/no decision"
    )
    for name, kind in (("bcp-euclid", "point-set"), ("bcp-frechet", "curve-set")):
        bcp = problem(name, f"closest pair across two {kind} files")
        bcp.add_argument("--in-p", required=True, help=f"first {kind} file")
        bcp.add_argument("--in-q", required=True, help=f"second {kind} file")

    reduce_p = subs.add_parser(
        "reduce", parents=[out], help="transform an instance into geometry files"
    )
    reduce_p.add_argument(
        "--kind", choices=("euclid", "frechet", "or-gadget"), required=True
    )
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
    verify.add_argument("--trials", type=parse_int, default=100)
    verify.add_argument(
        "--max-n", type=parse_int, default=8, help="max side size per trial"
    )
    verify.add_argument(
        "--max-d", type=parse_int, default=6, help="max dimension per trial"
    )
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
    bench.add_argument("--repeats", type=parse_int, default=3)
    bench.add_argument(
        "--d", type=parse_int, default=8, help="dimension for the workload"
    )

    return parser


def _emit(text: str, out: str | None) -> None:
    # a file answer and a piped answer are the same bytes: one final newline
    if not text.endswith("\n"):
        text += "\n"
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


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


def _cmd_solve(args) -> int:
    if args.problem == "ov":
        inst = parse_instance(read_text(args.in_file))
        witness = ov_decide(inst)
        if witness is None:
            _emit("no-witness", args.out)
        else:
            _emit(f"witness {witness.index_a + 1} {witness.index_b + 1}", args.out)
        return 0

    if args.problem == "frechet":
        curves = parse_curve_set(read_text(args.in_file))
        if len(curves) != 2:
            raise FormatError(f"frechet needs a 2-curve file, got {len(curves)}")
        if args.tau_sq is not None:
            ok = frechet_decide(curves[0], curves[1], parse_rat(args.tau_sq))
            _emit("yes" if ok else "no", args.out)
        else:
            _emit(f"sq {format_rat(frechet_sq_value(*curves))}", args.out)
        return 0

    in_p, in_q = read_text(args.in_p), read_text(args.in_q)
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
    if args.kind == "euclid":
        out = embed_euclid(inst)
        texts = dict(p=format_point_set(out.points_a), q=format_point_set(out.points_b))
    elif args.kind == "frechet":
        out = embed_frechet(inst)
        texts = dict(p=format_curve_set(out.curves_a), q=format_curve_set(out.curves_b))
    else:
        out = or_gadget(inst, default_gadget_config())
        texts = dict(pair=format_curve_set((out.curve_a, out.curve_b)))
    lines = [f"tau_sq {format_rat(out.tau_sq)}"]
    for suffix, text in texts.items():
        path = f"{args.out_prefix}-{suffix}.txt"
        write_text(path, text)
        lines.append(f"wrote {path}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    kinds = tuple(k for k in args.kinds.split(",") if k)
    if not kinds:
        raise FormatError("--kinds names no reduction kind")
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
        sizes = [parse_int(tok) for tok in args.sizes.split(",") if tok]
    except FormatError as exc:
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
