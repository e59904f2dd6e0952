"""Wall-clock scaling benchmarks with CSV output.

Workloads are rebuilt deterministically from (seed, problem, n, d) and the
build is never timed; only the solve call inside each repeat is.  Answers go
into the CSV so a rerun with the same seed can be diffed for value equality
(wall times will of course differ).  Each record also carries the witness
behind its answer (indices and tie-breaks), which the CSV leaves out.

CSV schema: ``problem,n,d,seed,repeat,wall_ns,answer``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .core import Curve2, curve, point
from .embed import embed_euclid, embed_frechet
from .formats import format_rat
from .frechet import frechet_sq_value
from .generate import GenSpec, generate
from .ov import ov_decide
from .proximity import bcp_euclid, bcp_frechet, nn_build, nn_query

__all__ = ["PROBLEMS", "BenchRecord", "bench_csv", "run_bench"]

PROBLEMS = ("ov", "ov-none", "bcp-euclid", "bcp-frechet", "frechet-pair", "nn-query")

CSV_HEADER = "problem,n,d,seed,repeat,wall_ns,answer"

_QUERY_BATCH = 64  # queries timed per nn-query repeat


@dataclass(frozen=True)
class BenchRecord:
    """One timed run; ``answer`` is seed-reproducible, ``wall_ns`` is not.

    ``witness`` is as reproducible as ``answer``: the 0-based
    (index_p, index_q) of a closest pair, the (a, b) indices of the
    smallest orthogonal pair (empty when there is none), the nearest
    position of each nn-query query in order, and empty for frechet-pair,
    whose solve computes only the value.
    """

    problem: str
    n: int
    d: int
    seed: int
    repeat: int
    wall_ns: int
    answer: str
    witness: tuple[int, ...]


def _walk_curve(rng: random.Random, n: int) -> Curve2:
    x, y = 0, 0
    verts = []
    for _ in range(n):
        verts.append((x, y))
        x += rng.randint(-3, 3)
        y += rng.randint(-3, 3)
    return curve(verts)


def _int_points(rng: random.Random, n: int, d: int):
    return [point([rng.randrange(1024) for _ in range(d)]) for _ in range(n)]


def _bcp_answer(res) -> tuple[str, tuple[int, int]]:
    return format_rat(res.sq_value), (res.index_p, res.index_q)


def _workload(problem: str, n: int, d: int, seed: int):
    """Build the (untimed) inputs; return a zero-argument solve closure.

    The closure returns (answer, witness) as ``BenchRecord`` holds them.
    """
    rng = random.Random(f"{seed}:bench:{problem}:n={n}:d={d}")

    if problem in ("ov", "ov-none"):
        # uniform bits usually give an early witness; "ov-none" has no
        # witness, so the solve is a full scan
        family = "uniform-random" if problem == "ov" else "no-orthogonal"
        inst = generate(GenSpec(family, n, d, seed=rng.randrange(2**32)))

        def solve_ov():
            w = ov_decide(inst)
            return ("0", ()) if w is None else ("1", (w.index_a, w.index_b))

        return solve_ov

    if problem == "bcp-euclid":
        inst = generate(GenSpec("uniform-random", n, d, seed=rng.randrange(2**32)))
        emb = embed_euclid(inst)
        return lambda: _bcp_answer(bcp_euclid(emb.points_a, emb.points_b))

    if problem == "bcp-frechet":
        inst = generate(GenSpec("uniform-random", n, d, seed=rng.randrange(2**32)))
        emb = embed_frechet(inst)
        return lambda: _bcp_answer(bcp_frechet(emb.curves_a, emb.curves_b))

    if problem == "frechet-pair":
        p = _walk_curve(rng, n)
        q = _walk_curve(rng, n)
        return lambda: (format_rat(frechet_sq_value(p, q)), ())

    assert problem == "nn-query"
    index = nn_build(_int_points(rng, n, d), "euclid-kdtree")
    queries = _int_points(rng, _QUERY_BATCH, d)

    def solve_nn():
        found = [nn_query(index, q) for q in queries]
        return format_rat(min(v for _, v in found)), tuple(i for i, _ in found)

    return solve_nn


def run_bench(
    problem: str,
    sizes,
    repeats: int = 3,
    d: int = 8,
    seed: int = 0,
) -> list[BenchRecord]:
    """Time ``problem`` at each size, ``repeats`` times each, sequentially.

    ``sizes`` must be ascending so the cheap runs come first and a watched
    run fails fast.  ``repeats=0`` produces no records (header-only CSV).
    The curve-pair problem is planar; its records carry d=2 regardless of
    the ``d`` argument.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; pick from {PROBLEMS}")
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"sizes must be positive, got {sizes}")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly ascending, got {sizes}")
    if repeats < 0:
        raise ValueError(f"repeats must be >= 0, got {repeats}")
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")

    rec_d = 2 if problem == "frechet-pair" else d
    records = []
    for n in sizes:
        if repeats == 0:
            continue
        solve = _workload(problem, n, d, seed)
        for rep in range(repeats):
            t0 = time.perf_counter_ns()
            answer, witness = solve()
            wall_ns = time.perf_counter_ns() - t0
            records.append(
                BenchRecord(
                    problem=problem,
                    n=n,
                    d=rec_d,
                    seed=seed,
                    repeat=rep,
                    wall_ns=wall_ns,
                    answer=answer,
                    witness=witness,
                )
            )
    return records


def bench_csv(records: list[BenchRecord]) -> str:
    """Render records under the fixed header (header-only when empty)."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.problem},{r.n},{r.d},{r.seed},{r.repeat},{r.wall_ns},{r.answer}"
        )
    return "\n".join(lines) + "\n"
