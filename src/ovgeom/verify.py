"""Mechanical reduction verification against the brute-force oracle.

Each reduction kind transforms an instance into a geometric problem, solves
that problem with its native solver, converts the geometric answer back to a
yes/no decision, and compares against the pair-scan oracle.  The harness
never assumes a reduction is correct; it reports what actually happened.

Kinds
-----
euclid-embed    per-pair squared-distance sweep over the point embedding.
ov-to-bcp       bichromatic closest pair on the point embedding.
frechet-embed   per-pair curve-distance decisions over the curve embedding.
ov-to-frechet   single curve-pair decision on the OR-gadget assembly.
unbalanced-nn   nearest-neighbor structure on the embedded A side, queried
                with every embedded B point.

The embeddings emit int coordinates, so euclid-embed and frechet-embed
decide on them as they are, at the embedding's own threshold tau_sq: on a
grid of scale 1 an int squared distance is within tau_sq iff it is within
floor(tau_sq).  ov-to-frechet decides on the gadget's vertex types gridded
once per (delta, d), at the gadget's threshold 1; none of the three builds
a Fraction.

One step per instance checks the caps, runs and times the oracle and hashes
the instance once for all its kinds, so ``oracle_ns`` is one measurement
repeated on each kind's report; ``verify_reduction`` is its one-kind case.
The step keeps the facts of the last instance object that passed the caps,
so ``verify_reduction`` calls on one instance object, one per kind, share
one oracle run, its ``oracle_ns`` and its ``instance_id``.  ``reduced_ns``
still times each kind's whole reduction, its embedding included.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from math import floor

from .core import OvInstance, squared_euclidean
from .embed import embed_euclid, embed_frechet
from .frechet import _grid_decide
from .formats import format_instance
from .gadgets import _assemble, _certified_tables, default_gadget_config
from .generate import GenSpec, generate
from .ov import ov_decide
from .proximity import bcp_euclid, nn_build, nn_query

__all__ = [
    "KINDS",
    "ReductionReport",
    "agreement_table",
    "run_verify",
    "verify_reduction",
]

_VERIFY_FAMILIES = ("uniform-random", "planted-orthogonal", "no-orthogonal")
_MAX_N, _MAX_D = 64, 16  # instance-size caps keeping every oracle run desk-scale


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of checking one reduction on one instance."""

    kind: str
    instance_id: str
    n_a: int
    n_b: int
    d: int
    oracle_answer: bool
    reduced_answer: bool
    oracle_ns: int
    reduced_ns: int

    @property
    def agree(self) -> bool:
        return self.oracle_answer == self.reduced_answer


def instance_id(inst: OvInstance) -> str:
    """Content hash of the canonical text serialization (12 hex chars)."""
    return hashlib.sha256(format_instance(inst).encode()).hexdigest()[:12]


def _solve_euclid_pairs(inst: OvInstance) -> bool:
    emb = embed_euclid(inst)
    limit = floor(emb.tau_sq)  # the embedding's grid has scale 1
    return any(
        squared_euclidean(p, q) <= limit for p in emb.points_a for q in emb.points_b
    )


def _solve_bcp(inst: OvInstance) -> bool:
    emb = embed_euclid(inst)
    return bcp_euclid(emb.points_a, emb.points_b).sq_value <= emb.tau_sq


def _solve_frechet_pairs(inst: OvInstance) -> bool:
    emb = embed_frechet(inst)
    limit = floor(emb.tau_sq)  # the embedding's grid has scale 1
    return any(_grid_decide(p, q, limit) for p in emb.curves_a for q in emb.curves_b)


def _solve_or_gadget(inst: OvInstance) -> bool:
    _, grid, scale = _certified_tables(default_gadget_config(), inst.d)
    # the gadget's threshold 1 is scale**2 on its grid
    return _grid_decide(*_assemble(inst, grid), scale * scale)


def _solve_unbalanced_nn(inst: OvInstance) -> bool:
    emb = embed_euclid(inst)
    index = nn_build(emb.points_a, "euclid-kdtree")
    return any(nn_query(index, q)[1] <= emb.tau_sq for q in emb.points_b)


_SOLVERS = {
    "euclid-embed": _solve_euclid_pairs,
    "ov-to-bcp": _solve_bcp,
    "frechet-embed": _solve_frechet_pairs,
    "ov-to-frechet": _solve_or_gadget,
    "unbalanced-nn": _solve_unbalanced_nn,
}
KINDS = tuple(_SOLVERS)

# The last instance that passed the caps and its facts: (instance,
# oracle_answer, oracle_ns, instance_id).  Only an exact OvInstance, a frozen
# tuple of bit tuples, is kept.  Holding it keeps its id from being reused
# while the entry lives; it is matched by identity and replaced whole, so a
# thread never sees one instance's facts on another.
_last: tuple | None = None


def _verify_instance(
    inst: OvInstance, kinds: tuple[str, ...], flip: str | None
) -> list[ReductionReport]:
    """Check each of ``kinds`` on one instance, in order, against one oracle
    run; ``flip`` names the kind whose reduced answer is inverted, if any."""
    global _last
    entry = _last  # read once: another thread may replace it
    if entry is not None and entry[0] is inst:
        _, oracle_answer, oracle_ns, iid = entry
    else:
        if inst.n_a > _MAX_N or inst.n_b > _MAX_N:
            raise ValueError(
                f"instance sides {inst.n_a}x{inst.n_b} exceed cap {_MAX_N}"
            )
        if inst.d > _MAX_D:
            raise ValueError(f"dimension {inst.d} exceeds cap {_MAX_D}")
        t0 = time.perf_counter_ns()
        oracle_answer = ov_decide(inst) is not None
        oracle_ns = time.perf_counter_ns() - t0
        iid = instance_id(inst)
        if type(inst) is OvInstance:
            _last = (inst, oracle_answer, oracle_ns, iid)
    reports = []
    for kind in kinds:
        t1 = time.perf_counter_ns()
        answer = _SOLVERS[kind](inst)
        reduced_ns = time.perf_counter_ns() - t1
        reports.append(ReductionReport(
            kind, iid, inst.n_a, inst.n_b, inst.d,
            oracle_answer, answer != (kind == flip), oracle_ns, reduced_ns,
        ))
    return reports


def verify_reduction(kind: str, inst: OvInstance, _flip: bool = False) -> ReductionReport:
    """Run one reduction and compare its decision with the pair-scan oracle.

    The one-kind case of the per-instance step.  Consecutive calls on the
    same instance object share one oracle run, its ``oracle_ns`` and its
    ``instance_id``; an equal but distinct instance runs them again, and
    ``reduced_ns`` times this kind's full reduction on every call.
    ``_flip`` inverts the reduced answer; it exists so tests can prove the
    harness actually catches disagreements.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown reduction kind {kind!r}; pick from {KINDS}")
    (report,) = _verify_instance(inst, (kind,), kind if _flip else None)
    return report


def run_verify(
    kinds=KINDS,
    trials: int = 100,
    max_n: int = 8,
    max_d: int = 6,
    seed: int = 0,
    corrupt_kind: str | None = None,
) -> list[ReductionReport]:
    """Sweep random instances through every requested kind.

    Families cycle uniform-random / planted-orthogonal / no-orthogonal so
    both answers are exercised.  ``corrupt_kind`` flips that kind's reduced
    answers (testing hook).  Deterministic in ``seed``.
    """
    kinds = tuple(kinds)
    for i, kind in enumerate(kinds):
        if kind not in KINDS:
            raise ValueError(f"unknown reduction kind {kind!r}; pick from {KINDS}")
        if kind in kinds[:i]:
            raise ValueError(f"reduction kind {kind!r} is named twice")
    if corrupt_kind is not None and corrupt_kind not in kinds:
        raise ValueError(f"corrupt kind {corrupt_kind!r} is not among the kinds run")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    for name, value, cap in ("max_n", max_n, _MAX_N), ("max_d", max_d, _MAX_D):
        if not 1 <= value <= cap:
            raise ValueError(f"{name} must be between 1 and {cap}, got {value}")
    rng = random.Random(f"{seed}:verify-sweep")
    reports: list[ReductionReport] = []
    for trial in range(trials):
        spec = GenSpec(
            family=_VERIFY_FAMILIES[trial % len(_VERIFY_FAMILIES)],
            n=rng.randint(1, max_n),
            d=rng.randint(1, max_d),
            seed=rng.randrange(2**32),
        )
        reports.extend(_verify_instance(generate(spec), kinds, corrupt_kind))
    return reports


def agreement_table(reports: list[ReductionReport]) -> str:
    """Per-kind agreement counts, one aligned row per kind (input order)."""
    order: list[str] = []
    counts: dict[str, list[int]] = {}
    for rep in reports:
        if rep.kind not in counts:
            order.append(rep.kind)
            counts[rep.kind] = [0, 0]
        counts[rep.kind][0 if rep.agree else 1] += 1
    lines = [f"{'kind':<16} {'trials':>6} {'agree':>6} {'disagree':>8}"]
    for kind in order:
        ok, bad = counts[kind]
        lines.append(f"{kind:<16} {ok + bad:>6} {ok:>6} {bad:>8}")
    return "\n".join(lines)


def report_csv(reports: list[ReductionReport]) -> str:
    """Full per-instance report as CSV (one row per report)."""
    lines = ["kind,instance_id,n_a,n_b,d,oracle,reduced,agree,oracle_ns,reduced_ns"]
    for r in reports:
        lines.append(
            f"{r.kind},{r.instance_id},{r.n_a},{r.n_b},{r.d},"
            f"{int(r.oracle_answer)},{int(r.reduced_answer)},{int(r.agree)},"
            f"{r.oracle_ns},{r.reduced_ns}"
        )
    return "\n".join(lines) + "\n"
