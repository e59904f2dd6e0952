"""The four benchmark workloads: seeded inputs, requests and reference checks.

Inputs are generated here rather than by ``ovgeom.generate``, so a change to
the package cannot change what the benchmark feeds it.  Each instance is
drawn as bit masks (bit c of a mask is coordinate c), written out as
instance text, and only that text reaches the package.  The references every
answer is checked against are computed here from the same masks, with code
that shares nothing with the package.

Sizes and planted rows follow a fixed Kronecker sequence, the same for
every seed, so runs of any seed and nearly any length see the same spread of
sizes; the seed picks every bit.  That keeps run-to-run medians steady.

Each workload has four parts:

make(seed, k, sizes) -> Request   the k-th input of a run (untimed)
run(t, req) -> raw                one request: the public calls, each made
                                  through ``t.call`` so a traced run sees it
answer(req, raw) -> str           canonical answer text, for the digest
check(req, raw) -> [Problem]      differences from the reference
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ovgeom import (
    bcp_euclid,
    bcp_frechet,
    default_gadget_config,
    embed_euclid,
    embed_frechet,
    frechet_decide,
    frechet_sq,
    nn_build,
    nn_query,
    or_gadget,
    ov_decide,
    ov_decide_blocked,
    plan_unbalanced,
    traversal_is_valid,
    verify_reduction,
)
from ovgeom.formats import parse_curve_set, parse_instance
from ovgeom.verify import KINDS

# one irrational step per drawn quantity; rationally independent, so the
# quantities of consecutive requests cover their joint range evenly
_STEPS = tuple(math.sqrt(p) % 1 for p in (2, 3, 5, 7, 11))
_THREE = ("uniform", "planted", "no-orthogonal")


@dataclass(frozen=True)
class Request:
    k: int
    family: str
    d: int
    rows_a: tuple[int, ...]
    rows_b: tuple[int, ...]
    text: str  # instance text, the only form the package sees
    walk_text: str = ""  # curves only: a two-curve curve-set file
    walk: tuple = ()  # curves only: the two walks as integer vertex lists


@dataclass(frozen=True)
class Problem:
    """One answer that differs from its reference.

    ``known`` marks the disjunction gadget's documented false positives
    (gadget says yes, oracle says no, d >= 4, |B| >= 2).  A request whose
    only problems are known ones is not a failed request; it lowers
    ``ok_ratio`` instead, so the known defect stays measured and gated while
    any other wrong answer fails the request.
    """

    known: bool
    message: str


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    make: Callable[[int, int, dict], Request]
    run: Callable
    answer: Callable[[Request, object], str]
    check: Callable[[Request, object], list]


# --- input generation -------------------------------------------------------


def _spread(k: int, classes: int, lo: int, hi: int, salt: int = 0) -> int:
    """Value in [lo, hi] for request k, where requests cycle through
    ``classes`` families: each class walks its own low-discrepancy sequence,
    shifted by 1/classes from the others so no two classes repeat a size."""
    j, c = divmod(k, classes)
    u = (0.5 + c / classes + j * _STEPS[salt]) % 1.0
    return lo + int(u * (hi - lo + 1))


def _rows(rng: random.Random, n: int, d: int) -> list[int]:
    return [rng.getrandbits(d) for _ in range(n)]


def _draw_instance(rng: random.Random, family: str, n: int, d: int, ia: int):
    if family == "unbalanced":  # |A| = ceil(n^(1/2)), |B| = n
        return _rows(rng, math.isqrt(n - 1) + 1, d), _rows(rng, n, d)
    a, b = _rows(rng, n, d), _rows(rng, n, d)
    if family == "planted":  # row ia of A is orthogonal to a random row of B
        ib = rng.randrange(n)
        b[ib] &= ~a[ia]
    elif family == "no-orthogonal":  # a shared coordinate kills every pair
        a = [m | 1 for m in a]
        b = [m | 1 for m in b]
    return a, b


def instance_text(rows_a, rows_b, d: int) -> str:
    lines = [f"{len(rows_a)} {len(rows_b)} {d}"]
    lines += [" ".join(format(m, f"0{d}b")[::-1]) for m in list(rows_a) + list(rows_b)]
    return "\n".join(lines) + "\n"


def _request(seed, name, k, classes, family, n, d, **extra):
    rng = random.Random(f"{seed}:{name}:{k}")
    a, b = _draw_instance(rng, family, n, d, _spread(k, classes, 0, n - 1, salt=3))
    return Request(k, family, d, tuple(a), tuple(b), instance_text(a, b, d), **extra)


def _walk(rng: random.Random, length: int) -> list[tuple[int, int]]:
    x = y = 0
    out = []
    for _ in range(length):
        out.append((x, y))
        x += rng.randint(-3, 3)
        y += rng.randint(-3, 3)
    return out


def _curve_set_text(curves) -> str:
    lines = [str(len(curves))]
    for c in curves:
        lines.append(str(len(c)))
        lines += [f"{x} {y}" for x, y in c]
    return "\n".join(lines) + "\n"


# --- references (independent of the package) -------------------------------


def ov_reference(rows_a, rows_b) -> tuple[int, int] | None:
    """Lexicographically smallest orthogonal pair, by bit-sliced columns."""
    cols: dict[int, int] = {}
    for ib, m in enumerate(rows_b):
        while m:
            low = m & -m
            cols[low] = cols.get(low, 0) | (1 << ib)
            m ^= low
    full = (1 << len(rows_b)) - 1
    for ia, m in enumerate(rows_a):
        hit = 0
        while m:
            low = m & -m
            hit |= cols.get(low, 0)
            m ^= low
        free = full & ~hit
        if free:
            return ia, (free & -free).bit_length() - 1
    return None


def _witness_line(pair) -> str:
    return "no-witness" if pair is None else f"witness {pair[0] + 1} {pair[1] + 1}"


def _got_pair(w):
    return None if w is None else (w.index_a, w.index_b)


def _min_overlap_pair(rows_a, rows_b):
    """(overlap, i, j): smallest popcount(a & b), lexicographic tie-break."""
    return min(
        ((a & b).bit_count(), i, j)
        for i, a in enumerate(rows_a)
        for j, b in enumerate(rows_b)
    )


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(Problem(False, f"{what}: got {got!r}, want {want!r}"))


def _check_gadget(problems: list, req: Request, got: bool, want: bool) -> None:
    if got == want:
        return
    known = got and not want and req.d >= 4 and len(req.rows_b) >= 2
    problems.append(
        Problem(known, f"ov-to-frechet: gadget says {got}, oracle says {want}")
    )


# --- sweep: parse -> verify_reduction for every kind -------------------------

SWEEP = {"n": (1, 8), "d": (1, 6)}  # the `ovgeom verify` default domain


def _make_sweep(seed, k, sizes):
    return _request(
        seed, "sweep", k, 3, _THREE[k % 3],
        _spread(k, 3, *sizes["n"]), _spread(k, 3, *sizes["d"], salt=1),
    )


def _run_sweep(t, req):
    inst = t.call("formats.parse_instance", parse_instance, req.text)
    if t.on:
        t.note(bytes=len(req.text))
    reports = []
    for kind in KINDS:
        rep = t.call(f"verify.verify_reduction.{kind}", verify_reduction, kind, inst)
        if t.on:
            t.note(oracle_ns=rep.oracle_ns, disagree=int(not rep.agree))
        reports.append(rep)
    return reports


def _answer_sweep(req, reports):
    return " ".join(
        f"{r.kind}:{r.instance_id}:{int(r.oracle_answer)}{int(r.reduced_answer)}"
        for r in reports
    )


def _check_sweep(req, reports):
    problems: list = []
    want = ov_reference(req.rows_a, req.rows_b) is not None
    _expect(problems, "kinds", tuple(r.kind for r in reports), KINDS)
    for r in reports:
        _expect(problems, f"{r.kind} oracle", r.oracle_answer, want)
        _expect(problems, f"{r.kind} shape", (r.n_a, r.n_b, r.d),
                (len(req.rows_a), len(req.rows_b), req.d))
        _expect(problems, f"{r.kind} agree flag", r.agree,
                r.oracle_answer == r.reduced_answer)
        if r.kind == "ov-to-frechet":
            _check_gadget(problems, req, r.reduced_answer, want)
        else:
            _expect(problems, f"{r.kind} reduced", r.reduced_answer, want)
    return problems


# --- points: parse -> ov_decide -> embed_euclid -> bcp_euclid -> k-d NN ------

POINTS = {"n": (16, 48), "d": (8, 12)}
_POINT_FAMILIES = ("no-orthogonal", "planted", "uniform")


def _make_points(seed, k, sizes):
    return _request(
        seed, "points", k, 3, _POINT_FAMILIES[k % 3],
        _spread(k, 3, *sizes["n"]), _spread(k, 3, *sizes["d"], salt=1),
    )


def kdtree_shape(index) -> tuple[int, int]:
    """(leaves, largest bucket), by walking the index that nn_build returned."""
    leaves = biggest = 0
    stack = [getattr(index, "root", None)]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        bucket = getattr(node, "bucket", None)
        if bucket is not None:
            leaves += 1
            biggest = max(biggest, len(bucket))
        else:
            stack += [getattr(node, "left", None), getattr(node, "right", None)]
    return leaves, biggest


def _run_points(t, req):
    inst = t.call("formats.parse_instance", parse_instance, req.text)
    if t.on:
        t.note(bytes=len(req.text))
    w = t.call("ov.ov_decide", ov_decide, inst)
    if t.on:
        t.note(pairs=_pairs_scanned(w, inst.n_a, inst.n_b))
    emb = t.call("embed.embed_euclid", embed_euclid, inst)
    bcp = t.call("proximity.bcp_euclid", bcp_euclid, emb.points_a, emb.points_b)
    if t.on:
        t.note(pairs=inst.n_a * inst.n_b)
    index = t.call("proximity.nn_build", nn_build, emb.points_a, "euclid-kdtree")
    if t.on:
        leaves, biggest = kdtree_shape(index)
        t.note(leaves=leaves, max_bucket=biggest)
    nns = [t.call("proximity.nn_query", nn_query, index, q) for q in emb.points_b]
    return w, emb.tau_sq, bcp, nns


def _answer_points(req, raw):
    w, tau_sq, bcp, nns = raw
    nn_text = ",".join(f"{i}:{v}" for i, v in nns)
    return (
        f"{_witness_line(_got_pair(w))} tau {tau_sq} "
        f"pair {bcp.index_p + 1} {bcp.index_q + 1} sq {bcp.sq_value} nn {nn_text}"
    )


def _check_points(req, raw):
    w, tau_sq, bcp, nns = raw
    problems: list = []
    d = req.d
    oracle = ov_reference(req.rows_a, req.rows_b)
    _expect(problems, "ov_decide", _got_pair(w), oracle)
    _expect(problems, "tau_sq", tau_sq, Fraction(d))
    overlap, i, j = _min_overlap_pair(req.rows_a, req.rows_b)
    _expect(problems, "bcp", (bcp.index_p, bcp.index_q, bcp.sq_value),
            (i, j, Fraction(d + 8 * overlap)))
    _expect(problems, "bcp decision", bcp.sq_value <= tau_sq, oracle is not None)
    want_nns = []
    for b in req.rows_b:
        ov, ia = min(((a & b).bit_count(), ia) for ia, a in enumerate(req.rows_a))
        want_nns.append((ia, Fraction(d + 8 * ov)))
    _expect(problems, "nn_query", list(nns), want_nns)
    _expect(problems, "min nn = bcp", min(v for _, v in nns), bcp.sq_value)
    return problems


# --- curves: embed_frechet -> bcp_frechet, or_gadget -> decide, a walk pair --

CURVES = {"n": (8, 24), "d": (4, 12), "walk": (128, 256)}


def _make_curves(seed, k, sizes):
    rng = random.Random(f"{seed}:curves-walk:{k}")
    walk = (
        _walk(rng, _spread(k, 3, *sizes["walk"], salt=2)),
        _walk(rng, _spread(k, 3, *sizes["walk"], salt=4)),
    )
    return _request(
        seed, "curves", k, 3, _THREE[k % 3],
        _spread(k, 3, *sizes["n"]), _spread(k, 3, *sizes["d"], salt=1),
        walk_text=_curve_set_text(walk), walk=walk,
    )


def _run_curves(t, req):
    inst = t.call("formats.parse_instance", parse_instance, req.text)
    if t.on:
        t.note(bytes=len(req.text))
    w = t.call("ov.ov_decide", ov_decide, inst)
    if t.on:
        t.note(pairs=_pairs_scanned(w, inst.n_a, inst.n_b))
    emb = t.call("embed.embed_frechet", embed_frechet, inst)
    bcp = t.call("proximity.bcp_frechet", bcp_frechet, emb.curves_a, emb.curves_b)
    if t.on:
        t.note(cells=inst.n_a * inst.n_b * inst.d * inst.d)
    g = t.call("gadgets.or_gadget", or_gadget, inst, default_gadget_config())
    if t.on:
        t.note(vertices=len(g.curve_a) + len(g.curve_b))
    gadget = t.call("frechet.frechet_decide", frechet_decide, g.curve_a, g.curve_b, g.tau_sq)
    if t.on:
        t.note(cells=len(g.curve_a) * len(g.curve_b))
    p, q = t.call("formats.parse_curve_set", parse_curve_set, req.walk_text)
    walk = t.call("frechet.frechet_sq", frechet_sq, p, q)
    if t.on:
        t.note(cells=len(p) * len(q))
    return w, bcp, emb.tau_sq, gadget, (p, q), walk


def _answer_curves(req, raw):
    w, bcp, tau_sq, gadget, _, walk = raw
    steps = ";".join(f"{i},{j}" for i, j in walk.traversal)
    return (
        f"{_witness_line(_got_pair(w))} "
        f"pair {bcp.index_p + 1} {bcp.index_q + 1} sq {bcp.sq_value} tau {tau_sq} "
        f"gadget {'yes' if gadget else 'no'} walk sq {walk.sq_value} steps {steps}"
    )


def _check_curves(req, raw):
    w, bcp, tau_sq, gadget, (p, q), walk = raw
    problems: list = []
    oracle = ov_reference(req.rows_a, req.rows_b)
    _expect(problems, "ov_decide", _got_pair(w), oracle)
    # embedded pairs sit at squared Fréchet distance 1 if orthogonal, else 9
    want_pair = oracle or (0, 0)
    _expect(problems, "bcp_frechet", (bcp.index_p, bcp.index_q, bcp.sq_value),
            (*want_pair, Fraction(1 if oracle else 9)))
    _expect(problems, "tau_sq", tau_sq, Fraction(1))
    _check_gadget(problems, req, gadget, oracle is not None)

    wp, wq = req.walk
    _expect(problems, "parsed walk", (p, q),
            tuple(tuple((Fraction(x), Fraction(y)) for x, y in c) for c in req.walk))
    steps, value = walk.traversal, walk.sq_value
    if not traversal_is_valid(steps, len(wp), len(wq)):
        problems.append(Problem(False, "frechet_sq: traversal is not a monotone walk"))
    else:
        worst = max(
            (wp[i][0] - wq[j][0]) ** 2 + (wp[i][1] - wq[j][1]) ** 2 for i, j in steps
        )
        _expect(problems, "frechet_sq traversal cost", Fraction(worst), value)
    _expect(problems, "frechet_decide at the value", frechet_decide(p, q, value), True)
    # integer vertices: any better walk would be within value - 1
    _expect(problems, "frechet_decide below the value",
            value >= 1 and frechet_decide(p, q, value - 1), False)
    return problems


# --- solve-ov: the `solve ov` verb on large instances ------------------------

SOLVE_OV = {"n": (512, 2048), "d": (32, 64)}
_SOLVE_FAMILIES = ("no-orthogonal", "planted", "unbalanced")


def _make_solve_ov(seed, k, sizes):
    # six classes: three families times two dimensions
    return _request(
        seed, "solve-ov", k, 6, _SOLVE_FAMILIES[k % 3],
        _spread(k, 6, *sizes["n"]), sizes["d"][(k // 3) % 2],
    )


def _pairs_scanned(w, n_a: int, n_b: int) -> int:
    """Pairs the lexicographic scan examines: up to the witness, else all."""
    return n_a * n_b if w is None else w.index_a * n_b + w.index_b + 1


def _run_solve_ov(t, req):
    inst = t.call("formats.parse_instance", parse_instance, req.text)
    if t.on:
        t.note(bytes=len(req.text))
    w = t.call("ov.ov_decide", ov_decide, inst)
    if t.on:
        t.note(pairs=_pairs_scanned(w, inst.n_a, inst.n_b))
    if req.family != "unbalanced":
        return (w,)
    plan = plan_unbalanced(inst.n_b, Fraction(1, 2))
    return w, t.call("ov.ov_decide_blocked", ov_decide_blocked, inst, plan)


def _answer_solve_ov(req, raw):
    return " ".join(_witness_line(_got_pair(w)) for w in raw)


def _check_solve_ov(req, raw):
    problems: list = []
    oracle = ov_reference(req.rows_a, req.rows_b)
    _expect(problems, "ov_decide", _got_pair(raw[0]), oracle)
    if req.family == "unbalanced":
        _expect(problems, "ov_decide_blocked", _got_pair(raw[1]), oracle)
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", SWEEP, _make_sweep, _run_sweep, _answer_sweep, _check_sweep),
        Workload("points", POINTS, _make_points, _run_points, _answer_points, _check_points),
        Workload("curves", CURVES, _make_curves, _run_curves, _answer_curves, _check_curves),
        Workload("solve-ov", SOLVE_OV, _make_solve_ov, _run_solve_ov,
                 _answer_solve_ov, _check_solve_ov),
    )
}
