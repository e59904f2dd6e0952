"""Curve gadgets: one curve pair whose threshold decision answers an
entire orthogonal-pair instance.

Vector gadgets
--------------
A vector z of dimension d becomes a d-vertex curve on a centred x-grid
with step 2*delta_d, where delta_d = delta / d:

    a side:  ( (2i - (d-1)) * delta_d,  1/2 - (-1)^(z_i) * delta_d^2 )
    b side:  ( (2i - (d-1)) * delta_d, -1/2 + (-1)^(z_i) * delta_d^2 )

for i = 0..d-1, so the d vertices are the centres of d equal cells
splitting [-delta, delta].  Two gadget vertices of the same index differ
in y by 1 + 2*delta_d^2 when both bits are 1 and by at most 1 otherwise,
while vertices of different index are strictly further than 1 apart
(squared distance at least 4*delta_d^2 + (1 - 2*delta_d^2)^2 =
1 + 4*delta_d^4).  A threshold-1 traversal of two aligned gadgets is
therefore forced to move diagonally and succeeds iff the two vectors are
orthogonal.

Disjunction gadget
------------------
``or_gadget`` strings the gadgets of A onto one curve as repeated
(s, gadget, t) patterns and the gadgets of B onto a single tour
(s, s_sync, gadgets..., t_sync, t), with

    s = (-1/2, 0)   t = (1/2, 0)   s_sync = (-1/2, -1)   t_sync = (1/2, -1).

s and t are within distance 1 of every gadget vertex (for a certified
amplitude, below) and act as waiting spots; the sync points are within 1
of s-points respectively t-points *only*, which forces any threshold-1
traversal to line some a-gadget up against gadget vertices of the tour.
The curve pair then satisfies the contract: squared discrete Fréchet
distance <= 1 iff the instance has an orthogonal pair.

Soundness
---------
An a-vertex and a b-vertex of different index are more than 1 apart, for
every valid delta.  The sync points pin an S/T point of curve A: s_sync
is matched to some s-point and t_sync to some later t-point, so every
vertex of the a-gadget that follows the pinned s-point is matched to
gadget vertices of the tour.  Its first vertex meets vertex 0 of some
b-gadget, and from there any step that is not diagonal would pair
different indices, so the a-gadget walks that one b-gadget index by index
(for d = 1 the first match is the whole walk): a yes answer exhibits an
orthogonal pair.  Completeness needs s and t within 1 of every gadget
vertex: either curve waits there while the other passes unused gadgets.

Certification, not trust
------------------------
The argument uses only which vertex types are within 1 of each other:
a(i, x) of b(j, y) iff i = j and not x = y = 1, plus the facts about s,
t and the sync points above.  ``or_gadget`` checks this relation exactly
on the integer grid, once per (delta, d), on the cached table of vertex
types that also fills every gadget curve.  The binding pairs are
a(d-1, 1) and b(d-1, 1) against s, so (delta, d) is certified iff
(1/2 + delta - delta/d)^2 + (1/2 + delta^2/d^2)^2 <= 1.  The left side
never exceeds (1/2 + delta)^2 + 1/4, so delta <= (sqrt(3) - 1)/2 ~ 0.366
certifies every d; 3/8 fails from d = 42, 1/2 from d = 4, and 2/3 at
d = 1, where A = {1}, B = {0, 1} decides a false no.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

from .core import BitVector, Curve2, OvInstance, Rat, SqDist
from .core import as_integer_grid, bit_vector, squared_euclidean
from .frechet import frechet_decide
from .ov import ov_decide

__all__ = [
    "GadgetConfig",
    "GadgetValidation",
    "OrGadget",
    "vector_gadget",
    "or_gadget",
    "validate_gadget_config",
    "default_gadget_config",
]

S_POINT = (Rat(-1, 2), Rat(0))
T_POINT = (Rat(1, 2), Rat(0))
S_SYNC = (Rat(-1, 2), Rat(-1))
T_SYNC = (Rat(1, 2), Rat(-1))


@dataclass(frozen=True)
class GadgetConfig:
    """Gadget half-width: a d-vector gadget spans [-delta, delta] in d
    cells of width 2*delta/d, one vertex at the centre of each.

    ``delta`` must satisfy 0 < delta and delta^2 < delta (so delta < 1);
    ``or_gadget`` decides per dimension whether the amplitude is certified.
    """

    delta: Rat

    def __post_init__(self):
        delta = Rat(self.delta)
        object.__setattr__(self, "delta", delta)
        if not (delta > 0 and delta * delta < delta):
            raise ValueError(
                f"delta must satisfy 0 < delta and delta^2 < delta, got {delta}"
            )


@dataclass(frozen=True)
class GadgetValidation:
    """Outcome of a certification check."""

    ok: bool
    config: GadgetConfig
    counterexample: OvInstance | None


@dataclass(frozen=True)
class OrGadget:
    """One curve pair; threshold decision at tau_sq answers the instance."""

    curve_a: Curve2
    curve_b: Curve2
    tau_sq: SqDist


def vector_gadget(z: BitVector, side: str, cfg: GadgetConfig) -> Curve2:
    """Grid curve for one vector; ``side`` selects the upper ('a') or
    lower ('b') baseline."""
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    if not z:
        raise ValueError("vector gadget needs a non-empty vector")
    z = bit_vector(z)  # an entry other than 0/1 would index another vertex type
    return tuple(_gadget(_tables(cfg.delta, len(z))[0], 4 if side == "a" else 6, z))


def _required_relation(d: int):
    """Yield (type on curve A, type on curve B, must they be within 1?).
    Different indices are paired as neighbours only, which is exact: the
    x-gap grows with |i - j| and the y-gap depends only on the bits."""
    yield from (("s", "s_sync", True), ("t", "s_sync", False),
                ("t", "t_sync", True), ("s", "t_sync", False))
    for i in range(d):
        for x in (0, 1):
            a = f"a({i},{x})"
            for far in ("s_sync", "t_sync"):
                yield a, far, False
            for end in ("s", "t"):
                yield a, end, True
                yield end, f"b({i},{x})", True
            for j in range(max(i - 1, 0), min(i + 2, d)):
                for y in (0, 1):
                    yield a, f"b({j},{y})", j == i and not (x and y)


@lru_cache(maxsize=256)
def _tables(delta: Rat, d: int) -> tuple[tuple, tuple, int]:
    """The (delta, d) gadget pair's vertex types as rationals, the same on
    one integer grid, and the grid scale.  Entries 0-3 are s, t, s_sync,
    t_sync; entry 4 + 4i + 2side + x is index i, bit x, of side a (0) or b (1)."""
    step = delta / d
    bump, half = step * step, Rat(1, 2)
    ys = (half - bump, half + bump, bump - half, -half - bump)
    cells = [(step * (2 * i - (d - 1)), y) for i in range(d) for y in ys]
    rat = (S_POINT, T_POINT, S_SYNC, T_SYNC, *cells)
    [grid], scale = as_integer_grid([rat])
    return rat, tuple(grid), scale


def _gadget(table: tuple, first: int, z: BitVector) -> list:
    """z's vector gadget from a vertex-type table (side a from entry 4, b from 6)."""
    return [table[first + 4 * i + bit] for i, bit in enumerate(z)]


@lru_cache(maxsize=256)
def _violation(delta: Rat, d: int) -> str | None:
    """The first vertex-type pair that breaks the relation the module
    docstring's argument needs at (delta, d), or None."""
    _, grid, scale = _tables(delta, d)
    names = ["s", "t", "s_sync", "t_sync"]
    names += [f"{side}({i},{x})" for i in range(d) for side in "ab" for x in (0, 1)]
    vertex = dict(zip(names, grid))
    for p, q, near in _required_relation(d):
        if (squared_euclidean(vertex[p], vertex[q]) <= scale * scale) != near:
            return f"{p} and {q} are {'more than 1 apart' if near else 'within 1'}"
    return None


def _assemble(inst: OvInstance, table) -> tuple[list, list]:
    """The disjunction curve pair of ``inst``, filled from a vertex-type table."""
    s, t, s_sync, t_sync = table[:4]
    curve_a: list = []
    for a in inst.a_side:
        curve_a += (s, *_gadget(table, 4, a), t)
    curve_b: list = [s, s_sync]
    for b in inst.b_side:
        curve_b += _gadget(table, 6, b)
    curve_b += (t_sync, t)
    return curve_a, curve_b


def _certified_tables(cfg: GadgetConfig, d: int) -> tuple[tuple, tuple, int]:
    violation = _violation(cfg.delta, d)
    if violation is not None:
        raise ValueError(
            f"gadget delta={cfg.delta} is not certified at d={d}: {violation}"
        )
    return _tables(cfg.delta, d)


def or_gadget(inst: OvInstance, cfg: GadgetConfig) -> OrGadget:
    """Build the disjunction curve pair, if (delta, d) is certified.

    Output sizes are exactly |A|*(d+2) and |B|*d + 4.  Raises
    ``ValueError`` naming the broken vertex-type pair when the instance's
    dimension is outside the amplitude's certified range.
    """
    curve_a, curve_b = _assemble(inst, _certified_tables(cfg, inst.d)[0])
    return OrGadget(tuple(curve_a), tuple(curve_b), Rat(1))


def _decides_correctly(inst: OvInstance, cfg: GadgetConfig) -> bool:
    curve_a, curve_b = _assemble(inst, _tables(cfg.delta, inst.d)[0])
    return frechet_decide(curve_a, curve_b, 1) == (ov_decide(inst) is not None)


def validate_gadget_config(cfg: GadgetConfig, max_d: int = 64) -> GadgetValidation:
    """Run ``or_gadget``'s exact check at every dimension d = 1..max_d.

    At the first failing d the counterexample is A = {1^d} against
    B = {0^d, 1^d} or B = {1^d, 0^d}, whichever the gadget decides wrongly
    against the pair-scan oracle, else None: no instances are enumerated.
    A ``max_d`` below 1 is a ValueError: it would certify nothing.
    """
    if max_d < 1:
        raise ValueError(f"max_d must be >= 1, got {max_d}")
    for d in range(1, max_d + 1):
        if _violation(cfg.delta, d) is not None:
            ones, zeros = (1,) * d, (0,) * d
            for b_side in ((zeros, ones), (ones, zeros)):
                inst = OvInstance._from_checked((ones,), b_side, d)
                if not _decides_correctly(inst, cfg):
                    return GadgetValidation(False, cfg, inst)
            return GadgetValidation(False, cfg, None)
    return GadgetValidation(True, cfg, None)


@cache
def default_gadget_config() -> GadgetConfig:
    """The delta = 1/4 configuration, certified at every dimension."""
    return GadgetConfig(Rat(1, 4))
