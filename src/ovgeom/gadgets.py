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

s and t are within distance 1 of every gadget vertex and act as waiting
spots; the sync points are within 1 of s-points respectively t-points
*only*, which forces any threshold-1 traversal to line some a-gadget up
against gadget vertices of the tour.  The curve pair then satisfies the
contract: squared discrete Fréchet distance <= 1 iff the instance has an
orthogonal pair.

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
vertex, which holds for small amplitudes such as the default delta = 1/4.

Certification, not trust
------------------------
The contract is also checked mechanically: a configuration must be swept
against the pair-scan oracle (``validate_gadget_config``) before
``or_gadget`` will emit anything, and a failed sweep names a
counterexample instance.  Too wide an amplitude is caught this way: at
delta = 2/3 a one-dimensional b-vertex carrying a 1 bit is out of reach
of s and t, so the instance A = {1}, B = {0, 1} decides a false no.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import product
from random import Random

from .core import BitVector, Curve2, OvInstance, Rat, SqDist
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
    """Gadget half-width plus a certification flag, which only
    ``validate_gadget_config`` sets.

    A d-vector gadget spans the x-interval [-delta, delta] in d cells of
    width 2*delta/d, one vertex at the centre of each.

    ``delta`` must satisfy 0 < delta and delta^2 < delta (so delta < 1);
    everything finer-grained than that is left to certification sweeps.
    """

    delta: Rat
    validated: bool = field(default=False, init=False)

    def __post_init__(self):
        delta = Rat(self.delta)
        object.__setattr__(self, "delta", delta)
        if not (delta > 0 and delta * delta < delta):
            raise ValueError(
                f"delta must satisfy 0 < delta and delta^2 < delta, got {delta}"
            )


@dataclass(frozen=True)
class GadgetValidation:
    """Outcome of a certification sweep."""

    ok: bool
    config: GadgetConfig
    counterexample: OvInstance | None


@dataclass(frozen=True)
class OrGadget:
    """One curve pair; threshold decision at tau_sq answers the instance."""

    curve_a: Curve2
    curve_b: Curve2
    tau_sq: SqDist


@lru_cache(maxsize=128)
def _layout(delta: Rat, d: int, side: str) -> tuple[tuple, tuple]:
    """x-grid of a d-vector gadget and the side's y for bit 0 and bit 1,
    built once per (delta, d, side)."""
    step = delta / d
    bump = step * step
    half = Rat(1, 2)
    xs = tuple(step * (2 * i - (d - 1)) for i in range(d))
    if side == "a":
        return xs, (half - bump, half + bump)
    return xs, (bump - half, -half - bump)


def vector_gadget(z: BitVector, side: str, cfg: GadgetConfig) -> Curve2:
    """Grid curve for one vector; ``side`` selects the upper ('a') or
    lower ('b') baseline."""
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    if not z:
        raise ValueError("vector gadget needs a non-empty vector")
    xs, ys = _layout(cfg.delta, len(z), side)
    return tuple(zip(xs, [ys[bit] for bit in z]))


def _assemble(inst: OvInstance, cfg: GadgetConfig) -> OrGadget:
    curve_a: list = []
    for a in inst.a_side:
        curve_a.append(S_POINT)
        curve_a.extend(vector_gadget(a, "a", cfg))
        curve_a.append(T_POINT)
    curve_b: list = [S_POINT, S_SYNC]
    for b in inst.b_side:
        curve_b.extend(vector_gadget(b, "b", cfg))
    curve_b.extend((T_SYNC, T_POINT))
    return OrGadget(tuple(curve_a), tuple(curve_b), Rat(1))


def or_gadget(inst: OvInstance, cfg: GadgetConfig) -> OrGadget:
    """Build the disjunction curve pair for a certified configuration.

    Output sizes are exactly |A|*(d+2) and |B|*d + 4.
    """
    if not cfg.validated:
        raise ValueError(
            "gadget config is not certified; run validate_gadget_config "
            "and use the config it returns"
        )
    return _assemble(inst, cfg)


def _decides_correctly(inst: OvInstance, cfg: GadgetConfig) -> bool:
    g = _assemble(inst, cfg)
    stitched = frechet_decide(g.curve_a, g.curve_b, g.tau_sq)
    return stitched == (ov_decide(inst) is not None)


def _exhaustive_instances(max_n: int, max_d: int):
    for d in range(1, max_d + 1):
        vecs = [tuple((v >> k) & 1 for k in range(d)) for v in range(2 ** d)]
        for n_a in range(1, max_n + 1):
            for n_b in range(1, max_n + 1):
                for fam_a in product(vecs, repeat=n_a):
                    for fam_b in product(vecs, repeat=n_b):
                        yield OvInstance._from_checked(fam_a, fam_b, d)


def _random_instance(rng: Random, max_n: int, max_d: int) -> OvInstance:
    d = rng.randint(1, max_d)
    n_a = rng.randint(1, max_n)
    n_b = rng.randint(1, max_n)
    draw = lambda: tuple(rng.randint(0, 1) for _ in range(d))
    return OvInstance._from_checked(
        tuple(draw() for _ in range(n_a)),
        tuple(draw() for _ in range(n_b)),
        d,
    )


def validate_gadget_config(
    cfg: GadgetConfig,
    trials: int = 128,
    max_n: int = 6,
    max_d: int = 3,
    seed: int = 0,
) -> GadgetValidation:
    """Certify a configuration against the pair-scan oracle.

    Sweeps every instance with at most 2 vectors per side in dimension
    <= 2, then ``trials`` random instances up to (max_n, max_d).  Returns
    a certified copy of the config on success, or the first disagreeing
    instance on failure.  The construction is sound at every dimension
    (see the module docstring); the default randomized domain stops at
    dimension 3 only because ``default_gadget_config`` runs this sweep at
    start-up, and wider instances cost more to decide.  The test suite
    certifies the default amplitude up to dimension 6.
    """
    for inst in _exhaustive_instances(2, 2):
        if not _decides_correctly(inst, cfg):
            return GadgetValidation(False, cfg, inst)
    rng = Random(f"gadget-validation:{seed}")
    for _ in range(trials):
        inst = _random_instance(rng, max_n, max_d)
        if not _decides_correctly(inst, cfg):
            return GadgetValidation(False, cfg, inst)
    certified = GadgetConfig(cfg.delta)
    object.__setattr__(certified, "validated", True)
    return GadgetValidation(True, certified, None)


@cache
def default_gadget_config() -> GadgetConfig:
    """Certified delta=1/4 configuration (certification runs once, cached)."""
    result = validate_gadget_config(GadgetConfig(Rat(1, 4)))
    if not result.ok:  # pragma: no cover - delta=1/4 is certified by tests
        raise RuntimeError("default delta=1/4 failed certification")
    return result.config
