"""Seeded random instance families for benchmarks and verification sweeps.

Every family is driven by ``random.Random(f"{seed}:{tag}")`` so that a
(seed, family, n, d) tuple pins the instance bytes exactly, independent of
process state or call order.

Families
--------
uniform-random       independent fair bits on both sides.
planted-orthogonal   uniform bits, then one uniformly chosen pair (ia, ib)
                     is made orthogonal by zeroing the conflicting bits of
                     the B-side vector; guarantees at least one witness.
no-orthogonal        coordinate 1 is forced to 1 on both sides, the rest
                     uniform, so every inner product is >= 1; a full count
                     is asserted to guarantee zero witnesses.
unbalanced           |A| = ceil(n^alpha) and |B| = n with uniform bits,
                     for lopsided-size experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import OvInstance, Rat, _rat, ov_instance
from .ov import OvWitness, nth_root_ceil, ov_count

__all__ = ["FAMILIES", "GenSpec", "generate", "planted_witness"]

FAMILIES = (
    "uniform-random",
    "planted-orthogonal",
    "no-orthogonal",
    "unbalanced",
)


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one random instance."""

    family: str
    n: int
    d: int
    seed: int = 0
    alpha: Rat | None = None  # only for family="unbalanced"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick from {FAMILIES}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.family == "unbalanced":
            alpha = self.alpha if self.alpha is not None else Rat(1, 2)
            alpha = _rat(alpha)
            if not 0 < alpha < 1:
                raise ValueError(f"alpha must be in (0, 1), got {alpha}")
            object.__setattr__(self, "alpha", alpha)
        elif self.alpha is not None:
            raise ValueError(f"alpha only applies to 'unbalanced', not {self.family!r}")

    @property
    def tag(self) -> str:
        extra = f":a={self.alpha}" if self.family == "unbalanced" else ""
        return f"{self.family}:n={self.n}:d={self.d}{extra}"


def _random_bits(rng: random.Random, n: int, d: int) -> list[list[int]]:
    return [[rng.randrange(2) for _ in range(d)] for _ in range(n)]


def _planted_draw(rng: random.Random, n: int, d: int):
    """The planted family's draw: (a_rows, b_rows, ia, ib), before the plant."""
    a_rows = _random_bits(rng, n, d)
    b_rows = _random_bits(rng, n, d)
    return a_rows, b_rows, rng.randrange(n), rng.randrange(n)


def generate(spec: GenSpec) -> OvInstance:
    """Materialize the instance a spec describes (deterministic in the spec)."""
    rng = random.Random(f"{spec.seed}:{spec.tag}")
    n, d = spec.n, spec.d

    if spec.family == "uniform-random":
        return ov_instance(_random_bits(rng, n, d), _random_bits(rng, n, d))

    if spec.family == "planted-orthogonal":
        a_rows, b_rows, ia, ib = _planted_draw(rng, n, d)
        b_rows[ib] = [0 if a_bit else b_bit for a_bit, b_bit in zip(a_rows[ia], b_rows[ib])]
        return ov_instance(a_rows, b_rows)

    if spec.family == "no-orthogonal":
        a_rows = [[1] + [rng.randrange(2) for _ in range(d - 1)] for _ in range(n)]
        b_rows = [[1] + [rng.randrange(2) for _ in range(d - 1)] for _ in range(n)]
        inst = ov_instance(a_rows, b_rows)
        assert ov_count(inst) == 0, "shared forced coordinate must kill all witnesses"
        return inst

    assert spec.family == "unbalanced"
    assert spec.alpha is not None
    n_a = nth_root_ceil(n**spec.alpha.numerator, spec.alpha.denominator)
    return ov_instance(_random_bits(rng, n_a, d), _random_bits(rng, n, d))


def planted_witness(spec: GenSpec) -> OvWitness:
    """Recompute the pair that 'planted-orthogonal' forced to be orthogonal.

    Replays the generator's draw; only valid for that family.
    """
    if spec.family != "planted-orthogonal":
        raise ValueError(f"no planted witness in family {spec.family!r}")
    rng = random.Random(f"{spec.seed}:{spec.tag}")
    _, _, ia, ib = _planted_draw(rng, spec.n, spec.d)
    return OvWitness(index_a=ia, index_b=ib)
