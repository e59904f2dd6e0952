"""Orthogonal-pair solvers on column bitsets, and the unbalanced block plan.

The orthogonal-pair scan is the reference oracle for every reduction in
this package.  It is word-parallel, O(n_a * n_b * d / w) on w-bit machine
words, with no other shortcut.

The B side is transposed once into d column bitsets: bit ``ib`` of column
``c`` is ``B[ib][c]``.  For a vector a, the OR of the columns of a's set
bits has bit ``ib`` set exactly when a and ``B[ib]`` share a 1, so the
clear bits of that *hit* mask below ``n_b`` are the b's orthogonal to a.
Scanning a in index order and taking the lowest clear bit of the first hit
mask that has one yields the lexicographically smallest orthogonal pair,
the same pair as enumerating (ia, ib) in index order.  ``ov_count`` sums
the clear bits of every hit mask; ``ov_decide_blocked`` masks each hit mask
to one block of B indices at a time.

``plan_unbalanced`` splits the B side into consecutive blocks of size
ceil(n**alpha) so that one lopsided scan per block answers the balanced
question.  The block size is computed by integer root extraction; no
floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_

from .core import OvInstance, Rat, _rat

__all__ = [
    "OvWitness",
    "UnbalancedPlan",
    "ov_decide",
    "ov_count",
    "plan_unbalanced",
    "ov_decide_blocked",
    "nth_root_ceil",
]


@dataclass(frozen=True)
class OvWitness:
    """0-based indices of an orthogonal pair (a_side, b_side)."""

    index_a: int
    index_b: int


# Maps the bytes 0 and 1 to the ASCII digits, so a column reads as a base-2 numeral.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _columns(vectors) -> list[int]:
    """Transpose: bit i of column c is set iff vectors[i][c] is 1."""
    # Reversed so that vectors[0] is the lowest bit of each column.
    return [int(bytes(col)[::-1].translate(_DIGITS), 2) for col in zip(*vectors)]


def _hits(inst: OvInstance):
    """Iterate, for each a in index order, over the B indices a is not orthogonal to.

    Each item is a bitset over B indices, the OR of the columns of a's set
    bits; its clear bits below n_b are the b's orthogonal to a.
    """
    cols = _columns(inst.b_side)
    return (reduce(or_, compress(cols, vec_a), 0) for vec_a in inst.a_side)


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def ov_decide(inst: OvInstance) -> OvWitness | None:
    """Return the lexicographically smallest orthogonal pair, or None."""
    full = (1 << inst.n_b) - 1
    for ia, hit in enumerate(_hits(inst)):
        if hit != full:
            return OvWitness(ia, _lowest(full ^ hit))
    return None


def ov_count(inst: OvInstance) -> int:
    """Exact number of orthogonal pairs (used to cross-check generators)."""
    return inst.n_a * inst.n_b - sum(hit.bit_count() for hit in _hits(inst))


def nth_root_ceil(x: int, q: int) -> int:
    """Smallest integer r >= 0 with r**q >= x, by integer bisection."""
    if x < 0 or q < 1:
        raise ValueError("need x >= 0 and q >= 1")
    if x <= 1:
        return x
    lo, hi = 1, 1 << ((x.bit_length() + q - 1) // q)
    while hi ** q < x:
        hi <<= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** q >= x:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class UnbalancedPlan:
    """Partition of the B-side index range into consecutive blocks.

    Blocks are half-open index ranges (start, stop), each of size at most
    ``block_size``; only the last block may be smaller.
    """

    alpha: Rat
    block_size: int
    blocks: tuple[tuple[int, int], ...]


def plan_unbalanced(n: int, alpha: Rat) -> UnbalancedPlan:
    """Split n B-indices into ceil(n / ceil(n**alpha)) consecutive blocks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha = _rat(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be strictly between 0 and 1, got {alpha}")
    block_size = nth_root_ceil(n ** alpha.numerator, alpha.denominator)
    blocks = tuple(
        (start, min(start + block_size, n)) for start in range(0, n, block_size)
    )
    return UnbalancedPlan(alpha, block_size, blocks)


def _check_plan(plan: UnbalancedPlan, n: int) -> None:
    expected_start = 0
    for start, stop in plan.blocks:
        if start != expected_start or stop <= start:
            raise ValueError("plan blocks must be consecutive and non-empty")
        if stop - start > plan.block_size:
            raise ValueError("plan block exceeds block_size")
        expected_start = stop
    if expected_start != n:
        raise ValueError(f"plan covers {expected_start} indices, instance has {n}")


def ov_decide_blocked(inst: OvInstance, plan: UnbalancedPlan) -> OvWitness | None:
    """Decide orthogonality block by block, matching ov_decide exactly.

    Each block is solved independently (A against one B-slice), so the
    per-block results can be computed in any order or concurrently; the
    final answer is the lexicographic minimum over blocks and does not
    depend on evaluation order.
    """
    _check_plan(plan, inst.n_b)
    hits = list(_hits(inst))
    best: tuple[int, int] | None = None
    for start, stop in plan.blocks:
        block = ((1 << (stop - start)) - 1) << start
        for ia, hit in enumerate(hits):
            free = block & ~hit
            if free:
                pair = (ia, _lowest(free))
                if best is None or pair < best:
                    best = pair
                break  # smallest ib for this block, at its smallest ia
    if best is None:
        return None
    return OvWitness(*best)
