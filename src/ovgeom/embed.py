"""Orthogonality-preserving embeddings of bit vectors into geometry.

Point embedding
---------------
Coordinate maps a_i -> 1 + 2*a_i and b_i -> 2 - 2*b_i send vectors in
{0,1}^d to points in {1,3}^d and {0,2}^d.  Per coordinate the squared
difference is 1 when at most one bit is set and 9 when both are, so the
squared distance of an embedded pair is exactly

    d + 8 * <a, b>.

A pair is orthogonal iff its embedded squared distance is exactly d, and
every non-orthogonal pair is at squared distance at least d + 8: a gap
with nothing in between, so the threshold needs no slack.

Curve embedding
---------------
The same y-values are spread along x = 3, 6, 9, ...: vector a becomes the
curve ((3i, 1 + 2*a_i))_i and b becomes ((3i, 2 - 2*b_i))_i.  Vertices
with different x are at distance >= 3, so a threshold-1 traversal can
only move diagonally, and the pairwise y-gaps reproduce the point
embedding's gap: the squared curve distance is 1 exactly for orthogonal
pairs and at least 9 otherwise.

Both embeddings emit int coordinates, so each is already on the integer
grid of scale 1; only the thresholds are ``Rat``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BitVector,
    Curve2,
    OvInstance,
    PointD,
    Rat,
    SqDist,
)

__all__ = [
    "EuclidEmbedding",
    "FrechetEmbedding",
    "embed_euclid",
    "embed_frechet",
]


@dataclass(frozen=True)
class EuclidEmbedding:
    """Embedded point sets plus the squared decision threshold (= d)."""

    points_a: tuple[PointD, ...]
    points_b: tuple[PointD, ...]
    tau_sq: SqDist


@dataclass(frozen=True)
class FrechetEmbedding:
    """Embedded curve families plus the squared decision threshold (= 1)."""

    curves_a: tuple[Curve2, ...]
    curves_b: tuple[Curve2, ...]
    tau_sq: SqDist


def embed_point_a(a: BitVector) -> PointD:
    return tuple(1 + 2 * bit for bit in a)


def embed_point_b(b: BitVector) -> PointD:
    return tuple(2 - 2 * bit for bit in b)


def embed_euclid(inst: OvInstance) -> EuclidEmbedding:
    """Embed an instance so closest-pair-at-threshold answers orthogonality."""
    # Lists first: tuple() of a list takes a tuple of the exact size,
    # reusing a freed one, while from a generator it grows a new one by
    # resizing, so freed families would pile up in CPython's per-size
    # tuple free lists until a full collection.
    return EuclidEmbedding(
        points_a=tuple([embed_point_a(a) for a in inst.a_side]),
        points_b=tuple([embed_point_b(b) for b in inst.b_side]),
        tau_sq=Rat(inst.d),
    )


def embed_curve_a(a: BitVector) -> Curve2:
    return tuple((3 * i, 1 + 2 * bit) for i, bit in enumerate(a, 1))


def embed_curve_b(b: BitVector) -> Curve2:
    return tuple((3 * i, 2 - 2 * bit) for i, bit in enumerate(b, 1))


def embed_frechet(inst: OvInstance) -> FrechetEmbedding:
    """Embed an instance so curve-distance-at-threshold answers orthogonality."""
    return FrechetEmbedding(
        curves_a=tuple(embed_curve_a(a) for a in inst.a_side),
        curves_b=tuple(embed_curve_b(b) for b in inst.b_side),
        tau_sq=Rat(1),
    )
