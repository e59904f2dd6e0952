"""Shared exact-arithmetic model: bit vectors, rational points, curves.

Everything downstream (solvers, embeddings, proximity structures) compares
squared distances, never square roots, so all geometry here is carried out
in exact rational arithmetic.  ``Rat`` is the standard-library
``fractions.Fraction``, which already guarantees lowest terms and a
positive denominator.

Conventions
-----------
* Bit vectors are tuples of 0/1 ints, all of one instance sharing length d.
* A coordinate is an ``int``, or a ``Rat`` for a non-integer value.  An
  int is already exact, has the ``numerator`` and ``denominator`` that
  ``as_integer_grid`` reads, and equals and hashes as its ``Rat``, so the
  package builds a ``Rat`` only for a non-integer value.  Results (squared
  distances, thresholds) are always ``Rat``.
* Points are tuples of coordinates; planar curves are non-empty tuples of
  2-d points.
* All containers are immutable, so every type here is safe to share
  between threads.
* Indices are 0-based throughout the API.  Command-line output and the
  on-disk formats describe positions 1-based; the boundary code translates.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction as Rat
from itertools import chain
from math import lcm

__all__ = [
    "Rat",
    "SqDist",
    "BitVector",
    "PointD",
    "Point2",
    "Curve2",
    "OvInstance",
    "ov_instance",
    "point",
    "curve",
    "inner_product",
    "squared_euclidean",
    "as_integer_grid",
]

# Type aliases.  SqDist marks values that are squared distances (>= 0 by
# construction); it is not a distinct runtime type.
SqDist = Rat
BitVector = tuple[int, ...]
PointD = tuple[int | Rat, ...]
Point2 = tuple[int | Rat, int | Rat]
Curve2 = tuple[Point2, ...]


def bit_vector(bits) -> BitVector:
    """Validate and freeze a 0/1 sequence of length >= 1.

    An entry equal to 0 or 1 (``True``, ``1.0``) is stored as that int.
    """
    vec = tuple(bits)
    if not vec:
        raise ValueError("bit vector must have length >= 1")
    for b in vec:
        if b not in (0, 1):
            raise ValueError(f"bit vector entries must be 0 or 1, got {b!r}")
    return tuple(map(int, vec))


_EXACT = frozenset((int, Rat))


def _rat(value) -> Rat:
    """``Rat(value)``, raising ``ValueError`` for an infinity as for a NaN."""
    try:
        return Rat(value)
    except OverflowError:
        raise ValueError(f"expected a finite number, got {value!r}") from None


def point(coords) -> PointD:
    """Freeze a coordinate sequence into a point of exact rationals."""
    pt = tuple(coords)
    if not pt:
        raise ValueError("point must have dimension >= 1")
    # An int or a Rat is immutable, so it is kept, and a tuple of them is
    # the point itself; a bool, float, str or other number becomes a Rat.
    if not _EXACT.issuperset(map(type, pt)):
        pt = tuple(c if type(c) in _EXACT else _rat(c) for c in pt)
    return pt


_TUPLE = frozenset((tuple,))
_PLANAR = frozenset((2,))


def curve(points) -> Curve2:
    """Freeze a sequence of planar points into a curve (length >= 1).

    Vertices that are all 2-tuples of ``int``/``Rat`` coordinates, as in a
    curve this function returned or ``parse_curve_set`` read, are checked
    in one pass over vertex types, lengths and coordinate types and kept as
    they are; any other input goes vertex by vertex through ``point``.
    """
    vertices = tuple(points)
    if (
        _TUPLE.issuperset(map(type, vertices))
        and set(map(len, vertices)) == _PLANAR
        and _EXACT.issuperset(map(type, chain.from_iterable(vertices)))
    ):
        return vertices
    vertices = tuple(map(point, vertices))
    if not vertices:
        raise ValueError("curve must have at least one vertex")
    for v in vertices:
        if len(v) != 2:
            raise ValueError("curve vertices must be 2-dimensional")
    return vertices


def sq_dist(value) -> SqDist:
    """Coerce to an exact nonnegative rational (used at parse boundaries)."""
    r = _rat(value)
    if r < 0:
        raise ValueError(f"squared distance must be >= 0, got {r}")
    return r


@dataclass(frozen=True)
class OvInstance:
    """Two families of bit vectors over a common dimension.

    The existential question asked of an instance is always the same:
    is there a pair (a, b) in A x B with inner product zero?
    """

    a_side: tuple[BitVector, ...]
    b_side: tuple[BitVector, ...]
    d: int

    def __post_init__(self):
        _check_shape(self.a_side, self.b_side, self.d)
        for name in ("a_side", "b_side"):
            fam = tuple(bit_vector(vec) for vec in getattr(self, name))
            object.__setattr__(self, name, fam)

    @classmethod
    def _from_checked(cls, a_side, b_side, d: int) -> OvInstance:
        """Build from tuples of 0/1 ints whose shape the caller has checked.

        Skips ``__post_init__``, so each bit is validated once: by
        ``parse_instance`` or ``bit_vector``, or not at all where the caller
        builds the bits itself, as the gadget certification does.
        """
        inst = object.__new__(cls)
        object.__setattr__(inst, "a_side", a_side)
        object.__setattr__(inst, "b_side", b_side)
        object.__setattr__(inst, "d", d)
        return inst

    @property
    def n_a(self) -> int:
        return len(self.a_side)

    @property
    def n_b(self) -> int:
        return len(self.b_side)


def _check_shape(a_side, b_side, d: int) -> None:
    if not a_side or not b_side:
        raise ValueError("both vector families must be non-empty")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    for fam in (a_side, b_side):
        for vec in fam:
            if len(vec) != d:
                raise ValueError(f"vector length {len(vec)} != instance dimension {d}")


def ov_instance(a_side, b_side) -> OvInstance:
    """Build an instance from raw bit sequences, inferring the dimension."""
    a = tuple(bit_vector(v) for v in a_side)
    if not a:
        raise ValueError("A side must be non-empty")
    b = tuple(bit_vector(v) for v in b_side)
    _check_shape(a, b, len(a[0]))
    return OvInstance._from_checked(a, b, len(a[0]))


def inner_product(a: BitVector, b: BitVector) -> int:
    """Number of coordinates where both vectors are 1."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def squared_euclidean(p: PointD, q: PointD) -> SqDist:
    """Exact squared Euclidean distance between equal-dimension points.

    A ``Rat`` for rational points; an ``int`` for points on an integer grid.
    """
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} vs {len(q)}")
    total = 0
    for x, y in zip(p, q):
        diff = x - y
        total += diff * diff
    return total


_INT = frozenset((int,))


def as_integer_grid(
    groups, scale: int = 1
) -> tuple[list[list[tuple[int, ...]]], int]:
    """Rescale groups of rational points onto one common integer grid.

    ``groups`` is a sequence of point sequences of any dimension (a planar
    curve is one such group), with ``int`` or ``Rat`` coordinates.  Returns
    the groups with every coordinate x replaced by the int x·L, plus the
    grid scale L: the least common multiple of ``scale`` and of every
    coordinate's denominator (1 for an int).  Squared distances on the grid
    are the original squared distances times L**2, exactly.

    This is the package's one rational-to-integer boundary: the Fréchet
    dynamic programs, closest-pair scans and nearest-neighbour structures
    run on these ints, and Fractions appear only where a non-integer
    coordinate is parsed or built and where a result leaves as
    ``Rat(total, L * L)``.

    Each distinct vertex object is rescaled once, so a vertex that repeats
    (as the disjunction gadget's do) shares one grid tuple across the call.
    """
    if scale == 1 and _INT.issuperset(
        map(type, chain.from_iterable(chain.from_iterable(groups)))
    ):
        # every denominator is 1 and every coordinate its own numerator
        return [list(map(tuple, g)) for g in groups], 1
    # ``groups`` holds every vertex until the call returns, so no id repeats
    # for a different object
    distinct = {id(p): p for p in chain.from_iterable(groups)}
    grid = lcm(
        scale,
        *{x.denominator for x in chain.from_iterable(distinct.values())},
    )
    on_grid = {
        key: tuple(x.numerator * (grid // x.denominator) for x in p)
        for key, p in distinct.items()
    }
    return [list(map(on_grid.__getitem__, map(id, g))) for g in groups], grid


# Packed integers.  A packed int holds one value per w-byte field, value j
# in field j: Σ_j values[j]·2**(8wj), the little-endian bytes of the fields
# in order.  One big-int operation then acts on every field at once; the
# Euclidean scans of ``ovgeom.proximity`` and the Fréchet kernels of
# ``ovgeom.frechet`` both use theirs.  The format lives here alone: the
# type codes and the byte-order test below, ``_packed`` and ``_fields``.

# array/memoryview codes of unsigned 1-, 2-, 4- and 8-byte fields (lower
# case: signed).  A little-endian host packs and reads these natively; any
# other host or width goes byte by byte.
_UNSIGNED = {1: "B", 2: "H", 4: "I", 8: "Q"}
_NATIVE = sys.byteorder == "little"


def _field_width(bound: int) -> int:
    """Bytes per field holding every value in [−bound, bound] with a sign
    (or guard) bit to spare.

    The smallest of 1, 2, 4 and 8 with bound < 2**(8w − 1), else the
    smallest multiple of 8 with that property.
    """
    bits = bound.bit_length() + 1  # the sign bit
    for w in (1, 2, 4, 8):
        if bits <= 8 * w:
            return w
    return -(-bits // 64) * 8


def _packed(values, w: int, high: int = 0) -> int:
    """Σ_j values[j]·2**(8wj) for values in [−2**(8w−1), 2**(8w−1)), where
    ``high`` has 2**(8w−1) in each of the len(values) w-byte fields (0 when
    every value is >= 0)."""
    if _NATIVE and w in _UNSIGNED:
        raw = array(_UNSIGNED[w].lower(), values)
    else:
        raw = b"".join(v.to_bytes(w, "little", signed=True) for v in values)
    # flipping each two's-complement field's top bit adds 2**(8w−1) to it
    return (int.from_bytes(raw, "little") ^ high) - high


def _fields(total: int, n: int, w: int) -> list[int]:
    """The n unsigned w-byte fields of 0 <= total < 2**(8wn), field 0 first."""
    raw = total.to_bytes(n * w, "little")
    if _NATIVE and w in _UNSIGNED:
        return memoryview(raw).cast(_UNSIGNED[w]).tolist()
    return [int.from_bytes(raw[s:s + w], "little") for s in range(0, n * w, w)]
