"""Bichromatic closest pair and exact nearest-neighbor structures.

Everything here is exact.  Point sets are rescaled once onto one integer
grid (``core.as_integer_grid``), and every scan, split and pruning test
runs on its ints; results leave as ``Rat(total, L * L)`` for grid scale L.
The kd-tree prunes against the squared best radius in the same integer
arithmetic, so its answers (distance *and* index) are bit-identical to a
linear scan.  Ties are broken toward the smallest 0-based index, and
toward the lexicographically smallest (index_p, index_q) pair for
closest-pair scans.

Curve collections use the discrete Fréchet distance via one linear scan,
``CurveScanIndex.query``, which ``bcp_frechet`` runs once per curve of P.
Each curve pair gets its own grid: one over a whole family would grow
with every new denominator.  There is no spatial index for curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .core import Curve2, PointD, Rat, SqDist, as_integer_grid, curve, point
from .frechet import _sq_value

__all__ = [
    "BcpResult",
    "LinearScanIndex",
    "KdTreeIndex",
    "CurveScanIndex",
    "bcp_euclid",
    "bcp_frechet",
    "nn_build",
    "nn_query",
    "NN_METRICS",
]

NN_METRICS = ("euclid-linear", "euclid-kdtree", "frechet-linear")


@dataclass(frozen=True)
class BcpResult:
    """Closest bichromatic pair: 0-based indices plus squared distance."""

    index_p: int
    index_q: int
    sq_value: SqDist


def _sq_norms(coords: list[tuple[int, ...]]) -> list[int]:
    return [sum(map(mul, p, p)) for p in coords]


def _nearest(coords, norms, idxs, q2, k, best=None) -> tuple[int, int]:
    """Lowest (key, index) over ``coords[i]`` for i in ``idxs``.

    The one squared-distance scan of the Euclidean kernels.  For a grid
    query q on a grid k times finer than ``coords`` (k = 1 when they share
    it), ``q2`` is 2q and ``norms[i]`` is |coords[i]|²; the key
    k·|p|² − p·q2 satisfies k·key + |q|² = |k·p − q|², so keys order the
    points exactly as their squared distances to q do.  Equal keys go to
    the lower index.  ``best`` is a (key, index) pair found earlier; when
    None, the first index of ``idxs`` (which must be non-empty) seeds it.
    """
    if best is None:
        i = idxs[0]
        best = (k * norms[i] - sum(map(mul, coords[i], q2)), i)
    best_key, best_i = best
    for i in idxs:
        key = k * norms[i] - sum(map(mul, coords[i], q2))
        if key < best_key or (key == best_key and i < best_i):
            best_key, best_i = key, i
    return best_key, best_i


def bcp_euclid(points_p, points_q) -> BcpResult:
    """Exact pairwise scan over two point families."""
    p_side = [point(p) for p in points_p]
    q_side = [point(q) for q in points_q]
    if not p_side or not q_side:
        raise ValueError("both point families must be non-empty")
    dim = len(p_side[0])
    for pt in p_side + q_side:
        if len(pt) != dim:
            raise ValueError("all points must share one dimension")
    (grid_p, grid_q), scale = as_integer_grid([p_side, q_side])
    norms_q = _sq_norms(grid_q)
    all_q = range(len(grid_q))
    best: tuple[int, int, int] | None = None  # (grid sq distance, i, j)
    for i, p in enumerate(grid_p):
        key, j = _nearest(grid_q, norms_q, all_q, [2 * x for x in p], 1)
        d = key + sum(map(mul, p, p))
        if best is None or d < best[0]:  # i ascends, so ties keep the lower i
            best = (d, i, j)
    return BcpResult(best[1], best[2], Rat(best[0], scale * scale))


def bcp_frechet(curves_p, curves_q) -> BcpResult:
    """Exact pairwise scan over two curve families (squared Fréchet)."""
    p_side = [curve(c) for c in curves_p]
    q_side = [curve(c) for c in curves_q]
    if not p_side or not q_side:
        raise ValueError("both curve families must be non-empty")
    index = CurveScanIndex(q_side)
    best: tuple[SqDist, int, int] | None = None
    for i, p in enumerate(p_side):
        j, d = index.query(p)
        if best is None or d < best[0]:  # i ascends, so ties keep the lower i
            best = (d, i, j)
    return BcpResult(best[1], best[2], best[0])


class LinearScanIndex:
    """Baseline point index: store everything, scan on query.

    Points are held on one integer grid of scale ``scale`` (coordinate =
    int / scale) together with their squared norms.
    """

    def __init__(self, points: list[PointD], dim: int):
        (self.coords,), self.scale = as_integer_grid([points])
        self.norms = _sq_norms(self.coords)
        self.dim = dim

    def query(self, q: PointD) -> tuple[int, SqDist]:
        # A query whose denominators do not divide the index's scale goes
        # on a grid k times finer; the stored ints are scaled by k inside
        # the key, never rebuilt.
        ((qg,),), scale = as_integer_grid([(q,)], self.scale)
        k = scale // self.scale
        q_norm = sum(map(mul, qg, qg))
        key, i = self._search(qg, [2 * x for x in qg], q_norm, k)
        return i, Rat(k * key + q_norm, scale * scale)

    def _search(self, qg, q2, q_norm, k) -> tuple[int, int]:
        """(key, index) of the nearest point; see ``_nearest`` for the key."""
        return _nearest(self.coords, self.norms, range(len(self.coords)), q2, k)


class _KdNode:
    __slots__ = ("axis", "split", "left", "right", "bucket")

    def __init__(self, axis=None, split=None, left=None, right=None, bucket=None):
        self.axis = axis
        self.split = split
        self.left = left
        self.right = right
        self.bucket = bucket


_LEAF_SIZE = 8


class KdTreeIndex(LinearScanIndex):
    """Exact kd-tree over rational points, built on their integer grid.

    Splitting axis cycles with depth; the split value is the lower median
    coordinate and points on the splitting plane go left.  Rescaling by the
    grid scale keeps every order, so the tree is the one the rationals
    would give.  Queries prune a subtree only when the squared distance to
    its separating plane strictly exceeds the current best squared radius,
    so results (including smallest-index tie-breaking) match a linear scan
    exactly.
    """

    def __init__(self, points: list[PointD], dim: int):
        super().__init__(points, dim)
        self.root = self._build(list(range(len(points))), 0)

    def _build(self, idxs: list[int], depth: int) -> _KdNode:
        if len(idxs) <= _LEAF_SIZE:
            return _KdNode(bucket=sorted(idxs))
        axis = depth % self.dim
        coords = sorted(self.coords[i][axis] for i in idxs)
        split = coords[(len(coords) - 1) // 2]  # lower median
        left = [i for i in idxs if self.coords[i][axis] <= split]
        right = [i for i in idxs if self.coords[i][axis] > split]
        if not right:  # all coordinates on this axis coincide with the median
            return _KdNode(bucket=sorted(idxs))
        return _KdNode(
            axis=axis,
            split=split,
            left=self._build(left, depth + 1),
            right=self._build(right, depth + 1),
        )

    def _search(self, qg, q2, q_norm, k) -> tuple[int, int]:
        coords, norms = self.coords, self.norms
        best = None  # (key, index); set by the first bucket visited

        def visit(node):
            nonlocal best
            if node.bucket is not None:
                best = _nearest(coords, norms, node.bucket, q2, k, best)
                return
            gap = qg[node.axis] - k * node.split
            near, far = (node.left, node.right) if gap <= 0 else (node.right, node.left)
            visit(near)
            if gap * gap <= k * best[0] + q_norm:  # squared radius on q's grid
                visit(far)

        visit(self.root)
        return best


class CurveScanIndex:
    """Curve index over ``core.curve`` curves, scanned by squared Fréchet."""

    dim = None

    def __init__(self, curves: list[Curve2]):
        self.curves = curves

    def query(self, q: Curve2) -> tuple[int, SqDist]:
        best_i, best_d = 0, _sq_value(self.curves[0], q)
        for i in range(1, len(self.curves)):
            d = _sq_value(self.curves[i], q)
            if d < best_d:
                best_i, best_d = i, d
        return best_i, best_d


NnIndex = LinearScanIndex | KdTreeIndex | CurveScanIndex


def nn_build(items, metric: str) -> NnIndex:
    """Build a nearest-neighbor structure over points or curves.

    metric: 'euclid-linear' | 'euclid-kdtree' (point collections) or
    'frechet-linear' (curve collections).
    """
    if metric not in NN_METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {NN_METRICS}")
    items = list(items)
    if not items:
        raise ValueError("cannot build an index over an empty collection")
    if metric == "frechet-linear":
        try:
            curves = [curve(c) for c in items]
        except TypeError as exc:
            raise ValueError(f"metric {metric!r} indexes curves, not points") from exc
        return CurveScanIndex(curves)
    try:
        pts = [point(p) for p in items]
    except TypeError as exc:
        raise ValueError(f"metric {metric!r} indexes points, not curves") from exc
    dim = len(pts[0])
    for p in pts:
        if len(p) != dim:
            raise ValueError("all indexed points must share one dimension")
    if metric == "euclid-linear":
        return LinearScanIndex(pts, dim)
    return KdTreeIndex(pts, dim)


def nn_query(index: NnIndex, q) -> tuple[int, SqDist]:
    """Smallest-index exact nearest neighbor of q: (position, squared dist)."""
    try:
        if index.dim is None:
            q = curve(q)
        else:
            q = point(q)
    except TypeError as exc:
        kind = "a curve" if index.dim is None else "a point"
        raise ValueError(f"this index expects {kind} query") from exc
    if index.dim is not None and len(q) != index.dim:
        raise ValueError(f"query dimension {len(q)} != index dimension {index.dim}")
    return index.query(q)
