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
``CurveScanIndex``, which ``bcp_frechet`` runs once per curve of P.  Each
curve is put on its own integer grid once; a pair meets on the grid of
the lcm L of its two scales, and only a side whose scale is not L is
rescaled (one grid over a whole family would grow with every new
denominator).  The scan skips a pair whose endpoint bound
max(|p₀−q₀|², |pₙ−qₘ|²) is already at least the best value so far:
every traversal matches both endpoint pairs, so the bound never exceeds
the distance, and a skipped pair could neither win nor tie.  There is no
spatial index for curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul

from .core import Curve2, PointD, Rat, SqDist, as_integer_grid, curve, point
from .frechet import _grid_value

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
    best_i = best_j = best = None
    for i, p in enumerate(p_side):
        # i ascends and the scan reports only a strictly smaller value, so
        # ties keep the lower i
        j, d = index._scan(*_grid_curve(p), best)
        if j is not None:
            best_i, best_j, best = i, j, d
    return BcpResult(best_i, best_j, best)


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


def _grid_curve(c: Curve2) -> tuple[list[tuple[int, int]], int]:
    """A curve on its own integer grid: (int vertices, scale)."""
    (grid,), scale = as_integer_grid([c])
    return grid, scale


def _rescaled(grid: list[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    return grid if k == 1 else [(x * k, y * k) for x, y in grid]


class CurveScanIndex:
    """Curve index over ``core.curve`` curves, scanned by squared Fréchet.

    Each curve is stored once on its own integer grid, as (int vertices,
    scale).  A scan meets a query of scale s_q and a stored curve of scale
    s_p on the grid of L = lcm(s_p, s_q), rescaling only a side whose
    scale is not L, and skips the value DP for a stored curve whose
    endpoint bound already reaches the best value found so far.
    """

    dim = None

    def __init__(self, curves: list[Curve2]):
        self.grids = [_grid_curve(c) for c in curves]

    def query(self, q: Curve2) -> tuple[int, SqDist]:
        return self._scan(*_grid_curve(q), None)

    def _scan(
        self, iq: list[tuple[int, int]], sq: int, best: SqDist | None
    ) -> tuple[int | None, SqDist | None]:
        """Nearest stored curve to the grid curve (iq, sq), if it beats ``best``.

        Returns (lowest index at the smallest squared Fréchet distance, that
        distance) when the distance is strictly below ``best``, else
        (None, ``best``).  With ``best`` None the first stored curve sets
        it, so a non-empty index always answers.
        """
        (q0x, q0y), (qnx, qny) = iq[0], iq[-1]
        found = None
        for i, (ip, sp) in enumerate(self.grids):
            scale = lcm(sp, sq)
            kp, kq = scale // sp, scale // sq
            ll = scale * scale
            if best is not None:
                # bound on the grid: max of the two endpoint distances, ·L²
                (p0x, p0y), (pnx, pny) = ip[0], ip[-1]
                lb = max(
                    (kp * p0x - kq * q0x) ** 2 + (kp * p0y - kq * q0y) ** 2,
                    (kp * pnx - kq * qnx) ** 2 + (kp * pny - kq * qny) ** 2,
                )
                if lb * best.denominator >= best.numerator * ll:
                    continue
            value = _grid_value(_rescaled(ip, kp), _rescaled(iq, kq))
            if best is None or value * best.denominator < best.numerator * ll:
                best, found = Rat(value, ll), i
        return found, best


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
