"""Bichromatic closest pair and exact nearest-neighbor structures.

Everything here is exact.  Point sets are rescaled once onto one integer
grid (``core.as_integer_grid``), and every scan, split and pruning test
runs on its ints; results leave as ``Rat(total, L * L)`` for grid scale L.
The kd-tree prunes against the squared best radius in the same integer
arithmetic, so its answers (distance *and* index) are bit-identical to a
linear scan.  Ties are broken toward the smallest 0-based index, and
toward the lexicographically smallest (index_p, index_q) pair for
closest-pair scans.

Each index takes only its items and checks them itself (``_point_family``,
``_curve_family``), and its ``query`` checks the query the same way; the
dimension is read off the points.  ``LinearScanIndex`` is the k-d tree
that never splits: one build and one query walk serve both point indexes,
and ``KdTreeIndex`` differs only in its leaf size.  The walk keeps a stack
of far sides.  It descends to a leaf along the near sides, pushing each
far side with its squared gap to the splitting plane, and after each leaf
pops far sides until one lies within the squared best radius.  Popped
last in, first out, the nodes come in the order of the recursive search.
``bcp_euclid`` scans the one leaf of a ``LinearScanIndex`` over Q once per
point of P.

The points one scan visits (one leaf) form a ``_Block``.  A block of at
least ``_PACK_MIN`` points packs each coordinate column, and the squared
norms, into one int with a w-byte field per point; a query's keys
k·|p|² − p·q2 then come out of one big-int multiply per coordinate and
are read off the bytes of the result.  They are exact when
B = k·max|p|² + r·Σ|q2_c| < 2**(8w − 1), where r = ⌊√max|p|²⌋ bounds
every |coordinate|: B bounds every |key|, so each key plus 2**(8w − 1)
fills its field without carrying into the next.  A block measures
max|p|² and r once, when built; a query checks B and, when it fails,
replaces the block's pack (one tuple) whole, so every query scans one
consistent pack and an index may be shared between threads.  Smaller
blocks run ``_nearest``'s point-by-point loop.

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
from math import inf, isqrt, lcm
from operator import mul

from .core import Curve2, PointD, Rat, SqDist, as_integer_grid, curve, point
from .core import _field_width, _fields, _packed
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


def _point_family(items, dim: int | None = None) -> list[PointD]:
    """``items`` frozen by ``core.point``: at least one, all of one
    dimension (``dim`` when given, else the first point's)."""
    try:
        pts = list(map(point, items))
    except TypeError as exc:
        raise ValueError("expected points, not curves") from exc
    if not pts:
        raise ValueError("a point family must be non-empty")
    dim = dim or len(pts[0])
    for n in map(len, pts):
        if n != dim:
            raise ValueError(f"all points must share one dimension: {n} != {dim}")
    return pts


def _curve_family(items) -> list[Curve2]:
    """``items`` frozen by ``core.curve`` (planar): at least one."""
    try:
        curves = [curve(c) for c in items]
    except TypeError as exc:
        raise ValueError("expected curves, not points") from exc
    if not curves:
        raise ValueError("a curve family must be non-empty")
    return curves


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


# Blocks shorter than this scan point by point: below it, setting up the
# packed keys costs more than the per-point loop they replace.
_PACK_MIN = 10


class _Block:
    """The points ``coords[i]`` for i in ``idxs`` (ascending), scanned as one.

    Its ``pack`` is the tuple (2**(8w−1), w, H, N, (C_c)) at a field width
    of w bytes: N = Σ_j |p_j|²·2**(8wj) for the squared norms, and one such
    int C_c per coordinate column c.  For a query (q2, k) as in
    ``_nearest``, field j of

        k·N − Σ_c q2_c·C_c + H,   H = Σ_j 2**(8w−1)·2**(8wj),

    is read as an unsigned w-byte int and holds key_j + 2**(8w−1): exact
    whenever every key lies in [−2**(8w−1), 2**(8w−1)), which each query
    checks by the bound B of the module docstring (its max|p|² and r are
    measured when the block is built).  A query reads the pack once; when
    its B does not fit, it stores a new pack at the narrowest width that
    holds it in one assignment.  Blocks below ``_PACK_MIN`` have no pack.
    """

    __slots__ = ("coords", "norms", "idxs", "max_norm", "coord_bound", "pack")

    def __init__(self, coords, norms, idxs):
        self.coords, self.norms, self.idxs = coords, norms, idxs
        self.pack = None
        if len(idxs) >= _PACK_MIN:
            self.max_norm = max([norms[i] for i in idxs])
            self.coord_bound = isqrt(self.max_norm)  # r of the module docstring
            self.pack = (0, 0, 0, 0, ())  # 2**(8w−1) = 0: the first query packs

    def __len__(self) -> int:
        return len(self.idxs)

    def nearest(self, q2, k, best=None) -> tuple[int, int]:
        """``_nearest`` over this block's points, seeded by ``best`` alike."""
        idxs, pack = self.idxs, self.pack
        if pack is None:
            return _nearest(self.coords, self.norms, idxs, q2, k, best)
        bound = k * self.max_norm + self.coord_bound * sum(map(abs, q2))  # B
        if bound >= pack[0]:
            w = _field_width(bound)
            half = 1 << (8 * w - 1)
            high = int.from_bytes(half.to_bytes(w, "little") * len(idxs), "little")
            rows = [self.coords[i] for i in idxs]
            pack = self.pack = (half, w, high, _packed([self.norms[i] for i in idxs], w, high),
                                tuple(_packed(col, w, high) for col in zip(*rows)))
        half, w, high, norm_col, cols = pack
        fields = _fields(k * norm_col + high - sum(map(mul, q2, cols)), len(idxs), w)
        low = min(fields)  # list.index finds its first, lowest-index field
        found = (low - half, idxs[fields.index(low)])
        return best if best is not None and best < found else found


def bcp_euclid(points_p, points_q) -> BcpResult:
    """Exact pairwise scan over two point families: each point of P, on a
    grid k times finer than Q's (k = 1 unless P adds a denominator), scans
    the one leaf of a linear index over Q."""
    index = LinearScanIndex(points_q)
    (grid_p,), scale = as_integer_grid([_point_family(points_p, index.dim)], index.scale)
    k = scale // index.scale
    leaf = index.root.bucket
    best: tuple[int, int, int] | None = None  # (grid sq distance, i, j)
    for i, p in enumerate(grid_p):
        key, j = leaf.nearest([2 * x for x in p], k)
        d = k * key + sum(map(mul, p, p))
        if best is None or d < best[0]:  # i ascends, so ties keep the lower i
            best = (d, i, j)
    return BcpResult(best[1], best[2], Rat(best[0], scale * scale))


def bcp_frechet(curves_p, curves_q) -> BcpResult:
    """Exact pairwise scan over two curve families (squared Fréchet)."""
    index = CurveScanIndex(curves_q)
    best_i = best_j = best = None
    for i, p in enumerate(_curve_family(curves_p)):
        # i ascends and the scan reports only a strictly smaller value, so
        # ties keep the lower i
        j, d = index._scan(*_grid_curve(p), best)
        if j is not None:
            best_i, best_j, best = i, j, d
    return BcpResult(best_i, best_j, best)


class _KdNode:
    __slots__ = ("axis", "split", "left", "right", "bucket")

    def __init__(self):
        self.axis = self.split = self.left = self.right = self.bucket = None


class LinearScanIndex:
    """Baseline point index: store everything, scan on query.

    Points are held on one integer grid of scale ``scale`` (coordinate =
    int / scale) together with their squared norms, under ``root``: the
    one leaf of a k-d tree that never splits.
    """

    _leaf_size = inf  # a node of more points than this splits

    def __init__(self, points: list[PointD]):
        points = _point_family(points)
        self.dim = len(points[0])
        (self.coords,), self.scale = as_integer_grid([points])
        self.norms = _sq_norms(self.coords)
        self.root = self._build(list(range(len(points))))

    def _build(self, idxs: list[int]) -> _KdNode:
        """The tree over ``idxs`` (ascending), split by ``KdTreeIndex``'s
        rule while a node holds more than ``_leaf_size`` points, on one
        explicit stack as the query walk keeps: a split can peel a single
        point off (each axis of embedded one-hot points holds one point away
        from the median), so the tree can be about n deep."""
        root = _KdNode()
        stack = [(root, idxs, 0)]
        while stack:
            node, idxs, depth = stack.pop()
            if len(idxs) > self._leaf_size:
                axis = depth % self.dim
                keys = [self.coords[i][axis] for i in idxs]
                split = sorted(keys)[(len(keys) - 1) // 2]  # lower median
                right = [i for i, x in zip(idxs, keys) if x > split]
                # no right side: all coordinates on this axis equal the median
                if right:
                    node.axis, node.split = axis, split
                    node.left, node.right = _KdNode(), _KdNode()
                    left = [i for i, x in zip(idxs, keys) if x <= split]
                    stack.append((node.right, right, depth + 1))
                    stack.append((node.left, left, depth + 1))
                    continue
            node.bucket = _Block(self.coords, self.norms, idxs)
        return root

    def query(self, q: PointD) -> tuple[int, SqDist]:
        (q,) = _point_family((q,), self.dim)
        # A query whose denominators do not divide the index's scale goes
        # on a grid k times finer; the stored ints are scaled by k inside
        # the key, never rebuilt.
        ((qg,),), scale = as_integer_grid([(q,)], self.scale)
        k = scale // self.scale
        q2 = [2 * x for x in qg]
        q_norm = sum(map(mul, qg, qg))
        # The stack walk of the module docstring, on q's grid: the root's
        # gap 0 is within the radius 0 it starts with, and every later pop
        # follows a leaf, which set the radius.
        best, radius = None, 0  # (key, index); its squared distance k·key + |q|²
        stack = [(0, self.root)]
        while stack:
            gap2, node = stack.pop()
            if gap2 > radius:
                continue
            while node.bucket is None:
                gap = qg[node.axis] - k * node.split
                if gap <= 0:
                    stack.append((gap * gap, node.right))
                    node = node.left
                else:
                    stack.append((gap * gap, node.left))
                    node = node.right
            best = node.bucket.nearest(q2, k, best)
            radius = k * best[0] + q_norm
        return best[1], Rat(radius, scale * scale)


# A k-d node of more points than this splits (see KdTreeIndex)
_LEAF_SIZE = 32


class KdTreeIndex(LinearScanIndex):
    """Exact kd-tree over rational points, built on their integer grid.

    Splitting axis cycles with depth; the split value is the lower median
    coordinate and points on the splitting plane go left.  Rescaling by the
    grid scale keeps every order, so the tree is the one the rationals
    would give.  Queries prune a subtree only when the squared distance to
    its separating plane strictly exceeds the current best squared radius,
    so results (including smallest-index tie-breaking) match a linear scan
    exactly.

    A node splits while it holds more than ``_LEAF_SIZE`` = 32 points, so
    most leaves hold 17 to 32 and each scans as one packed ``_Block``;
    leaves below ``_PACK_MIN`` would scan point by point, which loses to
    one packed scan of all points from d ≈ 8.  On uniform points (n 512 to
    8192, d 2 to 8) and embedded points, leaves of 32 and 64 tie on
    queries: 32 answers faster at d ≤ 4, where the tree is the right
    index, and 64 at d = 8; 64 builds a shallower tree, about 7% faster
    over build plus 64 queries.  From d ≈ 11 at n = 512 to 8192 a query
    scans most leaves, and the tree loses to the linear scan
    (``BENCH_kdtree-dim.json``), as the OV-based bound says it must once
    d outgrows log n.
    """

    _leaf_size = _LEAF_SIZE


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

    def __init__(self, curves: list[Curve2]):
        self.grids = [_grid_curve(c) for c in _curve_family(curves)]

    def query(self, q: Curve2) -> tuple[int, SqDist]:
        (q,) = _curve_family((q,))
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
        if best is not None:
            num, den = best.numerator, best.denominator
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
                if lb * den >= num * ll:
                    continue
            value = _grid_value(_rescaled(ip, kp), _rescaled(iq, kq))
            if best is None or value * den < num * ll:
                best, found = Rat(value, ll), i
                num, den = best.numerator, best.denominator
        return found, best


NnIndex = LinearScanIndex | CurveScanIndex

_INDEXES = {
    "euclid-linear": LinearScanIndex,
    "euclid-kdtree": KdTreeIndex,
    "frechet-linear": CurveScanIndex,
}
NN_METRICS = tuple(_INDEXES)


def nn_build(items, metric: str) -> NnIndex:
    """Build a nearest-neighbor structure over points or curves.

    metric: 'euclid-linear' | 'euclid-kdtree' (point collections) or
    'frechet-linear' (curve collections).
    """
    if metric not in _INDEXES:
        raise ValueError(f"unknown metric {metric!r}, expected one of {NN_METRICS}")
    return _INDEXES[metric](items)


def nn_query(index: NnIndex, q) -> tuple[int, SqDist]:
    """Smallest-index exact nearest neighbor of q: (position, squared dist)."""
    return index.query(q)
