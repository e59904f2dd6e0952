"""Closest-pair scans and nearest-neighbor structures vs fresh oracles."""

import inspect
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import instances, int_curves, int_points, rational_coord, small_coord
from ovgeom import proximity
from ovgeom.core import curve, ov_instance, point, squared_euclidean
from ovgeom.embed import embed_euclid, embed_frechet
from ovgeom.frechet import (
    brute_force_frechet_sq,
    frechet_decide,
    frechet_sq,
    frechet_sq_value,
    traversal_is_valid,
)
from ovgeom.generate import GenSpec, generate
from ovgeom.proximity import (
    BcpResult,
    CurveScanIndex,
    KdTreeIndex,
    LinearScanIndex,
    bcp_euclid,
    bcp_frechet,
    nn_build,
    nn_query,
)


LEAF = proximity._LEAF_SIZE


def splitting_kdtree(pts) -> KdTreeIndex:
    """``nn_build(pts, "euclid-kdtree")``, checked to split at its root, so
    a query runs the pruning test and not only one leaf."""
    kd = nn_build(pts, "euclid-kdtree")
    assert kd.root.bucket is None
    return kd


@st.composite
def points_that_split(draw, low, high, rest, dim: int):
    """More than ``_LEAF_SIZE`` points in a drawn order.  At least half take
    their first coordinate from ``low``, the others from ``high``, whose
    values all lie above ``low``'s; so the lower median of the first axis
    lies below its maximum, and the k-d root splits.  The other
    coordinates come from ``rest``."""
    n = draw(st.integers(LEAF + 1, LEAF + 12))
    n_high = draw(st.integers(1, n // 2))
    firsts = draw(st.lists(low, min_size=n - n_high, max_size=n - n_high))
    firsts += draw(st.lists(high, min_size=n_high, max_size=n_high))
    tails = draw(st.lists(st.tuples(*[rest] * (dim - 1)), min_size=n, max_size=n))
    return draw(st.permutations([(x, *tail) for x, tail in zip(firsts, tails)]))


def naive_bcp(p_side, q_side, dist):
    """Test-local oracle: explicit lexicographic minimum over all pairs."""
    return min(
        (dist(p, q), i, j)
        for i, p in enumerate(p_side)
        for j, q in enumerate(q_side)
    )


class TestBcpEuclid:
    def test_coincident_singletons(self):
        assert bcp_euclid([(0, 0)], [(0, 0)]) == BcpResult(0, 0, Fraction(0))

    def test_picks_nearer_point(self):
        res = bcp_euclid([(0, 0), (10, 0)], [(3, 4)])
        assert (res.index_p, res.index_q, res.sq_value) == (0, 0, 25)

    def test_embedded_orthogonal_pair_at_dimension(self):
        inst = generate(GenSpec("planted-orthogonal", n=6, d=4, seed=11))
        emb = embed_euclid(inst)
        assert bcp_euclid(emb.points_a, emb.points_b).sq_value == 4

    def test_tie_break_lexicographic(self):
        res = bcp_euclid([(0, 0), (2, 0)], [(1, 0), (-1, 0), (3, 0)])
        assert (res.index_p, res.index_q, res.sq_value) == (0, 0, 1)

    def test_rejects_empty_or_mixed_dimension(self):
        with pytest.raises(ValueError, match="non-empty"):
            bcp_euclid([], [(0, 0)])
        with pytest.raises(ValueError, match="dimension"):
            bcp_euclid([(0, 0)], [(0, 0, 0)])

    def test_rejects_items_that_are_not_points(self):
        for ps, qs in [([5], [(1,)]), ([(1,)], [5]), ([(1, 1)], [((0, 0), (1, 1))])]:
            with pytest.raises(ValueError, match="points, not curves"):
                bcp_euclid(ps, qs)

    def test_p_denominators_outside_the_grid_of_q(self):
        # Q alone sits on a grid of scale 2; P adds the denominator 3, so P
        # scans Q's leaf on a grid 3 times finer
        ps = [(Fraction(1, 3), 0), (Fraction(2, 3), 0)]
        qs = [(0, 0), (Fraction(1, 2), 0)]
        assert bcp_euclid(ps, qs) == BcpResult(0, 1, Fraction(1, 36))

    @given(int_points(3), int_points(3))
    def test_matches_naive_minimum(self, ps, qs):
        res = bcp_euclid(ps, qs)
        d, i, j = naive_bcp(
            [point(p) for p in ps], [point(q) for q in qs], squared_euclidean
        )
        assert (res.sq_value, res.index_p, res.index_q) == (d, i, j)

    @given(int_points(2), int_points(2))
    def test_value_symmetric_under_side_swap(self, ps, qs):
        assert bcp_euclid(ps, qs).sq_value == bcp_euclid(qs, ps).sq_value


class TestBcpFrechet:
    def test_identical_singletons(self):
        c = ((0, 0), (1, 1))
        assert bcp_frechet([c], [c]).sq_value == 0

    def test_embedded_instance_hits_gap(self):
        yes = generate(GenSpec("planted-orthogonal", n=4, d=5, seed=3))
        emb = embed_frechet(yes)
        assert bcp_frechet(emb.curves_a, emb.curves_b).sq_value == 1

        no = generate(GenSpec("no-orthogonal", n=4, d=5, seed=3))
        emb = embed_frechet(no)
        assert bcp_frechet(emb.curves_a, emb.curves_b).sq_value >= 9

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError, match="non-empty"):
            bcp_frechet([((0, 0),)], [])

    def test_rejects_items_that_are_not_curves(self):
        for ps, qs in [([(0, 0)], [((1, 1),)]), ([((1, 1),)], [(0, 0)])]:
            with pytest.raises(ValueError, match="curves, not points"):
                bcp_frechet(ps, qs)

    @staticmethod
    def dp_pairs(monkeypatch, inst):
        """bcp_frechet of ``inst``'s embedding, with the number of pairs
        that ran the value DP."""
        calls = []
        real = proximity._grid_value

        def counted(ip, iq):
            calls.append(1)
            return real(ip, iq)

        monkeypatch.setattr(proximity, "_grid_value", counted)
        emb = embed_frechet(inst)
        return bcp_frechet(emb.curves_a, emb.curves_b), len(calls)

    def test_endpoint_bound_skips_every_pair_after_the_first_on_no_instances(
        self, monkeypatch
    ):
        # the forced first coordinate puts every pair's first vertices 3
        # apart, so the first pair's value, 9, rules out all the others
        res, pairs = self.dp_pairs(
            monkeypatch, generate(GenSpec("no-orthogonal", n=8, d=8, seed=0))
        )
        assert (res, pairs) == (BcpResult(0, 0, Fraction(9)), 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_endpoint_bound_skips_every_pair_after_the_witness(self, monkeypatch, seed):
        # embedded first vertices are at least 1 apart, so once the witness
        # gives 1 no later pair in (i, j) order runs the DP
        inst = generate(GenSpec("planted-orthogonal", n=8, d=8, seed=seed))
        res, pairs = self.dp_pairs(monkeypatch, inst)
        assert res.sq_value == 1
        assert pairs <= res.index_p * inst.n_b + res.index_q + 1

    @given(
        st.lists(
            st.lists(st.tuples(small_coord, small_coord), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.lists(st.tuples(small_coord, small_coord), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ),
    )
    def test_matches_enumeration_oracle_minimum(self, ps, qs):
        res = bcp_frechet(ps, qs)
        d, i, j = naive_bcp(
            [curve(c) for c in ps],
            [curve(c) for c in qs],
            brute_force_frechet_sq,
        )
        assert (res.sq_value, res.index_p, res.index_q) == (d, i, j)


class TestNnStructures:
    def test_singleton_answers_everything(self):
        for metric in ("euclid-linear", "euclid-kdtree"):
            idx = nn_build([(1, 2)], metric)
            assert nn_query(idx, (100, -50)) == (0, squared_euclidean(
                point((1, 2)), point((100, -50))
            ))

    def test_stored_point_query(self):
        idx = nn_build([(0, 0), (2, 0)], "euclid-kdtree")
        assert nn_query(idx, (2, 0)) == (1, 0)

    def test_fractional_query(self):
        idx = nn_build([(0, 0), (2, 0)], "euclid-linear")
        pos, sq = nn_query(idx, (Fraction(9, 10), 0))
        assert (pos, sq) == (0, Fraction(81, 100))

    def test_duplicate_points_take_smallest_index(self):
        pts = [(5, 5), (0, 0), (0, 0), (5, 5)]
        for metric in ("euclid-linear", "euclid-kdtree"):
            idx = nn_build(pts, metric)
            assert nn_query(idx, (1, 0)) == (1, 1)

    def test_build_rejects_empty_and_unknown_metric(self):
        with pytest.raises(ValueError, match="empty"):
            nn_build([], "euclid-linear")
        with pytest.raises(ValueError, match="unknown metric"):
            nn_build([(0, 0)], "euclid-balltree")

    def test_build_rejects_mismatched_items(self):
        with pytest.raises(ValueError, match="points, not curves"):
            nn_build([((0, 0), (1, 1))], "euclid-kdtree")
        with pytest.raises(ValueError, match="curves, not points"):
            nn_build([(0, 0), (1, 1)], "frechet-linear")
        with pytest.raises(ValueError, match="share one dimension"):
            nn_build([(0, 0), (1, 1, 1)], "euclid-linear")
        with pytest.raises(ValueError, match="points, not curves"):
            nn_build([5], "euclid-linear")
        with pytest.raises(ValueError, match="2-dimensional"):
            nn_build([((0, 0, 0),)], "frechet-linear")

    def test_query_type_and_dimension_errors(self):
        idx = nn_build([(0, 0, 0)], "euclid-kdtree")
        with pytest.raises(ValueError, match="dimension"):
            nn_query(idx, (0, 0))
        cidx = nn_build([((0, 0), (1, 1))], "frechet-linear")
        with pytest.raises(ValueError, match="curve"):
            nn_query(cidx, (0, 0))
        with pytest.raises(ValueError, match="dimension"):
            nn_query(idx, (0, 0, 0, 0))
        with pytest.raises(ValueError, match="points, not curves"):
            nn_query(idx, ((0, 0, 0), (1, 1, 1)))

    @pytest.mark.parametrize("cls", [LinearScanIndex, KdTreeIndex])
    def test_direct_point_query_checks_dimension_and_kind(self, cls):
        idx = cls([(0, 0), (1, 1)])
        for q in [(1,), (1, 1, 100)]:
            with pytest.raises(ValueError, match="dimension"):
                idx.query(q)
        with pytest.raises(ValueError, match="points, not curves"):
            idx.query(((0, 0), (1, 1)))
        assert idx.query((1, 0)) == (0, 1)

    def test_direct_curve_query_checks_kind(self):
        idx = CurveScanIndex([((0, 0), (1, 1))])
        with pytest.raises(ValueError, match="curves, not points"):
            idx.query((0, 0))
        with pytest.raises(ValueError, match="2-dimensional"):
            idx.query(((0, 0, 0),))
        assert idx.query(((0, 1), (1, 1))) == (0, 1)

    @pytest.mark.parametrize("cls", [LinearScanIndex, KdTreeIndex, CurveScanIndex])
    def test_every_index_rejects_an_empty_collection(self, cls):
        with pytest.raises(ValueError, match="non-empty"):
            cls([])

    @pytest.mark.parametrize("cls", [LinearScanIndex, KdTreeIndex, CurveScanIndex])
    def test_constructors_take_only_their_items(self, cls):
        params = list(inspect.signature(cls).parameters)
        assert len(params) == 1 and params[0] in ("points", "curves")
        with pytest.raises(TypeError):
            cls([(0, 0)], 2)

    def test_dimension_is_read_off_the_points(self):
        # enough points that the tree splits on every axis, the last one too
        pts = [(i % 2, i % 3, i) for i in range(40)]
        q = (1, 0, Fraction(27, 2))
        sq, pos = ref_nearest(pts, q)
        for cls in (LinearScanIndex, KdTreeIndex):
            idx = cls(pts)
            assert idx.dim == 3
            assert idx.query(q) == (pos, sq)

    def test_every_point_sits_in_exactly_one_block(self, monkeypatch):
        # the linear index is one leaf over all points; the tree adds no
        # all-points block beside its leaves
        sizes = []

        class Counted(proximity._Block):
            __slots__ = ()

            def __init__(self, coords, norms, idxs):
                sizes.append(len(idxs))
                super().__init__(coords, norms, idxs)

        monkeypatch.setattr(proximity, "_Block", Counted)
        pts = [(i % 7, i % 5) for i in range(40)]
        LinearScanIndex(pts)
        assert sizes == [40]
        sizes.clear()
        KdTreeIndex(pts)
        assert sum(sizes) == 40 and len(sizes) > 1

    def test_frechet_linear_scan(self):
        curves = [((0, 0), (1, 0)), ((10, 10), (11, 10))]
        idx = nn_build(curves, "frechet-linear")
        assert nn_query(idx, ((10, 9), (11, 9))) == (1, 1)

    @given(int_points(2, max_n=40), int_points(2, max_n=25))
    def test_kdtree_matches_linear_scan_d2(self, pts, queries):
        lin = nn_build(pts, "euclid-linear")
        kd = nn_build(pts, "euclid-kdtree")
        assert isinstance(lin, LinearScanIndex) and isinstance(kd, KdTreeIndex)
        for q in queries:
            assert nn_query(kd, q) == nn_query(lin, q)

    @given(
        points_that_split(st.integers(-8, 0), st.integers(1, 8), small_coord, 4),
        int_points(4, max_n=15),
    )
    def test_kdtree_matches_linear_scan_d4(self, pts, queries):
        lin = nn_build(pts, "euclid-linear")
        kd = splitting_kdtree(pts)
        for q in queries:
            assert nn_query(kd, q) == nn_query(lin, q)

    def test_the_indexes_differ_only_in_leaf_size(self):
        rng = random.Random(0)

        def uniform():
            return (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))

        pts = [uniform() for _ in range(3 * LEAF)]
        lin = LinearScanIndex(pts)
        assert list(lin.root.bucket.idxs) == list(range(len(pts)))
        kd = KdTreeIndex(pts)
        assert kd.root.bucket is None
        for q in [uniform() for _ in range(50)]:
            assert kd.query(q) == lin.query(q)

    def test_kdtree_on_all_identical_points(self):
        pts = [(3, 3)] * 20
        kd = nn_build(pts, "euclid-kdtree")
        assert nn_query(kd, (0, 0)) == (0, 18)

    def test_kdtree_on_collinear_points_beyond_leaf_size(self):
        # two leaves on x, split at (n - 2) / 2; the query at x = (n - 1) / 2
        # ties the last left point and the first right one
        n = 2 * LEAF - 2
        pts = [(i, 0) for i in range(n)]
        kd = splitting_kdtree(pts)
        lin = nn_build(pts, "euclid-linear")
        for qx in (-5, 0, 7, Fraction(n - 1, 2), n + 10):
            q = (qx, 1)
            assert nn_query(kd, q) == nn_query(lin, q)

    def test_kdtree_on_one_hot_points_deeper_than_the_recursion_limit(self):
        # each split on an embedded one-hot axis peels off one point, so the
        # tree is n − 31 = 1069 levels deep, past the default limit of 1000
        rows = [[int(i == j) for j in range(1100)] for i in range(1100)]
        emb = embed_euclid(ov_instance(rows, rows[:2]))
        kd = nn_build(emb.points_a, "euclid-kdtree")
        lin = nn_build(emb.points_a, "euclid-linear")
        for q in emb.points_b:
            assert nn_query(kd, q) == nn_query(lin, q)

    def test_tie_across_a_split_plane_goes_to_the_lower_index(self, monkeypatch):
        # Four leaves of m = _LEAF_SIZE points: x <= 0 | x >= 4 at the root,
        # then y <= 0 | y >= 20 on each side, in index order left-low,
        # left-high, right-low, right-high.  The query (2, 0) lies right of
        # the plane x = 0 at gap 2.  Its nearest right point (4, 0), last of
        # right-low, and (0, 0), first of left-low and on the plane, are
        # both at squared distance 4 = gap², so the left side must be
        # searched although its gap only equals the radius.  The recursive
        # search visits right-low, right-high (gap 0), left-low, left-high.
        m = LEAF
        pts = [(0, 0)] + [(-20 - i, -1 - i) for i in range(m - 1)]
        pts += [(-20 - i, 20 + i) for i in range(m)]
        pts += [(20 + i, -1 - i) for i in range(m - 1)] + [(4, 0)]
        pts += [(20 + i, 20 + i) for i in range(m)]
        kd = splitting_kdtree(pts)
        q = (2, 0)
        visited = []
        nearest = proximity._Block.nearest

        def recorded(block, *args):
            visited.append(block.idxs[0])
            return nearest(block, *args)

        monkeypatch.setattr(proximity._Block, "nearest", recorded)
        sq, pos = ref_nearest(pts, q)
        assert (pos, sq) == (0, 4)
        assert nn_query(kd, q) == (pos, sq)
        assert visited == [2 * m, 3 * m, 0, m]

    @given(
        points_that_split(
            st.fractions(-8, 0, max_denominator=6),
            st.fractions(Fraction(1, 6), 8, max_denominator=6),
            rational_coord,
            3,
        ),
        st.tuples(rational_coord, rational_coord, rational_coord),
    )
    def test_kdtree_exact_on_rational_coordinates(self, pts, q):
        kd = splitting_kdtree(pts)
        lin = nn_build(pts, "euclid-linear")
        assert nn_query(kd, q) == nn_query(lin, q)


class TestCompositionWithEmbedding:
    @given(instances(max_n=6, max_d=5))
    def test_query_loop_equals_closest_pair(self, inst):
        emb = embed_euclid(inst)
        bcp = bcp_euclid(emb.points_a, emb.points_b)
        idx = nn_build(emb.points_a, "euclid-kdtree")
        best = min(nn_query(idx, q)[1] for q in emb.points_b)
        assert best == bcp.sq_value


# ---------------------------------------------------------------------------
# Differential tests: the integer-grid kernels against a Fraction reference.
# ---------------------------------------------------------------------------


def frac_sq(p, q):
    """Reference squared distance, computed in Fractions only."""
    return sum(((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(p, q)), Fraction(0))


def ref_nearest(pts, q):
    """Reference (squared distance, lowest index) nearest neighbour."""
    return min((frac_sq(p, q), i) for i, p in enumerate(pts))


# Large coprime denominators inflate the grid scale; mixed signs, integers
# and small fractions sit beside them.
hostile_coord = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    st.sampled_from(
        [Fraction(1, 999983), Fraction(1, 1000003), Fraction(-7, 999983), Fraction(0)]
    ),
)


@st.composite
def hostile_families(draw, count: int):
    """``count`` point families of one dimension d in [1, 4].

    Points are drawn from a small pool, so duplicates are common, and one
    axis may be held constant across every family.
    """
    d = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[hostile_coord] * d), min_size=1, max_size=6))
    axis = draw(st.none() | st.integers(0, d - 1))
    value = draw(hostile_coord)
    families = []
    for _ in range(count):
        fam = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14))
        if axis is not None:
            fam = [p[:axis] + (value,) + p[axis + 1:] for p in fam]
        families.append(fam)
    return families


@st.composite
def hostile_split_families(draw):
    """Two families of one dimension d in [1, 4], as ``hostile_families``
    draws them, but the first has more than ``_LEAF_SIZE`` points from the
    pool and the second mixes pool points with fresh ones.  At least half of
    the first family lie below the pool's largest first coordinate, and
    only an axis after the first may be held constant, so the k-d root over
    the first family splits."""
    d = draw(st.integers(1, 4))
    pool = draw(
        st.lists(st.tuples(*[hostile_coord] * d), min_size=2, max_size=6)
        .filter(lambda ps: len({p[0] for p in ps}) > 1)
    )
    top = max(p[0] for p in pool)
    low = st.sampled_from([p for p in pool if p[0] < top])
    high = st.sampled_from([p for p in pool if p[0] == top])
    n = draw(st.integers(LEAF + 1, LEAF + 14))
    n_high = draw(st.integers(1, n // 2))
    points = draw(st.lists(low, min_size=n - n_high, max_size=n - n_high))
    points += draw(st.lists(high, min_size=n_high, max_size=n_high))
    query = st.sampled_from(pool) | st.tuples(*[hostile_coord] * d)
    families = [draw(st.permutations(points)),
                draw(st.lists(query, min_size=1, max_size=14))]
    axis = draw(st.none() | st.integers(1, d - 1)) if d > 1 else None
    if axis is not None:
        value = draw(hostile_coord)
        families = [[p[:axis] + (value,) + p[axis + 1:] for p in fam] for fam in families]
    return families


def assert_nn_matches_reference(pts, queries):
    for metric in ("euclid-linear", "euclid-kdtree"):
        idx = nn_build(pts, metric)
        for q in queries:
            pos, sq = nn_query(idx, q)
            want_sq, want_pos = ref_nearest(pts, q)
            assert type(sq) is Fraction
            assert (sq, pos) == (want_sq, want_pos)


def assert_bcp_matches_reference(ps, qs):
    res = bcp_euclid(ps, qs)
    assert type(res.sq_value) is Fraction
    assert (res.sq_value, res.index_p, res.index_q) == naive_bcp(ps, qs, frac_sq)


class TestIntegerKernelsAgainstFractionReference:
    @given(hostile_families(2))
    def test_bcp_on_hostile_families(self, fams):
        assert_bcp_matches_reference(*fams)

    @given(hostile_families(2))
    def test_nn_on_hostile_families(self, fams):
        assert_nn_matches_reference(*fams)

    @given(hostile_split_families())
    def test_nn_on_hostile_families_that_split_the_kdtree(self, fams):
        splitting_kdtree(fams[0])
        assert_nn_matches_reference(*fams)

    def test_coprime_denominators(self):
        ps = [(Fraction(1, 999983), 0), (Fraction(-1, 1000003), Fraction(1, 999983))]
        qs = [(Fraction(1, 1000003), Fraction(-1, 999983)), (0, 0)]
        assert_bcp_matches_reference(ps, qs)
        assert_nn_matches_reference(ps, qs)

    def test_query_denominator_outside_the_index_grid(self):
        # Index scale 3; the queries' denominators 999983 and 7 do not
        # divide it.  Two groups of m points, one more than half a leaf,
        # give the k-d tree a split at x = 1003, the left group's last
        # point; the first query lies just right of it, next to that point,
        # while every right point is 100 away in y, so the far side must be
        # searched.  Far from the origin, the squared-radius test there
        # only holds when it uses the full distance.
        m = LEAF // 2 + 1
        pts = [(1003 - Fraction(m - 1 - i, 3), 1000) for i in range(m)]
        pts += [(1004 + Fraction(i, 3), 1100) for i in range(m)]
        for metric in ("euclid-linear", "euclid-kdtree"):
            assert nn_build(pts, metric).scale == 3
        queries = [
            (1003 + Fraction(1, 999983), 1000),
            (Fraction(7050, 7), Fraction(-1, 999983)),
            (Fraction(3019, 3), 1100),
        ]
        assert_nn_matches_reference(pts, queries)
        kd = splitting_kdtree(pts)
        assert kd.root.split == 1003 * 3
        assert nn_query(kd, queries[0])[0] == m - 1

    def test_dimension_one_with_negatives(self):
        pts = [(-5,), (Fraction(-9, 2),), (3,), (-5,)]
        assert_bcp_matches_reference(pts, [(Fraction(-19, 4),), (2,)])
        assert_nn_matches_reference(pts, [(-5,), (Fraction(-19, 4),), (-4,), (100,)])

    def test_single_points(self):
        assert_bcp_matches_reference([(Fraction(1, 7), -2)], [(3, Fraction(-1, 11))])
        assert_nn_matches_reference([(Fraction(1, 7), -2)], [(3, Fraction(-1, 11))])

    def test_duplicates_and_constant_axis_tie_to_lowest_index(self):
        pts = [(2, 7, 1), (0, 7, 1), (0, 7, 1), (2, 7, 1)] * 5
        assert_bcp_matches_reference(pts, [(1, 7, 1), (0, 7, 1)])
        assert_nn_matches_reference(pts, [(1, 7, 1), (0, 7, 1), (2, 0, 0)])


# ---------------------------------------------------------------------------
# Differential tests: the Fréchet kernels against the enumeration oracle.
# ---------------------------------------------------------------------------


@st.composite
def hostile_curve_families(draw):
    """Two curve families of 1 to 4 curves each, drawn from one small pool
    of 1- to 4-vertex curves, so duplicates and |P| != |Q| are common."""
    vertex = st.tuples(hostile_coord, hostile_coord)
    pool = draw(st.lists(st.lists(vertex, min_size=1, max_size=4), min_size=1, max_size=4))
    family = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    return draw(family), draw(family)


def assert_frechet_kernels_match_reference(ps, qs):
    """bcp_frechet, a frechet-linear index and both dynamic programs agree
    with brute_force_frechet_sq, ties going to the lowest index."""
    res = bcp_frechet(ps, qs)
    assert type(res.sq_value) is Fraction
    want = naive_bcp(ps, qs, brute_force_frechet_sq)
    assert (res.sq_value, res.index_p, res.index_q) == want
    index = nn_build(ps, "frechet-linear")
    for q in qs:
        pos, sq = nn_query(index, q)
        assert (sq, pos) == min((brute_force_frechet_sq(p, q), i) for i, p in enumerate(ps))
    for p in ps:
        for q in qs:
            want = brute_force_frechet_sq(p, q)
            full, value = frechet_sq(p, q), frechet_sq_value(p, q)
            assert type(value) is Fraction
            assert full.sq_value == value == want
            assert traversal_is_valid(full.traversal, len(p), len(q))
            assert max(frac_sq(p[i], q[j]) for i, j in full.traversal) == want


class TestFrechetKernelsAgainstEnumeration:
    @given(hostile_curve_families())
    def test_on_hostile_families(self, fams):
        assert_frechet_kernels_match_reference(*fams)

    def test_coprime_denominators(self):
        a, b = Fraction(1, 999983), Fraction(1, 1000003)
        ps = [((a, 0), (1, b)), ((-b, a),), ((0, 0), (a, -a), (b, b))]
        qs = [((b, -a), (1, 0)), ((a, 0), (1, b), (1, b), (-a, -b))]
        assert_frechet_kernels_match_reference(ps, qs)

    def test_duplicate_curves_tie_to_lowest_index(self):
        c = ((0, 0), (Fraction(1, 999983), 2), (3, 0))
        ps = [((9, 9),), c, c, c]
        qs = [((-9, -9), (9, -9)), c, c]
        assert bcp_frechet(ps, qs) == BcpResult(1, 1, Fraction(0))
        assert nn_query(nn_build(ps, "frechet-linear"), c) == (1, 0)
        assert_frechet_kernels_match_reference(ps, qs)

    def test_winner_matched_off_its_middle_vertices(self):
        # q_win beats q_far (1/9 < 2/9), though the two middle vertices of
        # the winning pair are 100/9 apart and its endpoint bound 1/9 is
        # more than 2/9 once multiplied by its grid scale 3: a scan that
        # takes either for a lower bound skips the winner.
        a, b = (0, 0), (Fraction(10, 3), 0)
        p_win = (a, a, a, b)
        q_far = ((Fraction(1, 3), Fraction(1, 3)), (Fraction(11, 3), Fraction(1, 3)))
        q_win = ((0, Fraction(1, 3)), b, b, b)
        assert bcp_frechet([p_win], [q_far, q_win]) == BcpResult(0, 1, Fraction(1, 9))
        assert_frechet_kernels_match_reference([p_win], [q_far, q_win])
        assert_frechet_kernels_match_reference([q_far, q_win], [p_win])

    def test_single_vertex_curves_with_negative_coordinates(self):
        ps = [((-3, -4),), ((-1, Fraction(-1, 2)), (-7, 2)), ((-5, 0),)]
        qs = [((0, 0),), ((-3, -4), (-3, -4), (Fraction(-5, 3), -5), (0, -1))]
        assert_frechet_kernels_match_reference(ps, qs)
        assert_frechet_kernels_match_reference(qs, ps)


# ---------------------------------------------------------------------------
# An int coordinate is the exact rational it names: every kernel answers
# the same for it as for the Fraction of its value.
# ---------------------------------------------------------------------------


def as_fractions(points):
    return [tuple(map(Fraction, p)) for p in points]


class TestIntAndFractionCoordinatesAgree:
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(int_points(d), int_points(d))))
    def test_point_kernels(self, sides):
        ps, qs = sides
        fps, fqs = as_fractions(ps), as_fractions(qs)
        res = bcp_euclid(ps, qs)
        assert res == bcp_euclid(fps, fqs) and type(res.sq_value) is Fraction
        for metric in ("euclid-linear", "euclid-kdtree"):
            index, f_index = nn_build(ps, metric), nn_build(fps, metric)
            for q, fq in zip(qs, fqs):
                got = nn_query(index, q)
                assert got == nn_query(f_index, fq) == nn_query(index, fq)
                assert type(got[1]) is Fraction

    @given(
        st.lists(int_curves(), min_size=1, max_size=3),
        st.lists(int_curves(), min_size=1, max_size=3),
    )
    def test_curve_kernels(self, cs_p, cs_q):
        fs_p, fs_q = [as_fractions(c) for c in cs_p], [as_fractions(c) for c in cs_q]
        res = bcp_frechet(cs_p, cs_q)
        assert res == bcp_frechet(fs_p, fs_q) and type(res.sq_value) is Fraction
        index = nn_build(cs_p, "frechet-linear")
        f_index = nn_build(fs_p, "frechet-linear")
        for q, fq in zip(cs_q, fs_q):
            got = nn_query(index, q)
            assert got == nn_query(f_index, fq) and type(got[1]) is Fraction
        (p, q), (fp, fq) = (cs_p[0], cs_q[0]), (fs_p[0], fs_q[0])
        full, value = frechet_sq(p, q), frechet_sq_value(p, q)
        assert full == frechet_sq(fp, fq) and type(full.sq_value) is Fraction
        assert value == frechet_sq_value(fp, fq) and type(value) is Fraction
        for tau in (value, value - 1, value - Fraction(1, 2)):
            if tau >= 0:
                assert frechet_decide(p, q, tau) == frechet_decide(fp, fq, tau)


# ---------------------------------------------------------------------------
# The packed block scan against the point-by-point loop it replaces.
# ---------------------------------------------------------------------------


def block_and_loop(coords, idxs, queries):
    """Run ``queries`` (q2, k, best) in order on one ``_Block`` and on
    ``_nearest``, asserting equal (key, index) answers; returns the block."""
    norms = proximity._sq_norms(coords)
    block = proximity._Block(coords, norms, idxs)
    assert len(block) == len(idxs)
    for q2, k, best in queries:
        want = proximity._nearest(coords, norms, idxs, q2, k, best)
        assert block.nearest(q2, k, best) == want
    return block


# Magnitudes whose keys need 1-, 2-, 4-, 8- and 16-byte fields and more.
block_magnitude = st.sampled_from([1, 3, 60, 2**10, 2**20, 2**40, 2**70])


@st.composite
def blocks_and_queries(draw):
    """Points of a small pool (duplicates common), a sorted index subset on
    either side of the packing cutoff, and queries whose magnitudes rise
    and fall, so widths grow and a narrow query follows a wide one."""
    d = draw(st.integers(1, 5))
    mag = draw(block_magnitude)
    coord = st.integers(-mag, mag)
    pool = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=5))
    cutoff = proximity._PACK_MIN
    m = draw(st.integers(1, cutoff - 1) | st.integers(cutoff, 3 * cutoff))
    coords = [draw(st.sampled_from(pool)) for _ in range(m)]
    subset = st.sets(st.integers(0, m - 1), min_size=1).map(sorted)
    idxs = draw(st.just(range(m)) | subset)
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        qmag = draw(block_magnitude)
        q2 = [2 * draw(st.integers(-qmag, qmag)) for _ in range(d)]
        k = draw(st.sampled_from([1, 2, 7, 999983]))
        best = None
        if draw(st.booleans()):
            # an earlier bucket's (key, index): equal, just above or below
            # this block's answer, with a lower or higher index
            key, _ = proximity._nearest(coords, proximity._sq_norms(coords), idxs, q2, k)
            best = (key + draw(st.sampled_from([-1, 0, 0, 1])),
                    draw(st.sampled_from([-1, idxs[0], m])))
        queries.append((q2, k, best))
    return coords, idxs, queries


class TestPackedBlockAgainstLoop:
    @given(blocks_and_queries())
    def test_hostile_blocks(self, case):
        block_and_loop(*case)

    @pytest.mark.parametrize(
        "bound, width",
        [(0, 1), (127, 1), (128, 2), (2**15 - 1, 2), (2**15, 4), (2**31 - 1, 4),
         (2**31, 8), (2**63 - 1, 8), (2**63, 16), (2**127 - 1, 16), (2**127, 24)],
    )
    def test_field_width_keeps_the_sign_bit(self, bound, width):
        assert proximity._field_width(bound) == width

    @pytest.mark.parametrize("k", [127, 128, 2**15 - 1, 2**15, 2**31, 2**63, 2**100])
    def test_keys_at_the_field_limit(self, k):
        # A query at the origin makes every key k·|p|², so the largest key,
        # at index 0, equals the bound: its field is full once offset.
        n = 2 * proximity._PACK_MIN
        coords = [(1, 0)] + [(0, 0)] * (n - 1)
        block = block_and_loop(coords, range(n), [([0, 0], k, None)])
        assert block.nearest([0, 0], k) == (0, 1)

    def test_most_negative_keys(self):
        # q = p makes the key −|p|², the most negative a key gets; here
        # |p|² sits near 2**8, 2**16, 2**32 and 2**64
        n = proximity._PACK_MIN
        for x in (11, 181, 46340, 3037000499):
            coords = [(-x, x)] * n
            block_and_loop(coords, range(n), [([-2 * x, 2 * x], 1, None)])

    @pytest.mark.parametrize("m", [1, 2, proximity._PACK_MIN - 1, proximity._PACK_MIN,
                                   proximity._PACK_MIN + 1, 64])
    def test_all_duplicates_go_to_the_lowest_index(self, m):
        coords = [(5, -3, 2**41)] * (m + 3)
        idxs = list(range(3, m + 3))
        queries = [([0, 0, 0], 1, None), ([2, 2, 2], 3, None), ([-2**45, 6, 0], 1, None)]
        block = block_and_loop(coords, idxs, queries)
        assert [block.nearest(q2, k)[1] for q2, k, _ in queries] == [3, 3, 3]

    def test_equal_key_seed_keeps_the_lower_index(self):
        n = 2 * proximity._PACK_MIN
        coords = [(1, 2), (3, 4)] * n
        idxs = list(range(4, 2 * n))
        key, i = proximity._nearest(coords, proximity._sq_norms(coords), idxs, [2, 4], 1)
        assert i == 4
        queries = [([2, 4], 1, (key, 0)), ([2, 4], 1, (key, 5)), ([2, 4], 1, (key, 3))]
        block = block_and_loop(coords, idxs, queries)
        assert block.nearest([2, 4], 1, (key, 0)) == (key, 0)
        assert block.nearest([2, 4], 1, (key, 5)) == (key, 4)
        assert block.nearest([2, 4], 1, (key - 1, 99)) == (key - 1, 99)

    def test_narrow_query_after_a_wide_one_keeps_the_wide_fields(self):
        n = proximity._PACK_MIN + 2
        coords = [(x % 5 - 2, 3 - x % 4) for x in range(n)]
        wide, narrow = [2**40, -(2**41)], [2, -4]
        block = block_and_loop(coords, range(n), [(wide, 1, None), (narrow, 1, None),
                                                  (narrow, 5, None), (wide, 3, None)])
        assert block.pack[1] == 8
        block = block_and_loop(coords, range(n), [(narrow, 1, None), (wide, 1, None),
                                                  (narrow, 1, None)])
        assert block.pack[1] == 8

    def test_a_query_scans_the_pack_it_read(self):
        # The second pass over q2 first runs a wide query on the same block,
        # as another thread's query could at that point; the wide query
        # repacks the block, and the narrow one must still read its keys
        # off the pack it started with.
        n = proximity._PACK_MIN + 2
        coords = [(x % 5 - 2, 3 - x % 4) for x in range(n)]
        narrow = [2, -4]
        block = block_and_loop(coords, range(n), [(narrow, 1, None)])

        class Interrupted(list):
            passes = 0

            def __iter__(self):
                self.passes += 1
                if self.passes == 2:
                    block.nearest([2**40, -(2**41)], 1)
                return super().__iter__()

        want = proximity._nearest(coords, proximity._sq_norms(coords), range(n), narrow, 1)
        assert want[0] == -1
        assert block.nearest(Interrupted(narrow), 1) == want
        assert block.pack[1] == 8

    def test_wide_fields_from_coprime_denominators(self):
        # as_integer_grid puts these on a grid of scale ~2**100, so keys
        # need fields wider than 8 bytes; the index answers stay exact.
        dens = [999983, 1000003, 999979, 1000033, 999961]
        pts = [(Fraction(i - 7, dens[i % 5]), Fraction(3, dens[(i + 2) % 5]) - i)
               for i in range(3 * proximity._PACK_MIN)]
        queries = [(Fraction(-1, 999983), -4), (Fraction(5, 7), Fraction(-11, 1000003)),
                   pts[4]]
        assert_nn_matches_reference(pts, queries)
        (grid,), _ = proximity.as_integer_grid([pts])
        q2s = [[2 * x for x in p] for p in grid[:3]]
        block = block_and_loop(grid, range(len(grid)), [(q2, 1, None) for q2 in q2s])
        assert block.pack[1] > 8

    def test_kdtree_buckets_have_a_length(self):
        # the k-d tree's leaves are blocks; their lengths cover every point
        pts = [(i % 3, 0) for i in range(50)]
        stack, sizes = [nn_build(pts, "euclid-kdtree").root], []
        while stack:
            node = stack.pop()
            if node.bucket is None:
                stack += [node.left, node.right]
            else:
                sizes.append(len(node.bucket))
        assert sum(sizes) == 50 and max(sizes) >= proximity._PACK_MIN


# ---------------------------------------------------------------------------
# One index shared between threads.
# ---------------------------------------------------------------------------


def test_threads_sharing_an_index_get_a_linear_scans_answers():
    # Queries rising in magnitude make a fresh index repack its blocks wider
    # while another thread scans them.  A tiny switch interval lets threads
    # change places inside a query; every answer must still equal a
    # brute-force scan, and no thread may raise.
    rng = random.Random(7)
    cases = []
    for cls, n in ((LinearScanIndex, 40), (KdTreeIndex, 300)):
        pts = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(n)]
        queries = [tuple(rng.randint(-(2**e), 2**e) for _ in range(3))
                   for e in range(0, 72, 3)]
        want = [min((sum((a - b) ** 2 for a, b in zip(p, q)), i) for i, p in enumerate(pts))
                for q in queries]
        cases.append((cls, pts, queries, [(i, sq) for sq, i in want]))
    wrong, raised = [], []

    def run(index, queries, want):
        try:
            for q, answer in zip(queries, want):
                if index.query(q) != answer:
                    wrong.append((q, answer))
        except Exception as exc:  # reported by the assertion below
            raised.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            for cls, pts, queries, want in cases:
                index = cls(pts)
                threads = [threading.Thread(target=run, args=(index, queries[s:] + queries[:s],
                                                              want[s:] + want[:s]))
                           for s in (0, len(queries) // 2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not raised and not wrong, (raised[:3], wrong[:3])
