"""Curve-distance dynamic programs against the traversal-enumeration oracle."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rational_coord, small_coord
from ovgeom.core import as_integer_grid, curve, squared_euclidean
from ovgeom.frechet import (
    brute_force_frechet_sq,
    frechet_decide,
    frechet_sq,
    frechet_sq_value,
    traversal_is_valid,
)


def _fixed_curve(n, coord):
    return st.lists(st.tuples(coord, coord), min_size=n, max_size=n).map(tuple)


def small_curve_pairs(max_total=10, coord=small_coord):
    sizes = st.tuples(
        st.integers(1, max_total - 1), st.integers(1, max_total - 1)
    ).filter(lambda nm: nm[0] + nm[1] <= max_total)
    return sizes.flatmap(
        lambda nm: st.tuples(_fixed_curve(nm[0], coord), _fixed_curve(nm[1], coord))
    )


def traversal_max_sq(p, q, steps):
    """Test-local: recompute a traversal's bottleneck from scratch."""
    p, q = curve(p), curve(q)
    return max(squared_euclidean(p[i], q[j]) for i, j in steps)


class TestFrechetSq:
    def test_identical_curves_are_at_zero(self):
        c = ((0, 0), (1, 2), (3, 1))
        res = frechet_sq(c, c)
        assert res.sq_value == 0
        assert res.traversal == ((0, 0), (1, 1), (2, 2))

    def test_single_forced_step(self):
        res = frechet_sq(((0, 0),), ((3, 4),))
        assert res.sq_value == 25
        assert res.traversal == ((0, 0),)

    def test_two_against_one_takes_worse_pair(self):
        res = frechet_sq(((0, 0), (5, 0)), ((1, 0),))
        assert res.sq_value == 16
        assert res.traversal == ((0, 0), (1, 0))

    def test_rejects_empty_curve(self):
        with pytest.raises(ValueError):
            frechet_sq((), ((0, 0),))

    @given(small_curve_pairs())
    def test_equals_enumeration_oracle(self, pq):
        p, q = pq
        res = frechet_sq(p, q)
        assert res.sq_value == brute_force_frechet_sq(p, q)

    @given(small_curve_pairs(coord=rational_coord, max_total=8))
    def test_oracle_equality_on_rational_coordinates(self, pq):
        p, q = pq
        assert frechet_sq(p, q).sq_value == brute_force_frechet_sq(p, q)

    @given(small_curve_pairs())
    def test_traversal_is_valid_and_achieves_value(self, pq):
        p, q = pq
        res = frechet_sq(p, q)
        assert traversal_is_valid(res.traversal, len(p), len(q))
        assert traversal_max_sq(p, q, res.traversal) == res.sq_value

    @given(small_curve_pairs())
    def test_symmetry(self, pq):
        p, q = pq
        assert frechet_sq(p, q).sq_value == frechet_sq(q, p).sq_value

    @given(small_curve_pairs())
    def test_endpoints_bound_from_below(self, pq):
        p, q = pq
        pc, qc = curve(p), curve(q)
        res = frechet_sq(p, q)
        assert res.sq_value >= squared_euclidean(pc[0], qc[0])
        assert res.sq_value >= squared_euclidean(pc[-1], qc[-1])

    def test_backtrack_prefers_diagonal_on_ties(self):
        c = ((0, 0), (1, 0))
        assert frechet_sq(c, c).traversal == ((0, 0), (1, 1))


class TestFrechetSqValue:
    @given(small_curve_pairs())
    def test_matches_full_table(self, pq):
        p, q = pq
        assert frechet_sq_value(p, q) == frechet_sq(p, q).sq_value

    def test_handles_unequal_lengths_both_ways(self):
        p = ((0, 0), (1, 1), (2, 0), (3, 1))
        q = ((0, 1),)
        # forced to pair every p-vertex with the single q-vertex; worst is (3,1)
        assert frechet_sq_value(p, q) == frechet_sq_value(q, p) == 9


class TestFrechetDecide:
    def test_identical_at_zero_threshold(self):
        c = ((1, 2), (3, 4))
        assert frechet_decide(c, c, 0)

    def test_just_below_single_distance(self):
        assert not frechet_decide(((0, 0),), ((3, 4),), 24)
        assert frechet_decide(((0, 0),), ((3, 4),), 25)

    def test_rational_threshold(self):
        p, q = ((0, 0),), ((Fraction(1, 2), 0),)
        assert frechet_decide(p, q, Fraction(1, 4))
        assert not frechet_decide(p, q, Fraction(24, 100))

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            frechet_decide(((0, 0),), ((0, 0),), -1)

    @given(small_curve_pairs(), st.fractions(min_value=0, max_value=600, max_denominator=8))
    def test_agrees_with_value_comparison(self, pq, tau_sq):
        p, q = pq
        assert frechet_decide(p, q, tau_sq) == (frechet_sq_value(p, q) <= tau_sq)

    @given(small_curve_pairs())
    def test_decision_at_exact_value_boundary(self, pq):
        p, q = pq
        v = frechet_sq_value(p, q)
        assert frechet_decide(p, q, v)
        if v > 0:
            assert not frechet_decide(p, q, v - Fraction(1, 1000))

    @given(
        small_curve_pairs(),
        st.fractions(min_value=0, max_value=100, max_denominator=8),
        st.fractions(min_value=0, max_value=100, max_denominator=8),
    )
    def test_monotone_in_threshold(self, pq, t1, t2):
        p, q = pq
        lo, hi = min(t1, t2), max(t1, t2)
        if frechet_decide(p, q, lo):
            assert frechet_decide(p, q, hi)

    def test_early_exit_row_with_no_reachable_cell(self):
        p = ((0, 0), (100, 100), (0, 0))
        q = ((0, 0), (0, 1), (0, 0))
        assert not frechet_decide(p, q, 4)


# Coordinates up to 10**6 in size over coprime denominators, so the grid
# scale of a pair is large.  Points come from a few x and y values, so
# vertices repeat, and distinct vertices often share an x.
wide_coord = st.builds(
    Fraction, st.integers(-(10**6), 10**6), st.sampled_from([1, 2, 3, 5, 7, 11, 13])
)


@st.composite
def repeating_curve_pairs(draw):
    """p of 1-8 vertices and q of 1-130 vertices from one small pool: q's
    in-threshold cells form long runs, and p's rows repeat."""
    xs = draw(st.lists(wide_coord, min_size=1, max_size=3))
    ys = draw(st.lists(wide_coord, min_size=1, max_size=3))
    pool = st.tuples(st.sampled_from(xs), st.sampled_from(ys))
    p = draw(st.lists(pool, min_size=1, max_size=8))
    q = draw(st.lists(pool, min_size=1, max_size=130))
    return p, q


def assert_decides_at_the_value(p, q):
    """True at the value; False one grid step below it, the largest
    squared distance under the value that the pair's grid can produce."""
    v = frechet_sq_value(p, q)
    scale = as_integer_grid([curve(p), curve(q)])[1]
    assert frechet_decide(p, q, v)
    if v > 0:
        assert not frechet_decide(p, q, v - Fraction(1, scale * scale))


class TestFrechetDecideAgainstValue:
    """The bit-row decider against the value recurrence."""

    @given(repeating_curve_pairs())
    def test_repeating_vertices_and_long_runs(self, pq):
        assert_decides_at_the_value(*pq)

    @pytest.mark.parametrize("m", [63, 64, 65, 129])
    @pytest.mark.parametrize("exit_step", ["run", "diagonal"])
    def test_run_across_bit_64(self, m, exit_step):
        # Row 0 reaches column 0 only.  Row 1 is one run from column 1 to
        # m-1, or to m-2 when a third row must step diagonally into the last
        # column: the only way to cell (n-1, m-1).  The last cell entered
        # carries the value, so one grid step below it the walk is cut there.
        far = 10**6
        p0, p1, p2 = (0, 0), (Fraction(1, 3), far), (far, Fraction(1, 2))
        q0, q1, q2 = (Fraction(1, 13), 0), (0, far), (far, 0)
        if exit_step == "run":
            p, q, value = (p0, p1), (q0,) + (q1,) * (m - 1), Fraction(1, 9)
        else:
            p, q, value = (p0, p1, p2), (q0,) + (q1,) * (m - 2) + (q2,), Fraction(1, 4)
        assert frechet_sq_value(p, q) == value
        assert_decides_at_the_value(p, q)


class TestBruteForceOracle:
    def test_single_point_curves(self):
        assert brute_force_frechet_sq(((0, 0),), ((3, 4),)) == 25

    def test_only_one_traversal(self):
        p = ((0, 0), (5, 0))
        q = ((1, 0),)
        assert brute_force_frechet_sq(p, q) == 16

    def test_refuses_beyond_cap(self):
        p = tuple((i, 0) for i in range(9))
        q = tuple((i, 1) for i in range(9))
        with pytest.raises(ValueError, match="cap"):
            brute_force_frechet_sq(p, q)
        # raising the cap admits the pair; aligned traversal stays at height 1
        assert brute_force_frechet_sq(p, q, max_total=20) == 1


class TestTraversalValidity:
    def test_accepts_diagonal(self):
        assert traversal_is_valid(((0, 0), (1, 1)), 2, 2)

    def test_rejects_wrong_start_or_end(self):
        assert not traversal_is_valid(((0, 1), (1, 1)), 2, 2)
        assert not traversal_is_valid(((0, 0), (1, 0)), 2, 2)
        assert not traversal_is_valid((), 1, 1)

    def test_rejects_jumps_and_stalls(self):
        assert not traversal_is_valid(((0, 0), (2, 1), (2, 2)), 3, 3)
        assert not traversal_is_valid(((0, 0), (0, 0), (1, 1)), 2, 2)
        assert not traversal_is_valid(((0, 0), (1, 1), (0, 1)), 2, 2)
