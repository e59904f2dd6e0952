"""Curve-distance dynamic programs against the traversal-enumeration oracle."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rational_coord, small_coord
from ovgeom import frechet
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


@pytest.fixture(scope="class")
def packed_kernels():
    """Every pair on the packed kernels, q's columns in strips of 3:
    ``frechet_sq`` always runs the wavefront, and ``_WAVE_MIN`` = 1 moves
    the value DP onto it too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frechet, "_WAVE_MIN", 1)
        mp.setattr(frechet, "_MASK_MIN", 1)
        mp.setattr(frechet, "_STRIP", 3)
        yield


@pytest.mark.usefixtures("packed_kernels")
class TestFrechetSqPacked(TestFrechetSq):
    """``TestFrechetSq`` with every pair on the wavefront."""


@pytest.mark.usefixtures("packed_kernels")
class TestFrechetSqValuePacked(TestFrechetSqValue):
    """``TestFrechetSqValue`` with every pair on the wavefront."""


@pytest.mark.usefixtures("packed_kernels")
class TestFrechetDecidePacked(TestFrechetDecide):
    """``TestFrechetDecide`` with every mask from one packed compare."""


@pytest.mark.usefixtures("packed_kernels")
class TestFrechetDecideAgainstValuePacked(TestFrechetDecideAgainstValue):
    """``TestFrechetDecideAgainstValue`` on the packed kernels."""


def _walk(rng, n, step=3, pool=None):
    """n vertices of a lattice walk, or n draws from ``pool``."""
    if pool is not None:
        return [rng.choice(pool) for _ in range(n)]
    x = y = 0
    out = []
    for _ in range(n):
        out.append((x, y))
        x += rng.randint(-step, step)
        y += rng.randint(-step, step)
    return out


def _coordinate(rng, kind):
    if kind == "wide":  # fields wider than 8 bytes
        return rng.randint(-(10**30), 10**30)
    return Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 5, 7, 11, 13]))


@st.composite
def long_curve_pairs(draw):
    """Two curves of 20 to 300 vertices, either longer: walks, wide or
    rational coordinates, constant curves, or vertices repeated from a
    small pool."""
    n, m = draw(st.integers(20, 300)), draw(st.integers(20, 300))
    kind = draw(st.sampled_from(["walk", "wide", "rational", "constant", "pool"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "walk":
        return _walk(rng, n), _walk(rng, m)
    if kind == "constant":
        return [(3, -1)] * n, [_walk(rng, 1)[0]] * m
    coord_kind = "wide" if kind == "wide" else "rational"
    pool = [(_coordinate(rng, coord_kind), _coordinate(rng, coord_kind)) for _ in range(5)]
    if kind == "pool":
        return _walk(rng, n, pool=pool), _walk(rng, m, pool=pool)
    return (
        [(_coordinate(rng, kind), _coordinate(rng, kind)) for _ in range(n)],
        [(_coordinate(rng, kind), _coordinate(rng, kind)) for _ in range(m)],
    )


def _rows_backtrack(table):
    """The traversal ``frechet_sq`` defines, read off a table of rows."""
    i, j = len(table) - 1, len(table[0]) - 1
    steps = [(i, j)]
    while (i, j) != (0, 0):
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best, pick = table[i - 1][j - 1], (i - 1, j - 1)
            if table[i - 1][j] < best:
                best, pick = table[i - 1][j], (i - 1, j)
            if table[i][j - 1] < best:
                pick = (i, j - 1)
            i, j = pick
        steps.append((i, j))
    return tuple(reversed(steps))


def _wave_table(ip, iq):
    """The wavefront's table of ip against iq (len(iq) <= len(ip)) as rows,
    read off the kept strips: cell (i, j) is field j % _STRIP of
    anti-diagonal i + j % _STRIP of strip j // _STRIP."""
    _, w, strips = frechet._wavefront(ip, iq, keep=True)
    cells = [divmod(j, frechet._STRIP) for j in range(len(iq))]
    mask = (1 << 8 * w) - 1
    return [[strips[s][i + f] >> 8 * w * f & mask for s, f in cells] for i in range(len(ip))]


class TestWavefrontAgainstRows:
    """The packed wavefront against the row loop on long pairs, on both
    sides of ``_WAVE_MIN`` and of a strip boundary."""

    @settings(max_examples=40)
    @given(long_curve_pairs(), st.sampled_from([256, 64, 7, 2, 1]))
    def test_value_table_and_traversal(self, pq, strip):
        p, q = pq
        (ip, iq), scale = as_integer_grid([curve(p), curve(q)])
        table = list(frechet._rows(ip, iq))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(frechet, "_STRIP", strip)
            res = frechet_sq(p, q)
            value = frechet_sq_value(p, q)
            longer, shorter = (ip, iq) if len(iq) <= len(ip) else (iq, ip)
            wave = _wave_table(longer, shorter)
        assert res.sq_value == value == Fraction(table[-1][-1], scale * scale)
        assert res.traversal == _rows_backtrack(table)
        assert wave == list(frechet._rows(longer, shorter))

    @pytest.mark.parametrize("k", [3, 4, 7, 8, 15, 16, 31, 32, 60, 63, 64, 100])
    def test_fields_at_the_guard_bit(self, k):
        # Every distance of p against q is 0 or 2**(2k + 1), the bound
        # itself: a power of two next to a field's guard bit.
        far = (1 << k, 1 << k)
        p = [(0, 0), far] * 20
        q = [far] * 15 + [(0, 0)] * 16
        (ip, iq), _ = as_integer_grid([curve(p), curve(q)])
        table = list(frechet._rows(ip, iq))
        res = frechet_sq(p, q)
        assert res.sq_value == table[-1][-1] == 1 << 2 * k + 1
        assert res.traversal == _rows_backtrack(table)
        assert _wave_table(ip, iq) == table
        assert frechet_decide(p, q, res.sq_value)
        assert not frechet_decide(p, q, res.sq_value - 1)

    def test_unbalanced_pairs_both_ways(self):
        rng = random.Random("frechet:unbalanced")
        p, q = _walk(rng, 600), _walk(rng, 40)
        (ip, iq), _ = as_integer_grid([curve(p), curve(q)])
        table = list(frechet._rows(ip, iq))
        flipped = list(frechet._rows(iq, ip))
        assert frechet_sq(p, q).traversal == _rows_backtrack(table)
        assert frechet_sq(q, p).traversal == _rows_backtrack(flipped)
        assert frechet_sq_value(p, q) == frechet_sq_value(q, p) == table[-1][-1]

    def test_value_memory_is_linear(self):
        # Unstripped, the skewed matrix of two 1024-vertex walks with
        # 4-byte fields takes 1024 · 2047 · 4 bytes, about 8 MB.
        rng = random.Random("frechet:memory")
        p, q = _walk(rng, 1024), _walk(rng, 1024)
        w = frechet._frame(p, q)[2]
        assert w == 4
        tracemalloc.start()
        try:
            frechet_sq_value(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 2047 * w // 4


class TestDecideOnLongWalks:
    """Both mask builders against the value on walks of 128 to 300."""

    @pytest.mark.parametrize("mask_min", [10, 10**9], ids=["packed", "string"])
    @pytest.mark.parametrize("n, m, pool", [(128, 128, False), (300, 131, False),
                                            (140, 300, False), (256, 200, True)])
    def test_at_the_value_and_limits_beyond(self, monkeypatch, mask_min, n, m, pool):
        monkeypatch.setattr(frechet, "_MASK_MIN", mask_min)
        rng = random.Random(f"frechet:decide:{n}:{m}")
        shared = _walk(rng, 12) if pool else None
        ip, iq = _walk(rng, n, pool=shared), _walk(rng, m, pool=shared)
        value = frechet._grid_value(ip, iq)
        top = max(squared_euclidean(a, b) for a in ip for b in iq)
        assert frechet._grid_decide(ip, iq, value)
        assert not frechet._grid_decide(ip, iq, value - 1)
        assert not frechet._grid_decide(ip, iq, -1)
        assert frechet._grid_decide(ip, iq, top)
        assert frechet._grid_decide(ip, iq, 10**40)
        # the rational boundary on a grid of scale 6
        p = [(Fraction(x, 2), Fraction(y, 3)) for x, y in ip]
        q = [(Fraction(x, 2), Fraction(y, 3)) for x, y in iq]
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
