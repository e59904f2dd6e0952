"""Domain types and exact arithmetic primitives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bit_vectors, int_curves, rat_curves, rational_coord, vector_pairs
from ovgeom import core
from ovgeom.core import (
    OvInstance,
    Rat,
    _fields,
    _packed,
    as_integer_grid,
    bit_vector,
    curve,
    inner_product,
    ov_instance,
    point,
    sq_dist,
    squared_euclidean,
)
from ovgeom.frechet import frechet_decide, frechet_sq, frechet_sq_value
from ovgeom.generate import GenSpec
from ovgeom.ov import plan_unbalanced
from ovgeom.proximity import KdTreeIndex, bcp_euclid, bcp_frechet, nn_build


class TestInnerProduct:
    def test_zero_vector(self):
        assert inner_product((0, 0, 0), (1, 1, 1)) == 0

    def test_single_overlap(self):
        assert inner_product((1, 0, 1), (1, 1, 0)) == 1

    def test_all_ones(self):
        assert inner_product((1, 1), (1, 1)) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner_product((1, 0), (1, 0, 1))

    @given(vector_pairs())
    def test_matches_overlap_count(self, pair):
        a, b = pair
        overlap = sum(1 for x, y in zip(a, b) if x == 1 and y == 1)
        assert inner_product(a, b) == overlap
        assert inner_product(b, a) == overlap

    @given(vector_pairs())
    def test_zero_iff_disjoint_support(self, pair):
        a, b = pair
        disjoint = all(not (x and y) for x, y in zip(a, b))
        assert (inner_product(a, b) == 0) == disjoint


class TestSquaredEuclidean:
    def test_identity(self):
        assert squared_euclidean(point((0, 0)), point((0, 0))) == 0

    def test_three_four_five(self):
        assert squared_euclidean(point((0, 0)), point((3, 4))) == 25

    def test_unit_offsets(self):
        assert squared_euclidean(point((1, 3)), point((0, 2))) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            squared_euclidean(point((1,)), point((1, 2)))

    @given(st.lists(st.tuples(rational_coord, rational_coord), min_size=1, max_size=6))
    def test_symmetry_and_zero_iff_equal(self, pairs):
        p = point([x for x, _ in pairs])
        q = point([y for _, y in pairs])
        assert squared_euclidean(p, q) == squared_euclidean(q, p)
        assert (squared_euclidean(p, q) == 0) == (p == q)
        assert squared_euclidean(p, q) >= 0


class TestRatExactness:
    @given(
        st.fractions(max_denominator=1000),
        st.fractions(max_denominator=1000),
    )
    def test_add_then_subtract_is_identity(self, x, y):
        assert (x + y) - y == x

    @given(
        st.fractions(max_denominator=100),
        st.fractions(max_denominator=100),
        st.fractions(max_denominator=100),
    )
    def test_associativity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)

    def test_rat_is_lowest_terms(self):
        r = Rat(6, 4)
        assert (r.numerator, r.denominator) == (3, 2)


class TestValidators:
    def test_bit_vector_rejects_non_bits(self):
        with pytest.raises(ValueError, match="0 or 1"):
            bit_vector((0, 2))
        with pytest.raises(ValueError, match="length >= 1"):
            bit_vector(())

    def test_point_coerces_mixed_tokens(self):
        assert point((1, "1/2", Fraction(3, 4))) == (Rat(1), Rat(1, 2), Rat(3, 4))
        with pytest.raises(ValueError, match="dimension >= 1"):
            point(())

    def test_point_keeps_int_and_fraction_and_converts_the_rest(self):
        # ints and Fractions are kept by identity, and so is a tuple of them
        big, half = 10**30, Fraction(1, 2)
        exact = (big, half, -7)
        assert point(exact) is exact
        assert all(a is b for a, b in zip(point([big, half]), (big, half)))
        for raw in (True, 0.5, "3"):
            mixed = point((big, raw, half))
            assert mixed[0] is big and mixed[2] is half
            assert type(mixed[1]) is Fraction and mixed[1] == Fraction(raw)

    def test_curve_needs_planar_vertices(self):
        for bad in ((), [], iter(())):
            with pytest.raises(ValueError, match="at least one vertex"):
                curve(bad)
        for bad in (((1, 2, 3),), [(1, 2), (1, 2, 3)], [[1, 2], [3]], [(1, 2), (Fraction(1, 2),)]):
            with pytest.raises(ValueError, match="2-dimensional"):
                curve(bad)
        with pytest.raises(ValueError, match="dimension >= 1"):
            curve([[]])

    def test_curve_takes_any_vertex_sequence_as_point_does(self):
        half = Fraction(1, 2)
        for raw in (
            [[1, 2], (half, 3)],
            ((x, -x) for x in (half, 2, 10**30)),
            [(True, 0), (1, False)],
            [(0.5, "3/4")],
        ):
            raw = list(raw)
            got = curve(v for v in raw)
            assert got == tuple(point(v) for v in raw)
            assert all(type(v) is tuple for v in got)
            assert {type(x) for v in got for x in v} <= {int, Fraction}
        # exact 2-tuples are the curve's vertices themselves
        exact = [(10**30, half), (-7, 0)]
        assert all(a is b for a, b in zip(curve(exact), exact))

    @pytest.mark.parametrize("call", [
        lambda inf: GenSpec("unbalanced", 4, 2, alpha=inf),
        lambda inf: plan_unbalanced(4, inf),
        lambda inf: point([-inf, 1]),
        lambda inf: nn_build([(inf, 0)], "euclid-linear"),
        lambda inf: bcp_frechet([((inf, 0),)], [((0, 0),)]),
        lambda inf: frechet_decide(((0, 0),), ((1, 1),), inf),
    ], ids=["GenSpec", "plan_unbalanced", "point", "nn_build", "bcp_frechet", "frechet_decide"])
    def test_an_infinity_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="finite"):
            call(float("inf"))

    def test_sq_dist_rejects_negative(self):
        assert sq_dist("9/4") == Rat(9, 4)
        with pytest.raises(ValueError, match=">= 0"):
            sq_dist(-1)


class TestOvInstance:
    def test_builder_infers_dimension(self):
        inst = ov_instance([(1, 0)], [(0, 1), (1, 1)])
        assert (inst.n_a, inst.n_b, inst.d) == (1, 2, 2)

    def test_rejects_ragged_vectors(self):
        with pytest.raises(ValueError, match="dimension"):
            ov_instance([(1, 0)], [(0,)])

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError):
            ov_instance([], [(1,)])
        with pytest.raises(ValueError, match="non-empty"):
            OvInstance(((1,),), (), 1)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            OvInstance(((2,),), ((1,),), 1)

    def test_immutable(self):
        inst = ov_instance([(1,)], [(0,)])
        with pytest.raises(AttributeError):
            inst.d = 2

    @given(bit_vectors(max_d=6))
    def test_round_numbers(self, vec):
        inst = ov_instance([vec], [vec])
        assert inst.d == len(vec)


class TestIntegerGrid:
    @given(rat_curves(), rat_curves())
    def test_scale_reproduces_coordinates(self, c1, c2):
        p, q = curve(c1), curve(c2)
        (ip, iq), scale = as_integer_grid([p, q])
        assert scale >= 1 and isinstance(scale, int)
        for orig, scaled in ((p, ip), (q, iq)):
            for (x, y), (sx, sy) in zip(orig, scaled):
                assert isinstance(sx, int) and isinstance(sy, int)
                assert Rat(sx, scale) == x and Rat(sy, scale) == y

    @given(rat_curves(max_len=3), rat_curves(max_len=3))
    def test_squared_distances_scale_by_square(self, c1, c2):
        p, q = curve(c1), curve(c2)
        (ip, iq), scale = as_integer_grid([p, q])
        for (px, py), v in zip(ip, p):
            for (qx, qy), w in zip(iq, q):
                grid_sq = (px - qx) ** 2 + (py - qy) ** 2
                assert Rat(grid_sq, scale * scale) == squared_euclidean(v, w)

    def test_integer_input_scale_is_one(self):
        (grid,), scale = as_integer_grid([curve(((1, 2), (3, 4)))])
        assert scale == 1 and grid == [(1, 2), (3, 4)]

    def test_point_groups_of_any_dimension(self):
        line = [point((Fraction(1, 2),)), point((-3,)), point((Fraction(2, 3),))]
        wide = [point((1, Fraction(-1, 4), 0, 5, Fraction(7, 6)))]
        (g1, g5), scale = as_integer_grid([line, wide])
        assert scale == 12
        assert g1 == [(6,), (-36,), (8,)]
        assert g5 == [(12, -3, 0, 60, 14)]
        (g,), scale = as_integer_grid([[point((1, -2, 3, 0, 9)), point((4, 4, 4, 4, 4))]])
        assert scale == 1 and g == [(1, -2, 3, 0, 9), (4, 4, 4, 4, 4)]

    def test_integer_valued_rationals_come_out_as_plain_ints(self):
        for groups, scale, want in (
            ([[(Rat(3), Rat(-4)), (True, 2)]], 1, [[(3, -4), (1, 2)]]),
            ([[(Rat(3), 1)]], 5, [[(15, 5)]]),
        ):
            got = as_integer_grid(groups, scale)
            assert got == (want, scale)
            assert {type(x) for g in got[0] for p in g for x in p} == {int}

    def test_repeated_vertex_objects_grid_as_fresh_copies(self):
        half, third = (Fraction(1, 2), 3), (Fraction(-1, 3), Fraction(5, 7))
        shared = [half, third, half, half, (0, 1), third]
        fresh = [tuple(Fraction(x.numerator, x.denominator) for x in v) for v in shared]
        for scale in (1, 4):
            got = as_integer_grid([shared, [third, half]], scale)
            assert got == as_integer_grid([fresh, [*fresh[1::-1]]], scale)
            (g, h), _ = got
            assert g[0] is g[2] is g[3] is h[1] and g[1] is g[5] is h[0]


class TestPackedFields:
    """``_packed`` and ``_fields`` agree with Σ_j v_j·2**(8wj) at every
    width, on this host's path and on the byte-by-byte one every other
    host takes."""

    @pytest.fixture(params=["host", "bytewise"])
    def route(self, request, monkeypatch):
        if request.param == "bytewise":
            monkeypatch.setattr(core, "_NATIVE", False)

    @pytest.mark.parametrize("w", [1, 2, 4, 8, 16])
    def test_pack_and_read_round_trip(self, route, w):
        half = 1 << (8 * w - 1)
        values = [-half, -1, 0, 1, half - 1]
        high = sum(half << 8 * w * j for j in range(len(values)))
        packed = _packed(values, w, high)
        assert packed == sum(v << 8 * w * j for j, v in enumerate(values))
        assert _fields(packed + high, len(values), w) == [v + half for v in values]
        naturals = [0, 1, half - 1]
        packed = _packed(naturals, w)
        assert packed == sum(v << 8 * w * j for j, v in enumerate(naturals))
        assert _fields(packed, len(naturals), w) == naturals

    def test_kernels_answer_alike_byte_by_byte(self, monkeypatch):
        rng = random.Random(27)
        cases = []
        # fields of 2, 4, 8 and 24 bytes in the point scans and curve kernels
        for r in (9, 10**4, 10**8, 10**20):
            pts = [tuple(rng.randint(-r, r) for _ in range(3)) for _ in range(40)]
            qs = [tuple(rng.randint(-r, r) for _ in range(3)) for _ in range(5)]
            p = [(rng.randint(-r, r), rng.randint(-r, r)) for _ in range(40)]
            q = [(rng.randint(-r, r), rng.randint(-r, r)) for _ in range(36)]
            cases.append((pts, qs, p, q))

        def answers():
            out = []
            for pts, qs, p, q in cases:
                kd = KdTreeIndex(pts)
                value = frechet_sq_value(p, q)
                out.append((
                    bcp_euclid(qs, pts), [kd.query(x) for x in qs],
                    frechet_sq(p, q), value,
                    frechet_decide(p, q, value), frechet_decide(p, q, value - 1),
                ))
            return out

        native = answers()
        assert all(a[4] and not a[5] for a in native)
        monkeypatch.setattr(core, "_NATIVE", False)
        assert answers() == native
