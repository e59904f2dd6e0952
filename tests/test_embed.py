"""Point and curve embeddings: exact identity, gap, and threshold decisions."""

import random
from fractions import Fraction

from hypothesis import given

from conftest import instances, vector_pairs
from ovgeom.core import inner_product, squared_euclidean
from ovgeom.embed import (
    embed_curve_a,
    embed_curve_b,
    embed_euclid,
    embed_frechet,
    embed_point_a,
    embed_point_b,
)
from ovgeom.frechet import frechet_decide, frechet_sq_value
from ovgeom.proximity import bcp_euclid


class TestPointEmbedding:
    def test_pinned_coordinates(self):
        assert embed_point_a((1,)) == (Fraction(3),)
        assert embed_point_a((0,)) == (Fraction(1),)
        assert embed_point_b((1,)) == (Fraction(0),)
        assert embed_point_b((0,)) == (Fraction(2),)

    def test_orthogonal_pair_sits_exactly_at_threshold(self):
        a, b = (0, 1), (1, 0)
        sq = squared_euclidean(embed_point_a(a), embed_point_b(b))
        assert sq == 2 == len(a) + 8 * inner_product(a, b)

    def test_double_overlap(self):
        a = b = (1, 1)
        sq = squared_euclidean(embed_point_a(a), embed_point_b(b))
        assert sq == 18

    @given(vector_pairs(max_d=16))
    def test_squared_distance_identity(self, pair):
        a, b = pair
        sq = squared_euclidean(embed_point_a(a), embed_point_b(b))
        assert sq == len(a) + 8 * inner_product(a, b)

    def test_identity_up_to_dimension_64(self):
        rng = random.Random("embed-identity")
        for _ in range(200):
            d = rng.randint(1, 64)
            a = tuple(rng.randrange(2) for _ in range(d))
            b = tuple(rng.randrange(2) for _ in range(d))
            sq = squared_euclidean(embed_point_a(a), embed_point_b(b))
            assert sq == d + 8 * inner_product(a, b)
            assert (sq <= d) == (inner_product(a, b) == 0)

    @given(vector_pairs(max_d=16))
    def test_gap_has_no_middle_ground(self, pair):
        a, b = pair
        d = len(a)
        sq = squared_euclidean(embed_point_a(a), embed_point_b(b))
        assert sq == d or sq >= d + 8

    @given(instances())
    def test_instance_embedding_shape(self, inst):
        emb = embed_euclid(inst)
        assert len(emb.points_a) == inst.n_a
        assert len(emb.points_b) == inst.n_b
        assert emb.tau_sq == Fraction(inst.d)
        assert all(c in (1, 3) for p in emb.points_a for c in p)
        assert all(c in (0, 2) for q in emb.points_b for c in q)

    @given(instances())
    def test_closest_pair_answers_the_instance(self, inst):
        from ovgeom.ov import ov_decide

        emb = embed_euclid(inst)
        closest = bcp_euclid(emb.points_a, emb.points_b).sq_value
        assert (closest <= emb.tau_sq) == (ov_decide(inst) is not None)


class TestCurveEmbedding:
    def test_pinned_curves(self):
        assert embed_curve_a((1, 0)) == (
            (Fraction(3), Fraction(3)),
            (Fraction(6), Fraction(1)),
        )
        assert embed_curve_b((0, 1)) == (
            (Fraction(3), Fraction(2)),
            (Fraction(6), Fraction(0)),
        )

    def test_orthogonal_pair_distance_is_one(self):
        assert frechet_sq_value(embed_curve_a((1, 0)), embed_curve_b((0, 1))) == 1

    @given(vector_pairs(max_d=12))
    def test_decision_at_threshold_one_iff_orthogonal(self, pair):
        a, b = pair
        ca, cb = embed_curve_a(a), embed_curve_b(b)
        assert frechet_decide(ca, cb, 1) == (inner_product(a, b) == 0)

    @given(vector_pairs(max_d=12))
    def test_value_is_exactly_one_or_exactly_nine(self, pair):
        a, b = pair
        v = frechet_sq_value(embed_curve_a(a), embed_curve_b(b))
        assert v in (Fraction(1), Fraction(9))
        assert (v == 1) == (inner_product(a, b) == 0)

    @given(vector_pairs(max_d=8))
    def test_cross_index_vertices_are_far(self, pair):
        a, b = pair
        ca, cb = embed_curve_a(a), embed_curve_b(b)
        for i, pv in enumerate(ca):
            for j, qv in enumerate(cb):
                if i != j:
                    assert squared_euclidean(pv, qv) >= 9

    @given(instances(max_n=4, max_d=4))
    def test_instance_embedding_shape(self, inst):
        emb = embed_frechet(inst)
        assert len(emb.curves_a) == inst.n_a
        assert len(emb.curves_b) == inst.n_b
        assert emb.tau_sq == 1
        for fam, ys in ((emb.curves_a, (1, 3)), (emb.curves_b, (0, 2))):
            for c in fam:
                assert len(c) == inst.d
                assert all(x == 3 * (i + 1) for i, (x, _) in enumerate(c))
                assert all(y in ys for _, y in c)

    @given(instances(max_n=3, max_d=4))
    def test_any_pair_within_threshold_iff_instance_answer(self, inst):
        from ovgeom.ov import ov_decide

        emb = embed_frechet(inst)
        hit = any(
            frechet_decide(p, q, emb.tau_sq)
            for p in emb.curves_a
            for q in emb.curves_b
        )
        assert hit == (ov_decide(inst) is not None)
