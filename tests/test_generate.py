"""Seeded instance families and their contracts."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ovgeom.core import inner_product
from ovgeom.generate import FAMILIES, GenSpec, generate, planted_witness
from ovgeom.ov import nth_root_ceil, ov_count

seeds = st.integers(0, 2**32 - 1)
small_specs = st.builds(
    GenSpec,
    family=st.sampled_from(["uniform-random", "planted-orthogonal", "no-orthogonal"]),
    n=st.integers(1, 10),
    d=st.integers(1, 8),
    seed=seeds,
)


class TestGenSpecValidation:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            GenSpec("adversarial", 4, 4)

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError, match="n must"):
            GenSpec("uniform-random", 0, 4)
        with pytest.raises(ValueError, match="d must"):
            GenSpec("uniform-random", 4, 0)

    def test_alpha_only_for_unbalanced(self):
        with pytest.raises(ValueError, match="alpha"):
            GenSpec("uniform-random", 4, 4, alpha=Fraction(1, 2))

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            GenSpec("unbalanced", 4, 4, alpha=Fraction(3, 2))
        with pytest.raises(ValueError, match="alpha"):
            GenSpec("unbalanced", 4, 4, alpha=0)

    def test_unbalanced_defaults_alpha_to_half(self):
        assert GenSpec("unbalanced", 4, 4).alpha == Fraction(1, 2)

    def test_tag_mentions_alpha_only_when_meaningful(self):
        assert "a=" in GenSpec("unbalanced", 4, 4).tag
        assert "a=" not in GenSpec("uniform-random", 4, 4).tag


class TestFamilies:
    @given(small_specs)
    def test_deterministic_in_spec(self, spec):
        assert generate(spec) == generate(spec)

    @given(st.integers(1, 12), st.integers(1, 8), seeds)
    def test_planted_always_has_a_witness(self, n, d, seed):
        spec = GenSpec("planted-orthogonal", n, d, seed)
        inst = generate(spec)
        assert ov_count(inst) >= 1
        w = planted_witness(spec)
        assert inner_product(inst.a_side[w.index_a], inst.b_side[w.index_b]) == 0

    @given(st.integers(1, 12), st.integers(1, 8), seeds)
    def test_no_orthogonal_has_none(self, n, d, seed):
        inst = generate(GenSpec("no-orthogonal", n, d, seed))
        assert ov_count(inst) == 0
        assert all(v[0] == 1 for v in inst.a_side + inst.b_side)

    @given(st.integers(1, 64), st.integers(1, 6), seeds)
    def test_unbalanced_sizes(self, n, d, seed):
        for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            inst = generate(GenSpec("unbalanced", n, d, seed, alpha=alpha))
            assert inst.n_b == n
            assert inst.n_a == nth_root_ceil(n**alpha.numerator, alpha.denominator)
            assert inst.n_a <= inst.n_b

    @given(small_specs)
    def test_shapes_match_spec(self, spec):
        inst = generate(spec)
        assert inst.d == spec.d
        assert inst.n_b == spec.n
        if spec.family != "unbalanced":
            assert inst.n_a == spec.n

    def test_planted_witness_only_for_planted(self):
        with pytest.raises(ValueError, match="planted"):
            planted_witness(GenSpec("uniform-random", 4, 4))

    def test_families_tuple_is_public_contract(self):
        assert FAMILIES == (
            "uniform-random",
            "planted-orthogonal",
            "no-orthogonal",
            "unbalanced",
        )

    def test_uniform_density_near_half(self):
        inst = generate(GenSpec("uniform-random", 64, 32, seed=5))
        vecs = inst.a_side + inst.b_side
        density = Fraction(sum(map(sum, vecs)), sum(map(len, vecs)))
        assert Fraction(2, 5) < density < Fraction(3, 5)

    def test_distinct_seeds_give_distinct_instances(self):
        a = generate(GenSpec("uniform-random", 16, 16, seed=1))
        b = generate(GenSpec("uniform-random", 16, 16, seed=2))
        assert a != b
