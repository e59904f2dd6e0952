"""Grid vector gadgets and the disjunction assembly, oracle-validated.

``or_gadget`` certifies each (delta, d) by an exact check of which vertex
types lie within distance 1 (see the ovgeom.gadgets module docstring).
The tests below hold that check to an all-pairs Fraction reference and
to the pair-scan oracle: at certified (delta, d) the assembly agrees with
the oracle, and each uncertified amplitude has a wrongly decided
counterexample at its first failing dimension.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import instances
from ovgeom.core import ov_instance
from ovgeom import gadgets
from ovgeom.frechet import frechet_decide
from ovgeom.gadgets import (
    S_POINT,
    S_SYNC,
    T_POINT,
    T_SYNC,
    GadgetConfig,
    default_gadget_config,
    or_gadget,
    validate_gadget_config,
    vector_gadget,
)
from ovgeom.ov import ov_decide


@pytest.fixture(scope="module")
def cfg():
    return default_gadget_config()


class TestGadgetConfig:
    def test_accepts_small_rational(self):
        assert GadgetConfig(Fraction(1, 4)).delta == Fraction(1, 4)

    @pytest.mark.parametrize("delta", [10, 0, -1, 1, Fraction(5, 4)])
    def test_rejects_out_of_range_amplitudes(self, delta):
        with pytest.raises(ValueError, match="delta"):
            GadgetConfig(delta)

    def test_coerces_strings(self):
        assert GadgetConfig("1/8").delta == Fraction(1, 8)

    def test_default_is_certified_quarter(self):
        got = default_gadget_config()
        assert got.delta == Fraction(1, 4)
        assert default_gadget_config() is got  # built once, cached


class TestVectorGadget:
    # Expected values from the docstring formula at delta = 1/4:
    # x_i = (2i - (d-1)) * delta/d, y = +-1/2 -+ (-1)^(z_i) * (delta/d)^2.
    def test_pinned_a_side_coordinates(self, cfg):
        assert vector_gadget((1, 0), "a", cfg) == (
            (Fraction(-1, 8), Fraction(33, 64)),
            (Fraction(1, 8), Fraction(31, 64)),
        )
        assert vector_gadget((1, 0, 1), "a", cfg) == (
            (Fraction(-1, 6), Fraction(73, 144)),
            (Fraction(0), Fraction(71, 144)),
            (Fraction(1, 6), Fraction(73, 144)),
        )

    def test_pinned_b_side_coordinates(self, cfg):
        assert vector_gadget((1, 0), "b", cfg) == (
            (Fraction(-1, 8), Fraction(-33, 64)),
            (Fraction(1, 8), Fraction(-31, 64)),
        )
        assert vector_gadget((1, 0, 1), "b", cfg) == (
            (Fraction(-1, 6), Fraction(-73, 144)),
            (Fraction(0), Fraction(-71, 144)),
            (Fraction(1, 6), Fraction(-73, 144)),
        )

    def test_orthogonal_gadgets_within_unit_distance(self, cfg):
        ga = vector_gadget((1, 0), "a", cfg)
        gb = vector_gadget((0, 1), "b", cfg)
        assert frechet_decide(ga, gb, 1)

    def test_conflicting_gadgets_beyond_unit_distance(self, cfg):
        ga = vector_gadget((1, 1), "a", cfg)
        gb = vector_gadget((1, 1), "b", cfg)
        assert not frechet_decide(ga, gb, 1)

    def test_length_equals_dimension(self, cfg):
        for d in range(1, 7):
            assert len(vector_gadget(tuple([0] * d), "a", cfg)) == d

    def test_rejects_bad_side_and_empty_vector(self, cfg):
        with pytest.raises(ValueError, match="side"):
            vector_gadget((1,), "c", cfg)
        with pytest.raises(ValueError, match="non-empty"):
            vector_gadget((), "a", cfg)

    @pytest.mark.parametrize("z", [(2,), (-1,), (0, 1, 2)])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_rejects_entries_other_than_zero_and_one(self, cfg, z, side):
        # on side a, an entry of 2 read a b-side vertex and -1 the t_sync point
        with pytest.raises(ValueError, match="0 or 1"):
            vector_gadget(z, side, cfg)

    @given(instances(max_n=1, max_d=8))
    def test_pairwise_decision_matches_orthogonality(self, inst):
        # Sound at every dimension: a- and b-vertices of different index
        # lie more than 1 apart, so any non-diagonal step costs more than
        # the threshold and a traversal must stay aligned.
        cfg = default_gadget_config()
        ga = vector_gadget(inst.a_side[0], "a", cfg)
        gb = vector_gadget(inst.b_side[0], "b", cfg)
        orthogonal = all(
            not (x and y) for x, y in zip(inst.a_side[0], inst.b_side[0])
        )
        assert frechet_decide(ga, gb, 1) == orthogonal


class TestOrGadgetAssembly:
    def test_requires_certified_config(self):
        # delta = 1/2 is certified up to d = 3 only: from d = 4 the edge
        # gadget vertices are more than 1 from s and t.
        inst = ov_instance([(0, 0, 0, 0)], [(0, 0, 0, 0), (0, 0, 0, 0)])
        with pytest.raises(ValueError, match="delta=1/2 is not certified at d=4: "):
            or_gadget(inst, GadgetConfig(Fraction(1, 2)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_half_amplitude_builds_below_dimension_four(self, d):
        inst = ov_instance([(0,) * d], [(0,) * d, (0,) * d])
        g = or_gadget(inst, GadgetConfig(Fraction(1, 2)))
        assert frechet_decide(g.curve_a, g.curve_b, g.tau_sq)

    def test_certification_cannot_be_passed_in(self):
        # Only validate_gadget_config certifies: delta = 2/3 fails its sweep,
        # so a constructor flag must not let or_gadget accept it.
        with pytest.raises(TypeError):
            GadgetConfig(Fraction(2, 3), validated=True)

    @given(instances(max_n=4, max_d=4))
    def test_output_sizes_exact(self, inst):
        g = or_gadget(inst, default_gadget_config())
        assert len(g.curve_a) == inst.n_a * (inst.d + 2)
        assert len(g.curve_b) == inst.n_b * inst.d + 4
        assert g.tau_sq == 1

    def test_assembly_layout(self, cfg):
        inst = ov_instance([(1, 0), (0, 1)], [(1, 1)])
        g = or_gadget(inst, cfg)
        vg = lambda z, side: vector_gadget(z, side, cfg)
        assert g.curve_a == (
            (S_POINT,) + vg((1, 0), "a") + (T_POINT,)
            + (S_POINT,) + vg((0, 1), "a") + (T_POINT,)
        )
        assert g.curve_b == (
            (S_POINT, S_SYNC) + vg((1, 1), "b") + (T_SYNC, T_POINT)
        )

    def test_yes_instance(self, cfg):
        g = or_gadget(ov_instance([(1,)], [(0,)]), cfg)
        assert frechet_decide(g.curve_a, g.curve_b, g.tau_sq)

    def test_no_instance(self, cfg):
        g = or_gadget(ov_instance([(1,)], [(1,)]), cfg)
        assert not frechet_decide(g.curve_a, g.curve_b, g.tau_sq)

    def test_exhaustive_agreement_up_to_two_by_two(self, cfg):
        for d in (1, 2):
            vecs = [tuple((v >> k) & 1 for k in range(d)) for v in range(2**d)]
            for n in (1, 2):
                fams = [[v] for v in vecs] if n == 1 else [
                    [v, w] for v in vecs for w in vecs
                ]
                for fam_a in fams:
                    for fam_b in fams:
                        inst = ov_instance(fam_a, fam_b)
                        g = or_gadget(inst, cfg)
                        got = frechet_decide(g.curve_a, g.curve_b, g.tau_sq)
                        assert got == (ov_decide(inst) is not None), inst

    @given(instances(max_n=5, max_d=3))
    def test_random_agreement_within_certified_domain(self, inst):
        cfg = default_gadget_config()
        g = or_gadget(inst, cfg)
        got = frechet_decide(g.curve_a, g.curve_b, g.tau_sq)
        assert got == (ov_decide(inst) is not None)

    def test_known_limitation_dimension_four_false_positive(self, cfg):
        """Pinned former counterexample beyond the default certified domain.

        Under the old parity zigzag, a-vertex i reached every b-vertex of
        the same x-parity, so at dimension 4 a threshold-1 window could
        straddle the boundary between two b-gadgets and decide yes on this
        instance, which has no orthogonal pair.  On the centred grid only
        same-index vertices are within reach, so it must decide no.
        """
        inst = ov_instance([(1, 1, 1, 1)], [(1, 0, 0, 0), (0, 0, 1, 0)])
        assert ov_decide(inst) is None
        g = or_gadget(inst, cfg)
        assert not frechet_decide(g.curve_a, g.curve_b, g.tau_sq)


def _wrongly_decided(inst, cfg):
    curve_a, curve_b = gadgets._assemble(inst, gadgets._tables(cfg.delta, inst.d)[0])
    stitched = frechet_decide(curve_a, curve_b, 1)
    return stitched != (ov_decide(inst) is not None)


def _relation_holds(delta, d):
    """All-pairs reference for the exact check, on Fractions."""
    cfg = GadgetConfig(delta)
    a = {(i, x): vector_gadget((x,) * d, "a", cfg)[i] for i in range(d) for x in (0, 1)}
    b = {(i, y): vector_gadget((y,) * d, "b", cfg)[i] for i in range(d) for y in (0, 1)}
    near = lambda p, q: (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= 1
    return (
        all(
            near(a[i, x], b[j, y]) == (i == j and not (x and y))
            for i, x in a for j, y in b
        )
        and all(near(v, end) for v in [*a.values(), *b.values()]
                for end in (S_POINT, T_POINT))
        and not any(near(v, sync) for v in a.values() for sync in (S_SYNC, T_SYNC))
        and near(S_POINT, S_SYNC) and not near(T_POINT, S_SYNC)
        and near(T_POINT, T_SYNC) and not near(S_POINT, T_SYNC)
    )


class TestGridTable:
    """One vertex-type table per (delta, d) serves both assemblies."""

    @pytest.mark.parametrize("delta", ["1/4", "3/8", "1/2"])
    def test_grid_over_scale_is_the_rational_layout(self, delta):
        # the module docstring's formula, side a above the x-axis, b below
        delta = Fraction(delta)
        for d in range(1, 17):
            step = delta / d
            expected = [S_POINT, T_POINT, S_SYNC, T_SYNC]
            for i in range(d):
                for sign in (1, -1):
                    expected += [
                        ((2 * i - (d - 1)) * step, sign * (Fraction(1, 2) - (-1) ** x * step**2))
                        for x in (0, 1)
                    ]
            rat, grid, scale = gadgets._tables(delta, d)
            assert [(Fraction(x, scale), Fraction(y, scale)) for x, y in grid] == expected
            assert rat == tuple(expected)


class TestExactCertification:
    @pytest.mark.parametrize(
        "delta", ["1/8", "1/4", "1/3", "3/8", "1/2", "2/3", "9/10"]
    )
    def test_matches_all_pairs_relation(self, delta):
        delta = Fraction(delta)
        got = [gadgets._violation(delta, d) is None for d in range(1, 17)]
        assert got == [_relation_holds(delta, d) for d in range(1, 17)]

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=16).filter(
            lambda r: 0 < r < 1
        ),
        instances(max_n=3, max_d=6),
    )
    def test_certified_gadget_agrees_with_oracle(self, delta, inst):
        cfg = GadgetConfig(delta)
        try:
            g = or_gadget(inst, cfg)
        except ValueError:
            assert not _relation_holds(delta, inst.d)
            return
        got = frechet_decide(g.curve_a, g.curve_b, g.tau_sq)
        assert got == (ov_decide(inst) is not None)


class TestValidateGadgetConfig:
    def test_quarter_certifies(self):
        result = validate_gadget_config(GadgetConfig(Fraction(1, 4)))
        assert result.ok
        assert result.config == GadgetConfig(Fraction(1, 4))
        assert result.counterexample is None

    def test_one_third_fails_with_counterexample(self):
        # The certification is not vacuous: at delta = 2/3 a one-dimensional
        # b-vertex carrying a 1 bit is out of reach of s and t, so an
        # instance with an orthogonal pair decides a false no.  (delta = 1/3
        # certifies on the grid layout at every dimension.)
        assert validate_gadget_config(GadgetConfig(Fraction(1, 3))).ok
        result = validate_gadget_config(GadgetConfig(Fraction(2, 3)))
        assert not result.ok
        inst = result.counterexample
        assert inst == ov_instance([(1,)], [(0,), (1,)])
        table = gadgets._tables(Fraction(2, 3), inst.d)[0]
        stitched = frechet_decide(*gadgets._assemble(inst, table), 1)
        assert ov_decide(inst) is not None and not stitched

    def test_wider_dimension_fails_given_enough_trials(self):
        # Named for the parity-zigzag era, when a sampled sweep found a
        # d >= 4 false positive; the grid layout certifies the wider domain.
        result = validate_gadget_config(GadgetConfig(Fraction(1, 4)), max_d=4)
        assert result.ok
        assert result.counterexample is None

    @pytest.mark.parametrize("max_d", [0, -1])
    def test_no_dimension_to_check_is_an_error(self, max_d):
        # an empty sweep would certify 2/3, which fails at d = 1
        with pytest.raises(ValueError, match="max_d"):
            validate_gadget_config(GadgetConfig(Fraction(2, 3)), max_d=max_d)

    def test_half_fails_at_dimension_four(self):
        cfg = GadgetConfig(Fraction(1, 2))
        assert validate_gadget_config(cfg, max_d=3).ok
        result = validate_gadget_config(cfg)
        assert not result.ok
        assert result.counterexample.d == 4
        assert _wrongly_decided(result.counterexample, cfg)

    def test_three_eighths_fails_first_at_dimension_42(self, monkeypatch):
        cfg = GadgetConfig(Fraction(3, 8))
        assert validate_gadget_config(cfg, max_d=41).ok
        # the counterexample comes from a short candidate list: no
        # instances are enumerated at the failing dimension
        calls = []
        decides = gadgets._decides_correctly
        monkeypatch.setattr(
            gadgets, "_decides_correctly",
            lambda inst, c: calls.append(inst) or decides(inst, c),
        )
        result = validate_gadget_config(cfg, max_d=42)
        assert not result.ok
        assert result.counterexample.d == 42
        assert _wrongly_decided(result.counterexample, cfg)
        assert len(calls) <= 2
