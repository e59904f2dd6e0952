"""Pair-scan solvers, counting oracle, and the unbalanced block plan."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import instances
from ovgeom.core import inner_product, ov_instance
from ovgeom.ov import (
    OvWitness,
    UnbalancedPlan,
    nth_root_ceil,
    ov_count,
    ov_decide,
    ov_decide_blocked,
    plan_unbalanced,
)


def naive_witness(inst):
    """Test-local oracle: first orthogonal pair by explicit double loop."""
    for ia, a in enumerate(inst.a_side):
        for ib, b in enumerate(inst.b_side):
            if sum(x * y for x, y in zip(a, b)) == 0:
                return (ia, ib)
    return None


def naive_count(inst):
    """Test-local oracle: orthogonal pairs by explicit double loop."""
    return sum(
        1
        for a in inst.a_side
        for b in inst.b_side
        if sum(x * y for x, y in zip(a, b)) == 0
    )


ALPHAS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]
ROW_KINDS = ("zero", "one", "sparse", "uniform", "heavy", "repeat")


@st.composite
def wide_instances(draw):
    """Instances whose B side crosses machine-word boundaries.

    n_b is 1 or sits on either side of 64 and 128; d runs from 1 to 70.
    Each side takes a common and a rare row kind and a rarity r, so that a
    row is of the rare kind with probability 1/r.  The kinds are all-zero,
    all-one, sparse (at most three 1s), uniform, heavy (each bit 1 with
    probability 7/8) and a repeat of an earlier row.  Half the instances
    draw any kinds; the other half put rare zero or sparse rows among
    all-one or heavy B rows, so the first witness often lies deep in B.
    """
    d = draw(st.one_of(st.sampled_from([1, 2, 63, 64, 65, 70]), st.integers(1, 70)))
    n_a = draw(st.integers(1, 6))
    n_b = draw(st.sampled_from([1, 63, 64, 65, 129]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    drawn = [(0,) * d, (1,) * d]

    def side(n, common_kinds, rare_kinds):
        common, rare = rng.choice(common_kinds), rng.choice(rare_kinds)
        rarity = rng.choice([1, 2, 16, 64, 256])
        return [row(rare if rng.randrange(rarity) == 0 else common) for _ in range(n)]

    def row(kind):
        if kind == "repeat":
            return rng.choice(drawn)
        if kind == "zero":
            vec = (0,) * d
        elif kind == "one":
            vec = (1,) * d
        elif kind == "sparse":
            ones = rng.sample(range(d), rng.randint(1, min(3, d)))
            vec = tuple(int(c in ones) for c in range(d))
        elif kind == "uniform":
            vec = tuple(map(int, format(rng.getrandbits(d), f"0{d}b")))
        else:
            vec = tuple(int(rng.randrange(8) != 0) for _ in range(d))
        drawn.append(vec)
        return vec

    if rng.randrange(2):
        a_rows = side(n_a, ("sparse", "uniform", "heavy", "one"), ROW_KINDS)
        return ov_instance(a_rows, side(n_b, ("one", "heavy"), ("zero", "sparse")))
    a_rows = side(n_a, ROW_KINDS, ROW_KINDS)
    return ov_instance(a_rows, side(n_b, ROW_KINDS, ROW_KINDS))


class TestOvDecide:
    def test_no_pair(self):
        assert ov_decide(ov_instance([(1, 1)], [(1, 1)])) is None

    def test_disjoint_supports(self):
        assert ov_decide(ov_instance([(1, 0)], [(0, 1)])) == OvWitness(0, 0)

    def test_two_by_two(self):
        inst = ov_instance([(1, 1), (1, 0)], [(1, 1), (0, 1)])
        assert ov_decide(inst) == OvWitness(1, 1)

    @given(instances())
    def test_matches_naive_oracle(self, inst):
        expected = naive_witness(inst)
        got = ov_decide(inst)
        if expected is None:
            assert got is None
        else:
            assert (got.index_a, got.index_b) == expected

    @given(instances())
    def test_witness_is_orthogonal(self, inst):
        w = ov_decide(inst)
        if w is not None:
            assert inner_product(inst.a_side[w.index_a], inst.b_side[w.index_b]) == 0

    @given(instances())
    def test_decide_iff_count_positive(self, inst):
        assert (ov_decide(inst) is not None) == (ov_count(inst) > 0)


class TestOvCount:
    def test_zero_vectors(self):
        assert ov_count(ov_instance([(0,)], [(0,)])) == 1

    def test_ones(self):
        assert ov_count(ov_instance([(1,)], [(1,)])) == 0

    def test_cross(self):
        assert ov_count(ov_instance([(1, 0), (0, 1)], [(0, 1), (1, 0)])) == 2

    @given(instances())
    def test_matches_naive_double_loop(self, inst):
        assert ov_count(inst) == naive_count(inst)


class TestKernelsOnWideInstances:
    """The column kernels against the double loops, across word boundaries."""

    @given(wide_instances())
    def test_decide_matches_naive_oracle(self, inst):
        w = ov_decide(inst)
        assert (None if w is None else (w.index_a, w.index_b)) == naive_witness(inst)

    @given(wide_instances())
    def test_count_matches_naive_double_loop(self, inst):
        assert ov_count(inst) == naive_count(inst)

    @given(wide_instances(), st.sampled_from(ALPHAS))
    def test_blocked_matches_naive_oracle(self, inst, alpha):
        plan = plan_unbalanced(inst.n_b, alpha)
        w = ov_decide_blocked(inst, plan)
        assert (None if w is None else (w.index_a, w.index_b)) == naive_witness(inst)

    @pytest.mark.parametrize("ib", [0, 1, 62, 63, 64, 65, 127])
    def test_lowest_of_two_free_bits_at_word_edges(self, ib):
        # Only B[ib] and B[128] are orthogonal to A[0], so the witness is
        # the lower of two free bits that straddle word boundaries.
        b_rows = [(1,) * 70] * 129
        b_rows[ib] = b_rows[128] = (0,) * 70
        inst = ov_instance([(1,) * 70, (0,) * 70], b_rows)
        assert ov_decide(inst) == OvWitness(0, ib)
        assert ov_count(inst) == 2 + 129
        for alpha in ALPHAS:
            assert ov_decide_blocked(inst, plan_unbalanced(129, alpha)) == OvWitness(0, ib)

    def test_last_coordinate_counts(self):
        # a and b overlap only in coordinate d-1.
        a, b = (0,) * 69 + (1,), (1,) * 70
        inst = ov_instance([a, a], [b] * 65)
        assert ov_decide(inst) is None
        assert ov_count(inst) == 0
        assert ov_decide_blocked(inst, plan_unbalanced(65, Fraction(1, 2))) is None

    def test_duplicate_and_lopsided_rows(self):
        rng = random.Random(7)
        b_rows = [tuple(rng.randrange(2) for _ in range(9)) for _ in range(64)]
        inst = ov_instance([(1, 1, 0, 0, 0, 0, 0, 0, 1)] * 3, b_rows + b_rows[:1])
        assert ov_count(inst) == naive_count(inst)
        assert ov_decide(inst) == OvWitness(*naive_witness(inst))

    def test_non_int_bits_decide_like_ints(self):
        # bit_vector accepts any value equal to 0 or 1.
        ints = ov_instance([(1, 0), (0, 1)], [(1, 1), (1, 0)])
        mixed = ov_instance([(1.0, False), (0, True)], [(Fraction(1), 1.0), (True, 0.0)])
        assert ov_decide(mixed) == ov_decide(ints) == OvWitness(1, 1)
        assert ov_count(mixed) == ov_count(ints) == 1
        plan = plan_unbalanced(2, Fraction(1, 2))
        assert ov_decide_blocked(mixed, plan) == OvWitness(1, 1)


class TestNthRootCeil:
    def test_examples(self):
        assert nth_root_ceil(100, 2) == 10
        assert nth_root_ceil(101, 2) == 11
        assert nth_root_ceil(0, 3) == 0
        assert nth_root_ceil(1, 7) == 1
        assert nth_root_ceil(8, 3) == 2
        assert nth_root_ceil(9, 3) == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            nth_root_ceil(-1, 2)
        with pytest.raises(ValueError):
            nth_root_ceil(4, 0)

    @given(st.integers(1, 10**12), st.integers(1, 6))
    def test_tight_bound(self, x, q):
        r = nth_root_ceil(x, q)
        assert r**q >= x
        assert r == 0 or (r - 1) ** q < x


class TestPlanUnbalanced:
    def test_square_root_of_100(self):
        plan = plan_unbalanced(100, Fraction(1, 2))
        assert plan.block_size == 10
        assert len(plan.blocks) == 10

    def test_singleton(self):
        plan = plan_unbalanced(1, Fraction(1, 2))
        assert plan.blocks == ((0, 1),)

    def test_ten_with_remainder(self):
        plan = plan_unbalanced(10, Fraction(1, 2))
        assert plan.block_size == 4
        sizes = [stop - start for start, stop in plan.blocks]
        assert sizes == [4, 4, 2]

    @pytest.mark.parametrize("alpha", [0, 1, Fraction(-1, 2), Fraction(3, 2)])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            plan_unbalanced(10, alpha)

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            plan_unbalanced(0, Fraction(1, 2))

    @given(
        st.integers(1, 500),
        st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
    )
    def test_blocks_partition_range(self, n, alpha):
        plan = plan_unbalanced(n, alpha)
        covered = []
        for start, stop in plan.blocks:
            assert 0 < stop - start <= plan.block_size
            covered.extend(range(start, stop))
        assert covered == list(range(n))
        assert len(plan.blocks) == -(-n // plan.block_size)


class TestOvDecideBlocked:
    def test_no_pair_any_plan(self):
        inst = ov_instance([(1, 1)], [(1, 1), (1, 1)])
        plan = plan_unbalanced(2, Fraction(1, 2))
        assert ov_decide_blocked(inst, plan) is None

    def test_witness_in_second_block(self):
        inst = ov_instance([(1, 0)], [(1, 1), (0, 1)])
        plan = UnbalancedPlan(Fraction(1, 2), 1, ((0, 1), (1, 2)))
        assert ov_decide_blocked(inst, plan) == OvWitness(0, 1)

    def test_rejects_plan_for_wrong_size(self):
        inst = ov_instance([(1, 0)], [(1, 1), (0, 1)])
        bad = UnbalancedPlan(Fraction(1, 2), 1, ((0, 1),))
        with pytest.raises(ValueError, match="covers"):
            ov_decide_blocked(inst, bad)

    def test_rejects_overlapping_blocks(self):
        inst = ov_instance([(1, 0)], [(1, 1), (0, 1)])
        bad = UnbalancedPlan(Fraction(1, 2), 2, ((0, 2), (1, 2)))
        with pytest.raises(ValueError, match="consecutive"):
            ov_decide_blocked(inst, bad)

    @given(
        instances(max_n=8, max_d=5),
        st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
    )
    def test_agrees_with_plain_decide(self, inst, alpha):
        plan = plan_unbalanced(inst.n_b, alpha)
        assert ov_decide_blocked(inst, plan) == ov_decide(inst)
