"""Reduction-verification harness: agreement, caps, and the corrupt hook."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given

from conftest import instances
from ovgeom.core import ov_instance
from ovgeom.embed import embed_frechet
from ovgeom.frechet import frechet_decide
from ovgeom.gadgets import default_gadget_config, or_gadget
from ovgeom.generate import GenSpec, generate
from ovgeom.ov import ov_decide
from ovgeom import verify
from ovgeom.verify import (
    KINDS,
    agreement_table,
    instance_id,
    report_csv,
    run_verify,
    verify_reduction,
)

ALL_ONES = ov_instance([(1, 1, 1)], [(1, 1, 1)])


class TestVerifyReduction:
    @pytest.mark.parametrize("kind", KINDS)
    def test_trivial_no_instance_agrees(self, kind):
        rep = verify_reduction(kind, ALL_ONES)
        assert rep.agree
        assert rep.oracle_answer is False and rep.reduced_answer is False

    @pytest.mark.parametrize("kind", KINDS)
    def test_planted_yes_instance_agrees(self, kind):
        inst = generate(GenSpec("planted-orthogonal", n=8, d=6, seed=12))
        rep = verify_reduction(kind, inst)
        assert rep.agree
        assert rep.oracle_answer is True and rep.reduced_answer is True

    def test_report_carries_instance_facts(self):
        rep = verify_reduction("ov-to-bcp", ALL_ONES)
        assert (rep.n_a, rep.n_b, rep.d) == (1, 1, 3)
        assert rep.kind == "ov-to-bcp"
        assert rep.oracle_ns >= 0 and rep.reduced_ns >= 0
        assert rep.instance_id == instance_id(ALL_ONES)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown reduction kind"):
            verify_reduction("ov-to-nothing", ALL_ONES)

    def test_caps_enforced(self):
        wide = ov_instance([tuple([1] * 20)], [tuple([1] * 20)])
        with pytest.raises(ValueError, match="dimension"):
            verify_reduction("ov-to-bcp", wide)
        many = ov_instance([(1,)] * 70, [(1,)])
        with pytest.raises(ValueError, match="exceed"):
            verify_reduction("ov-to-bcp", many)
        at_caps = ov_instance([(1,) * 16] * 64, [(1,) * 16] * 64)
        assert verify_reduction("ov-to-bcp", at_caps).agree

    def test_flip_hook_forces_disagreement(self):
        rep = verify_reduction("ov-to-bcp", ALL_ONES, _flip=True)
        assert not rep.agree
        assert rep.reduced_answer is True

    @pytest.mark.parametrize(
        ("kind", "embedder", "wrong"),
        [("euclid-embed", "embed_euclid", 5), ("frechet-embed", "embed_frechet", 0)],
    )
    def test_embedding_kinds_decide_at_the_embeddings_threshold(
        self, monkeypatch, kind, embedder, wrong
    ):
        # below the planted pair's distance (d = 6 for points, 1 for curves)
        real = getattr(verify, embedder)
        monkeypatch.setattr(
            verify, embedder, lambda inst: replace(real(inst), tau_sq=Fraction(wrong))
        )
        inst = generate(GenSpec("planted-orthogonal", n=8, d=6, seed=12))
        rep = verify_reduction(kind, inst)
        assert rep.oracle_answer is True and rep.reduced_answer is False


class TestInstanceId:
    def test_stable_and_short(self):
        a = instance_id(ALL_ONES)
        assert a == instance_id(ALL_ONES)
        assert len(a) == 12 and all(c in "0123456789abcdef" for c in a)

    def test_distinct_for_distinct_instances(self):
        other = ov_instance([(1, 1, 1)], [(1, 1, 0)])
        assert instance_id(other) != instance_id(ALL_ONES)


class TestRunVerify:
    def test_sound_domain_fully_agrees(self):
        reports = run_verify(trials=36, max_n=5, max_d=3, seed=4)
        assert len(reports) == 36 * len(KINDS)
        assert all(r.agree for r in reports)

    def test_deterministic_in_seed(self):
        a = run_verify(trials=10, max_n=4, max_d=3, seed=9)
        b = run_verify(trials=10, max_n=4, max_d=3, seed=9)
        assert [(r.kind, r.instance_id, r.reduced_answer) for r in a] == [
            (r.kind, r.instance_id, r.reduced_answer) for r in b
        ]

    def test_both_answers_are_exercised(self):
        reports = run_verify(kinds=("ov-to-bcp",), trials=30, max_n=5, max_d=3, seed=0)
        answers = {r.oracle_answer for r in reports}
        assert answers == {True, False}

    def test_corrupt_kind_breaks_only_that_kind(self):
        reports = run_verify(
            trials=9, max_n=4, max_d=3, seed=2, corrupt_kind="frechet-embed"
        )
        by_kind = {}
        for r in reports:
            by_kind.setdefault(r.kind, []).append(r.agree)
        assert not all(by_kind["frechet-embed"])
        for kind in KINDS:
            if kind != "frechet-embed":
                assert all(by_kind[kind])

    def test_oracle_and_instance_id_run_once_per_instance(self, monkeypatch):
        calls = {"ov_decide": 0, "instance_id": 0}

        def counted(name):
            inner = getattr(verify, name)

            def wrapper(inst):
                calls[name] += 1
                return inner(inst)

            monkeypatch.setattr(verify, name, wrapper)

        counted("ov_decide")
        counted("instance_id")
        assert len(run_verify(trials=6, max_n=4, max_d=3, seed=5)) == 6 * len(KINDS)
        assert calls == {"ov_decide": 6, "instance_id": 6}

    def test_reports_match_verify_reduction_on_each_instance(self, monkeypatch):
        made = []

        def recording_generate(spec):
            made.append(generate(spec))
            return made[-1]

        monkeypatch.setattr(verify, "generate", recording_generate)
        reports = run_verify(trials=30, max_n=5, max_d=4, seed=3)
        assert len(made) == 30 and len(reports) == 30 * len(KINDS)

        def untimed(r):
            return replace(r, oracle_ns=0, reduced_ns=0)

        for i, inst in enumerate(made):
            rows = reports[i * len(KINDS):(i + 1) * len(KINDS)]
            assert [untimed(r) for r in rows] == [
                untimed(verify_reduction(kind, inst)) for kind in KINDS
            ]
            assert len({r.oracle_ns for r in rows}) == 1

    def test_empty_kinds_and_zero_trials(self):
        assert run_verify(kinds=(), trials=10) == []
        assert run_verify(trials=0) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown reduction kind"):
            run_verify(kinds=("bogus",), trials=1)
        with pytest.raises(ValueError, match="kind 'euclid-embed' is named twice"):
            run_verify(kinds=("euclid-embed", "ov-to-bcp", "euclid-embed"), trials=1)
        with pytest.raises(ValueError, match="trials"):
            run_verify(trials=-1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"corrupt_kind": "bogus"}, "corrupt kind 'bogus' is not among"),
            (
                {"kinds": ("euclid-embed",), "corrupt_kind": "ov-to-bcp"},
                "corrupt kind 'ov-to-bcp' is not among the kinds run",
            ),
            ({"kinds": (), "corrupt_kind": "ov-to-bcp"}, "not among the kinds run"),
        ],
    )
    def test_rejects_a_corrupt_kind_that_would_flip_nothing(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_verify(trials=2, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_n": 0}, "max_n must be between 1 and 64, got 0"),
            ({"max_n": 65}, "max_n must be between 1 and 64, got 65"),
            ({"max_d": 0}, "max_d must be between 1 and 16, got 0"),
            ({"max_d": 40}, "max_d must be between 1 and 16, got 40"),
        ],
    )
    def test_rejects_sizes_outside_caps_before_any_trial(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_verify(trials=50, **kwargs)

    def test_sizes_at_the_caps_run(self):
        reports = run_verify(kinds=("ov-to-bcp",), trials=1, max_n=64, max_d=16)
        assert len(reports) == 1 and reports[0].agree

    def test_wide_dimension_disagreements_are_gadget_false_positives(self):
        """The former hole, disjunction-gadget yes on no-instances, is shut.

        Under the parity-zigzag gadget this sweep found ov-to-frechet false
        positives at dimension >= 4.  The grid gadget is sound at every
        dimension, so every kind, the wide ov-to-frechet instances among
        them, agrees with the oracle.
        """
        reports = run_verify(trials=200, max_n=8, max_d=6, seed=0)
        assert any(
            r.kind == "ov-to-frechet" and r.d >= 4 and r.oracle_answer is False
            for r in reports
        ), "the sweep must reach wide no-instances of the gadget"
        bad = [r for r in reports if not r.agree]
        assert not bad, bad


class TestReportRendering:
    def test_agreement_table_shape(self):
        reports = run_verify(trials=6, max_n=3, max_d=2, seed=1)
        table = agreement_table(reports)
        lines = table.splitlines()
        assert lines[0].split() == ["kind", "trials", "agree", "disagree"]
        assert len(lines) == 1 + len(KINDS)
        for kind in KINDS:
            assert any(line.startswith(kind) for line in lines[1:])

    def test_report_csv_shape(self):
        reports = run_verify(kinds=("euclid-embed",), trials=4, max_n=3, max_d=2)
        text = report_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0] == (
            "kind,instance_id,n_a,n_b,d,oracle,reduced,agree,oracle_ns,reduced_ns"
        )
        assert len(lines) == 5
        assert all(line.split(",")[7] == "1" for line in lines[1:])


def _public_answers(inst):
    """Both Fréchet kinds composed from the public rational calls."""
    emb = embed_frechet(inst)
    g = or_gadget(inst, default_gadget_config())
    return (
        any(frechet_decide(p, q, emb.tau_sq) for p in emb.curves_a for q in emb.curves_b),
        frechet_decide(g.curve_a, g.curve_b, g.tau_sq),
    )


class TestGridDecisions:
    """The Fréchet kinds decide on the reductions' integer grids; they must
    answer exactly what the public rational composition answers."""

    @given(instances(max_n=4, max_d=8))
    @example(ov_instance([(1,)], [(1,)]))
    @example(ov_instance([(1,)], [(0,)]))
    @example(ov_instance([(1, 1, 1, 1)], [(1, 0, 0, 0), (0, 0, 1, 0)]))
    def test_match_the_public_composition(self, inst):
        got = (verify._solve_frechet_pairs(inst), verify._solve_or_gadget(inst))
        assert got == _public_answers(inst) == (ov_decide(inst) is not None,) * 2

    @pytest.mark.parametrize("seed", range(4))
    def test_no_orthogonal_family_decides_no(self, seed):
        inst = generate(GenSpec("no-orthogonal", n=4, d=8, seed=seed))
        got = (verify._solve_frechet_pairs(inst), verify._solve_or_gadget(inst))
        assert got == _public_answers(inst) == (False, False)
