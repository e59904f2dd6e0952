"""Benchmark harness: record shapes, determinism, and CSV output."""

from fractions import Fraction

import pytest

from ovgeom.bench import CSV_HEADER, PROBLEMS, bench_csv, run_bench
from ovgeom.formats import parse_rat


class TestRunBenchValidation:
    def test_rejects_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown problem"):
            run_bench("sorting", [4])

    @pytest.mark.parametrize("sizes", [[], [4, 4], [8, 4], [0, 4], [-2]])
    def test_rejects_bad_size_lists(self, sizes):
        with pytest.raises(ValueError):
            run_bench("ov", sizes)

    def test_rejects_negative_repeats_and_bad_dimension(self):
        with pytest.raises(ValueError, match="repeats"):
            run_bench("ov", [4], repeats=-1)
        with pytest.raises(ValueError, match="dimension"):
            run_bench("ov", [4], d=0)


class TestRecords:
    def test_row_count_and_fields(self):
        records = run_bench("ov", [2, 4], repeats=3, d=5, seed=7)
        assert len(records) == 2 * 3
        for rec in records:
            assert rec.problem == "ov"
            assert rec.n in (2, 4)
            assert rec.d == 5
            assert rec.seed == 7
            assert rec.repeat in (0, 1, 2)
            assert rec.wall_ns > 0
            assert rec.answer in ("0", "1")
        assert [r.repeat for r in records if r.n == 2] == [0, 1, 2]

    def test_zero_repeats_yield_no_records(self):
        assert run_bench("ov", [2, 4], repeats=0) == []

    def test_frechet_pair_is_planar(self):
        records = run_bench("frechet-pair", [3], repeats=1, d=9, seed=1)
        assert all(rec.d == 2 for rec in records)

    def test_same_seed_same_answers(self):
        a = run_bench("bcp-euclid", [4], repeats=2, d=4, seed=3)
        b = run_bench("bcp-euclid", [4], repeats=2, d=4, seed=3)
        assert [r.answer for r in a] == [r.answer for r in b]
        # every repeat re-times the same workload, so answers agree within a run
        assert len({r.answer for r in a}) == 1

    def test_bcp_euclid_answer_lives_in_embedding_gap(self):
        for seed in range(6):
            records = run_bench("bcp-euclid", [6], repeats=1, d=7, seed=seed)
            sq = parse_rat(records[0].answer)
            assert sq == 7 or sq >= 15

    def test_bcp_frechet_answer_is_one_or_nine(self):
        for seed in range(6):
            records = run_bench("bcp-frechet", [4], repeats=1, d=5, seed=seed)
            assert parse_rat(records[0].answer) in (Fraction(1), Fraction(9))

    def test_nn_query_answer_is_a_squared_distance(self):
        records = run_bench("nn-query", [8], repeats=1, d=3, seed=0)
        assert parse_rat(records[0].answer) >= 0

    def test_ov_none_is_a_full_scan_with_no_witness(self):
        for seed in range(4):
            records = run_bench("ov-none", [16, 32], repeats=1, d=6, seed=seed)
            assert [r.answer for r in records] == ["0", "0"]

    def test_witnesses_back_the_answers(self):
        (rec,) = run_bench("bcp-euclid", [6], repeats=1, d=5, seed=2)
        i, j = rec.witness
        assert 0 <= i < 6 and 0 <= j < 6
        (rec,) = run_bench("nn-query", [8], repeats=1, d=3, seed=0)
        assert len(rec.witness) == 64 and all(0 <= i < 8 for i in rec.witness)
        for seed in range(4):
            for rec in run_bench("ov", [4], repeats=1, d=3, seed=seed):
                assert len(rec.witness) == (2 if rec.answer == "1" else 0)
        (rec,) = run_bench("frechet-pair", [4], repeats=1, seed=0)
        assert rec.witness == ()

    def test_witnesses_repeat_with_the_seed(self):
        for problem in PROBLEMS:
            a = run_bench(problem, [5], repeats=2, d=4, seed=9)
            b = run_bench(problem, [5], repeats=1, d=4, seed=9)
            assert a[0].witness == a[1].witness == b[0].witness

    def test_all_problems_run_small(self):
        for problem in PROBLEMS:
            records = run_bench(problem, [3], repeats=1, d=3, seed=0)
            assert len(records) == 1


class TestBenchCsv:
    def test_header_and_rows(self):
        records = run_bench("ov", [2, 3], repeats=2, d=4, seed=1)
        lines = bench_csv(records).strip().splitlines()
        assert lines[0] == CSV_HEADER == "problem,n,d,seed,repeat,wall_ns,answer"
        assert len(lines) == 1 + len(records)
        first = lines[1].split(",")
        assert first[0] == "ov"
        assert first[1] == "2" and first[2] == "4" and first[3] == "1"
        assert first[4] == "0" and int(first[5]) > 0

    def test_empty_records_header_only(self):
        assert bench_csv([]) == CSV_HEADER + "\n"
