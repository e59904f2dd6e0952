"""End-to-end command-line tests driving ``ovgeom.cli.main`` in process."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    MALFORMED_CURVE_SETS,
    MALFORMED_INSTANCES,
    MALFORMED_POINT_SETS,
    digit_limit_lifted,
    instances,
)
from ovgeom import __version__
from ovgeom.cli import main
from ovgeom.formats import (
    format_instance,
    parse_curve_set,
    parse_instance,
    parse_point_set,
    parse_rat,
)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def call(*args):
    """``ovgeom *args`` run in process, for tests where capsys cannot
    serve (hypothesis examples share one function-scoped fixture)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def exit_code(*args):
    """The exit status of ``ovgeom *args``, whether argparse or a handler
    ends the run."""
    try:
        return main(list(args))
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def instance_file(tmp_path, capsys):
    """A small planted instance written through the gen verb."""
    path = tmp_path / "inst.txt"
    code, _, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "planted-orthogonal",
        "--n",
        "4",
        "--d",
        "3",
        "--seed",
        "5",
        "--out",
        str(path),
    )
    assert code == 0
    return path


class TestGen:
    def test_stdout_parses_and_is_deterministic(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--n", "5", "--d", "4", "--seed", "9")
        code2, out2, _ = run_cli(capsys, "gen", "--n", "5", "--d", "4", "--seed", "9")
        assert code == code2 == 0
        assert out == out2
        inst = parse_instance(out)
        assert (inst.n_a, inst.n_b, inst.d) == (5, 5, 4)

    def test_header_records_provenance_of_the_draw(self, capsys):
        _, out, _ = run_cli(capsys, "gen", "--n", "3", "--d", "2", "--seed", "7")
        assert "# family=uniform-random n=3 d=2 seed=7" in out
        assert "# prng=mt19937" in out

    def test_unbalanced_accepts_alpha(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "gen",
            "--family",
            "unbalanced",
            "--n",
            "16",
            "--d",
            "3",
            "--alpha",
            "1/4",
        )
        assert code == 0
        inst = parse_instance(out)
        assert inst.n_a == 2 and inst.n_b == 16

    def test_alpha_rejected_for_balanced_families(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--n", "4", "--d", "2", "--alpha", "1/2"
        )
        assert code == 2
        assert "alpha" in err

    def test_out_flag_writes_file(self, instance_file):
        inst = parse_instance(instance_file.read_text())
        assert inst.d == 3


class TestSolve:
    def test_ov_witness_is_one_based(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("2 2 2\n1 1\n1 0\n1 1\n0 1\n")
        code, out, _ = run_cli(capsys, "solve", "ov", "--in", str(path))
        assert code == 0
        assert out == "witness 2 2\n"

    def test_ov_no_witness(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("1 1 2\n1 1\n1 1\n")
        code, out, _ = run_cli(capsys, "solve", "ov", "--in", str(path))
        assert code == 0
        assert out == "no-witness\n"

    def test_bcp_euclid_prints_a_square_past_the_int_str_digit_limit(self, tmp_path, capsys):
        # 3,000 digits parse within CPython's default limit of 4300; the
        # squared distance has 6,000
        with digit_limit_lifted():
            want = f"pair 1 1 sq {int('7' * 3000) ** 2}/1\n"
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text(f"1 1\n{'7' * 3000}\n")
        q.write_text("1 1\n0\n")
        code, out, err = run_cli(capsys, "solve", "bcp-euclid", "--in-p", str(p), "--in-q", str(q))
        assert (code, out, err) == (0, want, "")

    def test_frechet_value_and_decision(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("2\n2\n0 0\n3 4\n2\n0 0\n3 0\n")
        code, out, _ = run_cli(capsys, "solve", "frechet", "--in", str(path))
        assert code == 0
        assert out == "sq 16/1\n"
        code, out, _ = run_cli(
            capsys, "solve", "frechet", "--in", str(path), "--tau-sq", "16"
        )
        assert (code, out) == (0, "yes\n")
        code, out, _ = run_cli(
            capsys, "solve", "frechet", "--in", str(path), "--tau-sq", "31/2"
        )
        assert (code, out) == (0, "no\n")

    def test_frechet_value_builds_no_traversal(self, tmp_path, capsys, monkeypatch):
        # the value path runs the one-row DP, not the full table and walk
        def full_table(*_):
            raise AssertionError("solve frechet built the full table")

        monkeypatch.setattr("ovgeom.cli.frechet_sq", full_table, raising=False)
        path = tmp_path / "c.txt"
        path.write_text("2\n3\n0 0\n1 2\n3 4\n2\n0 0\n3 0\n")
        assert run_cli(capsys, "solve", "frechet", "--in", str(path)) == (
            0, "sq 16/1\n", ""
        )

    @pytest.mark.parametrize("tau_sq", ["0.5", "1e3", "1/0"])
    def test_tau_sq_outside_the_rational_grammar_exits_two(
        self, tmp_path, capsys, tau_sq
    ):
        path = tmp_path / "c.txt"
        path.write_text("2\n1\n0 0\n1\n0 1\n")
        code, out, err = run_cli(
            capsys, "solve", "frechet", "--in", str(path), "--tau-sq", tau_sq
        )
        assert (code, out) == (2, "")
        assert err == f"ovgeom: error: bad rational token {tau_sq!r}\n"

    def test_frechet_needs_exactly_two_curves(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("1\n1\n0 0\n")
        code, _, err = run_cli(capsys, "solve", "frechet", "--in", str(path))
        assert code == 2
        assert "2-curve" in err

    def test_missing_input_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "ov"])
        assert exc.value.code == 2
        assert "--in" in capsys.readouterr().err

    def test_out_follows_the_problem_name(self, tmp_path, capsys):
        path, out = tmp_path / "i.txt", tmp_path / "answer.txt"
        path.write_text("1 1 2\n1 0\n0 1\n")
        code, stdout, _ = run_cli(
            capsys, "solve", "ov", "--in", str(path), "--out", str(out)
        )
        assert (code, stdout, out.read_text()) == (0, "", "witness 1 1\n")
        assert exit_code("solve", "--out", str(out), "ov", "--in", str(path)) == 2

    @pytest.mark.parametrize("text, message", MALFORMED_INSTANCES)
    def test_malformed_instance_exits_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "i.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "solve", "ov", "--in", str(path))
        assert (code, out, err) == (2, "", f"ovgeom: error: {message}\n")

    @pytest.mark.parametrize("text, message", MALFORMED_CURVE_SETS)
    def test_malformed_curve_set_exits_two(self, tmp_path, capsys, text, message):
        bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
        bad.write_text(text)
        good.write_text("1\n1\n0 0\n")
        for args in (
            ("frechet", "--in", bad),
            ("bcp-frechet", "--in-p", bad, "--in-q", good),
            ("bcp-frechet", "--in-p", good, "--in-q", bad),
        ):
            code, out, err = run_cli(capsys, "solve", *map(str, args))
            assert (code, out, err) == (2, "", f"ovgeom: error: {message}\n")

    @pytest.mark.parametrize("text, message", MALFORMED_POINT_SETS)
    def test_malformed_point_set_exits_two(self, tmp_path, capsys, text, message):
        bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
        bad.write_text(text)
        good.write_text("1 2\n0 0\n")
        for p, q in ((bad, good), (good, bad)):
            code, out, err = run_cli(
                capsys, "solve", "bcp-euclid", "--in-p", str(p), "--in-q", str(q)
            )
            assert (code, out, err) == (2, "", f"ovgeom: error: {message}\n")

    def test_wrong_file_shape_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "pts.txt"
        path.write_text("2 2\n0/1 0/1\n1/1 1/1\n")
        code, _, err = run_cli(capsys, "solve", "ov", "--in", str(path))
        assert code == 2
        assert "ovgeom: error:" in err


BIT_SPELLINGS = ["0", "1", "01", "+1", "-0"]
HOSTILE_TOKENS = ["2", "-1", "x", "1.0", "1_0", "#"]


def edit_rows(draw, rows, hostile, new_row):
    """Up to two in-place edits of a file's token rows: a token from
    ``hostile``, a row one token wider or narrower, a row more or fewer."""
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["token", "wider", "narrower", "more", "fewer"]))
        at = draw(st.integers(0, len(rows) - 1)) if rows else 0
        if edit == "token" and rows:
            rows[at][draw(st.integers(0, len(rows[at]) - 1))] = draw(
                st.sampled_from(hostile)
            )
        elif edit == "wider" and rows:
            rows[at].append("1")
        elif edit == "narrower" and rows and len(rows[at]) > 1:
            rows[at].pop()
        elif edit == "more":
            rows.insert(at, draw(new_row))
        elif edit == "fewer" and rows:
            rows.pop(at)


@st.composite
def instance_files(draw):
    """A well-formed instance file of bit spellings, then up to two edits:
    a hostile token, a row one token wider or narrower, a row more or fewer."""
    n_a, n_b, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    row = st.lists(st.sampled_from(BIT_SPELLINGS), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=n_a + n_b, max_size=n_a + n_b))
    edit_rows(draw, rows, HOSTILE_TOKENS, row)
    return n_a, n_b, d, rows


class TestSolveOvFuzz:
    """Edited instance files: exit 0 when int() reads a well-shaped 0/1
    matrix from them, else exit 2 with a one-line error."""

    @given(instance_files())
    def test_exit_zero_or_two(self, tmp_path_factory, file):
        n_a, n_b, d, rows = file
        path = tmp_path_factory.mktemp("fuzz") / "i.txt"
        path.write_text(f"{n_a} {n_b} {d}\n" + "".join(" ".join(r) + "\n" for r in rows))
        data = [r for r in rows if r[0] != "#"]  # a row led by '#' is a comment
        try:
            values = [[int(tok) for tok in r] for r in data]
        except ValueError:
            values = None
        valid = (
            values is not None
            and len(data) == n_a + n_b
            and all(len(r) == d and set(r) <= {0, 1} for r in values)
        )
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["solve", "ov", "--in", str(path)])
        out, err = out.getvalue(), err.getvalue()
        if valid:
            pair = next(
                (
                    (ia, ib)
                    for ia, a in enumerate(values[:n_a])
                    for ib, b in enumerate(values[n_a:])
                    if not any(x and y for x, y in zip(a, b))
                ),
                None,
            )
            expected = "no-witness" if pair is None else f"witness {pair[0] + 1} {pair[1] + 1}"
            assert (code, out) == (0, expected + "\n")
        else:
            assert code == 2 and out == ""
            assert err.startswith("ovgeom: error: ") and err.count("\n") == 1


HOSTILE_RATS = ["x", "1/0", "nan", "inf", "1/-2", "/", "-1", "0", "3/2", "#"]


@st.composite
def set_files(draw):
    """A bcp problem and a well-formed file for it (a curve set for
    bcp-frechet, a point set for bcp-euclid), then up to two edits: a
    hostile token, a row one token wider or narrower, a row more or fewer."""
    problem = draw(st.sampled_from(["bcp-frechet", "bcp-euclid"]))
    coord = st.integers(-3, 3).map(str)
    if problem == "bcp-frechet":
        vertex = st.lists(coord, min_size=2, max_size=2)
        curve = st.lists(vertex, min_size=1, max_size=3)
        curves = draw(st.lists(curve, min_size=1, max_size=3))
        rows = [[str(len(curves))]]
        for c in curves:
            rows += [[str(len(c))]] + c
    else:
        dim = draw(st.integers(1, 3))
        point = st.lists(coord, min_size=dim, max_size=dim)
        points = draw(st.lists(point, min_size=1, max_size=4))
        rows = [[str(len(points)), str(dim)]] + points
    edit_rows(draw, rows, HOSTILE_RATS, st.lists(coord, min_size=1, max_size=3))
    return problem, "".join(" ".join(r) + "\n" for r in rows)


class TestSolveSetFuzz:
    """Edited curve-set and point-set files, given as both sides of a bcp
    solve: exit 0 with the pair (1, 1) at distance 0, or exit 2 with a
    one-line error."""

    @given(set_files())
    def test_exit_zero_or_two(self, tmp_path_factory, file):
        problem, text = file
        path = tmp_path_factory.mktemp("fuzz") / "s.txt"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["solve", problem, "--in-p", str(path), "--in-q", str(path)])
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert (out, err) == ("pair 1 1 sq 0/1\n", "")
        else:
            assert code == 2 and out == ""
            assert err.startswith("ovgeom: error: ") and err.count("\n") == 1


class TestReduce:
    def test_euclid_files_feed_bcp_solve(self, tmp_path, instance_file, capsys):
        prefix = str(tmp_path / "emb")
        code, out, _ = run_cli(
            capsys,
            "reduce",
            "--kind",
            "euclid",
            "--in",
            str(instance_file),
            "--out-prefix",
            prefix,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tau_sq 3/1"
        assert lines[1] == f"wrote {prefix}-p.txt"
        assert lines[2] == f"wrote {prefix}-q.txt"
        pts_p = parse_point_set((tmp_path / "emb-p.txt").read_text())
        pts_q = parse_point_set((tmp_path / "emb-q.txt").read_text())
        assert len(pts_p) == len(pts_q) == 4

        # planted instance: the closest embedded pair must sit at tau_sq itself
        code, out, _ = run_cli(
            capsys,
            "solve",
            "bcp-euclid",
            "--in-p",
            f"{prefix}-p.txt",
            "--in-q",
            f"{prefix}-q.txt",
        )
        assert code == 0
        assert out.startswith("pair ")
        assert parse_rat(out.split()[-1]) == 3

    def test_frechet_kind_emits_curve_sets(self, tmp_path, instance_file, capsys):
        prefix = str(tmp_path / "cur")
        code, out, _ = run_cli(
            capsys,
            "reduce",
            "--kind",
            "frechet",
            "--in",
            str(instance_file),
            "--out-prefix",
            prefix,
        )
        assert code == 0
        assert out.splitlines()[0] == "tau_sq 1/1"
        curves = parse_curve_set((tmp_path / "cur-p.txt").read_text())
        assert len(curves) == 4 and all(len(c) == 3 for c in curves)

    def test_or_gadget_kind_emits_two_long_curves(self, tmp_path, instance_file, capsys):
        prefix = str(tmp_path / "gad")
        code, out, _ = run_cli(
            capsys,
            "reduce",
            "--kind",
            "or-gadget",
            "--in",
            str(instance_file),
            "--out-prefix",
            prefix,
        )
        assert code == 0
        assert out.splitlines() == ["tau_sq 1/1", f"wrote {prefix}-pair.txt"]
        pi, sigma = parse_curve_set((tmp_path / "gad-pair.txt").read_text())
        assert len(pi) == 4 * (3 + 2)
        assert len(sigma) == 4 * 3 + 4

    @given(instances(max_n=4, max_d=4))
    def test_reduce_output_solves_to_the_ov_answer(self, tmp_path_factory, inst):
        # Each kind's files, solved as written at the printed tau_sq,
        # decide the instance the way the pair-scan oracle does.
        tmp = tmp_path_factory.mktemp("e2e")
        path = tmp / "inst.txt"
        path.write_text(format_instance(inst))
        code, out, _ = call("solve", "ov", "--in", str(path))
        assert code == 0
        has_witness = out.startswith("witness ")
        for kind in ("euclid", "frechet", "or-gadget"):
            prefix = str(tmp / kind)
            code, out, _ = call(
                "reduce", "--kind", kind, "--in", str(path), "--out-prefix", prefix
            )
            assert code == 0
            tau_sq = out.split()[1]
            if kind == "or-gadget":
                code, out, _ = call(
                    "solve", "frechet", "--in", f"{prefix}-pair.txt", "--tau-sq", tau_sq
                )
                decided = out == "yes\n"
            else:
                problem = "bcp-euclid" if kind == "euclid" else "bcp-frechet"
                p, q = f"{prefix}-p.txt", f"{prefix}-q.txt"
                code, out, _ = call("solve", problem, "--in-p", p, "--in-q", q)
                decided = parse_rat(out.split()[-1]) <= parse_rat(tau_sq)
            assert code == 0 and decided == has_witness, kind

    def test_missing_out_prefix_is_usage_error(self, instance_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--kind", "euclid", "--in", str(instance_file)])
        assert exc.value.code == 2


class TestVerify:
    def test_sound_domain_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--trials", "8", "--max-n", "4", "--max-d", "3"
        )
        assert code == 0
        header = out.splitlines()[0].split()
        assert header == ["kind", "trials", "agree", "disagree"]

    def test_corrupt_kind_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--kinds",
            "euclid-embed",
            "--trials",
            "4",
            "--max-n",
            "3",
            "--max-d",
            "2",
            "--corrupt-kind",
            "euclid-embed",
        )
        assert code == 1
        assert "disagree" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--kinds",
            "ov-to-bcp",
            "--trials",
            "3",
            "--max-n",
            "3",
            "--max-d",
            "2",
            "--format",
            "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("kind,instance_id,")
        assert len(out.strip().splitlines()) == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["--corrupt-kind", "bogus", "--trials", "2"],
            ["--kinds", "euclid-embed", "--corrupt-kind", "ov-to-bcp", "--trials", "2"],
            ["--max-n", "0"],
            ["--max-d", "40", "--trials", "50"],
            ["--kinds", "euclid-embed,euclid-embed", "--trials", "5"],
        ],
    )
    def test_argument_that_would_mislead_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("ovgeom: error: ") and "Traceback" not in err

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--kinds", "bogus", "--trials", "1")
        assert code == 2
        assert "unknown reduction kind" in err

    @pytest.mark.parametrize("kinds", [",", ""])
    def test_empty_kind_list_is_usage_error(self, capsys, kinds):
        # Zero checks must not read as full agreement.
        code, out, err = run_cli(capsys, "verify", "--kinds", kinds, "--trials", "1")
        assert (code, out) == (2, "")
        assert err == "ovgeom: error: --kinds names no reduction kind\n"


class TestBench:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--problem",
            "ov",
            "--sizes",
            "2,4",
            "--repeats",
            "1",
            "--d",
            "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "problem,n,d,seed,repeat,wall_ns,answer"
        assert len(lines) == 3

    def test_zero_repeats_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--problem", "ov", "--sizes", "2", "--repeats", "0"
        )
        assert code == 0
        assert out == "problem,n,d,seed,repeat,wall_ns,answer\n"

    def test_descending_sizes_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--problem", "ov", "--sizes", "8,4", "--repeats", "1"
        )
        assert code == 2
        assert "ascending" in err

    def test_non_integer_sizes_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--problem", "ov", "--sizes", "a,b"
        )
        assert code == 2
        assert "--sizes" in err


class TestFlagsPerVerb:
    """Each verb accepts only the flags its handler reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "ov", "--in", "f", "--seed", "1"],
            ["reduce", "--kind", "euclid", "--in", "f", "--out-prefix", "p",
             "--seed", "1"],
            ["gen", "--n", "2", "--d", "2", "--format", "csv"],
            ["solve", "ov", "--in", "f", "--format", "csv"],
            ["bench", "--problem", "ov", "--sizes", "2", "--format", "csv"],
            ["solve", "ov", "--in", "f", "--tau-sq", "1"],
            ["solve", "ov", "--in", "f", "--in-p", "f"],
            ["solve", "bcp-euclid", "--in-p", "f", "--in-q", "f", "--in", "f"],
            ["solve", "frechet", "--in", "f", "--in-q", "f"],
        ],
    )
    def test_flag_a_verb_does_not_read_is_argparse_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOutFile:
    """``--out`` writes the bytes the verb would print on standard output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "ov", "--in", "{inst}"],
            ["solve", "bcp-frechet", "--in-p", "{tmp}/e-p.txt", "--in-q", "{tmp}/e-q.txt"],
            ["reduce", "--kind", "frechet", "--in", "{inst}", "--out-prefix", "{tmp}/e"],
            ["verify", "--trials", "2", "--max-n", "3", "--max-d", "3"],
        ],
    )
    def test_out_file_bytes_equal_stdout_bytes(self, tmp_path, capsys, instance_file, argv):
        # the bcp-frechet case reads the two curve sets this writes
        reduce = ("reduce", "--kind", "frechet", "--in", str(instance_file))
        assert run_cli(capsys, *reduce, "--out-prefix", f"{tmp_path}/e")[0] == 0
        argv = [a.format(inst=instance_file, tmp=tmp_path) for a in argv]
        code, stdout, _ = run_cli(capsys, *argv)
        out = tmp_path / "answer.txt"
        assert run_cli(capsys, *argv, "--out", str(out)) == (code, "", "")
        assert out.read_bytes() == stdout.encode()
        assert stdout.endswith("\n") and not stdout.endswith("\n\n")


class TestIntegerFlags:
    """Integer flags take the ASCII integer grammar of the file formats."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "1_0", "--d", "3"],
            ["gen", "--n", "3", "--d", "\u0663"],
            ["gen", "--n", "3", "--d", "3", "--seed", "\u0667"],
            ["gen", "--n", " 3", "--d", "3"],
            ["verify", "--trials", "1_0"],
            ["verify", "--max-n", "\u0663"],
            ["verify", "--max-d", "0_3"],
            ["bench", "--problem", "ov", "--sizes", "4", "--repeats", "1_0"],
            ["bench", "--problem", "ov", "--sizes", "4", "--d", "\u0663"],
            ["bench", "--problem", "ov", "--sizes", "1_6,\u0663\u0662"],
            ["bench", "--problem", "ov", "--sizes", "16,\u0663\u0662"],
        ],
    )
    def test_token_outside_the_grammar_is_usage_error(self, capsys, argv):
        assert exit_code(*argv) == 2
        assert capsys.readouterr().out == ""

    def test_signed_and_padded_integers_still_parse(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--n", "+3", "--d", "02", "--seed", "-1")
        assert code == 0
        assert "# family=uniform-random n=3 d=2 seed=-1" in out


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"ovgeom {__version__}" in capsys.readouterr().out

    def test_unknown_verb_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_verb_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
