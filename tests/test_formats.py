"""On-disk text formats: exact round-trips and malformed-input rejection."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    MALFORMED_CURVE_SETS,
    MALFORMED_INSTANCES,
    MALFORMED_POINT_SETS,
    digit_limit_lifted,
    instances,
    rat_curves,
)
from ovgeom.cli import main
from ovgeom.core import OvInstance, curve, ov_instance, point
from ovgeom.embed import embed_euclid, embed_frechet
from ovgeom.formats import (
    FormatError,
    format_curve_set,
    format_instance,
    format_point_set,
    format_rat,
    parse_curve_set,
    parse_instance,
    parse_int,
    parse_point_set,
    parse_rat,
    read_text,
    write_text,
)
from ovgeom.generate import GenSpec, generate


class TestRatTokens:
    def test_format_always_num_slash_den(self):
        assert format_rat(Fraction(1, 2)) == "1/2"
        assert format_rat(Fraction(3)) == "3/1"
        assert format_rat(Fraction(-9, 16)) == "-9/16"
        assert format_rat(0) == "0/1"

    def test_parse_accepts_bare_integers(self):
        assert parse_rat("3") == 3
        assert parse_rat("-7/4") == Fraction(-7, 4)
        assert parse_rat("+06/04") == Fraction(3, 2)

    def test_only_a_slash_token_is_a_fraction(self):
        assert type(parse_rat("3")) is int
        assert type(parse_rat("-0")) is int
        assert type(parse_rat("3/1")) is Fraction

    @pytest.mark.parametrize(
        "token", ["abc", "1/0", "1.5.2", "", "1e3", "0.5", "1_000", "\u0661"]
    )
    def test_parse_rejects_garbage(self, token):
        with pytest.raises(FormatError, match="rational"):
            parse_rat(token)

    @given(st.fractions(max_denominator=10**6))
    def test_round_trip(self, r):
        assert parse_rat(format_rat(r)) == r

    @pytest.mark.parametrize("digits", [4299, 4301, 10_000])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_round_trip_past_the_int_str_digit_limit(self, digits, sign):
        # CPython's str() and int() refuse more than 4300 digits by default
        n = sign * ((10**digits - 1) // 7)  # 142857..., of exactly ``digits`` digits
        r = Fraction(n, 10**digits + 1)
        with digit_limit_lifted():
            text, rat_text = str(n), f"{r.numerator}/{r.denominator}"
        assert len(text.lstrip("-")) == digits
        assert (format_rat(n), format_rat(r)) == (text + "/1", rat_text)
        assert parse_int(text) == parse_rat(text) == n
        assert parse_rat(rat_text) == r
        assert parse_point_set(f"1 2\n{text} {rat_text}\n") == ((n, r),)
        # a plain-integer file, where int() refuses the token first
        assert parse_curve_set(f"1\n2\n{text} 0\n1 {text}\n") == (((n, 0), (1, n)),)
        with pytest.raises(FormatError, match="trailing rows"):
            parse_curve_set(f"1\n1\n{text} 0\n0 0\n")
        # a bit token past the limit goes through the integer grammar too
        assert parse_instance(f"1 1 1\n{'0' * digits}1\n0\n") == ov_instance([(1,)], [(0,)])

    def test_format_converts_only_inexact_types(self):
        assert format_rat(True) == "1/1"
        assert format_rat(-12) == "-12/1"
        assert format_rat(Fraction(6, -4)) == "-3/2"


def _count_fractions(monkeypatch):
    """Record every Fraction built from here on; returns the record."""
    built, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return built


class TestReduceOutput:
    # sha256 prefixes of the files ``ovgeom reduce`` writes for
    # ``gen --family uniform-random --n 64 --d 16 --seed 5``, as written
    # when format_rat still built a Fraction per coordinate
    PINNED = {
        "euclid-p.txt": "9e455465561ee649",
        "euclid-q.txt": "ba7ac14b456f0b70",
        "frechet-p.txt": "ae257accebf71f95",
        "frechet-q.txt": "3bb2850ce69b12d6",
        "or-gadget-pair.txt": "7f42df63843273cd",
    }

    def test_reduce_files_are_byte_identical(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        gen = ["--family", "uniform-random", "--n", "64", "--d", "16", "--seed", "5"]
        assert main(["gen", *gen, "--out", str(inst)]) == 0
        for kind in ("euclid", "frechet", "or-gadget"):
            prefix = str(tmp_path / kind)
            assert main(["reduce", "--kind", kind, "--in", str(inst), "--out-prefix", prefix]) == 0
        capsys.readouterr()
        for name, digest in self.PINNED.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16] == digest

    def test_formatting_int_coordinates_builds_no_fraction(self, monkeypatch):
        inst = generate(GenSpec("uniform-random", 64, 16, seed=5))
        e, f = embed_euclid(inst), embed_frechet(inst)
        built = _count_fractions(monkeypatch)
        texts = [format_point_set(e.points_a), format_point_set(e.points_b),
                 format_curve_set(f.curves_a), format_curve_set(f.curves_b)]
        assert built == []
        assert sum(t.count("/") for t in texts) == 2 * 64 * 16 + 2 * 64 * 16 * 2


class TestIntTokens:
    def test_parse_accepts_signed_ascii_digits(self):
        assert [parse_int(t) for t in ("7", "-3", "+012", "-0")] == [7, -3, 12, 0]

    @pytest.mark.parametrize(
        "token", ["", " 7", "1_0", "\u0663", "1.0", "1e3", "1/1", "0x10", "+"]
    )
    def test_parse_rejects_other_spellings(self, token):
        with pytest.raises(FormatError, match="integer"):
            parse_int(token)


class TestInstanceFormat:
    def test_layout(self):
        inst = ov_instance([(1, 0)], [(0, 1), (1, 1)])
        assert format_instance(inst) == "1 2 2\n1 0\n0 1\n1 1\n"

    def test_header_comments_round_trip(self):
        inst = ov_instance([(1,)], [(0,)])
        text = format_instance(inst, header="seed=7\nfamily=x")
        assert text.startswith("# seed=7\n# family=x\n")
        assert parse_instance(text) == inst

    def test_parse_skips_comments_and_blanks(self):
        text = "# hello\n\n1 1 2\n\n1 0\n# mid\n0 1\n"
        assert parse_instance(text) == ov_instance([(1, 0)], [(0, 1)])

    @given(instances(max_n=6, max_d=6))
    def test_round_trip_exact(self, inst):
        assert parse_instance(format_instance(inst)) == inst

    def test_round_trip_of_bits_given_as_other_types(self):
        # Any value equal to 0 or 1 is accepted and stored, and so written, as an int.
        for inst in (
            ov_instance([(1.0, True)], [(0, Fraction(1))]),
            OvInstance(((1.0, True),), ((False, Fraction(1)),), 2),
        ):
            assert format_instance(inst) == "1 1 2\n1 1\n0 1\n"
            assert parse_instance(format_instance(inst)) == inst

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment\n",
            "1 1\n1\n1\n",  # header needs three fields
            "0 1 1\n1\n",  # zero-size side
            "1 1 1\n1\n",  # missing B row
            "1 1 1\n1\n0\n0\n",  # extra row
            "1 1 1\n2\n0\n",  # non-bit entry
            "1 1 2\n1\n0 1\n",  # row width mismatch
            "x 1 1\n1\n1\n",  # non-integer header
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_instance(text)

    @pytest.mark.parametrize(
        "token, bit", [("01", 1), ("+1", 1), ("-0", 0), ("00", 0)]
    )
    def test_int_spellings_of_bits_parse(self, token, bit):
        # Any integer token equal to 0 or 1 is a bit, in A and in B.
        inst = parse_instance(f"1 1 3\n1 {token} 0\n{token}\t0 1\n")
        assert inst == ov_instance([(1, bit, 0)], [(bit, 0, 1)])
        assert all(type(b) is int for vec in inst.a_side + inst.b_side for b in vec)

    @pytest.mark.parametrize("text, message", MALFORMED_INSTANCES)
    def test_malformed_message(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_instance(text)
        assert str(info.value) == message


class TestCurveFormats:
    def test_curve_layout(self):
        c = curve(((Fraction(1, 2), 0), (1, Fraction(-3, 4))))
        assert format_curve_set([c]) == "1\n2\n1/2 0/1\n1/1 -3/4\n"

    @given(st.lists(rat_curves(), min_size=1, max_size=5))
    def test_curve_set_round_trip_exact(self, raws):
        cs = tuple(curve(c) for c in raws)
        assert parse_curve_set(format_curve_set(cs)) == cs

    def test_curve_set_header_and_comments(self):
        text = format_curve_set([((0, 0),)], header="two lines\nof notes")
        assert text.startswith("# two lines\n# of notes\n1\n")
        assert parse_curve_set(text) == (((Fraction(0), Fraction(0)),),)

    @pytest.mark.parametrize("text, message", MALFORMED_CURVE_SETS)
    def test_curve_set_malformed_message(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_curve_set(text)
        assert str(info.value) == message

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(["{}", "+{}", "0{}"]),
    )
    def test_integer_file_parses_as_its_rational_spelling(self, curves, spelling):
        # the first file takes int(), the second the token grammar
        def token(n: int) -> str:
            return "-" + spelling.lstrip("+").format(-n) if n < 0 else spelling.format(n)

        def text(suffix: str) -> str:
            lines = [str(len(curves))]
            for c in curves:
                lines.append(str(len(c)))
                lines.extend(f"{token(x)}{suffix} {token(y)}{suffix}" for x, y in c)
            return "\n".join(lines) + "\n"

        plain = parse_curve_set(text(""))
        assert plain == parse_curve_set(text("/1")) == tuple(map(tuple, curves))
        assert {type(x) for c in plain for v in c for x in v} == {int}

    def test_integer_file_skips_the_token_grammar(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "ovgeom.formats.parse_rat", lambda tok: calls.append(tok) or int(tok)
        )
        assert parse_curve_set("1\n2\n-3 +4\n05 6\n") == (((-3, 4), (5, 6)),)
        assert calls == []
        # a malformed integer file is parsed again, token by token
        with pytest.raises(ValueError):
            parse_curve_set("1\n1\n1-2 0\n")
        assert calls == ["1-2"]

    def test_empty_curve_set_is_not_written(self):
        # the reader refuses a count of 0, so the writer must not emit one
        with pytest.raises(FormatError, match="curve set must be non-empty"):
            format_curve_set([])

    def test_curve_set_rejects_wrong_count(self):
        with pytest.raises(FormatError, match="trailing"):
            parse_curve_set("1\n1\n0/1 0/1\n1\n0/1 0/1\n")
        with pytest.raises(FormatError):
            parse_curve_set("2\n1\n0/1 0/1\n")


class TestPointSetFormat:
    def test_layout(self):
        text = format_point_set([(1, 2), (Fraction(1, 3), 4)])
        assert text == "2 2\n1/1 2/1\n1/3 4/1\n"

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.fractions(max_denominator=8)] * d),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_round_trip_exact(self, pts):
        frozen = tuple(point(p) for p in pts)
        assert parse_point_set(format_point_set(frozen)) == frozen

    def test_rejects_ragged_rows(self):
        with pytest.raises(FormatError):
            format_point_set([(1, 2), (1, 2, 3)])
        with pytest.raises(FormatError, match="coordinates"):
            parse_point_set("1 2\n1/1 2/1 3/1\n")

    def test_rejects_bad_header_or_count(self):
        with pytest.raises(FormatError):
            parse_point_set("0 2\n")
        with pytest.raises(FormatError, match="promises"):
            parse_point_set("2 2\n1/1 2/1\n")
        with pytest.raises(FormatError, match="empty"):
            parse_point_set("# nothing\n")

    @pytest.mark.parametrize("text, message", MALFORMED_POINT_SETS)
    def test_malformed_message(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_point_set(text)
        assert str(info.value) == message


class TestFileIo:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "inst.txt"
        write_text(path, "1 1 1\n1\n0\n")
        assert parse_instance(read_text(path)) == ov_instance([(1,)], [(0,)])

    def test_read_missing_file_is_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            read_text(tmp_path / "nope.txt")

    def test_write_into_missing_directory_is_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="cannot write"):
            write_text(tmp_path / "sub" / "x.txt", "hi")
