"""Shared hypothesis strategies, test helpers and the acceptance-line reporter."""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ovgeom.core import ov_instance

# Exact-arithmetic work can be slow per example; the value of these tests is
# exact equality, not speed, so disable the per-example deadline.  A test
# class may be re-run by a subclass that changes only a fixture (the
# Fréchet tests re-run on the packed kernels), so one property test has
# two executors.
settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.differing_executors],
)
settings.load_profile("exact")

bits = st.integers(0, 1)


def bit_vectors(min_d: int = 1, max_d: int = 8):
    return st.lists(bits, min_size=min_d, max_size=max_d).map(tuple)


def vector_pairs(max_d: int = 8):
    """Two bit vectors of one shared length."""
    return st.integers(1, max_d).flatmap(
        lambda d: st.tuples(
            st.lists(bits, min_size=d, max_size=d).map(tuple),
            st.lists(bits, min_size=d, max_size=d).map(tuple),
        )
    )


def instances(max_n: int = 5, max_d: int = 5):
    def build(d):
        fam = st.lists(
            st.lists(bits, min_size=d, max_size=d).map(tuple),
            min_size=1,
            max_size=max_n,
        )
        return st.builds(ov_instance, fam, fam)

    return st.integers(1, max_d).flatmap(build)


# Instance files that parse_instance rejects, each with its exact message.
# Every row is read as integer tokens ([+-]?[0-9]+ in ASCII digits) before
# any bit is checked, so a non-integer or wrong-width row wins over an
# earlier non-bit entry.
MALFORMED_INSTANCES = [
    ("1 1 2\n1 2\n0 1\n", "instance entries must be bits, got 2"),
    ("1 1 1\n-1\n0\n", "instance entries must be bits, got -1"),
    ("1 1 1\n1_0\n0\n", "expected integers, got ['1_0']"),
    ("1 1 1\n\u0661\n0\n", "expected integers, got ['\u0661']"),
    ("1 1 1\nx\n0\n", "expected integers, got ['x']"),
    ("1 1 1\n1.0\n0\n", "expected integers, got ['1.0']"),
    ("1 1 2\n1\n0 1\n", "expected 2 fields, got 1: ['1']"),
    ("1 1 2\n1 0 1\n0 1\n", "expected 2 fields, got 3: ['1', '0', '1']"),
    ("1 2 1\n1\n0\n", "instance header promises 1+2 rows, file has 2"),
    ("0 1 1\n1\n", "bad instance header ['0', '1', '1']"),
    ("1 1 0\n1\n0\n", "bad instance header ['1', '1', '0']"),
    ("1 1 1\n2\nx\n", "expected integers, got ['x']"),
    ("1 1 2\n2 0\n1\n", "expected 2 fields, got 1: ['1']"),
]

# Curve-set and point-set files that their parsers reject, each with its
# exact message.  A rational token is [+-]?[0-9]+ or [+-]?[0-9]+/[0-9]+ with
# a nonzero denominator: no nan, inf, decimal point, exponent, underscore,
# non-ASCII digit, negative denominator or spaces around the slash.
MALFORMED_CURVE_SETS = [
    ("0\n", "curve-set count must be >= 1"),
    ("1\n-1\n0 0\n", "curve vertex count must be >= 1"),
    ("1\n1\n0 0 0\n", "curve vertex needs 2 coordinates, got ['0', '0', '0']"),
    ("1\n1\n1/0 0\n", "bad rational token '1/0'"),
    ("1\n1\nnan 0\n", "bad rational token 'nan'"),
    ("1\n1\n0 inf\n", "bad rational token 'inf'"),
    ("1\n1\n1/-2 0\n", "bad rational token '1/-2'"),
    ("1\n1\n1 / 2 0\n", "curve vertex needs 2 coordinates, got ['1', '/', '2', '0']"),
    ("1 2\n1\n0 0\n", "expected 1 fields, got 2: ['1', '2']"),
    ("2\n1\n0 0\n", "file promises more curves than it contains"),
    ("1\n2\n0 0\n", "curve promises 2 vertices, file is short"),
    ("1\n1\n0 0\n0 0\n", "trailing rows after curve set"),
    ("# only a comment\n", "empty curve-set file"),
    ("1_0\n1\n0 0\n", "expected integers, got ['1_0']"),
    ("1\n1\n1e3 0\n", "bad rational token '1e3'"),
    ("1\n1\n0 0.5\n", "bad rational token '0.5'"),
    ("1\n1\n1_000 0\n", "bad rational token '1_000'"),
    ("1\n1\n0 \u0661\n", "bad rational token '\u0661'"),
    # integer-only files, which try ``int`` before the token grammar
    ("1\n1\n+ 0\n", "bad rational token '+'"),
    ("1\n1\n1-2 0\n", "bad rational token '1-2'"),
    ("1\n1\n0 --1\n", "bad rational token '--1'"),
    ("+\n1\n0 0\n", "expected integers, got ['+']"),
    ("1\n-\n0 0\n", "expected integers, got ['-']"),
    ("1\n1\n-\n", "curve vertex needs 2 coordinates, got ['-']"),
    ("2\n1\n0 0\n1\n1 2 3\n", "curve vertex needs 2 coordinates, got ['1', '2', '3']"),
    ("1\n3\n0 0\n1 1\n", "curve promises 3 vertices, file is short"),
    ("1\n2\n\n0 0\n\n", "curve promises 2 vertices, file is short"),
    ("1\n1\n0 0\n5\n", "trailing rows after curve set"),
    ("1\n0\n", "curve vertex count must be >= 1"),
]

MALFORMED_POINT_SETS = [
    ("0 2\n", "bad point-set header ['0', '2']"),
    ("-1 2\n0 0\n", "bad point-set header ['-1', '2']"),
    ("1 0\n0\n", "bad point-set header ['1', '0']"),
    ("1 2 3\n0 0\n", "expected 2 fields, got 3: ['1', '2', '3']"),
    ("1 2\n1/0 0\n", "bad rational token '1/0'"),
    ("1 2\nnan 0\n", "bad rational token 'nan'"),
    ("1 2\n0 inf\n", "bad rational token 'inf'"),
    ("1 2\n1/-2 0\n", "bad rational token '1/-2'"),
    ("1 2\n1 / 2\n", "point row needs 2 coordinates, got ['1', '/', '2']"),
    ("1 2\n0\n", "point row needs 2 coordinates, got ['0']"),
    ("2 2\n0 0\n", "point set promises 2 rows, has 1"),
    ("1 2\n0 0\n1 1\n", "point set promises 1 rows, has 2"),
    ("# only a comment\n", "empty point-set file"),
    ("1_0 2\n0 0\n", "expected integers, got ['1_0', '2']"),
    ("1 2\n1e3 0\n", "bad rational token '1e3'"),
    ("1 2\n0 0.5\n", "bad rational token '0.5'"),
    ("1 2\n1_000 0\n", "bad rational token '1_000'"),
    ("1 2\n0 \u0661\n", "bad rational token '\u0661'"),
    # integer-only files
    ("1 2\n+ 0\n", "bad rational token '+'"),
    ("1 2\n1-2 0\n", "bad rational token '1-2'"),
    ("1 2\n0 --1\n", "bad rational token '--1'"),
    ("1 2\n1-\n", "point row needs 2 coordinates, got ['1-']"),
    ("2 2\n0 0\n\n1 2 3\n", "point row needs 2 coordinates, got ['1', '2', '3']"),
    ("1 2\n0 0\n\n1 1\n", "point set promises 1 rows, has 2"),
]

small_coord = st.integers(-8, 8)

rational_coord = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


def int_curves(max_len: int = 6):
    return st.lists(
        st.tuples(small_coord, small_coord), min_size=1, max_size=max_len
    ).map(tuple)


def rat_curves(max_len: int = 5):
    return st.lists(
        st.tuples(rational_coord, rational_coord), min_size=1, max_size=max_len
    ).map(tuple)


def int_points(dim: int, max_n: int = 12):
    coords = st.tuples(*[small_coord] * dim)
    return st.lists(coords, min_size=1, max_size=max_n)


@contextmanager
def digit_limit_lifted():
    """CPython's int/str digit limit lifted, for computing references."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# Acceptance reporting: tests/test_acceptance.py records one line per
# criterion through this stash; the summary hook prints them at the end of
# the run so the pass/fail ledger is visible in plain `pytest -v` output.
# ---------------------------------------------------------------------------

ACCEPTANCE_LINES = pytest.StashKey[list]()


@pytest.fixture
def criterion(request):
    """Run one acceptance criterion body, recording a PASS/FAIL line."""

    def run(number: str, name: str, body) -> None:
        lines = request.config.stash.setdefault(ACCEPTANCE_LINES, [])
        try:
            body()
        except BaseException:
            lines.append(f"criterion {number:>3}  FAIL  {name}")
            raise
        lines.append(f"criterion {number:>3}  PASS  {name}")

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(ACCEPTANCE_LINES, None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
