"""Plain-text on-disk formats: instances, curve sets, point sets.

All formats are line-oriented ASCII.  Lines starting with '#' and blank
lines are comments and are skipped by every parser; writers may put
reproducibility notes there.  Rationals are serialized as ``num/den`` in
lowest terms.  An integer token (a count or a bit) is ``[+-]?[0-9]+`` in
ASCII digits; a rational token is an integer token or
``[+-]?[0-9]+/[0-9]+``, with a nonzero denominator.  No token takes a
decimal point, exponent, underscore or other form; ``parse_int`` and
``parse_rat`` read one token each, for the command-line flags too.
``parse_rat`` returns an ``int`` for an integer token and a ``Rat`` for a
``num/den`` token, the coordinate types of ``ovgeom.core``.  Counts
on header lines describe how many rows follow; positions within files are
1-based when a human needs to point at them, but nothing in the formats
stores indices.

Instance file:      line 1: ``n_a n_b d``; then n_a rows of d space
                    separated bits, then n_b rows.
Curve-set file:     line 1: curve count; then, for each curve, its vertex
                    count on one line and one ``x y`` vertex per line.
Point-set file:     line 1: ``count dim``; then one point per line.

A curve-set file of only ASCII digits, signs, spaces and newlines
converts each coordinate with ``int``; any other file, and any such file
that turns out malformed, goes token by token through ``parse_rat``, so
results and error messages are the same either way.
"""

from __future__ import annotations

import re

from .core import _EXACT, Curve2, OvInstance, PointD, Rat, curve, point

__all__ = [
    "FormatError",
    "format_rat",
    "parse_rat",
    "parse_int",
    "format_instance",
    "parse_instance",
    "format_curve_set",
    "parse_curve_set",
    "format_point_set",
    "parse_point_set",
    "read_text",
    "write_text",
]


class FormatError(ValueError):
    """Malformed on-disk content."""


def _long_str(n: int) -> str:
    """``str(n)`` by one ``str`` call, or past CPython's int/str digit limit
    (4300 digits unless ``sys.set_int_max_str_digits`` changed it) in parts
    split at a power of ten.  The process-wide limit is left alone."""
    if n < 0:
        return "-" + _long_str(-n)
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half of n's digits (log10 2 > 0.3)
        hi, lo = divmod(n, 10**k)
        return _long_str(hi) + _long_str(lo).zfill(k)


def _long_int(token: str) -> int:
    """``int(token)`` for an integer token, by one ``int`` call or likewise."""
    if token[0] in "+-":
        n = _long_int(token[1:])
        return -n if token[0] == "-" else n
    try:
        return int(token)
    except ValueError:
        k = len(token) // 2
        return _long_int(token[:-k]) * 10**k + _long_int(token[-k:])


def format_rat(r: int | Rat) -> str:
    # an exact int or Rat already has both parts; anything else converts
    if type(r) not in _EXACT:
        r = Rat(r)
    return f"{_long_str(r.numerator)}/{_long_str(r.denominator)}"


# The whole integer grammar, and the whole rational grammar: an ASCII
# integer, optionally over a nonzero ASCII natural number.
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
_RAT = re.compile(rf"({_INT_TOKEN.pattern})(?:/(0*[1-9][0-9]*))?")


def parse_rat(token: str) -> int | Rat:
    m = _RAT.fullmatch(token)
    if m is None:
        raise FormatError(f"bad rational token {token!r}")
    num, den = m.groups()
    try:
        return Rat(int(num), int(den)) if den else int(num)
    except ValueError:  # past the digit limit
        return Rat(_long_int(num), _long_int(den)) if den else _long_int(num)


def parse_int(token: str) -> int:
    if _INT_TOKEN.fullmatch(token) is None:
        raise FormatError(f"bad integer token {token!r}")
    return _long_int(token)


def _data_lines(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line.split())
    return rows


def _ints(row: list[str], n: int | None = None) -> list[int]:
    if not all(map(_INT_TOKEN.fullmatch, row)):
        raise FormatError(f"expected integers, got {row!r}")
    vals = [_long_int(tok) for tok in row]
    if n is not None and len(vals) != n:
        raise FormatError(f"expected {n} fields, got {len(vals)}: {row!r}")
    return vals


def _comments(header: str | None) -> list[str]:
    return [f"# {h}" for h in header.splitlines()] if header else []


def format_instance(inst: OvInstance, header: str | None = None) -> str:
    lines = _comments(header)
    lines.append(f"{inst.n_a} {inst.n_b} {inst.d}")
    for vec in inst.a_side + inst.b_side:
        lines.append(" ".join(str(b) for b in vec))
    return "\n".join(lines) + "\n"


_BITS = {"0": 0, "1": 1}  # the tokens format_instance writes


def parse_instance(text: str) -> OvInstance:
    rows = _data_lines(text)
    if not rows:
        raise FormatError("empty instance file")
    n_a, n_b, d = _ints(rows[0], 3)
    if n_a < 1 or n_b < 1 or d < 1:
        raise FormatError(f"bad instance header {rows[0]!r}")
    if len(rows) != 1 + n_a + n_b:
        raise FormatError(
            f"instance header promises {n_a}+{n_b} rows, file has {len(rows) - 1}"
        )
    try:
        vecs = [tuple(map(_BITS.__getitem__, row)) for row in rows[1:]]
    except KeyError:  # a token other than exactly "0" or "1"
        vecs = None
    if vecs is None or any(len(vec) != d for vec in vecs):
        # Fall back to the integer grammar on every token, so "01" or "+1"
        # are bits too.  Every row is converted before any bit is checked;
        # that order fixes which error a file with several faults reports.
        vecs = [_ints(row, d) for row in rows[1:]]
        for row in vecs:
            for b in row:
                if b not in (0, 1):
                    raise FormatError(f"instance entries must be bits, got {b}")
        vecs = [tuple(row) for row in vecs]
    return OvInstance._from_checked(tuple(vecs[:n_a]), tuple(vecs[n_a:]), d)


def format_curve_set(curves, header: str | None = None) -> str:
    curves = [curve(c) for c in curves]
    if not curves:
        raise FormatError("curve set must be non-empty")
    lines = _comments(header)
    lines.append(str(len(curves)))
    for c in curves:
        lines.append(str(len(c)))
        lines.extend(f"{format_rat(x)} {format_rat(y)}" for x, y in c)
    return "\n".join(lines) + "\n"


# A file of only these characters has no comment and no ``num/den`` token,
# and each of its tokens is one that ``int`` reads as ``parse_rat`` does or
# rejects (``int`` would also take underscores and non-ASCII digits).
_PLAIN = re.compile(r"[0-9+\- \n]*")


def parse_curve_set(text: str) -> tuple[Curve2, ...]:
    """A file of plain integer tokens converts with ``int``; any other file,
    or any error, goes through ``parse_rat``. Both routes give one value on
    a well-formed file, and every error message comes from ``parse_rat``'s
    route (a token past the digit limit, where ``int`` raises, too)."""
    if _PLAIN.fullmatch(text):
        try:
            return _curve_set(text, int)
        except ValueError:
            pass
    return _curve_set(text, parse_rat)


def _curve_set(text: str, coordinate) -> tuple[Curve2, ...]:
    rows = _data_lines(text)
    if not rows:
        raise FormatError("empty curve-set file")
    count = _ints(rows[0], 1)[0]
    if count < 1:
        raise FormatError("curve-set count must be >= 1")
    out, at = [], 1
    for _ in range(count):
        if at >= len(rows):
            raise FormatError("file promises more curves than it contains")
        n = _ints(rows[at], 1)[0]
        if n < 1:
            raise FormatError("curve vertex count must be >= 1")
        if at + 1 + n > len(rows):
            raise FormatError(f"curve promises {n} vertices, file is short")
        verts = []
        for row in rows[at + 1 : at + 1 + n]:
            if len(row) != 2:
                raise FormatError(f"curve vertex needs 2 coordinates, got {row!r}")
            verts.append((coordinate(row[0]), coordinate(row[1])))
        out.append(tuple(verts))
        at += 1 + n
    if at != len(rows):
        raise FormatError("trailing rows after curve set")
    return tuple(out)


def format_point_set(points, header: str | None = None) -> str:
    pts = [point(p) for p in points]
    if not pts:
        raise FormatError("point set must be non-empty")
    dim = len(pts[0])
    lines = _comments(header)
    lines.append(f"{len(pts)} {dim}")
    for p in pts:
        if len(p) != dim:
            raise FormatError("point set rows must share one dimension")
        lines.append(" ".join(format_rat(c) for c in p))
    return "\n".join(lines) + "\n"


def parse_point_set(text: str) -> tuple[PointD, ...]:
    rows = _data_lines(text)
    if not rows:
        raise FormatError("empty point-set file")
    count, dim = _ints(rows[0], 2)
    if count < 1 or dim < 1:
        raise FormatError(f"bad point-set header {rows[0]!r}")
    if len(rows) != 1 + count:
        raise FormatError(f"point set promises {count} rows, has {len(rows) - 1}")
    pts = []
    for row in rows[1:]:
        if len(row) != dim:
            raise FormatError(f"point row needs {dim} coordinates, got {row!r}")
        pts.append(tuple(parse_rat(tok) for tok in row))
    return tuple(pts)


def read_text(path) -> str:
    from pathlib import Path

    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    from pathlib import Path

    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc
