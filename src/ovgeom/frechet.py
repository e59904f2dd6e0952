"""Discrete Fréchet distance on planar rational curves.

All entry points work on exact rationals.  Internally each curve pair is
rescaled once onto a common integer grid (multiply by the lcm of all
coordinate denominators), after which the dynamic programs run on machine
ints; results are mapped back to rationals exactly.

The distance is handled squared end to end.  Three routes are provided:

* ``frechet_sq``        -- the whole bottleneck table; the value and one
                           optimal traversal (deterministic tie-breaking),
* ``frechet_sq_value``  -- the value alone in memory linear in n + m; its
                           grid-level core ``_grid_value`` also serves the
                           curve scan of ``ovgeom.proximity``,
* ``frechet_decide``    -- threshold decision as reachability on bit rows:
                           one big-int row per vertex of p, filled by
                           addition over the mask of in-threshold cells;
                           its grid-level core ``_grid_decide`` also serves
                           ``ovgeom.verify`` on the reductions' own grids.

The bottleneck recurrence of Eiter & Mannila (1994),
T[i][j] = max(D[i][j], min(T[i−1][j], T[i][j−1], T[i−1][j−1])), has two
kernels.  ``_rows`` runs it a row at a time on lists of ints, for the
value DP of short pairs only.  ``_wave`` runs it on packed ints: a pair
translated so that every coordinate is >= 0 (distances do not change)
has every squared distance within bound = Δx² + Δy², so a field of w
bytes with bound < 2**(8w − 1) holds any of them below a guard bit.  With q's columns X, Y and squared norms N
packed once, the distances from a vertex (x, y) of p to all of q are one
packed row, N + (x² + y²)·ONES − 2x·X − 2y·Y: a multiply per coordinate,
every field exact.  The packed vector runs along the shorter curve, q,
and the table is swept by anti-diagonals, T_k holding T[k − j][j] in
field j:

    T_k = max(D_k, min(T_{k−1}, (T_{k−1} ≪ w), (T_{k−2} ≪ w))),

each min and max a guard-bit compare of all fields at once (SWAR).  The
rows of D enter a ring of the last s anti-diagonals with two strided
slice writes each, so each D_k is read as one contiguous slice.  q's
columns are split into strips of ``_STRIP``; each strip's last column
enters the next as the entry from its left.

Memory beyond the two grid curves, for n = len(p), m = len(q) <= n:

* ``frechet_sq``: every strip's anti-diagonals, about (n + 256)·m·w
  bytes, which its backtrack reads in place: T[i−1][j] and T[i][j−1]
  are adjacent fields of one anti-diagonal, so one shift gives both;
* ``frechet_sq_value``: the row loop keeps two rows of m ints; the
  wavefront a ring of at most 256² fields, two anti-diagonals and the
  carried column of n ints, linear in n + m at any size (unstripped, the
  skewed matrix would take m·(n + m − 1)·w bytes: 8 MB at n = m = 1024);
* ``frechet_decide``: the packed columns, and one mask of m bits per
  distinct vertex of p.

The decider builds each mask with one packed compare against the limit:
the guard bit of field j of (limit + 2**(8w − 1))·ONES − row is set iff
cell j is within the limit, and those guard bytes, taken by one strided
slice, are mapped by ``bytes.translate`` to the digits ``int(…, 2)`` reads.

``frechet_sq`` always runs the wavefront.  The value DP and the masks
keep the list kernels on short pairs, where packing costs more than it
saves: the value DP below a shorter curve of ``_WAVE_MIN`` = 32
vertices, the masks below a q of ``_MASK_MIN`` = 10.  In a sweep over
random walks, embedded curves and disjunction-gadget pairs of equal
lengths, the value DP on the wavefront broke even with ``_rows`` at 24 to
28 vertices; on walks of 256 against s vertices it broke even near
s = 12.  Packed masks broke even on gadget pairs at 8 to 10 and won at
every length on long walks (``BENCH_frechet-wave.json``).

``brute_force_frechet_sq`` enumerates every monotone traversal and is the
reference oracle for the dynamic programs; it is exponential and refuses
inputs beyond a configurable total vertex count.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from math import floor

from .core import Rat, SqDist, as_integer_grid, curve, sq_dist
from .core import _UNSIGNED, _field_width, _packed

__all__ = [
    "Traversal",
    "FrechetResult",
    "frechet_sq",
    "frechet_sq_value",
    "frechet_decide",
    "brute_force_frechet_sq",
    "traversal_is_valid",
]

Traversal = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FrechetResult:
    """Squared distance plus one optimal traversal achieving it.

    The traversal is a tuple of 0-based (i, j) vertex pairs starting at
    (0, 0), ending at (len-1, len-1), each step advancing one or both
    indices by exactly one.
    """

    sq_value: SqDist
    traversal: Traversal


def traversal_is_valid(steps: Traversal, n: int, m: int) -> bool:
    """Check the monotone-walk invariants for curves of length n and m."""
    if not steps or steps[0] != (0, 0) or steps[-1] != (n - 1, m - 1):
        return False
    for (i0, j0), (i1, j1) in zip(steps, steps[1:]):
        di, dj = i1 - i0, j1 - j0
        if di not in (0, 1) or dj not in (0, 1) or (di, dj) == (0, 0):
            return False
    return True


def _dist_row(pv: tuple[int, int], qs: list[tuple[int, int]]) -> list[int]:
    px, py = pv
    return [(px - qx) ** 2 + (py - qy) ** 2 for qx, qy in qs]


def _rows(ip: list[tuple[int, int]], iq: list[tuple[int, int]]):
    """Yield the bottleneck table of two grid curves; a yielded row is final.

    Entry j of row i is the smallest achievable maximum squared step
    distance over monotone walks from (0, 0) to (i, j).
    """
    m = len(iq)
    prev = _dist_row(ip[0], iq)
    for j in range(1, m):
        if prev[j] < prev[j - 1]:
            prev[j] = prev[j - 1]
    yield prev
    for pv in ip[1:]:
        cur = _dist_row(pv, iq)
        if cur[0] < prev[0]:
            cur[0] = prev[0]
        for j in range(1, m):
            reach = prev[j - 1]
            if prev[j] < reach:
                reach = prev[j]
            if cur[j - 1] < reach:
                reach = cur[j - 1]
            if cur[j] < reach:
                cur[j] = reach
        yield cur
        prev = cur


# The measured crossovers of the module docstring: a value DP whose
# shorter curve has fewer vertices than _WAVE_MIN runs ``_rows``, and a
# decider whose q has fewer than _MASK_MIN builds its masks from strings.
_WAVE_MIN = 32
_MASK_MIN = 10
# q's columns per wavefront strip
_STRIP = 256


def _frame(ip, iq):
    """(x0, y0, w, bound) of a pair of grid curves: the least x and y over
    both, a bound on every squared distance between their vertices, and
    the field width w in bytes that holds the bound below a guard bit."""
    xs, ys = zip(*ip, *iq)
    x0, y0 = min(xs), min(ys)
    bound = (max(xs) - x0) ** 2 + (max(ys) - y0) ** 2
    return x0, y0, _field_width(bound), bound


def _columns(iq, x0, y0, w):
    """q's packed columns X and Y, translated by (−x0, −y0) so that every
    coordinate is in [0, √bound], its squared norms N, and ONES: for a
    vertex of p translated alike to (x, y), with s = x² + y²,
    N + s·ONES − 2x·X − 2y·Y holds its squared distance to q_j in field j.
    """
    xs = [x - x0 for x, _ in iq]
    ys = [y - y0 for _, y in iq]
    return (
        _packed(xs, w),
        _packed(ys, w),
        _packed([x * x + y * y for x, y in zip(xs, ys)], w),
        _packed([1] * len(iq), w),
    )


def _wave(rows, iq, x0, y0, w, left):
    """Yield the bottleneck table of p against the columns iq, one
    anti-diagonal at a time.

    ``rows`` holds (2x, 2y, x² + y²) per vertex of p, translated as by
    ``_columns``.  Yielded value k packs T[k − j][j] in field j (w bytes,
    top bit a guard), for k = 0 .. len(rows) + len(iq) − 2; fields outside
    the table hold values no cell reads.  ``left[k]`` (k < len(rows)) is
    min(T[k][−1], T[k − 1][−1]), the entry from the column before iq.
    """
    n, s = len(rows), len(iq)
    bits = 8 * w
    g = bits - 1
    xc, yc, nc, ones = _columns(iq, x0, y0, w)
    inf = (ones << g) - ones  # 2**g − 1 in every field: above every distance
    # the guard bits, and one more above the top field: the field a shift
    # carries out meets 0 there in T_{k−1} and the min clears it
    guard = (ones << bits | 1) << g
    # A ring of the distance matrix's anti-diagonals: D[i][j] sits in
    # field j of slot (i + j) mod s, so row k, written just before
    # anti-diagonal k is read, is two strides of s + 1 fields.  A field
    # wider than 8 bytes moves as c 8-byte units; units are moved, never
    # read, so the host's byte order does not matter.
    size = min(w, 8)
    unit, c = _UNSIGNED[size], w // size
    sc = s * c  # units per slot
    ring = array(unit, bytes(s * s * w))
    view = memoryview(ring)
    end, step = s * sc, sc + c
    left = left + [0] * (s - 1)  # the rows below the table: never read
    t1 = t2 = inf  # T_{k−1} and T_{k−2}: the cells above row 0
    for k in range(n + s - 1):
        start = k % s * sc  # slot k mod s
        if k < n:
            x2, y2, sq = rows[k]
            row = (nc + sq * ones - x2 * xc - y2 * yc).to_bytes(s * w, "little")
            row = array(unit, row)
            cut = (s - k % s) * c  # fields from here on wrap round to slot 0
            for t in range(c):
                ring[start + t:end:step] = row[t:cut:c]
                if start:  # an empty extended slice would try to resize ring
                    ring[cut + t:start:step] = row[cut + t::c]
        d = int.from_bytes(view[start:start + sc], "little")
        # Guard-bit SWAR: field j of (a | G) − b is a_j − b_j + 2**g, its
        # guard bit set iff a_j >= b_j; ge − (ge >> g) spans those fields'
        # low g bits, where the difference a_j − b_j sits.
        t1g = t1 | guard
        diff = t1g - t2
        ge = diff & guard
        u = t1 - (diff & (ge - (ge >> g)))  # min(T_{k−1}, T_{k−2})
        u = u << bits | left[k]  # ... one column on
        diff = t1g - u
        ge = diff & guard
        u = t1 - (diff & (ge - (ge >> g)))  # min of the three predecessors
        diff = (d | guard) - u
        ge = diff & guard
        t2, t1 = t1, u + (diff & (ge - (ge >> g)))  # max(D_k, the min)
        yield t1


def _wavefront(ip, iq, keep: bool):
    """The bottleneck table of ip against iq on the wavefront, q's columns
    split into strips of ``_STRIP``; each strip's last column enters the
    next as its ``left``.  Returns T[n − 1][m − 1], the field width and,
    when ``keep``, every strip's anti-diagonals."""
    x0, y0, w, _ = _frame(ip, iq)
    tp = [(x - x0, y - y0) for x, y in ip]
    rows = [(2 * x, 2 * y, x * x + y * y) for x, y in tp]
    left = [0] + [(1 << 8 * w - 1) - 1] * (len(ip) - 1)  # the walk starts at (0, 0)
    strips = []
    for j0 in range(0, len(iq), _STRIP):
        cols = iq[j0:j0 + _STRIP]
        diags = _wave(rows, cols, x0, y0, w, left)
        if keep:
            diags = list(diags)
            strips.append(diags)
        top = 8 * w * (len(cols) - 1)
        # T[i][the strip's last column], from anti-diagonal i + len(cols) − 1
        col = [t >> top for t in islice(diags, len(cols) - 1, None)]
        left = [col[0], *map(min, col[1:], col)]
    return col[-1], w, strips


def frechet_sq(p, q) -> FrechetResult:
    """Full dynamic program with traversal recovery.

    Backtracking prefers the diagonal predecessor, then (i-1, j), then
    (i, j-1), which pins down one deterministic optimal traversal among ties.
    """
    (ip, iq), scale = as_integer_grid([curve(p), curve(q)])
    flip = len(iq) > len(ip)
    if flip:  # the packed fields run along the shorter curve
        ip, iq = iq, ip
    value, w, strips = _wavefront(ip, iq, keep=True)
    bits, mask = 8 * w, (1 << 8 * w) - 1
    top = bits * (_STRIP - 1)  # the last field of a full strip

    # Cell (i, j) is field f = j % _STRIP of anti-diagonal i + f of strip
    # j // _STRIP.  T[i−1][j] and T[i][j−1] lie on one anti-diagonal.
    i, j = len(ip) - 1, len(iq) - 1
    steps = [(i, j)]
    while i or j:
        if not i:
            j -= 1
        elif not j:
            i -= 1
        else:
            s, f = divmod(j, _STRIP)
            diags = strips[s]
            if f:
                pair = diags[i + f - 1] >> bits * (f - 1)
                up, side = pair >> bits & mask, pair & mask
                diag = diags[i + f - 2] >> bits * (f - 1) & mask
            else:  # column j − 1 is the last of the strip before
                up = diags[i - 1] & mask
                diags = strips[s - 1]
                side = diags[i + _STRIP - 1] >> top & mask
                diag = diags[i + _STRIP - 2] >> top & mask
            # prefer diagonal, then (i-1, j), then (i, j-1) in the caller's
            # frame, where a flipped table's side cell is (i-1, j)
            if diag <= up and diag <= side:
                i -= 1
                j -= 1
            elif up < side or up == side and not flip:
                i -= 1
            else:
                j -= 1
        steps.append((i, j))
    steps.reverse()
    if flip:
        steps = [(j, i) for i, j in steps]
    return FrechetResult(Rat(value, scale * scale), tuple(steps))


def _grid_value(ip: list[tuple[int, int]], iq: list[tuple[int, int]]) -> int:
    """Squared discrete Fréchet distance of two curves on one integer grid."""
    if len(ip) < len(iq):  # the distance is symmetric: q is the shorter curve
        ip, iq = iq, ip
    if len(iq) >= _WAVE_MIN:
        return _wavefront(ip, iq, keep=False)[0]
    for last in _rows(ip, iq):
        pass
    return last[-1]


def frechet_sq_value(p, q) -> SqDist:
    """Value-only dynamic program in memory linear in n + m."""
    (ip, iq), scale = as_integer_grid([curve(p), curve(q)])
    return Rat(_grid_value(ip, iq), scale * scale)


# bytes.translate table: a byte with its top bit set becomes "1", else "0"
_GUARD_BIT = bytes(49 if b & 128 else 48 for b in range(256))


def _packed_masks(ip, iq, limit: int):
    """The in-threshold mask of a vertex of p from one packed compare: bit
    j set iff its squared distance to iq[j] is at most the limit (>= 0)."""
    m = len(iq)
    x0, y0, w, bound = _frame(ip, iq)
    xc, yc, nc, ones = _columns(iq, x0, y0, w)
    # field j of top − row is min(limit, bound) + 2**(8w−1) − |pv − q_j|²,
    # >= 2**(8w−1) (its guard bit set) iff the distance is within the limit
    top = (min(limit, bound) + (1 << 8 * w - 1)) * ones - nc

    def mask(pv):
        x, y = pv[0] - x0, pv[1] - y0
        fields = (top - (x * x + y * y) * ones + 2 * x * xc + 2 * y * yc).to_bytes(
            m * w, "little"
        )
        # each field's top byte, field m−1 first: the guard bits, bit 0 last
        return int(fields[::-w].translate(_GUARD_BIT), 2)

    return mask


def _grid_decide(ip, iq, limit: int) -> bool:
    """Is the squared discrete Fréchet distance of two grid curves <= limit?

    Reachability over the cells whose squared vertex distance is within the
    limit, one big-int row per vertex of ip: bit j of a row stands for cell
    (i, j).  Within a run of in-threshold cells a walk only moves right, so
    one addition carries the lowest entry point of each run to its end (the
    bit-vector idea of Myers, JACM 1999).  A row with no entry point ends
    the walk early.
    """
    if limit < 0:  # no cell is within it, and no packed field holds it
        return False
    packed = _packed_masks(ip, iq, limit) if len(iq) >= _MASK_MIN else None
    rq = iq[::-1]  # the mask string's last character is bit 0, vertex 0 of q
    oks: dict[tuple[int, int], int] = {}  # in-threshold mask per distinct vertex
    seed = 1
    for pv in ip:
        ok = oks.get(pv)
        if ok is None:
            ok = oks[pv] = packed(pv) if packed else int(
                "".join(["1" if d <= limit else "0" for d in _dist_row(pv, rq)]), 2
            )
        seed &= ok
        if not seed:
            return False
        reach = ok & ((ok ^ (ok + seed)) | seed)
        seed = reach | reach << 1
    return bool(reach >> (len(iq) - 1) & 1)


def frechet_decide(p, q, tau_sq) -> bool:
    """Is the squared discrete Fréchet distance at most tau_sq?"""
    p, q = curve(p), curve(q)
    tau_sq = sq_dist(tau_sq)
    (ip, iq), scale = as_integer_grid([p, q])
    # an int grid distance is <= tau_sq * scale**2 iff it is <= its floor
    return _grid_decide(ip, iq, floor(tau_sq * scale * scale))


def brute_force_frechet_sq(p, q, max_total: int = 16) -> SqDist:
    """Reference oracle: minimize over all monotone traversals explicitly.

    Walks the full traversal tree without memoization, so it shares no
    machinery with the dynamic programs above.  Refuses curve pairs with
    more than ``max_total`` vertices combined.
    """
    p, q = curve(p), curve(q)
    if len(p) + len(q) > max_total:
        raise ValueError(
            f"oracle cap exceeded: {len(p)} + {len(q)} > {max_total} vertices"
        )
    (ip, iq), scale = as_integer_grid([p, q])
    n, m = len(ip), len(iq)
    dist = [_dist_row(pv, iq) for pv in ip]
    last_i, last_j = n - 1, m - 1

    def walk(i: int, j: int) -> int:
        here = dist[i][j]
        if i == last_i and j == last_j:
            return here
        if i == last_i:
            tail = walk(i, j + 1)
        elif j == last_j:
            tail = walk(i + 1, j)
        else:
            tail = walk(i + 1, j + 1)
            t = walk(i + 1, j)
            if t < tail:
                tail = t
            t = walk(i, j + 1)
            if t < tail:
                tail = t
        return here if here > tail else tail

    return Rat(walk(0, 0), scale * scale)
