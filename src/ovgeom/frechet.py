"""Discrete Fréchet distance on planar rational curves.

All entry points work on exact rationals.  Internally each curve pair is
rescaled once onto a common integer grid (multiply by the lcm of all
coordinate denominators), after which the dynamic programs run on machine
ints; results are mapped back to rationals exactly.

The distance is handled squared end to end.  ``_rows`` holds the one
bottleneck recurrence (Eiter & Mannila 1994).  Three routes are provided:

* ``frechet_sq``        -- keeps every row; the value and one optimal
                           traversal (deterministic tie-breaking),
* ``frechet_sq_value``  -- keeps the last row only, O(min(n, m)) memory;
                           its grid-level core ``_grid_value`` also serves
                           the curve scan of ``ovgeom.proximity``,
* ``frechet_decide``    -- threshold decision as reachability on bit rows:
                           one big-int row per vertex of p, filled by
                           addition over the mask of in-threshold cells;
                           its grid-level core ``_grid_decide`` also serves
                           ``ovgeom.verify`` on the reductions' own grids.

``brute_force_frechet_sq`` enumerates every monotone traversal and is the
reference oracle for the dynamic programs; it is exponential and refuses
inputs beyond a configurable total vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

from .core import Rat, SqDist, as_integer_grid, curve, sq_dist

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


def frechet_sq(p, q) -> FrechetResult:
    """Full dynamic program with traversal recovery.

    Backtracking prefers the diagonal predecessor, then (i-1, j), then
    (i, j-1), which pins down one deterministic optimal traversal among ties.
    """
    (ip, iq), scale = as_integer_grid([curve(p), curve(q)])
    n, m = len(ip), len(iq)
    table = list(_rows(ip, iq))

    steps = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        if i == 0:
            i, j = 0, j - 1
        elif j == 0:
            i, j = i - 1, 0
        else:
            # prefer diagonal, then the (i-1, j) predecessor, then (i, j-1)
            best = table[i - 1][j - 1]
            pick = (i - 1, j - 1)
            if table[i - 1][j] < best:
                best, pick = table[i - 1][j], (i - 1, j)
            if table[i][j - 1] < best:
                pick = (i, j - 1)
            i, j = pick
        steps.append((i, j))
    steps.reverse()
    return FrechetResult(Rat(table[n - 1][m - 1], scale * scale), tuple(steps))


def _grid_value(ip: list[tuple[int, int]], iq: list[tuple[int, int]]) -> int:
    """Squared discrete Fréchet distance of two curves on one integer grid."""
    if len(ip) < len(iq):  # the distance is symmetric: keep rows short
        ip, iq = iq, ip
    for last in _rows(ip, iq):
        pass
    return last[-1]


def frechet_sq_value(p, q) -> SqDist:
    """Value-only dynamic program keeping one table row."""
    (ip, iq), scale = as_integer_grid([curve(p), curve(q)])
    return Rat(_grid_value(ip, iq), scale * scale)


def _grid_decide(ip, iq, limit: int) -> bool:
    """Is the squared discrete Fréchet distance of two grid curves <= limit?

    Reachability over the cells whose squared vertex distance is within the
    limit, one big-int row per vertex of ip: bit j of a row stands for cell
    (i, j).  Within a run of in-threshold cells a walk only moves right, so
    one addition carries the lowest entry point of each run to its end (the
    bit-vector idea of Myers, JACM 1999).  A row with no entry point ends
    the walk early.
    """
    rq = iq[::-1]  # the mask string's last character is bit 0, vertex 0 of q
    oks: dict[tuple[int, int], int] = {}  # in-threshold mask per distinct vertex
    seed = 1
    for pv in ip:
        ok = oks.get(pv)
        if ok is None:
            ok = oks[pv] = int(
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
