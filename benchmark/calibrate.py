"""Machine-speed calibration for the benchmark's timings.

The benchmark host is shared, and its speed drifts by tens of percent over
seconds as other tenants come and go; the drift moves a fixed pure-Python
loop as much as it moves a request.  So the loop times a fixed reference
kernel in a second, clean interpreter every ~50 ms of request time, and each
request's time is multiplied by ``factor()``, ``REF_NS`` over the median of
the last five kernel samples: times read as on a machine where the kernel
takes 1 ms.

The kernel runs in its own process so that nothing the package does to its
interpreter (heap size, GC settings, threads) can slow the kernel too and
cancel out of the ratio.  The two processes never run at the same time, and
the caller pins both to one CPU, since the host's CPUs drift apart.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from collections import deque

REF_NS = 1_000_000
SAMPLE_EVERY_NS = 50_000_000
_WARMUP = 20

_KERNEL = r"""
import sys
from fractions import Fraction
from time import perf_counter_ns

def kernel():
    pts = [(Fraction(i, 3), Fraction(i + 1, 7)) for i in range(24)]
    best = None
    for x, y in pts:
        for u, v in pts[:6]:
            d = (x - u) ** 2 + (y - v) ** 2
            if best is None or d < best:
                best = d
    s = 0
    for i in range(2000):
        s += (i * i) & 0xFF
    return best, s

for _ in sys.stdin:
    t0 = perf_counter_ns()
    kernel()
    print(perf_counter_ns() - t0, flush=True)
"""


class Calibrator:
    """Owns the kernel process; use as a context manager."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-c", _KERNEL],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        self._recent: deque[int] = deque(maxlen=5)
        self.samples: list[int] = []
        self._since = 0
        for _ in range(_WARMUP):
            self._time_kernel()
        self._recent.clear()
        self.sample()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=30)

    def _time_kernel(self) -> int:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        ns = int(self._proc.stdout.readline())
        self._recent.append(ns)
        return ns

    def sample(self) -> None:
        self.samples.append(self._time_kernel())
        self._since = 0

    def factor(self) -> float:
        """Multiplier from measured time to time at reference speed."""
        return REF_NS / statistics.median(self._recent)

    def advance(self, ns: int) -> None:
        """Count ``ns`` of request time; sample once 50 ms have passed."""
        self._since += ns
        if self._since >= SAMPLE_EVERY_NS:
            self.sample()
