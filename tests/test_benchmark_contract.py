"""Smoke test of the benchmark's contract with the package.

Three requests of each workload in ``benchmark/workloads.py`` run against
the package at seed 1, untraced and traced, and each answer must pass the
workload's own check.  A public name the benchmark imports, or a k-d tree
attribute ``kdtree_shape`` walks (``root``, ``left``, ``right``,
``bucket``), that goes missing fails here, not only in a benchmark run.
The benchmark's modules are imported, never changed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

from spans import UNTRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED, REQUESTS = 1, 3


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_requests_pass_the_workload_check(name, traced):
    wl = WORKLOADS[name]
    t = Tracer() if traced else UNTRACED
    for k in range(REQUESTS):
        t.request = k
        req = wl.make(SEED, k, wl.sizes)
        raw = wl.run(t, req)
        assert wl.answer(req, raw)
        assert wl.check(req, raw) == []
    if traced:
        summary = t.summary([1] * REQUESTS)
        assert summary
        if name == "points":
            # kdtree_shape reads 0 leaves from a tree it cannot walk
            shape = summary["proximity.nn_build"]
            assert shape["leaves"] >= REQUESTS and shape["max_bucket"] >= 1
