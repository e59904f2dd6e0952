"""Tests of the benchmark itself: tiny runs of every workload, failure
accounting, and agreement between run.py and BENCHMARK.json.

    python3 -m pytest -q benchmark/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from ovgeom import OvWitness  # noqa: E402
from spans import UNTRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, instance_text, ov_reference  # noqa: E402

TINY = {
    "sweep": {"n": (1, 3), "d": (1, 5)},
    "points": {"n": (2, 5), "d": (2, 4)},
    "curves": {"n": (2, 4), "d": (3, 5), "walk": (3, 9)},
    "solve-ov": {"n": (4, 16), "d": (4, 8)},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def clock():
    with Calibrator() as c:
        yield c


def _tiny_run(clock, name, tracer=None, wl=None):
    return run.run_loop(wl or WORKLOADS[name], seed=3, seconds=0, clock=clock,
                        tracer=tracer, sizes=TINY[name], min_requests=6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(clock, name):
    res = _tiny_run(clock, name)
    assert res["attempted"] == 6 and res["failed"] == 0
    metrics = run.e2e_metrics(res, setup_s=0.1)
    assert {m: u for m, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(clock, name):
    tracer = Tracer()
    res = _tiny_run(clock, name, tracer)
    assert res["failed"] == 0
    assert len(res["lat"]) == len(res["traced_lat"]) == 6
    assert {s.request for s in tracer.spans} == set(range(6))
    metrics = run.layer_metrics(tracer.summary(res["factors"]), res["attempted"], 1.0, 1.0)
    assert {m: u for m, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


def test_same_seed_gives_same_answers(clock):
    a, b = _tiny_run(clock, "curves"), _tiny_run(clock, "curves")
    assert a["digest_all"] == b["digest_all"]


def test_wrong_answer_is_counted_as_failure(clock):
    wl = WORKLOADS["solve-ov"]

    def lying_run(t, req):  # flips the decision, like verify's _flip hook
        raw = wl.run(t, req)
        return (OvWitness(0, 0) if raw[0] is None else None,) + raw[1:]

    res = _tiny_run(clock, "solve-ov", wl=dataclasses.replace(wl, run=lying_run))
    assert res["failed"] == res["attempted"] == 6 and res["known"] == 0
    assert run.e2e_metrics(res, 0.1)["ok_ratio"][0] == 0


def test_exception_is_counted_as_failure(clock):
    wl = WORKLOADS["points"]

    def broken_run(t, req):
        raise RuntimeError("boom")

    res = _tiny_run(clock, "points", wl=dataclasses.replace(wl, run=broken_run))
    assert res["failed"] == 6


def test_scaled_times_follow_the_reference_kernel(clock):
    res = _tiny_run(clock, "sweep")
    assert len(res["factors"]) == len(res["lat"]) == 6
    for scaled, measured, factor in zip(res["lat"], res["measured_lat"], res["factors"]):
        assert scaled == measured * factor
    assert all(f > 0 for f in res["factors"])


def test_gadget_false_positive_lowers_ok_ratio_but_does_not_fail(clock):
    # A = {1111}, B = {1000, 0010}: no orthogonal pair, but the gadget says yes
    rows_a, rows_b = (0b1111,), (0b0001, 0b0100)
    wl = WORKLOADS["sweep"]

    def make(seed, k, sizes):
        req = wl.make(seed, k, sizes)
        return dataclasses.replace(req, d=4, rows_a=rows_a, rows_b=rows_b,
                                   text=instance_text(rows_a, rows_b, 4))

    req = make(0, 0, TINY["sweep"])
    assert [p.known for p in wl.check(req, wl.run(UNTRACED, req))] == [True]
    res = _tiny_run(clock, "sweep", wl=dataclasses.replace(wl, make=make))
    assert res["failed"] == 0 and res["known"] == res["attempted"] == 6
    assert run.e2e_metrics(res, 0.1)["ok_ratio"][0] == 0


def test_ov_reference_matches_pair_scan():
    import random

    rng = random.Random(5)
    for _ in range(300):
        d = rng.randint(1, 6)
        a = [rng.getrandbits(d) for _ in range(rng.randint(1, 6))]
        b = [rng.getrandbits(d) for _ in range(rng.randint(1, 6))]
        scan = next(((i, j) for i, x in enumerate(a) for j, y in enumerate(b)
                     if x & y == 0), None)
        assert ov_reference(a, b) == scan


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
