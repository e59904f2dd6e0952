"""Smoke tests for the scripts under ``scripts/``, run as subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ovgeom.bench import PROBLEMS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_scaling_experiment_quick_writes_one_summary_row_per_size(tmp_path):
    proc = run_script(
        "scaling_experiment.py", "--quick", "--repeats", "1", "--out-dir", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    rows = {(r["problem"], r["n"]) for r in summary["rows"]}
    # the quick plan runs two sizes of every bench problem
    assert len(rows) == len(summary["rows"]) == 2 * len(PROBLEMS)
    assert {p for p, _ in rows} == set(PROBLEMS)
    for problem, _ in rows:
        assert (tmp_path / f"{problem}.csv").exists()
    for row in summary["rows"]:
        assert isinstance(row["witness"], list)


def test_gadget_delta_sweep_certifies_a_quarter_and_fails_two_thirds():
    proc = run_script("gadget_delta_sweep.py", "--deltas", "1/4,2/3", "--max-d", "8")
    assert proc.returncode == 1, proc.stderr
    verdicts = [line.split()[:2] for line in proc.stdout.splitlines()
                if line.startswith("delta=")]
    assert verdicts == [["delta=1/4", "CERTIFIED"], ["delta=2/3", "FAILED"]]


@pytest.mark.parametrize("token", ["x", "0.25"])
def test_gadget_delta_sweep_rejects_a_bad_delta_with_a_usage_error(token):
    proc = run_script("gadget_delta_sweep.py", "--deltas", f"1/4,{token}")
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"gadget_delta_sweep.py: error: --deltas: bad rational token '{token}'"
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("gadget_delta_sweep.py", ["--deltas", "1/4", "--max-d", "1_0"]),
        ("gadget_delta_sweep.py", ["--deltas", "1/4", "--max-d", "\u0663"]),
        ("scaling_experiment.py", ["--quick", "--repeats", "0", "--seed", "\u0667"]),
        ("scaling_experiment.py", ["--quick", "--repeats", "0_0"]),
    ],
)
def test_bad_integer_flag_is_a_usage_error(tmp_path, name, args):
    if name == "scaling_experiment.py":  # a parsed run would write CSVs here
        args = [*args, "--out-dir", str(tmp_path)]
    proc = run_script(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "invalid parse_int value" in proc.stderr.splitlines()[-1]


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("gadget_delta_sweep.py", ["--deltas", "2/3", "--max-d", "0"],
         "--max-d must be >= 1, got 0"),
        ("scaling_experiment.py", ["--quick", "--repeats", "-1"],
         "--repeats must be >= 0, got -1"),
    ],
)
def test_out_of_range_integer_flag_is_a_usage_error(tmp_path, name, args, message):
    out_dir = tmp_path / "out"
    if name == "scaling_experiment.py":  # must not be created for a bad flag
        args = [*args, "--out-dir", str(out_dir)]
    proc = run_script(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{name}: error: {message}"
    assert not out_dir.exists()
