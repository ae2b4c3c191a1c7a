"""Tests of the benchmark itself: seeded inputs, metric names, and a short
run of every workload.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    for cycle in (0, 3):
        assert inputs.cycle_inputs(workload, 11, cycle) == inputs.cycle_inputs(workload, 11, cycle)
    assert inputs.cycle_inputs(workload, 11, 0) != inputs.cycle_inputs(workload, 12, 0)
    assert inputs.cycle_inputs(workload, 11, 0) != inputs.cycle_inputs(workload, 11, 1)


def test_cycle_mix_does_not_depend_on_the_seed():
    for seed in (1, 2):
        trotter = inputs.cycle_inputs("trotter_real", seed, 0)
        assert [t.n_modes for t in trotter] == list(inputs.TROTTER_MODES)
        uccsd = inputs.cycle_inputs("uccsd_wide", seed, 0)
        assert [(u.n_modes, len(u.occupied)) for u in uccsd] == list(inputs.UCCSD_REGISTERS)
        for cycle in (0, 1, 50):
            windows = inputs.cycle_inputs("oracle_windows", seed, cycle)
            assert [w.window for w in windows] == list(inputs.CYCLE_WINDOWS)
    assert {w[3] + 1 for w in inputs.CYCLE_WINDOWS} == set(inputs.ORACLE_WIDTHS)
    assert all(len(set(w)) == 4 and list(w) == sorted(w) for w in inputs.CYCLE_WINDOWS)


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(inputs.cycle_inputs(workload, 5, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _run("oracle_windows", 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_windows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
