"""The compile benchmark script, loaded by path and run on its H3+ workload."""

import importlib.util
import json
import re
import sys
from pathlib import Path

from ionsynth import synth

BENCH = Path(__file__).resolve().parent.parent / "bench"
STEP_STAGES = {"parse", "term_list", "build_trotter_step", "build_uccsd_layer", "serialize",
               "deserialize", "count", "cost"}
LAYER_STAGES = {"uccsd_serialize", "uccsd_deserialize", "uccsd_count", "uccsd_cost"}
BASELINE_STAGES = {"baseline_build_trotter_step_real", "baseline_build_trotter_step_complex",
                   "baseline_build_uccsd_layer"}


def _load(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # the script imports bench/oracle.py as oracle
    spec = importlib.util.spec_from_file_location("bench_compile", BENCH / "compile.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_compile_bench_measures_the_h3plus_workload(monkeypatch):
    """One ``measure`` of the packaged H3+ table and layer: the MS contracts,
    the templates the two circuits use, the cold builds, every stage's median
    and range and the baseline hash, with nothing written to
    BENCH_compile.json and no warm timed call deriving a template."""
    bench = _load(monkeypatch)
    written = bench.OUT.read_bytes() if bench.OUT.exists() else None
    timed, misses = bench.timed, []

    def counted(run, reset=None):
        before = synth._template.cache_info().misses
        result = timed(run, reset)
        if reset is not synth._clear_caches:
            misses.append(synth._template.cache_info().misses - before)
        return result

    monkeypatch.setattr(bench, "timed", counted)
    row = bench.measure(*bench.h3plus())
    assert (row["workload"], row["trotter_ms"], row["uccsd_ms"]) == ("h3plus", 26, 24)
    assert row["templates"] == 13
    stages = {"build_trotter_step", "build_uccsd_layer"}
    assert row["cold_s"].keys() == row["cold_range_s"].keys() == stages
    for stage in stages:
        fastest, slowest = row["cold_range_s"][stage]
        assert 0 < fastest <= row["cold_s"][stage] <= slowest
    assert row["median_s"].keys() == row["range_s"].keys() == (
        STEP_STAGES | LAYER_STAGES | BASELINE_STAGES)
    for stage, median in row["median_s"].items():
        fastest, slowest = row["range_s"][stage]
        assert 0 < fastest <= median <= slowest
    assert misses == [0] * len(row["median_s"])
    assert re.fullmatch("[0-9a-f]{64}", row["baseline_sha256"])
    assert (bench.OUT.read_bytes() if bench.OUT.exists() else None) == written


def test_compile_bench_main_appends_one_record(monkeypatch, tmp_path):
    """``main()`` end to end on the H3+ workload alone: one record with its
    label, commit, environment and runs, written to the file it is given,
    and the repository's BENCH_compile.json left as it was."""
    bench = _load(monkeypatch)
    written = bench.OUT.read_bytes() if bench.OUT.exists() else None
    out = tmp_path / "BENCH_compile.json"
    monkeypatch.setattr(bench, "workloads", lambda: [bench.h3plus()])
    monkeypatch.setattr(bench, "OUT", out)
    monkeypatch.setattr(sys, "argv", ["compile.py", "--label", "test"])
    bench.main()
    (record,) = json.loads(out.read_text())["runs"]
    assert record["label"] == "test"
    assert record["commit"] and record["environment"]["python"]
    assert record["runs"] == bench.RUNS
    assert [row["workload"] for row in record["workloads"]] == ["h3plus"]
    assert (bench.ROOT / "BENCH_compile.json").read_bytes() == written
