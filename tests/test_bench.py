"""The compile benchmark script, loaded by path and run on its H3+ workload."""

import importlib.util
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_compile_bench_measures_the_h3plus_workload(monkeypatch):
    """One ``measure`` of the packaged H3+ table and layer: the MS contracts,
    the templates the two circuits use, the cold builds and the baseline
    hash, with nothing written to BENCH_compile.json."""
    monkeypatch.syspath_prepend(str(BENCH))  # the script imports bench/oracle.py as oracle
    spec = importlib.util.spec_from_file_location("bench_compile", BENCH / "compile.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    written = bench.OUT.read_bytes() if bench.OUT.exists() else None
    row = bench.measure(*bench.h3plus())
    assert (row["workload"], row["trotter_ms"], row["uccsd_ms"]) == ("h3plus", 26, 24)
    assert row["templates"] == 13
    stages = {"build_trotter_step", "build_uccsd_layer"}
    assert row["cold_s"].keys() == row["cold_range_s"].keys() == stages
    for stage in stages:
        fastest, slowest = row["cold_range_s"][stage]
        assert 0 < fastest <= row["cold_s"][stage] <= slowest
    assert re.fullmatch("[0-9a-f]{64}", row["baseline_sha256"])
    assert (bench.OUT.read_bytes() if bench.OUT.exists() else None) == written
