"""Seeded, closed-loop benchmark of the ionsynth compiler and oracle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trotter_real --seed 1 --seconds 30 --trace 0

One client runs ops back to back in this single process: the next op starts
when the previous one has finished.  Ops come in whole cycles (see
inputs.py), and the run stops at the first cycle boundary after ``--seconds``.
Every op's output is checked; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics, with the units
of BENCHMARK.json.  Op times are reported in units of a fixed reference kernel
timed between the ops (see reference.py), which cancels the drift of a shared
machine's speed; set-up time is scaled by the same kernel.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones, from spans recorded around each call into the package and written to
perfbench/out/ when the run ends.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads: the machine has two
# cores, and the load generator must not compete with the work it measures.
THREAD_SETTINGS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
from reference import NOMINAL_SECONDS, reference_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Each metric's unit, defined once in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 9
# One pass of the reference kernel per this much op time (at least one per op).
REFERENCE_PERIOD_S = 0.5

# Per-layer span totals reported as seconds per op: metric -> span name.
LAYER_TIMES = {
    "integrals.parse_s": "integrals.parse_integrals",
    "integrals.term_list_s": "integrals.term_list",
    "evolution.fusion_groups_s": "evolution.fusion_groups",
    "evolution.build_trotter_step_s": "evolution.build_trotter_step",
    "evolution.build_uccsd_layer_s": "evolution.build_uccsd_layer",
    "synth.compile_double_block_s": "synth.compile_double_block",
    "circuit.serialize_s": "circuit.serialize",
    "circuit.deserialize_s": "circuit.deserialize",
    "circuit.count_s": "circuit.count",
    "circuit.cost_s": "circuit.cost",
    "verify.target_s": "verify.target",
    "verify.circuit_unitary_s": "verify.circuit_unitary",
    "verify.distance_s": "verify.assert_equivalent",
}
# Counters reported as a mean per op.
LAYER_COUNTS = (
    "fermion.excitation_terms",
    "fermion.local_terms",
    "evolution.groups",
    "synth.blocks",
    "circuit.bytes",
    "circuit.gates",
    "verify.gate_applications",
    "verify.computed_bytes",
)


class Unavailable(Exception):
    """The checkout holds no importable ionsynth sources."""


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "ionsynth" or m.startswith("ionsynth.")]:
        del sys.modules[name]


def _import_package() -> None:
    if not (SRC / "ionsynth" / "__init__.py").is_file():
        raise Unavailable(f"no ionsynth sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("ionsynth")
    if Path(module.__file__).resolve().parent != SRC / "ionsynth":
        raise Unavailable(f"ionsynth imported from {module.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int) -> tuple[float, float, list]:
    """Set-up time, scaled and raw, and the inputs of the first cycle.

    Each repeat loads ionsynth afresh and builds the inputs (numpy is already
    loaded), then times two passes of the reference kernel.  The scaled time
    is the median over repeats of set-up time / kernel time × NOMINAL_SECONDS:
    seconds on a machine whose kernel pass takes exactly NOMINAL_SECONDS.
    Raw set-up time drifted with the machine by over 25% between sets of runs.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        _purge_package()
        start = time.perf_counter()
        _import_package()
        first = inputs.cycle_inputs(workload, seed, 0)
        elapsed = time.perf_counter() - start
        reference = (reference_seconds() + reference_seconds()) / 2
        raw.append(elapsed)
        scaled.append(elapsed / reference * NOMINAL_SECONDS)
    return statistics.median(scaled), statistics.median(raw), first


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup_s, setup_raw_s, batch = measure_setup(workload, seed)

    import workloads
    from tracing import Tracer

    problems = workloads.h3plus_gate()
    if problems:
        for p in problems:
            print(f"set-up gate failed: {p}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    run_op, check_op = workloads.RUNNERS[workload]
    tracer = Tracer(trace)
    durations: list[float] = []
    references: list[float] = []
    failures: list[str] = []
    ms = cnot = depth = generators = 0
    first_cycle = hashlib.sha256()
    first_size = len(batch)
    cycle = 0
    deadline = time.perf_counter() + seconds
    while True:
        for inp in batch:
            op_id = len(durations)
            tracer.op = op_id
            start = time.perf_counter()
            try:
                with tracer.span("op"):
                    out = run_op(inp, tracer)
                durations.append(time.perf_counter() - start)
                found = check_op(inp, out)
            except Exception:
                if len(durations) == op_id:
                    durations.append(time.perf_counter() - start)
                found = [traceback.format_exc(limit=3)]
            # Sample machine speed right after the op, in proportion to its
            # length, so the reference covers the run as the ops do.
            for _ in range(max(1, round(durations[-1] / REFERENCE_PERIOD_S))):
                references.append(reference_seconds())
            if found:
                failures.append(f"op {op_id} ({workload} cycle {cycle}): " + "; ".join(found))
                continue
            ms += out.ms
            cnot += out.cnot
            depth += out.depth
            generators += out.generators
            if cycle == 0:
                first_cycle.update(out.text.encode())
        cycle += 1
        if time.perf_counter() >= deadline:
            break
        batch = inputs.cycle_inputs(workload, seed, cycle)

    attempted = len(durations)
    failed = len(failures)
    for f in failures[:5]:
        print(f"failed {f}", file=sys.stderr)
    op_total = sum(durations)
    reference = statistics.fmean(references)
    costs = sorted(d / reference for d in durations)
    seconds_sorted = sorted(durations)
    print(f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("threads " + " ".join(f"{k}={v}" for k, v in THREAD_SETTINGS.items())
          + f" (python {platform.python_version()}, numpy {sys.modules['numpy'].__version__})")
    print(f"ops {attempted} in {cycle} cycles, failed {failed}, fail_ratio {failed / attempted:g}")
    print(f"circuits_sha256 {first_cycle.hexdigest()} (serialize() of cycle 0, {first_size} circuits)")
    print(f"wall clock: ops_per_s {attempted / op_total:.6g} 1/s, "
          f"op_s.p50 {nearest_rank(seconds_sorted, 0.5):.6g} s, "
          f"op_s.p90 {nearest_rank(seconds_sorted, 0.9):.6g} s (n={attempted}); "
          f"reference kernel mean {reference:.6g} s over {len(references)} passes")
    print(f"set-up wall clock {setup_raw_s:.6g} s (median of {SETUP_REPEATS})")
    print(f"op_cost.p50 {nearest_rank(costs, 0.5):.6g} ref, "
          f"op_cost.p90 {nearest_rank(costs, 0.9):.6g} ref (n={attempted})")
    print(f"cnot_per_generator {cnot / max(generators, 1):g} gates/gen")

    if not trace:
        metrics = {
            "setup_s": setup_s,
            "op_cost.mean": statistics.fmean(durations) / reference,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ms_per_generator": ms / max(generators, 1),
            "entangling_per_generator": (ms + cnot) / max(generators, 1),
            "depth_per_generator": depth / max(generators, 1),
        }
    else:
        metrics = layer_metrics(tracer, attempted, op_total, reference)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.write(path)
        print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, attempted: int, op_total: float, reference: float) -> dict:
    span_totals, covered = tracer.totals()
    metrics = {name: span_totals.get(span, 0.0) / attempted for name, span in LAYER_TIMES.items()}
    for name in LAYER_COUNTS:
        metrics[name] = tracer.counts.get(name, 0.0) / attempted
    groups = tracer.counts.get("evolution.groups", 0.0)
    metrics["evolution.terms_per_group"] = (
        tracer.counts.get("fermion.excitation_terms", 0.0) / groups if groups else 0.0)
    synthesis = (span_totals.get("evolution.build_trotter_step", 0.0)
                 + span_totals.get("evolution.build_uccsd_layer", 0.0)
                 + span_totals.get("synth.compile_double_block", 0.0)
                 - span_totals.get("evolution.fusion_groups", 0.0))
    blocks = tracer.counts.get("synth.blocks", 0.0)
    metrics["synth.block_s"] = synthesis / blocks if blocks else 0.0
    metrics["verify.max_defect"] = tracer.peaks.get("verify.max_defect", 0.0)
    metrics["trace.op_cost.mean"] = op_total / attempted / reference
    metrics["trace.span_share"] = covered / op_total
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
