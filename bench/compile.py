"""Stage timings of the compile path, from an integral table to a circuit file.

Run from the root of a checkout:

    python3 bench/compile.py --label change
    python3 bench/compile.py --label parent --src ../parent/src

Workloads: the packaged H3+ table (with the H3+ UCCSD layer, two occupied
and four virtual spin orbitals), the dense random real tables of 8, 10,
12, 14 and 20 modes that perfbench.inputs.integral_document draws from the
seed "profile/<modes>", and one dense random complex table of 10 modes drawn here
from the seed "complex/10" (each with a UCCSD layer over the lowest half of
the modes, angles from the same seed).  Per workload it times eight stages:

  parse               integrals.parse_integrals of the table's text
  term_list           integrals.term_list of the parsed table
  build_trotter_step  evolution.build_trotter_step, parallelized, in the
                      orbital class of the table (real or complex)
  build_uccsd_layer   evolution.build_uccsd_layer, parallelized
  serialize           circuit.serialize of the Trotter step
  deserialize         circuit.deserialize of that text
  count               circuit.count of the Trotter step
  cost                circuit.cost of the Trotter step

and keeps the best of three runs of each in best_s.  It also times
serialize, deserialize, count and cost of the UCCSD layer, keeping the best
of three of each in uccsd_best_s (records before this field was added lack
it).  Each record holds the term and fusion group counts, the MS, CNOT,
single-qubit, gate and depth totals of both circuits and a SHA-256 of their
serialized text, so two checkouts can be shown to emit the same circuits.
It also builds the baseline schedules, the build_trotter_step baseline in
each orbital class the table allows (real tables take both, complex ones
only complex) and the build_uccsd_layer baseline, keeping the best of three
times of each in baseline_best_s and one SHA-256 of their text in
baseline_sha256 (records before these fields were added lack them).  Tables above 14 modes skip the baselines: at 20 modes the
complex-orbital one alone holds about 2.5 million gates and 780 MB.  Each
record also holds parse_peak_mib, the tracemalloc peak in MiB of one untimed
parse_integrals call on the table's text (records before this field was
added lack it), term_list_peak_mib, the tracemalloc peak in MiB of one
untimed term_list call on the parsed table (records before this field and
the 20-mode workload were added lack them), and build_peak_mib, the
tracemalloc peak in MiB of one untimed warm build_trotter_step (records
before this field was added lack it).  The record also holds cold_s, the
median of five cold builds of each of build_trotter_step and
build_uccsd_layer, each timed right after synth._clear_caches (which empties
the group templates with their placements, the shared angle-free gates and,
in sources that plan UCCSD layers, evolution's cached excitation lists and
layer plans) and a full garbage collection, their range [fastest, slowest]
in cold_range_s, and the number of templates the workload's two circuits
use.  Records before cold_range_s was added hold one cold build per stage
in cold_s, so a comparison of cold_s across that change must say so.  The
record, with the environment and the commit of the measured sources (or,
outside a git work tree, a SHA-256 of them: the rule of bench/oracle.py
commit_of), is appended to BENCH_compile.json at the root of the checkout
holding this script.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path

from oracle import commit_of, environment

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_compile.json"
RANDOM_MODES = (8, 10, 12, 14, 20)
BASELINE_MODES = 14
COMPLEX_MODES = 10
TIME_STEP = 0.1
REPEATS = 3
COLD_BUILDS = 5
STAGES = ("parse", "term_list", "build_trotter_step", "build_uccsd_layer", "serialize",
          "deserialize", "count", "cost")
LAYER_STAGES = ("serialize", "deserialize", "count", "cost")


def complex_document(n: int, rng: random.Random) -> str:
    """A dense random complex table: every orbit of the complex symmetry group
    set once, with a real value where the orbit holds its own conjugate (the
    one-body diagonal and two-body orbits such as (p,q,q,p))."""

    def entry(real: bool) -> str:
        re, im = (rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 1.0) for _ in range(2))
        return f"{re:.6f} {0.0 if real else im:.6f}"

    lines = [f"norb {n} reality complex", f"{entry(True)} 0 0 0 0"]
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            lines.append(f"{entry(p == q)} {p} {q} 0 0")
    seen = set()
    for key in itertools.product(range(1, n + 1), repeat=4):
        p, q, r, s = key
        plain, conjugated = {key, (q, p, s, r)}, {(r, s, p, q), (s, r, q, p)}
        rep = min(plain | conjugated)
        if rep not in seen:
            seen.add(rep)
            lines.append(f"{entry(bool(plain & conjugated))} {rep[0]} {rep[1]} {rep[2]} {rep[3]}")
    return "\n".join(lines) + "\n"


def uccsd_half(n: int, rng: random.Random) -> tuple:
    """A UCCSD layer over the lowest half of n modes, angles drawn from rng."""
    from perfbench.inputs import uccsd_counts

    angles = tuple(rng.uniform(-1.0, 1.0) for _ in range(sum(uccsd_counts(n, n // 2))))
    return (n, tuple(range(n // 2)), tuple(range(n // 2, n)), angles)


def h3plus() -> tuple[str, str, tuple]:
    """The packaged H3+ table and its UCCSD layer, as a workloads() entry."""
    from importlib import resources

    h3 = resources.files("ionsynth").joinpath("data/h3plus.ints").read_text()
    return "h3plus", h3, (6, (0, 1), (2, 3, 4, 5), tuple(0.05 * (i + 1) for i in range(8)))


def workloads() -> list[tuple[str, str, tuple]]:
    """(name, integral document, UCCSD (modes, occupied, virtual, angles)) per workload."""
    sys.path.append(str(ROOT))  # after the measured sources
    from perfbench.inputs import integral_document

    out = [h3plus()]
    for n in RANDOM_MODES:
        rng = random.Random(f"profile/{n}")
        out.append((f"random_{n}", integral_document(n, rng), uccsd_half(n, rng)))
    rng = random.Random(f"complex/{COMPLEX_MODES}")
    out.append((f"complex_{COMPLEX_MODES}", complex_document(COMPLEX_MODES, rng),
                uccsd_half(COMPLEX_MODES, rng)))
    return out


def totals(prefix: str, circuit) -> dict:
    """Gate totals and depth of one circuit, keyed by prefix."""
    from ionsynth.circuit import cost, count

    report = count(circuit)
    return {f"{prefix}_ms": report.ms_total, f"{prefix}_cnot": report.cnot,
            f"{prefix}_single_qubit": report.single_qubit, f"{prefix}_gates": len(circuit.gates),
            f"{prefix}_depth": cost(circuit).sequential_depth}


def measure(name: str, document: str, uccsd: tuple) -> dict:
    from ionsynth import synth
    from ionsynth.circuit import cost, count, deserialize, serialize
    from ionsynth.evolution import (
        AnsatzSpec, TrotterConfig, build_trotter_step, build_uccsd_layer, fusion_groups,
    )
    from ionsynth.integrals import parse_integrals, term_list

    best = dict.fromkeys(STAGES, float("inf"))
    layer_best = dict.fromkeys(LAYER_STAGES, float("inf"))
    spec = AnsatzSpec(*uccsd)
    cold, cold_range = {}, {}
    table = parse_integrals(document)
    terms = term_list(table)
    cfg = TrotterConfig(TIME_STEP, orbital_class=table.reality)
    for stage, build in (("build_trotter_step", lambda: build_trotter_step(terms, cfg)),
                         ("build_uccsd_layer", lambda: build_uccsd_layer(spec))):
        runs = []
        for _ in range(COLD_BUILDS):
            synth._clear_caches()
            gc.collect()
            start = time.perf_counter()
            build()
            runs.append(time.perf_counter() - start)
        runs.sort()
        cold[stage] = runs[COLD_BUILDS // 2]
        cold_range[stage] = [runs[0], runs[-1]]
    for _ in range(REPEATS):
        times = [time.perf_counter()]
        table = parse_integrals(document)
        times.append(time.perf_counter())
        terms = term_list(table)
        times.append(time.perf_counter())
        step = build_trotter_step(terms, TrotterConfig(TIME_STEP, orbital_class=table.reality))
        times.append(time.perf_counter())
        layer = build_uccsd_layer(spec)
        times.append(time.perf_counter())
        text = serialize(step)
        times.append(time.perf_counter())
        deserialize(text)
        times.append(time.perf_counter())
        count(step)
        times.append(time.perf_counter())
        cost(step)
        times.append(time.perf_counter())
        for stage, t0, t1 in zip(STAGES, times, times[1:]):
            best[stage] = min(best[stage], t1 - t0)
        times = [time.perf_counter()]
        layer_text = serialize(layer)
        times.append(time.perf_counter())
        deserialize(layer_text)
        times.append(time.perf_counter())
        count(layer)
        times.append(time.perf_counter())
        cost(layer)
        times.append(time.perf_counter())
        for stage, t0, t1 in zip(LAYER_STAGES, times, times[1:]):
            layer_best[stage] = min(layer_best[stage], t1 - t0)
    digest = hashlib.sha256((text + layer_text).encode()).hexdigest()
    circuits = {**totals("trotter", step), "uccsd_excitations": len(spec.parameters),
                **totals("uccsd", layer)}
    tracemalloc.start()
    parse_integrals(document)
    parse_peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    tracemalloc.start()
    terms = term_list(table)
    term_list_peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    tracemalloc.start()
    step = build_trotter_step(terms, TrotterConfig(TIME_STEP, orbital_class=table.reality))
    build_peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    row = {
        "workload": name,
        "n_modes": table.n_modes,
        "local_terms": len(terms.local_terms),
        "excitation_terms": len(terms.excitation_terms),
        "groups": len(fusion_groups(terms.excitation_terms)),
        **circuits,
        "circuits_sha256": digest,
        "best_s": best,
        "uccsd_best_s": layer_best,
        "parse_peak_mib": parse_peak,
        "term_list_peak_mib": term_list_peak,
        "build_peak_mib": build_peak,
        "cold_s": cold,
        "cold_range_s": cold_range,
        "templates": synth._template.cache_info().currsize,
    }
    if table.n_modes > BASELINE_MODES:
        return row
    realities = ("real", "complex") if table.reality == "real" else ("complex",)
    baselines = [(f"build_trotter_step_{reality}", build_trotter_step,
                  (terms, TrotterConfig(TIME_STEP, orbital_class=reality, scheduling="baseline")))
                 for reality in realities]
    baselines.append(("build_uccsd_layer", build_uccsd_layer, (spec, "baseline")))
    baseline_best = {stage: float("inf") for stage, _, _ in baselines}
    for _ in range(REPEATS):
        texts = []
        for stage, build, arguments in baselines:
            start = time.perf_counter()
            circuit = build(*arguments)
            baseline_best[stage] = min(baseline_best[stage], time.perf_counter() - start)
            texts.append(serialize(circuit))
    baseline_digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    return {**row, "baseline_sha256": baseline_digest, "baseline_best_s": baseline_best}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="name of this run's side, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package sources to measure")
    args = parser.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    record = {"label": args.label, "commit": commit_of(src.parent), "repeats": REPEATS,
              "time_step": TIME_STEP,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "environment": environment(), "workloads": []}
    for name, document, uccsd in workloads():
        row = measure(name, document, uccsd)
        record["workloads"].append(row)
        print(f"{args.label} {name}: {row['excitation_terms']} terms, {row['groups']} groups, "
              f"{row['trotter_ms']} + {row['uccsd_ms']} MS; "
              + ", ".join(f"{k} {v:.3f}" for k, v in row["best_s"].items())
              + "".join(f", uccsd {k} {v:.4f}" for k, v in row["uccsd_best_s"].items())
              + f", parse peak {row['parse_peak_mib']:.2f} MiB"
              + f", term_list peak {row['term_list_peak_mib']:.2f} MiB"
              + f", build peak {row['build_peak_mib']:.2f} MiB"
              + "".join(f", baseline {k} {v:.3f}" for k, v in row.get("baseline_best_s", {}).items())
              + "".join(f", cold {k} {v:.3f} ({lo:.3f}-{hi:.3f})"
                        for (k, v), (lo, hi) in zip(row["cold_s"].items(),
                                                    row["cold_range_s"].values()))
              + f", {row['templates']} templates", flush=True)

    document = json.loads(OUT.read_text()) if OUT.exists() else {
        "benchmark": "compile stages, integral table to circuit text", "runs": []}
    document["runs"].append(record)
    OUT.write_text(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    main()
