"""Stage timings of the compile path, from an integral table to a circuit file.

Run from the root of a checkout:

    python3 bench/compile.py --label change
    python3 bench/compile.py --label parent --src ../parent/src

Workloads: the packaged H3+ table (with the H3+ UCCSD layer, two occupied
and four virtual spin orbitals), the dense random real tables of 8, 10,
12, 14 and 20 modes that perfbench.inputs.integral_document draws from the
seed "profile/<modes>", and one dense random complex table of 10 modes drawn here
from the seed "complex/10" (each with a UCCSD layer over the lowest half of
the modes, angles from the same seed).  Every stage is timed by one rule,
``timed``: RUNS calls, each after its reset (if any) and one gc.collect(),
with the collector left enabled; a stage keeps the median and the range
[fastest, slowest] of its calls.  Each workload's row holds:

  workload, n_modes   the workload's name and its mode count
  local_terms, excitation_terms, groups
                      term_list's term counts and the excitation fusion groups
  trotter_*, uccsd_*  MS, CNOT, single-qubit, gate and depth totals of the
                      Trotter step and the UCCSD layer; uccsd_excitations
  circuits_sha256     a SHA-256 of both circuits' serialized text, so two
                      checkouts can be shown to emit the same circuits
  median_s, range_s   per stage, the median and range of its warm calls (each
                      build runs once untimed first, so that no timed call
                      derives a template):
      parse, term_list    integrals.parse_integrals of the table's text and
                          integrals.term_list of the parsed table
      build_trotter_step  evolution.build_trotter_step, parallelized, in the
                          orbital class of the table (real or complex)
      build_uccsd_layer   evolution.build_uccsd_layer, parallelized
      serialize, deserialize, count, cost
                          circuit.serialize of a Trotter step built anew
                          before each call, deserialize of that text, count
                          and cost of the step; uccsd_ before each name, the
                          same of the UCCSD layer
      baseline_build_trotter_step_<class>, baseline_build_uccsd_layer
                          the baseline schedules, in each orbital class the
                          table allows (real tables take both, complex ones
                          only complex); tables above 14 modes skip them (at
                          20 modes the complex one alone holds about 2.5
                          million gates and 780 MB)
  cold_s, cold_range_s  the same of build_trotter_step and build_uccsd_layer,
                      each call after synth._clear_caches (which empties the
                      templates with their placements, the shared
                      angle-free gates and, in sources that plan UCCSD
                      layers, evolution's excitation lists and layer plans)
  parse_peak_mib, term_list_peak_mib, build_peak_mib
                      the tracemalloc peak in MiB of one untimed
                      parse_integrals, term_list and warm build_trotter_step
  templates           the number of templates the workload's two circuits use
  baseline_sha256     a SHA-256 of the baselines' text, up to 14 modes

The record holds the label, the commit of the measured sources (or, outside
a git work tree, a SHA-256 of them: the rule of bench/oracle.py commit_of),
runs, time_step, the start time, the environment and the rows, and is
appended to BENCH_compile.json at the root of the checkout holding this
script.  Only the standard library and numpy are used.

Record boundaries: records are never rewritten, so a comparison across a
change of this script must say so.  Records that hold repeats instead of
runs kept the best of three back-to-back warm repeats in best_s,
uccsd_best_s and baseline_best_s, of which the first could rebuild
templates cold, and records without cold_range_s hold one cold build per
stage in cold_s.  Older records lack the fields added after them.
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
RUNS = 5


def timed(run, reset=None) -> tuple:
    """run()'s last result, then the median and the range [fastest, slowest]
    of RUNS timed calls, each after reset() (when given) and one gc.collect()."""
    times = []
    for _ in range(RUNS):
        if reset is not None:
            reset()
        gc.collect()
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    times.sort()
    return result, times[RUNS // 2], [times[0], times[-1]]


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

    spec = AnsatzSpec(*uccsd)
    table = parse_integrals(document)
    terms = term_list(table)
    cfg = TrotterConfig(TIME_STEP, orbital_class=table.reality)
    builds = {"build_trotter_step": lambda: build_trotter_step(terms, cfg),
              "build_uccsd_layer": lambda: build_uccsd_layer(spec)}
    cold, cold_range = {}, {}
    for key, build in builds.items():
        _, cold[key], cold_range[key] = timed(build, synth._clear_caches)
    for build in builds.values():  # warm, so that no timed warm call derives a template
        build()
    median, spread = {}, {}

    def stage(key: str, run, reset=None):
        result, median[key], spread[key] = timed(run, reset)
        return result

    table = stage("parse", lambda: parse_integrals(document))
    terms = stage("term_list", lambda: term_list(table))
    step = stage("build_trotter_step", lambda: build_trotter_step(terms, cfg))
    layer = stage("build_uccsd_layer", lambda: build_uccsd_layer(spec))
    texts = []
    for prefix, circuit, build in (("", step, builds["build_trotter_step"]),
                                   ("uccsd_", layer, builds["build_uccsd_layer"])):
        # A gate keeps its record line once written, so each serialize call
        # writes a newly built circuit, as the first one after a build does.
        fresh = []
        text = stage(f"{prefix}serialize", lambda: serialize(fresh.pop()),
                     lambda: fresh.append(build()))
        stage(f"{prefix}deserialize", lambda: deserialize(text))
        stage(f"{prefix}count", lambda: count(circuit))
        stage(f"{prefix}cost", lambda: cost(circuit))
        texts.append(text)
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    peaks = {}
    for field, run in (("parse_peak_mib", lambda: parse_integrals(document)),
                       ("term_list_peak_mib", lambda: term_list(table)),
                       ("build_peak_mib", lambda: build_trotter_step(terms, cfg))):
        tracemalloc.start()
        run()
        peaks[field] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    templates = synth._template.cache_info().currsize
    baseline = {}
    if table.n_modes <= BASELINE_MODES:
        realities = ("real", "complex") if table.reality == "real" else ("complex",)
        baselines = [(f"build_trotter_step_{reality}", build_trotter_step,
                      (terms, TrotterConfig(TIME_STEP, orbital_class=reality, scheduling="baseline")))
                     for reality in realities]
        baselines.append(("build_uccsd_layer", build_uccsd_layer, (spec, "baseline")))
        texts = []
        for key, build, arguments in baselines:
            texts.append(serialize(build(*arguments)))  # warm, and the text of baseline_sha256
            stage(f"baseline_{key}", lambda: build(*arguments))
        baseline["baseline_sha256"] = hashlib.sha256("".join(texts).encode()).hexdigest()
    return {
        "workload": name,
        "n_modes": table.n_modes,
        "local_terms": len(terms.local_terms),
        "excitation_terms": len(terms.excitation_terms),
        "groups": len(fusion_groups(terms.excitation_terms)),
        **totals("trotter", step),
        "uccsd_excitations": len(spec.parameters),
        **totals("uccsd", layer),
        "circuits_sha256": digest,
        "median_s": median,
        "range_s": spread,
        **peaks,
        "cold_s": cold,
        "cold_range_s": cold_range,
        "templates": templates,
        **baseline,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="name of this run's side, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package sources to measure")
    args = parser.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    record = {"label": args.label, "commit": commit_of(src.parent), "runs": RUNS,
              "time_step": TIME_STEP,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "environment": environment(), "workloads": []}
    for name, document, uccsd in workloads():
        row = measure(name, document, uccsd)
        record["workloads"].append(row)
        print(f"{args.label} {name}: {row['excitation_terms']} terms, {row['groups']} groups, "
              f"{row['trotter_ms']} + {row['uccsd_ms']} MS; median "
              + ", ".join(f"{k} {v:.4f}" for k, v in row["median_s"].items())
              + "".join(f", cold {k} {v:.3f} ({lo:.3f}-{hi:.3f})"
                        for (k, v), (lo, hi) in zip(row["cold_s"].items(),
                                                    row["cold_range_s"].values()))
              + f"; peaks {row['parse_peak_mib']:.2f} / {row['term_list_peak_mib']:.2f}"
              + f" / {row['build_peak_mib']:.2f} MiB, {row['templates']} templates", flush=True)

    document = json.loads(OUT.read_text()) if OUT.exists() else {
        "benchmark": "compile stages, integral table to circuit text", "runs": []}
    document["runs"].append(record)
    OUT.write_text(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    main()
