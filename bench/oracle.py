"""Stage timings of the dense oracle on every criterion-2 double window.

Run from the root of a checkout:

    python3 bench/oracle.py --label change
    python3 bench/oracle.py --label parent --src ../parent/src

Each run compiles the 210 double-excitation windows (p, q, r, s) within ten
qubits, on a register of s + 1 qubits as acceptance criterion 2 does, with
angles drawn from a fixed seed.  Per window it times four stages:

  compile          synth.compile_double_block
  target           the ordered product of the three pairing exponentials:
                   three verify.generator_unitary calls (timed on their own as
                   generator) and the two dense products that chain them,
                   starting from the first factor as criterion 2 does
  circuit_unitary  verify.circuit_unitary of the compiled block
  distance         verify.assert_equivalent at the block tolerance 1e-10

and keeps the largest Frobenius defect.  It then runs the measured
checkout's criterion-2 test under pytest and keeps the elapsed time it
reports.  Totals, a split by register width and the criterion-2 time are
appended as one record to BENCH_oracle.json at the root of the checkout
holding this script, with the environment and the commit of the measured
sources, or a SHA-256 of them where they are not a git work tree (see
commit_of).  ``--src`` measures another checkout's package with this same
script.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_oracle.json"
SEED = 20260801
BLOCK_TOL = 1e-10
STAGES = ("compile_s", "target_s", "generator_s", "circuit_unitary_s", "distance_s")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def measure(seed: int) -> dict:
    import numpy as np

    from ionsynth.fermion import double, generator_pauli
    from ionsynth.synth import compile_double_block
    from ionsynth.verify import assert_equivalent, circuit_unitary, generator_unitary

    rng = np.random.default_rng(seed)
    by_width: dict[int, dict] = {}
    start = time.perf_counter()
    for p, q, r, s in itertools.combinations(range(10), 4):
        width = s + 1
        angles = rng.uniform(-1.0, 1.0, 3)
        row = by_width.setdefault(width, dict.fromkeys(STAGES, 0.0) | {"windows": 0, "max_defect": 0.0})
        t0 = time.perf_counter()
        c = compile_double_block(p, q, r, s, angles, n_qubits=width)
        t1 = time.perf_counter()
        v = None
        generator_s = 0.0
        for t, a in zip((double(p, q, r, s), double(p, r, q, s), double(p, s, q, r)), angles):
            g0 = time.perf_counter()
            factor = generator_unitary(generator_pauli(t, width), a).matrix
            generator_s += time.perf_counter() - g0
            v = factor if v is None else factor @ v
        t2 = time.perf_counter()
        u = circuit_unitary(c)
        t3 = time.perf_counter()
        report = assert_equivalent(u, v, tol=BLOCK_TOL)
        t4 = time.perf_counter()
        if not report.passed:
            raise SystemExit(f"window {(p, q, r, s)}: defect {report.distance:.3e} above {BLOCK_TOL:g}")
        row["windows"] += 1
        row["compile_s"] += t1 - t0
        row["target_s"] += t2 - t1
        row["generator_s"] += generator_s
        row["circuit_unitary_s"] += t3 - t2
        row["distance_s"] += t4 - t3
        row["max_defect"] = max(row["max_defect"], report.distance)
    wall = time.perf_counter() - start
    totals = {k: sum(row[k] for row in by_width.values()) for k in STAGES}
    totals["windows"] = sum(row["windows"] for row in by_width.values())
    totals["max_defect"] = max(row["max_defect"] for row in by_width.values())
    totals["wall_s"] = wall
    return {"totals": totals, "by_width": {str(w): by_width[w] for w in sorted(by_width)}}


def criterion_02(checkout: Path) -> float:
    """Elapsed seconds that criterion 2 reports when run under pytest in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    test = "tests/test_acceptance.py::test_criterion_02_double_excitation_contract"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", test],
        cwd=checkout, env=env, capture_output=True, text=True, check=False,
    )
    found = re.search(r"criterion  2: \S+ PASS .* ([0-9.]+)s\s*$", done.stdout, re.MULTILINE)
    if done.returncode != 0 or found is None:
        raise SystemExit(f"criterion 2 did not pass in {checkout}:\n{done.stdout[-2000:]}")
    return float(found.group(1))


def commit_of(checkout: Path) -> str:
    """HEAD of the checkout, suffixed -dirty when its src/ differs from HEAD.

    A checkout that is not the root of a git work tree, such as a ``git
    archive`` export, even one unpacked inside another repository, is named
    by its sources instead: ``src-sha256:<hex>``, the SHA-256 over
    src/'s files (``__pycache__`` left out) in sorted order of relative path,
    each as its path, its length in bytes and its bytes.
    """
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True, check=False).stdout.strip()

    if git("rev-parse", "--show-toplevel") == str(checkout.resolve()):
        head = git("rev-parse", "HEAD")
        return head + ("-dirty" if git("status", "--porcelain", "--", "src") else "")
    src = checkout / "src"
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(src).as_posix()}\0{len(data)}\0".encode() + data)
    return f"src-sha256:{digest.hexdigest()}"


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="name of this run's side, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package sources to measure")
    args = parser.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    record = {"label": args.label, "commit": commit_of(src.parent), "seed": SEED,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "environment": environment()}
    record |= measure(SEED)
    record["criterion_02_s"] = criterion_02(src.parent)

    document = json.loads(OUT.read_text()) if OUT.exists() else {
        "benchmark": "oracle stages on the 210 criterion-2 double windows", "runs": []}
    document["runs"].append(record)
    OUT.write_text(json.dumps(document, indent=2) + "\n")
    totals = record["totals"]
    print(f"{args.label}: {totals['windows']} windows in {totals['wall_s']:.1f} s; "
          + ", ".join(f"{k} {totals[k]:.2f}" for k in STAGES)
          + f"; max defect {totals['max_defect']:.2e}; criterion 2 {record['criterion_02_s']:.1f} s")


if __name__ == "__main__":
    main()
