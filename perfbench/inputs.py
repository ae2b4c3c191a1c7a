"""Seeded inputs for the benchmark workloads, built with the standard library.

Every workload runs in cycles.  A cycle holds the same size classes, and for
oracle_windows the same windows, in every cycle and for every seed, so any
run made of whole cycles has the same cost mix however many cycles fit in it;
the seed only changes values inside each size class.  The inputs of cycle
``k`` depend on nothing but (workload, seed, k), so the same seed gives
byte-identical inputs in every run and on every machine.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

WORKLOADS = ("trotter_real", "uccsd_wide", "oracle_windows")

# Mode counts of the random real integral tables, one table each per cycle.
TROTTER_MODES = (8, 10, 12)
# (spin orbitals, electrons) of the UCCSD registers, one layer each per cycle.
UCCSD_REGISTERS = ((16, 4), (16, 6), (20, 4))
# Register widths s + 1 of the criterion-2 windows (p < q < r < s <= 9).
ORACLE_WIDTHS = tuple(range(4, 11))
# Windows of each width in a cycle (width 4 has only one).
WINDOWS_PER_WIDTH = 2
# The windows of every cycle: a fixed sample of each width, the same for every
# cycle and every seed.  Windows of one width differ in gate count by up to 4x,
# so a seeded choice moved a run's mean op cost by ~9%, and a choice that
# changed from cycle to cycle would make the mix depend on how many cycles a
# run's speed lets it reach.  The seed draws only the angles.
CYCLE_WINDOWS = tuple(
    (*pqr, w - 1)
    for w in ORACLE_WIDTHS
    for pqr in random.Random(f"oracle_windows/sample/{w}").sample(
        list(itertools.combinations(range(w - 1), 3)),
        min(WINDOWS_PER_WIDTH, math.comb(w - 1, 3)))
)


@dataclass(frozen=True)
class TrotterInput:
    n_modes: int
    time_step: float
    document: str  # the integral table in the .ints text format


@dataclass(frozen=True)
class UccsdInput:
    n_modes: int
    occupied: tuple[int, ...]
    virtual: tuple[int, ...]
    parameters: tuple[float, ...]


@dataclass(frozen=True)
class WindowInput:
    window: tuple[int, int, int, int]
    angles: tuple[float, float, float]


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    # str seeds hash with SHA-512 inside random, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{cycle}")


def _entry(rng: random.Random) -> str:
    # Six decimals and a magnitude of at least 0.01 keep every stored entry
    # nonzero, so each table of a size yields the same generator structure.
    return f"{rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 1.0):.6f}"


def integral_document(n: int, rng: random.Random) -> str:
    """A dense random real table: every entry of every symmetry orbit set once."""
    lines = [f"norb {n} reality real", f"{_entry(rng)} 0 0 0 0"]
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            lines.append(f"{_entry(rng)} {p} {q} 0 0")
    seen = set()
    for key in itertools.product(range(1, n + 1), repeat=4):
        p, q, r, s = key
        rep = min(key, (q, p, s, r), (r, s, p, q), (s, r, q, p),
                  (r, q, p, s), (s, p, q, r), (p, s, r, q), (q, r, s, p))
        if rep not in seen:
            seen.add(rep)
            lines.append(f"{_entry(rng)} {rep[0]} {rep[1]} {rep[2]} {rep[3]}")
    return "\n".join(lines) + "\n"


def uccsd_counts(n_modes: int, n_electrons: int) -> tuple[int, int]:
    """(singles, doubles) of a spin-preserving UCCSD layer over the lowest
    occupied modes.

    Counted by combinatorics over the alpha (even) and beta (odd) halves, not
    by enumerating excitations, so it checks the compiler's own enumeration.
    """
    occ_a, occ_b = (n_electrons + 1) // 2, n_electrons // 2
    vir_a, vir_b = (n_modes + 1) // 2 - occ_a, n_modes // 2 - occ_b
    singles = occ_a * vir_a + occ_b * vir_b
    doubles = (math.comb(occ_a, 2) * math.comb(vir_a, 2)
               + math.comb(occ_b, 2) * math.comb(vir_b, 2)
               + occ_a * occ_b * vir_a * vir_b)
    return singles, doubles


def cycle_inputs(workload: str, seed: int, cycle: int) -> list:
    """The inputs of one cycle, in op order."""
    rng = _rng(workload, seed, cycle)
    if workload == "trotter_real":
        return [
            TrotterInput(n, round(rng.uniform(0.05, 0.2), 6), integral_document(n, rng))
            for n in TROTTER_MODES
        ]
    if workload == "uccsd_wide":
        return [
            UccsdInput(
                n, tuple(range(e)), tuple(range(e, n)),
                tuple(rng.uniform(-1.0, 1.0) for _ in range(sum(uccsd_counts(n, e)))),
            )
            for n, e in UCCSD_REGISTERS
        ]
    if workload == "oracle_windows":
        return [
            WindowInput(
                window,
                (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            )
            for window in CYCLE_WINDOWS
        ]
    raise ValueError(f"unknown workload {workload!r}")
