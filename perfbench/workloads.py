"""The work of one op per workload, its output checks, and the set-up gate.

Each ``run_*`` function makes only calls into ionsynth's public modules,
wrapped in spans named after the module and the call; the benchmark times it
as the op.  Each ``check_*`` function runs after the op's clock stops and
derives what the output must be from the input and the paper's per-block
budgets, never from the compiler's own bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ionsynth.circuit import Circuit, cost, count, deserialize, serialize
from ionsynth.evolution import (
    AnsatzSpec,
    TrotterConfig,
    build_trotter_step,
    build_uccsd_layer,
    fusion_groups,
    uccsd_excitations,
)
from ionsynth.fermion import HamiltonianTerms, double, generator_pauli, local_pauli
from ionsynth.integrals import h3plus_builtin, parse_integrals, term_list
from ionsynth.synth import compile_double_block
from ionsynth.verify import (
    assert_equivalent,
    circuit_unitary,
    dense_sum,
    generator_unitary,
)

from inputs import TrotterInput, UccsdInput, WindowInput, uccsd_counts

BLOCK_TOL = 1e-10  # oracle verdicts on single windows
APP_TOL = 1e-9  # oracle verdicts on the six-qubit H3+ circuits

# MS budget of each block kind, as the paper states it.
MS_SINGLE = 2
MS_DOUBLE = 4
MS_CONTROLLED = 2


@dataclass
class Outcome:
    circuit: Circuit
    text: str  # serialize(circuit)
    roundtrip: Circuit  # deserialize(text)
    ms: int
    cnot: int
    depth: int
    generators: int
    groups: int = 0
    terms: tuple = ()
    defect: float = 0.0
    verdict: bool = True


def _circuit_layer(c: Circuit, tracer, generators: int) -> Outcome:
    with tracer.span("circuit.serialize"):
        text = serialize(c)
    with tracer.span("circuit.deserialize"):
        back = deserialize(text)
    with tracer.span("circuit.count"):
        report = count(c)
    with tracer.span("circuit.cost"):
        depth = cost(c).sequential_depth
    tracer.add("circuit.bytes", len(text.encode()))
    tracer.add("circuit.gates", len(c.gates))
    tracer.add("synth.blocks", report.ms_forward)
    return Outcome(c, text, back, report.ms_total, report.cnot, depth, generators)


# --- trotter_real -------------------------------------------------------------


def run_trotter(inp: TrotterInput, tracer) -> Outcome:
    with tracer.span("integrals.parse_integrals"):
        table = parse_integrals(inp.document)
    with tracer.span("integrals.term_list"):
        terms = term_list(table)
    with tracer.span("evolution.fusion_groups"):
        groups = fusion_groups(terms.excitation_terms)
    with tracer.span("evolution.build_trotter_step"):
        c = build_trotter_step(terms, TrotterConfig(inp.time_step))
    tracer.add("fermion.excitation_terms", len(terms.excitation_terms))
    tracer.add("fermion.local_terms", len(terms.local_terms))
    tracer.add("evolution.groups", len(groups))
    out = _circuit_layer(c, tracer, len(terms.excitation_terms))
    out.groups = len(groups)
    out.terms = terms.excitation_terms
    return out


def trotter_budget(terms) -> tuple[int, int]:
    """(MS budget, block count) of a parallelized Trotter step.

    Singles each take a block; doubles share one per (window, family); a
    controlled single shares one with every term of the same core and family
    whose control sits on the same side of the core (inside it, the control
    leaves the MS window, so each inside position has its own block).
    """
    singles = 0
    windows = set()
    cores = set()
    for t in terms:
        if t.kind == "single":
            singles += 1
        elif t.kind == "double":
            windows.add((tuple(sorted(t.sub + t.sup)), t.symmetrized))
        elif t.kind == "controlled_single":
            p, q = t.sub[0], t.sup[0]
            inside = t.control if p < t.control < q else None
            cores.add((p, q, inside, t.symmetrized))
        else:
            raise ValueError(f"no published budget for a {t.kind} term")
    budget = MS_SINGLE * singles + MS_DOUBLE * len(windows) + MS_CONTROLLED * len(cores)
    return budget, singles + len(windows) + len(cores)


def check_trotter(inp: TrotterInput, out: Outcome) -> list[str]:
    found = _common_problems(out)
    budget, blocks = trotter_budget(out.terms)
    if out.ms != budget:
        found.append(f"{out.ms} MS against the per-block budget {budget}")
    if out.groups != blocks:
        found.append(f"{out.groups} fusion groups against {blocks} blocks")
    if out.circuit.n_qubits != inp.n_modes:
        found.append(f"{out.circuit.n_qubits} qubits for {inp.n_modes} modes")
    return found


# --- uccsd_wide -----------------------------------------------------------------


def run_uccsd(inp: UccsdInput, tracer) -> Outcome:
    with tracer.span("evolution.build_uccsd_layer"):
        spec = AnsatzSpec(inp.n_modes, inp.occupied, inp.virtual, inp.parameters)
        c = build_uccsd_layer(spec)
    return _circuit_layer(c, tracer, len(inp.parameters))


def uccsd_budget(inp: UccsdInput) -> int:
    singles, doubles = uccsd_counts(inp.n_modes, len(inp.occupied))
    return MS_SINGLE * singles + MS_DOUBLE * doubles


def check_uccsd(inp: UccsdInput, out: Outcome) -> list[str]:
    found = _common_problems(out)
    budget = uccsd_budget(inp)
    if out.ms != budget:
        found.append(f"{out.ms} MS against the per-block budget {budget}")
    return found


# --- oracle_windows ------------------------------------------------------------


def window_target(window, angles, width: int) -> np.ndarray:
    """Ordered product of the three pairing exponentials of a double window."""
    p, q, r, s = window
    v = np.eye(1 << width, dtype=complex)
    for t, a in zip((double(p, q, r, s), double(p, r, q, s), double(p, s, q, r)), angles):
        v = generator_unitary(generator_pauli(t, width), a).matrix @ v
    return v


def run_window(inp: WindowInput, tracer) -> Outcome:
    width = inp.window[3] + 1
    with tracer.span("synth.compile_double_block"):
        c = compile_double_block(*inp.window, inp.angles, n_qubits=width)
    with tracer.span("verify.target"):
        v = window_target(inp.window, inp.angles, width)
    with tracer.span("verify.circuit_unitary"):
        u = circuit_unitary(c)
    with tracer.span("verify.assert_equivalent"):
        report = assert_equivalent(u, v, tol=BLOCK_TOL)
    tracer.add("verify.gate_applications", len(c.gates))
    tracer.add("verify.computed_bytes", len(c.gates) * 4**width * 16)
    tracer.peak("verify.max_defect", report.distance)
    out = _circuit_layer(c, tracer, len(inp.angles))
    out.defect = report.distance
    out.verdict = report.passed
    return out


def check_window(inp: WindowInput, out: Outcome) -> list[str]:
    found = _common_problems(out)
    if out.ms != MS_DOUBLE:
        found.append(f"{out.ms} MS against the per-window budget {MS_DOUBLE}")
    if not (out.verdict and out.defect <= BLOCK_TOL):
        found.append(f"oracle defect {out.defect:.3e} above {BLOCK_TOL:g}")
    return found


def _common_problems(out: Outcome) -> list[str]:
    if out.roundtrip != out.circuit:
        return ["deserialize(serialize(c)) differs from c"]
    return []


RUNNERS = {
    "trotter_real": (run_trotter, check_trotter),
    "uccsd_wide": (run_uccsd, check_uccsd),
    "oracle_windows": (run_window, check_window),
}


# --- set-up gate: the H3+ contracts ----------------------------------------------

H3_SPEC = AnsatzSpec(6, (0, 1), (2, 3, 4, 5), tuple(0.05 * (i + 1) for i in range(8)))


def _trotter_product(terms: HamiltonianTerms, dt: float) -> np.ndarray:
    """exp(-i dt D) for the diagonal part, then each excitation in term order."""
    n = terms.n_modes
    diagonal = float(terms.constant) * np.eye(1 << n, dtype=complex)
    for lt in terms.local_terms:
        diagonal += dense_sum(local_pauli(lt, n))
    evals, evecs = np.linalg.eigh(diagonal)
    v = (evecs * np.exp(-1j * dt * evals)) @ evecs.conj().T
    for t in terms.excitation_terms:
        v = generator_unitary(generator_pauli(t, n), dt).matrix @ v
    return v


def h3plus_gate() -> list[str]:
    """The H3+ contracts: 24 MS for the UCCSD layer, 26/56/176 for the
    Trotter step's non-local part, and both circuits equal to the oracle."""
    found = []
    layer = build_uccsd_layer(H3_SPEC)
    ms = count(layer).ms_total
    if ms != 24:
        found.append(f"H3+ UCCSD layer has {ms} MS, contract 24")
    v = np.eye(64, dtype=complex)
    for t, theta in zip(uccsd_excitations(H3_SPEC), H3_SPEC.parameters):
        v = generator_unitary(generator_pauli(t, 6), theta).matrix @ v
    distance = assert_equivalent(circuit_unitary(layer), v, tol=APP_TOL).distance
    if not distance <= APP_TOL:
        found.append(f"H3+ UCCSD layer oracle defect {distance:.3e} above {APP_TOL:g}")

    dt = 0.1
    terms = h3plus_builtin()
    part = HamiltonianTerms(terms.n_modes, terms.reality, 0.0, (), terms.excitation_terms)
    counts = tuple(
        count(build_trotter_step(part, cfg)).ms_total
        for cfg in (
            TrotterConfig(dt),
            TrotterConfig(dt, scheduling="baseline"),
            TrotterConfig(dt, orbital_class="complex", scheduling="baseline"),
        )
    )
    if counts != (26, 56, 176):
        found.append(f"H3+ Trotter step MS {counts}, contract (26, 56, 176)")
    step = build_trotter_step(terms, TrotterConfig(dt))
    distance = assert_equivalent(
        circuit_unitary(step), _trotter_product(terms, dt), tol=APP_TOL
    ).distance
    if not distance <= APP_TOL:
        found.append(f"H3+ Trotter step oracle defect {distance:.3e} above {APP_TOL:g}")
    return found
