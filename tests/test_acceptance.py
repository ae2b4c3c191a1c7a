"""Delivery gate: the ten acceptance criteria, one test per criterion.

Each test prints a single machine-readable verdict line before asserting, so
a full run reads as a checklist.  Tolerances are pinned here and nowhere
tightened or loosened: 1e-10 for block-level oracle equality, 1e-9 for the
six-qubit application circuits, 1e-12 for the algebra suites.
"""

import itertools
import math
import time

import numpy as np

from ionsynth.circuit import MS, Circuit, Clifford1, cost, count
from ionsynth.evolution import (
    AnsatzSpec,
    TrotterConfig,
    build_trotter_step,
    build_uccsd_layer,
    trotter_error_probe,
    uccsd_excitations,
)
from ionsynth.fermion import (
    HamiltonianTerms,
    controlled_single,
    double,
    generator_pauli,
    higher_excitation,
    local_equivalence_conjugate,
    single,
)
from ionsynth.integrals import h3plus_builtin, h3plus_table
from ionsynth.pauli import PauliString, PauliSum, from_label
from ionsynth.synth import (
    baseline_string_by_string,
    compile_controlled_single,
    compile_coupled_exchange,
    compile_double_block,
    compile_higher_excitation,
    compile_mixed_cnot,
    compile_pauli_rotation,
    compile_single_excitation,
    compile_symmetrized,
    eliminate_backward_ms,
    ms_square_phase_exponent,
)
from ionsynth.verify import circuit_unitary, dense_pauli, dense_sum, generator_unitary, ordered_product

from dense_tables import fill_complex_table, fill_real_table, reconstruction_defect

RNG = np.random.default_rng(20260801)

BLOCK_TOL = 1e-10
APP_TOL = 1e-9
ALGEBRA_TOL = 1e-12


def _verdict(criterion, ok, detail):
    mark = "✓ PASS" if ok else "✗ FAIL"
    print(f"criterion {criterion:>2}: {mark}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _defect(c, target):
    return float(np.linalg.norm(circuit_unitary(c).matrix - target))


def _term_product(n, factors):
    """Ordered product of exp(-i theta G(t)) over (t, theta); the first acts first."""
    return ordered_product([(generator_pauli(t, n), theta) for t, theta in factors], n).matrix


# --- criterion 1: single excitations, 2 MS each -----------------------------

def test_criterion_01_single_excitation_contract():
    start = time.monotonic()
    worst = 0.0
    ms_ok = True
    pairs = list(itertools.combinations(range(8), 2))
    for p, q in pairs:
        t = single(p, q)
        g = generator_pauli(t, 8)
        for theta in RNG.uniform(-math.pi, math.pi, 20):
            c = compile_single_excitation(t, theta, n_qubits=8)
            ms_ok = ms_ok and count(c).ms_total == 2
            worst = max(worst, _defect(c, generator_unitary(g, theta).matrix))
    baseline = count(baseline_string_by_string(single(0, 3), 0.3)).ms_total
    elapsed = time.monotonic() - start
    ok = ms_ok and worst <= BLOCK_TOL and baseline == 4 and elapsed <= 60.0
    _verdict(
        1,
        ok,
        f"singles: {len(pairs)} pairs x 20 angles on 8 qubits, 2 MS each, "
        f"max defect {worst:.2e} (tol {BLOCK_TOL:g}), baseline {baseline} MS, "
        f"{elapsed:.1f}s",
    )


# --- criterion 2: double-excitation windows, 4 MS each ----------------------

def test_criterion_02_double_excitation_contract():
    start = time.monotonic()
    worst = 0.0
    ms_ok = True
    embed_worst = 0.0
    windows = list(itertools.combinations(range(10), 4))
    for index, (p, q, r, s) in enumerate(windows):
        angles = RNG.uniform(-1.0, 1.0, 3)
        width = s + 1
        c = compile_double_block(p, q, r, s, angles, n_qubits=width)
        ms_ok = ms_ok and count(c).ms_total == 4
        pairings = (double(p, q, r, s), double(p, r, q, s), double(p, s, q, r))
        worst = max(worst, _defect(c, _term_product(width, zip(pairings, angles))))
        if index % 21 == 0:
            # full-register embedding is the tensor extension by identity
            wide = compile_double_block(p, q, r, s, angles, n_qubits=10)
            expected = np.kron(
                circuit_unitary(c).matrix, np.eye(1 << (10 - width))
            )
            embed_worst = max(embed_worst, _defect(wide, expected))
    baseline = count(baseline_string_by_string(double(0, 1, 2, 3), 0.4)).ms_total
    elapsed = time.monotonic() - start
    ok = (
        ms_ok
        and worst <= BLOCK_TOL
        and embed_worst <= BLOCK_TOL
        and baseline == 16
        and elapsed <= 300.0
    )
    _verdict(
        2,
        ok,
        f"doubles: {len(windows)} windows within 10 qubits, 4 MS each, "
        f"max defect {worst:.2e} (embedded {embed_worst:.2e}, tol {BLOCK_TOL:g}), "
        f"baseline {baseline} MS, {elapsed:.1f}s",
    )


# --- criterion 3: controlled singles, both variants and cases ---------------

def _half_flipped(g, j):
    """Negate the strings that lack Z on the control: the interior-control sign error."""
    terms = [
        (c if s.letter(j) == "Z" else -c, s) for c, s in g.terms
    ]
    return PauliSum(g.width, terms)


def test_criterion_03_controlled_single_contract():
    # control outside [p, q] on either side, and strictly inside
    cases = [(0, 2, 4), (0, 2, 3), (2, 5, 0), (1, 4, 2), (1, 4, 3), (0, 5, 2)]
    worst = 0.0
    for variant, expected_ms in (("a", 2), ("b", 4)):
        for p, q, j in cases:
            theta = float(RNG.uniform(-1.0, 1.0))
            c = compile_controlled_single(p, q, j, theta, variant=variant, n_qubits=6)
            assert count(c).ms_total == expected_ms
            g = generator_pauli(controlled_single(p, q, j), 6)
            worst = max(worst, _defect(c, generator_unitary(g, theta).matrix))
    # the interior-control sign flip is material: flipping it breaks equality
    g = generator_pauli(controlled_single(1, 4, 2), 6)
    wrong = generator_unitary(_half_flipped(g, 2), 0.5).matrix
    gap = _defect(compile_controlled_single(1, 4, 2, 0.5, n_qubits=6), wrong)
    ok = worst <= BLOCK_TOL and gap > 0.1
    _verdict(
        3,
        ok,
        f"controlled singles: variants a/b = 2/4 MS over {len(cases)} cases, "
        f"max defect {worst:.2e} (tol {BLOCK_TOL:g}), "
        f"sign-flip sensitivity {gap:.2f}",
    )


# --- criterion 4: higher-order excitations ----------------------------------

def test_criterion_04_higher_order_budget():
    def budget(order):
        return 2 * math.ceil(4 ** (order - 1) / order)

    specs = [
        (higher_excitation([0], [1]), 2, BLOCK_TOL),
        (higher_excitation([0, 1], [2, 3]), 4, BLOCK_TOL),
        (higher_excitation([0, 2], [3, 5]), 4, BLOCK_TOL),
        (higher_excitation([0, 1, 2], [3, 4, 5]), 12, APP_TOL),
    ]
    worst = 0.0
    counts = []
    defects_ok = True
    for t, expected_ms, tol in specs:
        n = max(t.modes) + 1
        theta = float(RNG.uniform(-0.8, 0.8))
        c = compile_higher_excitation(t, theta)
        counts.append(count(c).ms_total)
        defect = _defect(c, _term_product(n, [(t, theta)]))
        defects_ok = defects_ok and defect <= tol
        worst = max(worst, defect)
    formula_ok = [budget(order) for order in (1, 2, 3)] == [2, 4, 12]
    ok = formula_ok and counts == [2, 4, 4, 12] and defects_ok
    _verdict(
        4,
        ok,
        f"higher order: N=1,2,3 emit {counts[0]},{counts[1]},{counts[3]} MS "
        f"(formula 2*ceil(4^(N-1)/N)), worst defect {worst:.2e}",
    )


# --- criterion 5: UCCSD layer for the bundled cation ------------------------

H3_SPEC = AnsatzSpec(6, (0, 1), (2, 3, 4, 5), tuple(0.05 * (i + 1) for i in range(8)))


def test_criterion_05_uccsd_layer():
    layer = build_uccsd_layer(H3_SPEC)
    ms = count(layer).ms_total
    baseline = count(build_uccsd_layer(H3_SPEC, scheduling="baseline")).ms_total
    defect = _defect(layer, _term_product(6, zip(uccsd_excitations(H3_SPEC), H3_SPEC.parameters)))
    ok = ms == 24 and baseline == 80 and defect <= APP_TOL
    _verdict(
        5,
        ok,
        f"UCCSD layer: {ms} MS parallelized vs {baseline} baseline, "
        f"ordered-product defect {defect:.2e} (tol {APP_TOL:g})",
    )


# --- criterion 6: Trotter step for the bundled cation -----------------------

def _ordered_product(terms, dt):
    """The diagonal part first, as one factor, then each excitation term."""
    n = terms.n_modes
    diagonal = HamiltonianTerms(n, terms.reality, terms.constant, terms.local_terms, ())
    # generator_pauli already carries the term coefficient
    factors = [(diagonal.pauli_sum(), dt)]
    factors += [(generator_pauli(t, n), dt) for t in terms.excitation_terms]
    return ordered_product(factors, n).matrix


def test_criterion_06_trotter_step():
    dt = 0.1
    terms = h3plus_builtin()
    part = HamiltonianTerms(terms.n_modes, terms.reality, 0.0, (), terms.excitation_terms)
    ms = count(build_trotter_step(part, TrotterConfig(dt))).ms_total
    sbs = count(build_trotter_step(part, TrotterConfig(dt, scheduling="baseline"))).ms_total
    naive = count(
        build_trotter_step(part, TrotterConfig(dt, orbital_class="complex", scheduling="baseline"))
    ).ms_total
    step = build_trotter_step(terms, TrotterConfig(dt))
    defect = _defect(step, _ordered_product(terms, dt))
    locals_only = HamiltonianTerms(
        terms.n_modes, terms.reality, terms.constant, terms.local_terms, ()
    )
    local_step = build_trotter_step(locals_only, TrotterConfig(dt))
    local_kinds = {type(g).__name__ for g in local_step.gates}
    local_ok = local_kinds <= {"GlobalPhase", "Rz", "Rzz"} and count(local_step).ms_total == 0
    ok = (ms, sbs, naive) == (26, 56, 176) and defect <= APP_TOL and local_ok
    _verdict(
        6,
        ok,
        f"Trotter step: {ms} MS (string-by-string {sbs}, naive {naive}), "
        f"ordered-product defect {defect:.2e} (tol {APP_TOL:g}), "
        f"local part gates {sorted(local_kinds)}",
    )


# --- criterion 7: first-order error scaling ---------------------------------

def test_criterion_07_trotter_scaling():
    steps = (0.2, 0.1, 0.05, 0.025)
    points = trotter_error_probe(h3plus_builtin(), steps)
    dts = np.array([p[0] for p in points])
    errs = np.array([p[1] for p in points])
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = abs(slope - 2.0) <= 0.3
    pairs = ", ".join(f"{dt:g}:{e:.2e}" for dt, e in points)
    _verdict(7, ok, f"scaling: slope {slope:.3f} over ({pairs}); budget 2.0 +/- 0.3")


# --- criterion 8: backward-MS elimination on every block family -------------

def _block_families():
    return [
        ("rotation", compile_pauli_rotation(from_label("XZZY"), 0.7)),
        ("single", compile_single_excitation(single(0, 2), 0.37)),
        ("single-yy", compile_single_excitation(single(1, 3), -0.4, axis="yy")),
        ("double-block", compile_double_block(0, 1, 3, 4, (0.3, -0.2, 0.11))),
        ("coupled", compile_coupled_exchange(0, 2, 3, 5, 0.31)),
        ("controlled-a", compile_controlled_single(0, 2, 3, 0.5)),
        ("controlled-a-interior", compile_controlled_single(1, 4, 2, 0.5)),
        ("controlled-b", compile_controlled_single(0, 2, 1, 0.5, variant="b")),
        ("higher-1", compile_higher_excitation(higher_excitation([0], [1]), 0.3)),
        ("higher-2", compile_higher_excitation(higher_excitation([0, 1], [2, 3]), 0.3)),
        ("higher-3", compile_higher_excitation(higher_excitation([0, 1, 2], [3, 4, 5]), 0.2)),
        ("sym-single", compile_symmetrized(single(0, 2, symmetrized=True), 0.4)),
        ("sym-double", compile_symmetrized(double(0, 1, 2, 3, symmetrized=True), 0.4)),
        ("sym-controlled", compile_symmetrized(controlled_single(0, 2, 1, symmetrized=True), 0.4)),
        ("mixed", compile_mixed_cnot(double(0, 1, 3, 4), 0.6)),
        ("baseline-double", baseline_string_by_string(double(0, 1, 2, 3), 0.4)),
        ("uccsd-layer", build_uccsd_layer(H3_SPEC)),
        ("trotter-step", build_trotter_step(h3plus_builtin(), TrotterConfig(0.1))),
    ]


def test_criterion_08_backward_elimination():
    worst = 0.0
    failures = []
    families = _block_families()
    for name, c in families:
        rewritten = eliminate_backward_ms(c)
        before = count(c)
        after = count(rewritten)
        defect = float(
            np.linalg.norm(circuit_unitary(rewritten).matrix - circuit_unitary(c).matrix)
        )
        worst = max(worst, defect)
        if after.ms_backward != 0 or after.ms_total != before.ms_total or defect > BLOCK_TOL:
            failures.append(name)
    _verdict(
        8,
        not failures,
        f"backward elimination: 0 backward MS across {len(families)} block "
        f"families, phase-exact to {worst:.2e} (tol {BLOCK_TOL:g})"
        + (f", failing: {failures}" if failures else ""),
    )


# --- criterion 9: mixed MS+CNOT doubles -------------------------------------

def test_criterion_09_mixed_cnot():
    worst = 0.0
    shape_ok = True
    windows = [(0, 1, 2, 3), (0, 2, 3, 5), (1, 2, 4, 5)]
    for p, q, r, s in windows:
        theta = float(RNG.uniform(-1.0, 1.0))
        t = double(p, q, r, s)
        c = compile_mixed_cnot(t, theta)
        rep = count(c)
        shape_ok = shape_ok and rep.ms_total == 2 and rep.cnot > 0
        worst = max(worst, _defect(c, _term_product(max(t.modes) + 1, [(t, theta)])))
    ok = shape_ok and worst <= BLOCK_TOL
    _verdict(
        9,
        ok,
        f"mixed MS+CNOT: 2 MS per double over {len(windows)} windows, "
        f"max defect {worst:.2e} (tol {BLOCK_TOL:g})",
    )


# --- criterion 10: algebra suites -------------------------------------------

def _clifford_matrix(n, j, name):
    return circuit_unitary(Circuit(n, (Clifford1(j, name),))).matrix


def _conjugation_defect():
    worst = 0.0
    kinds = [
        (single(0, 2), 3),
        (double(0, 1, 2, 3), 4),
        (controlled_single(0, 2, 1), 3),
        (higher_excitation([0, 1], [2, 3]), 4),
    ]
    for t, n in kinds:
        for j in (t.sub[0], t.sup[0]):
            image, sign = local_equivalence_conjugate(t, j)
            lhs = (
                _clifford_matrix(n, j, "sdg")
                @ dense_sum(generator_pauli(t, n))
                @ _clifford_matrix(n, j, "s")
            )
            rhs = sign * dense_sum(generator_pauli(image, n))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
            # and through the exponential, as the compiler uses it
            exp = _term_product(n, [(t, sign * 0.4)])
            u = _clifford_matrix(n, j, "sdg") @ exp @ _clifford_matrix(n, j, "s")
            worst = max(worst, float(np.linalg.norm(u - _term_product(n, [(image, 0.4)]))))
    return worst


def _sign_table_defect():
    worst = 0.0
    for n in range(1, 9):
        k, pauli = ms_square_phase_exponent(n)
        for axis, letter in (("xx", "X"), ("yy", "Y")):
            u = circuit_unitary(Circuit(n, (MS(axis, "forward", tuple(range(n))),))).matrix
            word = from_label(letter * n) if pauli else PauliString(n, {})
            worst = max(worst, float(np.linalg.norm(u @ u - (1j ** k) * dense_pauli(word))))
            if n % 2 == 0:
                # naive parity would predict a bare phase; it is off by a Pauli word
                assert min(
                    float(np.linalg.norm(u @ u - (1j ** m) * np.eye(1 << n)))
                    for m in range(4)
                ) > 1.0
    return worst


def _cost_model_defect():
    worst = 0.0
    tau = 1.7
    for _, c in _block_families():
        analytic = tau * sum(
            math.sqrt(g.locality) for g in c.gates if isinstance(g, MS)
        )
        report = cost(c, tau=tau)
        worst = max(worst, abs(report.total_ms_time - analytic))
        assert report.sequential_depth >= 1
        rep = count(c)
        assert sum(rep.ms_locality_histogram.values()) == rep.ms_total
    return worst


def test_criterion_10_algebra_suites():
    conj = _conjugation_defect()
    recon = max(
        reconstruction_defect(h3plus_table()),
        reconstruction_defect(fill_real_table(4, RNG)),
        reconstruction_defect(fill_complex_table(4, RNG)),
    )
    table = _sign_table_defect()
    # the slot-sign resolution: exchange coupling matches (theta, 0, -theta),
    # not the (theta, 0, theta) reading, and the gap is order one
    coupled = compile_coupled_exchange(0, 1, 2, 3, 0.4)
    good = _defect(coupled, circuit_unitary(compile_double_block(0, 1, 2, 3, (0.4, 0.0, -0.4))).matrix)
    bad = _defect(coupled, circuit_unitary(compile_double_block(0, 1, 2, 3, (0.4, 0.0, 0.4))).matrix)
    cost_gap = _cost_model_defect()
    ok = (
        conj <= ALGEBRA_TOL
        and recon <= ALGEBRA_TOL
        and table <= ALGEBRA_TOL
        and good <= ALGEBRA_TOL
        and bad > 0.1
        and cost_gap <= ALGEBRA_TOL
    )
    _verdict(
        10,
        ok,
        f"algebra: conjugation {conj:.2e}, reconstruction {recon:.2e}, "
        f"sign table {table:.2e}, slot-sign gap {bad:.2f}, "
        f"cost-model defect {cost_gap:.2e} (tol {ALGEBRA_TOL:g})",
    )
