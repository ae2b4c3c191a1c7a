"""Dense oracle checks against a naive kron-built reference implementation.

The reference here embeds every gate by explicit kronecker products and
eigendecomposition exponentials, sharing no code with ionsynth.verify's
bit-mask engine.
"""

import math

import numpy as np
import pytest

from ionsynth.circuit import (
    CNOT,
    MS,
    Circuit,
    Clifford1,
    CRz,
    GlobalPhase,
    Rz,
    Rzz,
    concatenate,
)
from ionsynth.pauli import PauliString, PauliSum, from_label
from ionsynth.verify import (
    DenseOperator,
    VerifyError,
    assert_equivalent,
    circuit_unitary,
    dense_pauli,
    dense_sum,
    generator_unitary,
)

RNG = np.random.default_rng(20260816)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
SQ2 = 1 / math.sqrt(2)
CLIFF = {
    "H": SQ2 * np.array([[1, 1], [1, -1]], dtype=complex),
    "S": np.diag([1, 1j]).astype(complex),
    "SDG": np.diag([1, -1j]).astype(complex),
    "SX": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
    "SXDG": np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex) / 2,
    "X": PAULI["X"],
    "Y": PAULI["Y"],
    "Z": PAULI["Z"],
}


def embed(mat, qubits, n):
    """Reference embedding: mat acts on `qubits` (in order), big-endian."""
    k = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    order = list(qubits) + rest
    full = np.kron(mat, np.eye(2 ** (n - k), dtype=complex))
    t = full.reshape((2,) * (2 * n))
    inv = list(np.argsort(order))
    t = np.transpose(t, inv + [n + i for i in inv])
    return t.reshape(2 ** n, 2 ** n)


def expm_h(h, t):
    """Reference exp(-i t h) for Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def naive_ms(gate, n):
    a = PAULI["X"] if gate.axis == "xx" else PAULI["Y"]
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    qs = gate.qubits
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            h += embed(np.kron(a, a), (qs[i], qs[j]), n)
    sign = 1.0 if gate.direction == "forward" else -1.0
    return expm_h(h, sign * math.pi / 4)


def naive_gate(g, n):
    if isinstance(g, MS):
        return naive_ms(g, n)
    if isinstance(g, Rz):
        return embed(expm_h(PAULI["Z"], g.angle / 2), (g.qubit,), n)
    if isinstance(g, CRz):
        block = np.diag([1, 1, np.exp(-1j * g.angle / 2), np.exp(1j * g.angle / 2)])
        return embed(block.astype(complex), (g.control, g.target), n)
    if isinstance(g, Rzz):
        return embed(expm_h(np.kron(PAULI["Z"], PAULI["Z"]), g.angle / 2),
                     (g.qubit_a, g.qubit_b), n)
    if isinstance(g, Clifford1):
        return embed(CLIFF[g.name], (g.qubit,), n)
    if isinstance(g, CNOT):
        block = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                         dtype=complex)
        return embed(block, (g.control, g.target), n)
    if isinstance(g, GlobalPhase):
        return np.exp(1j * g.angle) * np.eye(2 ** n, dtype=complex)
    raise AssertionError(g)


def naive_unitary(c):
    u = np.eye(2 ** c.n_qubits, dtype=complex)
    for g in c:
        u = naive_gate(g, c.n_qubits) @ u
    return u


def random_circuit(n, length):
    kinds = ["ms", "rz", "crz", "rzz", "cl", "cnot", "phase"]
    if n < 2:
        kinds = ["rz", "cl", "phase"]
    gates = []
    for _ in range(length):
        kind = RNG.choice(kinds)
        if kind == "ms":
            size = int(RNG.integers(2, n + 1))
            qs = tuple(int(q) for q in RNG.permutation(n)[:size])
            gates.append(MS(str(RNG.choice(["xx", "yy"])),
                            str(RNG.choice(["forward", "backward"])), qs))
        elif kind == "rz":
            gates.append(Rz(int(RNG.integers(n)), float(RNG.normal())))
        elif kind == "crz":
            c, t = (int(q) for q in RNG.permutation(n)[:2])
            gates.append(CRz(c, t, float(RNG.normal())))
        elif kind == "rzz":
            a, b = (int(q) for q in RNG.permutation(n)[:2])
            gates.append(Rzz(a, b, float(RNG.normal())))
        elif kind == "cl":
            gates.append(Clifford1(int(RNG.integers(n)),
                                   str(RNG.choice(list(CLIFF)))))
        elif kind == "cnot":
            c, t = (int(q) for q in RNG.permutation(n)[:2])
            gates.append(CNOT(c, t))
        else:
            gates.append(GlobalPhase(float(RNG.normal())))
    return Circuit(n, tuple(gates))


# --- circuit_unitary -------------------------------------------------------

def test_empty_circuit_is_identity():
    u = circuit_unitary(Circuit(3))
    assert np.allclose(u.matrix, np.eye(8), atol=0)


def test_single_xx_pair_matches_exponential():
    u = circuit_unitary(Circuit(2, (MS("xx", "forward", (0, 1)),)))
    xx = np.kron(PAULI["X"], PAULI["X"])
    assert np.abs(u.matrix - expm_h(xx, math.pi / 4)).max() < 1e-14


def test_rz_pi_diagonal():
    u = circuit_unitary(Circuit(1, (Rz(0, math.pi),)))
    expected = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
    assert np.abs(u.matrix - expected).max() < 1e-14


def test_every_gate_type_matches_naive_reference():
    for n in (1, 2, 3, 4):
        for _ in range(6 if n > 1 else 2):
            c = random_circuit(n, 8)
            fast = circuit_unitary(c).matrix
            slow = naive_unitary(c)
            assert np.abs(fast - slow).max() < 1e-12, c


def test_ms_all_windows_both_axes_and_directions():
    for n in (2, 3, 4, 5):
        qs = tuple(range(n))
        for axis in ("xx", "yy"):
            for direction in ("forward", "backward"):
                g = MS(axis, direction, qs)
                fast = circuit_unitary(Circuit(n, (g,))).matrix
                assert np.abs(fast - naive_ms(g, n)).max() < 1e-12
    # a window that skips qubits, embedded in a larger register
    g = MS("yy", "forward", (0, 2, 3))
    fast = circuit_unitary(Circuit(5, (g,))).matrix
    assert np.abs(fast - naive_ms(g, 5)).max() < 1e-12


def test_squared_ms_form_is_global_phase_off_targeted():
    for n_window, direction in ((2, "forward"), (3, "forward"), (4, "backward")):
        g = MS("xx", direction, tuple(range(n_window)))
        c = Circuit(n_window, (g,))
        targeted = circuit_unitary(c).matrix
        squared = circuit_unitary(c, ms_form="squared").matrix
        sign = -1.0 if direction == "forward" else 1.0
        lam = np.exp(sign * 1j * math.pi * n_window / 8)
        assert np.abs(squared - lam * targeted).max() < 1e-12


def test_squared_backward_is_dagger_of_forward():
    fwd = circuit_unitary(Circuit(3, (MS("yy", "forward", (0, 1, 2)),)),
                          ms_form="squared").matrix
    bwd = circuit_unitary(Circuit(3, (MS("yy", "backward", (0, 1, 2)),)),
                          ms_form="squared").matrix
    assert np.abs(bwd - fwd.conj().T).max() < 1e-12


def test_concatenation_homomorphism():
    for _ in range(4):
        c1 = random_circuit(3, 5)
        c2 = random_circuit(3, 5)
        whole = circuit_unitary(concatenate(c1, c2)).matrix
        parts = circuit_unitary(c2).matrix @ circuit_unitary(c1).matrix
        assert np.abs(whole - parts).max() < 1e-12


def test_circuit_outputs_are_unitary():
    for _ in range(5):
        c = random_circuit(4, 12)
        assert circuit_unitary(c).unitarity_defect() < 1e-12


def test_qubit_cap_enforced():
    with pytest.raises(VerifyError):
        circuit_unitary(Circuit(13))
    with pytest.raises(VerifyError):
        DenseOperator(np.eye(2 ** 13))


def test_dense_operator_shape_guards():
    with pytest.raises(VerifyError):
        DenseOperator(np.zeros((4, 2)))
    with pytest.raises(VerifyError):
        DenseOperator(np.zeros((3, 3)))
    op = DenseOperator(np.eye(4))
    assert op.n_qubits == 2
    assert op.dimension == 4


# --- dense Pauli builders --------------------------------------------------

def kron_pauli(p):
    m = np.eye(1, dtype=complex)
    for q in range(p.width):
        m = np.kron(m, PAULI[p.letter(q)])
    return p.phase * m


def test_dense_pauli_exhaustive_small():
    letters = "IXYZ"
    for a in letters:
        for b in letters:
            for phase in (1, -1, 1j, -1j):
                p = from_label(a + b).with_phase(phase)
                assert np.abs(dense_pauli(p) - kron_pauli(p)).max() == 0.0


def test_dense_pauli_random_wide():
    for _ in range(10):
        width = 6
        letters = {int(q): str(RNG.choice(["X", "Y", "Z"]))
                   for q in RNG.permutation(width)[: RNG.integers(1, width)]}
        p = PauliString(width, letters, complex(RNG.choice([1, -1, 1j, -1j])))
        assert np.abs(dense_pauli(p) - kron_pauli(p)).max() == 0.0


def test_dense_sum_is_linear():
    g = PauliSum.from_terms(2, [
        (0.5, from_label("YX")),
        (-0.5, from_label("XY")),
    ])
    expected = 0.5 * kron_pauli(from_label("YX")) - 0.5 * kron_pauli(from_label("XY"))
    assert np.abs(dense_sum(g) - expected).max() == 0.0


# --- generator_unitary -----------------------------------------------------

def test_generator_angle_zero_is_identity():
    g = PauliSum.from_terms(3, [(1.0, from_label("XYZ"))])
    u = generator_unitary(g, 0.0)
    assert np.abs(u.matrix - np.eye(8)).max() < 1e-15


def test_generator_z_matches_rz_circuit():
    for phi in (0.3, -1.2, math.pi / 3):
        gen = generator_unitary(PauliSum.from_terms(1, [(1.0, from_label("Z"))]), phi)
        circ = circuit_unitary(Circuit(1, (Rz(0, 2 * phi),)))
        assert np.abs(gen.matrix - circ.matrix).max() < 1e-14


def test_single_excitation_generator_is_givens_rotation():
    g = PauliSum.from_terms(2, [(0.5, from_label("YX")), (-0.5, from_label("XY"))])
    eigenvalues = np.linalg.eigvalsh(dense_sum(g))
    assert np.allclose(sorted(eigenvalues), [-1, 0, 0, 1], atol=1e-12)
    theta = 0.7
    u = generator_unitary(g, theta).matrix
    expected = np.eye(4, dtype=complex)
    expected[1, 1] = expected[2, 2] = math.cos(theta)
    expected[1, 2] = -math.sin(theta)
    expected[2, 1] = math.sin(theta)
    assert np.abs(u - expected).max() < 1e-12
    # angle pi/2 swaps the occupied orbital exactly
    swap = generator_unitary(g, math.pi / 2).matrix
    assert abs(swap[2, 1] - 1) < 1e-12 and abs(swap[1, 2] + 1) < 1e-12


def test_generator_additivity():
    strings = [from_label("XZI"), from_label("ZYX"), from_label("IXZ"), from_label("YYY")]
    coeffs = [0.3, -0.7, 0.45, 0.2]
    g = PauliSum.from_terms(3, list(zip(coeffs, strings)))
    a, b = 0.37, -1.21
    left = generator_unitary(g, a).matrix @ generator_unitary(g, b).matrix
    right = generator_unitary(g, a + b).matrix
    assert np.abs(left - right).max() < 1e-11


def test_product_route_matches_spectral_route():
    # the eight mutually commuting strings of a four-letter block
    labels = ["XXXY", "XXYX", "XYXX", "YXXX", "XYYY", "YXYY", "YYXY", "YYYX"]
    coeffs = [0.125, 0.125, -0.125, -0.125, 0.2, -0.1, 0.05, 0.3]
    g = PauliSum.from_terms(4, [(c, from_label(s)) for c, s in zip(coeffs, labels)])
    assert g.strings_commute()
    for angle in (0.9, -2.3):
        via_product = generator_unitary(g, angle, method="product").matrix
        via_spectral = generator_unitary(g, angle, method="spectral").matrix
        assert np.abs(via_product - via_spectral).max() < 1e-12


def test_product_route_rejects_noncommuting():
    g = PauliSum.from_terms(1, [(1.0, from_label("X")), (1.0, from_label("Z"))])
    with pytest.raises(VerifyError):
        generator_unitary(g, 0.5, method="product")
    # auto falls back to spectral and still works
    u = generator_unitary(g, 0.5).matrix
    assert np.abs(u - expm_h(PAULI["X"] + PAULI["Z"], 0.5)).max() < 1e-12


def test_non_hermitian_generator_rejected():
    g = PauliSum.from_terms(1, [(1j, from_label("X"))])
    with pytest.raises(VerifyError):
        generator_unitary(g, 0.1)


# --- assert_equivalent -----------------------------------------------------

def test_equivalence_exact_self():
    u = circuit_unitary(random_circuit(3, 6))
    report = assert_equivalent(u, u, "exact", 1e-12)
    assert report.passed and report.distance == 0.0
    assert bool(report)


def test_equivalence_global_phase():
    u = circuit_unitary(random_circuit(2, 5)).matrix
    v = np.exp(1j * math.pi / 7) * u
    exact = assert_equivalent(v, u, "exact", 1e-10)
    assert not exact.passed
    modded = assert_equivalent(v, u, "global_phase", 1e-10)
    assert modded.passed
    assert abs(modded.phase - np.exp(1j * math.pi / 7)) < 1e-12


def test_equivalence_dimension_mismatch():
    with pytest.raises(VerifyError):
        assert_equivalent(np.eye(2), np.eye(4))
    with pytest.raises(VerifyError):
        assert_equivalent(np.eye(2), np.eye(2), mode="almost")


def test_equivalence_reports_distance():
    report = assert_equivalent(np.eye(2), np.diag([1, -1]), "exact", 1e-10)
    assert not report.passed
    assert report.distance == pytest.approx(2.0)
