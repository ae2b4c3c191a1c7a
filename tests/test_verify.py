"""Dense oracle checks against a naive kron-built reference implementation.

The reference here embeds every gate by explicit kronecker products and
eigendecomposition exponentials, sharing no code with ionsynth.verify's
bit-mask engine.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ionsynth.circuit import (
    CNOT,
    MS,
    Circuit,
    Clifford1,
    CRz,
    GlobalPhase,
    Rz,
    Rzz,
)
from ionsynth.fermion import controlled_single, double, generator_pauli, single
from ionsynth.integrals import IntegralTable
from ionsynth.pauli import PauliString, PauliSum, from_label
from ionsynth.verify import (
    DenseOperator,
    MAX_QUBITS,
    VerifyError,
    _exp_spectral,
    _parity,
    assert_equivalent,
    circuit_unitary,
    dense_hamiltonian,
    dense_ladder,
    dense_pauli,
    dense_sum,
    generator_unitary,
    ordered_product,
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


def _apply_local(u, gate, qubits, n):
    """u <- embed(gate on qubits) @ u by tensordot over the full register."""
    k = len(qubits)
    dim = 1 << n
    t = u.reshape((2,) * n + (dim,))
    g = gate.reshape((2,) * (2 * k))
    t = np.tensordot(g, t, axes=(tuple(range(k, 2 * k)), qubits))
    order = list(qubits) + [ax for ax in range(n) if ax not in qubits] + [n]
    t = np.transpose(t, np.argsort(order))
    return t.reshape(dim, dim)


def _bit_values(n, q):
    return (np.arange(1 << n) >> (n - 1 - q)) & 1


def _tensordot_gate(u, g, n, ms_form):
    if isinstance(g, MS):
        basis = CLIFF["H"] if g.axis == "xx" else CLIFF["S"] @ CLIFF["H"]
        for q in g.qubits:
            u = _apply_local(u, basis.conj().T, (q,), n)
        s = sum(1 - 2 * _bit_values(n, q) for q in g.qubits)
        w = len(g.qubits)
        exponent = (s * s - w) / 2.0 if ms_form == "targeted" else (s * s) / 2.0
        unit = -1j if g.direction == "forward" else 1j
        u = np.exp(unit * (math.pi / 4.0) * exponent)[:, None] * u
        for q in g.qubits:
            u = _apply_local(u, basis, (q,), n)
        return u
    if isinstance(g, Rz):
        z = 1 - 2 * _bit_values(n, g.qubit)
        return np.exp(-1j * g.angle / 2.0 * z)[:, None] * u
    if isinstance(g, CRz):
        c = _bit_values(n, g.control)
        z = 1 - 2 * _bit_values(n, g.target)
        return np.where(c == 1, np.exp(-1j * g.angle / 2.0 * z), 1.0)[:, None] * u
    if isinstance(g, Rzz):
        zz = (1 - 2 * _bit_values(n, g.qubit_a)) * (1 - 2 * _bit_values(n, g.qubit_b))
        return np.exp(-1j * g.angle / 2.0 * zz)[:, None] * u
    if isinstance(g, Clifford1):
        return _apply_local(u, CLIFF[g.name], (g.qubit,), n)
    if isinstance(g, CNOT):
        block = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                         dtype=complex)
        return _apply_local(u, block, (g.control, g.target), n)
    if isinstance(g, GlobalPhase):
        return np.exp(1j * g.angle) * u
    raise AssertionError(g)


def tensordot_unitary(c, ms_form="targeted"):
    """The full-register tensordot oracle that circuit_unitary's in-place,
    idle-factored kernels replaced: the reference they are checked against."""
    u = np.eye(1 << c.n_qubits, dtype=complex)
    for g in c:
        u = _tensordot_gate(u, g, c.n_qubits, ms_form)
    return u


ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def circuits_with_idle_qubits(draw):
    """A register of 1-8 qubits whose gates touch only a drawn subset of it."""
    n = draw(st.integers(1, 8))
    active = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    kinds = ["phase"]
    if active:
        kinds += ["ms", "rz", "cl"]
    if len(active) >= 2:
        kinds += ["crz", "rzz", "cnot"]
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=16)):
        pair = draw(st.permutations(active))[:2]
        if kind == "ms":
            window = draw(st.lists(st.sampled_from(active), unique=True, min_size=1))
            gates.append(MS(draw(st.sampled_from(["xx", "yy"])),
                            draw(st.sampled_from(["forward", "backward"])), window))
        elif kind == "rz":
            gates.append(Rz(pair[0], draw(ANGLES)))
        elif kind == "cl":
            gates.append(Clifford1(pair[0], draw(st.sampled_from(sorted(CLIFF)))))
        elif kind == "crz":
            gates.append(CRz(pair[0], pair[1], draw(ANGLES)))
        elif kind == "rzz":
            gates.append(Rzz(pair[0], pair[1], draw(ANGLES)))
        elif kind == "cnot":
            gates.append(CNOT(pair[0], pair[1]))
        else:
            gates.append(GlobalPhase(draw(ANGLES)))
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


def test_unknown_ms_form_rejected_with_or_without_ms():
    for c in (Circuit(2, (Rz(0, 0.1),)), Circuit(2, (MS("xx", "forward", (0, 1)),))):
        with pytest.raises(VerifyError, match="ms_form"):
            circuit_unitary(c, ms_form="bogus")


def test_concatenation_homomorphism():
    for _ in range(4):
        c1 = random_circuit(3, 5)
        c2 = random_circuit(3, 5)
        whole = circuit_unitary(Circuit(3, c1.gates + c2.gates)).matrix
        parts = circuit_unitary(c2).matrix @ circuit_unitary(c1).matrix
        assert np.abs(whole - parts).max() < 1e-12


def test_circuit_outputs_are_unitary():
    for _ in range(5):
        c = random_circuit(4, 12)
        assert circuit_unitary(c).unitarity_defect() < 1e-12


@settings(max_examples=200, deadline=None)
@given(circuits_with_idle_qubits(), st.sampled_from(["targeted", "squared"]))
@example(Circuit(5), "targeted")
@example(Circuit(4, (GlobalPhase(0.7), GlobalPhase(-2.1))), "squared")
@example(Circuit(7, (MS("yy", "backward", (1, 4, 6)), CNOT(6, 1), Rz(4, 0.3))), "targeted")
@example(Circuit(8, (MS("xx", "forward", (2, 3, 5)), CRz(5, 2, 1.1), Rzz(3, 5, -0.4),
                     Clifford1(3, "SX"))), "squared")
def test_circuit_unitary_matches_tensordot_oracle(c, ms_form):
    fast = circuit_unitary(c, ms_form=ms_form).matrix
    assert np.abs(fast - tensordot_unitary(c, ms_form)).max() < 1e-12


def test_qubit_cap_enforced():
    with pytest.raises(VerifyError):
        circuit_unitary(Circuit(13))
    # the cap is on the register, not on the qubits the gates touch
    with pytest.raises(VerifyError):
        circuit_unitary(Circuit(13, (CNOT(3, 11), Rz(11, 0.2))))
    with pytest.raises(VerifyError):
        DenseOperator(np.eye(2 ** 13))


def test_ladder_oracle_cap_enforced():
    """The cap is checked before a product is built or a table entry read,
    and widths follow the package's index rule (modes: test_fermion)."""
    with pytest.raises(VerifyError, match="13 qubits exceeds the dense cap of 12"):
        dense_hamiltonian(IntegralTable(13, "real"))
    with pytest.raises(VerifyError, match="13 qubits exceeds the dense cap of 12"):
        dense_ladder([(1.0, ((0, True),))], 13)
    for width in (2.5, "3", True):
        with pytest.raises(VerifyError, match="width .* is not an integer"):
            dense_ladder([], width)
    assert np.array_equal(dense_ladder([(1.0, ((0, True),))], np.int64(2)),
                          dense_ladder([(1.0, ((0, True),))], 2))


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
    g = PauliSum(2, [
        (0.5, from_label("YX")),
        (-0.5, from_label("XY")),
    ])
    expected = 0.5 * kron_pauli(from_label("YX")) - 0.5 * kron_pauli(from_label("XY"))
    assert np.abs(dense_sum(g) - expected).max() == 0.0


_sum_terms = st.integers(1, 5).flatmap(lambda width: st.lists(
    st.tuples(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
              st.text("IXYZ", min_size=width, max_size=width)),
    min_size=1, max_size=10))


@given(_sum_terms)
def test_dense_sum_adds_every_string_in_order(terms):
    """Strings that share a flip mask add onto the same entries of one matrix."""
    width = len(terms[0][1])
    g = PauliSum(width, [(c, from_label(label)) for c, label in terms])
    expected = np.zeros((1 << width, 1 << width), dtype=complex)
    for c, s in g.terms:
        expected += c * kron_pauli(s)
    assert np.array_equal(dense_sum(g), expected)


# --- generator_unitary -----------------------------------------------------

def test_generator_angle_zero_is_identity():
    g = PauliSum(3, [(1.0, from_label("XYZ"))])
    u = generator_unitary(g, 0.0)
    assert np.abs(u.matrix - np.eye(8)).max() < 1e-15


def test_generator_z_matches_rz_circuit():
    for phi in (0.3, -1.2, math.pi / 3):
        gen = generator_unitary(PauliSum(1, [(1.0, from_label("Z"))]), phi)
        circ = circuit_unitary(Circuit(1, (Rz(0, 2 * phi),)))
        assert np.abs(gen.matrix - circ.matrix).max() < 1e-14


def test_single_excitation_generator_is_givens_rotation():
    g = PauliSum(2, [(0.5, from_label("YX")), (-0.5, from_label("XY"))])
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
    g = PauliSum(3, list(zip(coeffs, strings)))
    a, b = 0.37, -1.21
    left = generator_unitary(g, a).matrix @ generator_unitary(g, b).matrix
    right = generator_unitary(g, a + b).matrix
    assert np.abs(left - right).max() < 1e-11


def test_product_route_matches_spectral_route():
    # the eight mutually commuting strings of a four-letter block
    labels = ["XXXY", "XXYX", "XYXX", "YXXX", "XYYY", "YXYY", "YYXY", "YYYX"]
    coeffs = [0.125, 0.125, -0.125, -0.125, 0.2, -0.1, 0.05, 0.3]
    g = PauliSum(4, [(c, from_label(s)) for c, s in zip(coeffs, labels)])
    assert g.strings_commute()
    for angle in (0.9, -2.3):
        via_product = ordered_product([(g, angle)], 4).matrix
        assert np.abs(via_product - _exp_spectral(g, angle)).max() < 1e-12


def _flip_masks(g):
    return {frozenset(q for q in t.support() if t.letter(q) != "Z") for _, t in g.terms}


@st.composite
def commuting_sums(draw, widths=st.integers(4, 6)):
    """Commuting Pauli sums whose strings need not share one flip mask.

    Strings come from double, single and controlled-single generators (with
    their parity tails) and from Z-only strings, kept greedily while they
    commute with everything kept so far.
    """
    n = draw(widths)
    modes = st.lists(st.integers(0, n - 1), unique=True, min_size=4, max_size=4)
    pool = []
    for source in draw(st.lists(st.sampled_from(["double", "single", "controlled", "z"]),
                                min_size=2, max_size=6)):
        p, q, r, s = draw(modes)
        if source == "double":
            pool += [t for _, t in generator_pauli(double(p, q, r, s), n).terms]
        elif source == "single":
            pool += [t for _, t in generator_pauli(single(p, q), n).terms]
        elif source == "controlled":
            pool += [t for _, t in generator_pauli(controlled_single(p, q, r), n).terms]
        else:
            support = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
            pool.append(PauliString(n, {j: "Z" for j in support}))
    kept = []
    for string in pool:
        if all(string.commutes_with(k) for k in kept):
            kept.append(string)
    sizes = st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)
    coeffs = draw(st.lists(sizes, min_size=len(kept), max_size=len(kept)))
    g = PauliSum(n, list(zip(coeffs, kept)))
    assume(len(_flip_masks(g)) >= 2)
    return g


DOUBLE_WITH_Z = PauliSum(5, [
    *generator_pauli(double(0, 1, 3, 4), 5).terms,
    (0.3, PauliString(5, {0: "Z", 1: "Z"})),
    (-0.2, PauliString(5, {2: "Z"})),
])


@settings(max_examples=120, deadline=None)
@given(commuting_sums(), st.floats(-3.0, 3.0, allow_nan=False))
@example(DOUBLE_WITH_Z, 0.4)
@example(DOUBLE_WITH_Z, -1.7)
def test_sparse_product_route_matches_spectral(g, angle):
    assert g.strings_commute() and len(_flip_masks(g)) >= 2
    via_product = ordered_product([(g, angle)], g.width).matrix
    assert np.abs(via_product - _exp_spectral(g, angle)).max() < 1e-12


def test_product_route_rejects_noncommuting():
    g = PauliSum(1, [(1.0, from_label("X")), (1.0, from_label("Z"))])
    with pytest.raises(VerifyError, match="do not commute"):
        ordered_product([(g, 0.5)], 1)
    # generator_unitary falls back to spectral and still works
    u = generator_unitary(g, 0.5).matrix
    assert np.abs(u - expm_h(PAULI["X"] + PAULI["Z"], 0.5)).max() < 1e-12


def test_non_hermitian_generator_rejected():
    g = PauliSum(1, [(1j, from_label("X"))])
    with pytest.raises(VerifyError):
        generator_unitary(g, 0.1)


def test_a_phase_on_a_summed_string_counts_in_the_hermitian_check():
    """PauliSum used to keep the -i of -iX on the string, so both routes read
    the sum as Hermitian and built a target with unitarity defect 0.80."""
    g = PauliSum(1, ((1.0, from_label("-iX")),))
    assert g.terms == ((-1j, from_label("X")),)
    with pytest.raises(VerifyError, match="not Hermitian"):
        ordered_product([(g, 0.3)], 1)
    with pytest.raises(VerifyError, match="not Hermitian"):
        generator_unitary(g, 0.3)


# --- ordered_product -------------------------------------------------------

@st.composite
def factor_lists(draw):
    """One to four factors on one register of 4 to 8 qubits, each the three
    pairings of a random double window or a commuting_sums generator."""
    n = draw(st.integers(4, 8))
    angles = st.floats(-3.0, 3.0, allow_nan=False)
    factors = []
    for source in draw(st.lists(st.sampled_from(["window", "sum"]), min_size=1, max_size=4)):
        if source == "window":
            p, q, r, s = sorted(draw(st.lists(st.integers(0, n - 1), unique=True,
                                              min_size=4, max_size=4)))
            for t in (double(p, q, r, s), double(p, r, q, s), double(p, s, q, r)):
                factors.append((generator_pauli(t, n), draw(angles)))
        else:
            factors.append((draw(commuting_sums(st.just(n))), draw(angles)))
    return n, factors


@settings(max_examples=60, deadline=None)
@given(factor_lists())
def test_ordered_product_matches_the_dense_chain(case):
    """The reference is the dense chain of factor exponentials, first factor
    rightmost; the sums of distinct factors need not commute, so this pins
    the order too."""
    n, factors = case
    chain = generator_unitary(*factors[0]).matrix
    for g, angle in factors[1:]:
        chain = generator_unitary(g, angle).matrix @ chain
    assert np.linalg.norm(ordered_product(factors, n).matrix - chain) < 1e-12


@pytest.mark.parametrize("factors, width, named", [
    ([(from_label("XZY"), 0.5)], 2, "XZY"),
    ([(PauliSum(2, [(0.5, from_label("XY"))]), 0.5)], 3, "acts on 2 qubits, not 3"),
    ([(PauliSum(1, [(1j, from_label("X"))]), 0.1)], 1, "not Hermitian"),
    ([(from_label("X").with_phase(1j), 0.1)], 1, "not Hermitian"),
    ([(PauliString(MAX_QUBITS + 1, {0: "X"}), 0.1)], MAX_QUBITS + 1, "dense cap"),
    ([], 3, "at least one factor"),
    ([(from_label("XZ"), 0.5)], 2.0, "width 2.0 is not an integer"),
    ([(from_label("XZ"), True)], 2, "angle True is not a real number"),
], ids=["string-width", "sum-width", "complex-coefficient", "string-phase", "cap", "empty",
        "float-width", "bool-angle"])
def test_ordered_product_refusals(factors, width, named):
    with pytest.raises(VerifyError, match=named):
        ordered_product(factors, width)


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


def test_global_phase_equivalence_to_zero_fails_without_a_phase():
    report = assert_equivalent(np.eye(2), np.zeros((2, 2)), "global_phase")
    assert not report.passed and report.phase is None


def test_equivalence_dimension_mismatch():
    with pytest.raises(VerifyError):
        assert_equivalent(np.eye(2), np.eye(4))
    with pytest.raises(VerifyError):
        assert_equivalent(np.eye(2), np.eye(2), mode="almost")


def test_equivalence_reports_distance():
    report = assert_equivalent(np.eye(2), np.diag([1, -1]), "exact", 1e-10)
    assert not report.passed
    assert report.distance == pytest.approx(2.0)


# --- bit helpers -----------------------------------------------------------

def test_parity_folds_all_64_bits():
    values = [0, 1, 3, 1 << 16, (1 << 16) | 1, (1 << 31) + 5, 1 << 40, (1 << 40) - 1]
    values += [int(v) for v in RNG.integers(0, 1 << 40, 500)]
    got = _parity(np.array(values, dtype=np.int64))
    assert got.tolist() == [bin(v).count("1") & 1 for v in values]
