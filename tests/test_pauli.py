"""Exactness tests for the signed Pauli-string algebra.

Every conjugation rule frozen in ionsynth.pauli is re-derived here against a
small dense-matrix oracle built from 2x2 kron products, independent of the
package's own verification module.  Strings wider than a machine word are
checked against a letter-by-letter reference on plain letter lists.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsynth.pauli import (
    PauliString,
    PauliSum,
    PauliError,
    conjugate_by_clifford,
    conjugate_by_ms,
    from_label,
    identity_string,
    multiply,
)

I2 = np.eye(2, dtype=complex)
PAULI_MATS = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

GATE_MATS = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "SDG": np.diag([1, -1j]).astype(complex),
    "SX": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
    "SXDG": np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex) / 2,
    "X": PAULI_MATS["X"],
    "Y": PAULI_MATS["Y"],
    "Z": PAULI_MATS["Z"],
}


def dense(p: PauliString) -> np.ndarray:
    """Qubit 0 is the leftmost kron factor."""
    out = np.array([[p.phase]], dtype=complex)
    for q in range(p.width):
        out = np.kron(out, PAULI_MATS[p.letter(q)])
    return out


def embed(gate: np.ndarray, qubits: tuple[int, ...], width: int) -> np.ndarray:
    k = int(np.log2(gate.shape[0]))
    assert len(qubits) == k
    # build by permuting a kron with the gate on the leading qubits
    rest = [q for q in range(width) if q not in qubits]
    mat = np.kron(gate, np.eye(2 ** len(rest), dtype=complex))
    order = list(qubits) + rest
    perm = np.argsort(order)
    src = mat.reshape((2,) * (2 * width))
    src = np.transpose(src, list(perm) + [width + p for p in perm])
    return src.reshape(2 ** width, 2 ** width)


def ms_matrix(axis: str, qubits: tuple[int, ...], width: int, inverse: bool) -> np.ndarray:
    dim = 2 ** width
    ham = np.zeros((dim, dim), dtype=complex)
    for i, j in itertools.combinations(qubits, 2):
        term = PauliString(width, {i: "X" if axis == "xx" else "Y",
                                   j: "X" if axis == "xx" else "Y"})
        ham += dense(term)
    sign = 1 if inverse else -1
    vals, vecs = np.linalg.eigh(ham)
    return (vecs * np.exp(sign * 1j * np.pi / 4 * vals)) @ vecs.conj().T


def all_strings(width: int):
    for letters in itertools.product("IXYZ", repeat=width):
        yield PauliString(width, {q: c for q, c in enumerate(letters) if c != "I"})


def test_multiply_spec_examples():
    x0 = from_label("X")
    z0 = from_label("Z")
    assert multiply(x0, z0) == from_label("-iY")
    xx = from_label("XX")
    assert multiply(xx, xx) == identity_string(2)
    a = from_label("XYXX")
    b = from_label("XXYX")
    c = from_label("XXXY")
    assert multiply(multiply(a, b), c) == from_label("-XYYY")


def test_multiply_exhaustive_two_qubit_against_dense():
    strings = list(all_strings(2))
    for a in strings:
        for b in strings:
            got = multiply(a, b)
            np.testing.assert_allclose(dense(got), dense(a) @ dense(b), atol=1e-15)


def test_multiply_associative_exhaustive_one_qubit():
    strings = [s.with_phase(ph) for s in all_strings(1) for ph in (1, -1, 1j, -1j)]
    for a, b, c in itertools.product(strings, repeat=3):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_multiply_width_mismatch():
    with pytest.raises(PauliError):
        multiply(identity_string(2), identity_string(3))
    with pytest.raises(PauliError, match="width mismatch"):
        identity_string(2).commutes_with(identity_string(3))
    with pytest.raises(PauliError, match="term width mismatch"):
        PauliSum.from_terms(2, [(1.0, identity_string(3))])


def test_phase_group_closed():
    for a in all_strings(2):
        for ph in (1, -1, 1j, -1j):
            got = multiply(a.with_phase(ph), from_label("YZ"))
            assert got.phase in (1, -1, 1j, -1j)


@pytest.mark.parametrize("gate", sorted(GATE_MATS))
def test_single_qubit_clifford_conjugation_matches_dense(gate):
    # on a lone qubit, and on each qubit of three, where the other letters stay
    for width, q in ((1, 0), (3, 0), (3, 1), (3, 2)):
        u = embed(GATE_MATS[gate], (q,), width)
        for p in all_strings(width):
            got = conjugate_by_clifford(p, gate, (q,))
            expected = u @ dense(p) @ u.conj().T
            np.testing.assert_allclose(dense(got), expected, atol=1e-14)


@pytest.mark.parametrize("gate", ["CNOT", "CZ"])
def test_two_qubit_clifford_conjugation_matches_dense(gate):
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    u = cnot if gate == "CNOT" else cz
    for p in all_strings(2):
        got = conjugate_by_clifford(p, gate, (0, 1))
        expected = u @ dense(p) @ u.conj().T
        np.testing.assert_allclose(dense(got), expected, atol=1e-14)
    # reversed qubit order too
    uflip = embed(u, (1, 0), 2)
    for p in all_strings(2):
        got = conjugate_by_clifford(p, gate, (1, 0))
        np.testing.assert_allclose(dense(got), uflip @ dense(p) @ uflip.conj().T, atol=1e-14)


def test_clifford_conjugation_spec_examples():
    assert conjugate_by_clifford(from_label("Z"), "SX", (0,)) == from_label("-Y")
    assert conjugate_by_clifford(from_label("X"), "H", (0,)) == from_label("Z")
    assert conjugate_by_clifford(from_label("X"), "S", (0,)) == from_label("Y")


def test_clifford_rejects_unknown_gate():
    for gate in ("T", "CX"):
        with pytest.raises(PauliError):
            conjugate_by_clifford(from_label("XX"), gate, (0, 1))


@pytest.mark.parametrize("gate, qubits", [("H", (0, 1)), ("CNOT", (1, 1)), ("CZ", (0,))])
def test_clifford_rejects_wrong_qubit_count(gate, qubits):
    with pytest.raises(PauliError):
        conjugate_by_clifford(from_label("XYZ"), gate, qubits)


@pytest.mark.parametrize("gate, qubits", [("H", (7,)), ("CNOT", (5, 7)), ("H", (-1,))])
def test_clifford_rejects_qubit_outside_width(gate, qubits):
    with pytest.raises(PauliError, match="outside width 3"):
        conjugate_by_clifford(from_label("XYZ"), gate, qubits)


@pytest.mark.parametrize("axis", ["xx", "yy"])
@pytest.mark.parametrize("inverse", [False, True])
def test_ms_conjugation_matches_dense_exhaustive_small(axis, inverse):
    for width in (1, 2, 3):
        qubits = tuple(range(width))
        u = ms_matrix(axis, qubits, width, inverse)
        for p in all_strings(width):
            got = conjugate_by_ms(p, axis, qubits, inverse=inverse)
            expected = u @ dense(p) @ u.conj().T
            np.testing.assert_allclose(dense(got), expected, atol=1e-12)


@pytest.mark.parametrize("axis", ["xx", "yy"])
def test_ms_conjugation_matches_dense_random_larger(axis):
    rng = np.random.default_rng(7)
    for width in (4, 5, 6):
        qubits = tuple(sorted(rng.choice(width, size=rng.integers(2, width + 1),
                                         replace=False).tolist()))
        u = ms_matrix(axis, qubits, width, False)
        for _ in range(12):
            letters = {
                q: "IXYZ"[rng.integers(0, 4)] for q in range(width)
            }
            p = PauliString(width, {q: l for q, l in letters.items() if l != "I"})
            got = conjugate_by_ms(p, axis, qubits)
            np.testing.assert_allclose(dense(got), u @ dense(p) @ u.conj().T, atol=1e-12)


def test_ms_main_text_sign_law_xx():
    # Z_j -> (-1)^m X^(j) Y_j for n = 2m, (-1)^m X^(j) Z_j for n = 2m + 1.
    for n in range(1, 9):
        m = n // 2
        for j in range(n):
            got = conjugate_by_ms(PauliString(n, {j: "Z"}), "xx", range(n))
            letters = {q: "X" for q in range(n) if q != j}
            letters[j] = "Y" if n % 2 == 0 else "Z"
            expected = PauliString(n, letters, (-1) ** m)
            assert got == expected, (n, j)


def test_ms_sign_law_yy_oracle_form():
    # The YY image is the X<->Y swap of the XX law with an extra sign when n
    # is even (any swap Clifford maps Z -> -Z); pinned by the dense check above.
    for n in range(1, 9):
        m = n // 2
        for j in range(n):
            got = conjugate_by_ms(PauliString(n, {j: "Z"}), "yy", range(n))
            letters = {q: "Y" for q in range(n) if q != j}
            letters[j] = "X" if n % 2 == 0 else "Z"
            sign = (-1) ** (m + 1) if n % 2 == 0 else (-1) ** m
            assert got == PauliString(n, letters, sign), (n, j)


def test_ms_spec_examples():
    assert conjugate_by_ms(from_label("Z"), "xx", (0,)) == from_label("Z")
    assert conjugate_by_ms(from_label("ZI"), "xx", (0, 1)) == from_label("-YX")
    assert conjugate_by_ms(from_label("ZII"), "xx", (0, 1, 2)) == from_label("-ZXX")


def test_ms_empty_set_rejected():
    with pytest.raises(PauliError):
        conjugate_by_ms(from_label("Z"), "xx", ())
    with pytest.raises(PauliError):
        conjugate_by_ms(from_label("ZZ"), "xx", (0, 2))
    with pytest.raises(PauliError):
        conjugate_by_ms(from_label("ZZ"), "zz", (0, 1))


@pytest.mark.parametrize("width, letters, message", [
    (2.5, {}, "width 2.5 is not an integer"),
    (-1, {}, "negative width -1"),
    (True, {0: "X"}, "width True is not an integer"),
    (3, {True: "X"}, "qubit True is not an integer"),
    (3, {1.0: "X"}, "qubit 1.0 is not an integer"),
    (3, {np.float64(1): "I"}, "qubit .*1.0.* is not an integer"),
    (3, {-1: "I"}, "negative qubit -1"),
    (np.float64(3), {}, "width .*3.0.* is not an integer"),
], ids=["float-width", "negative-width", "bool-width", "bool-qubit", "float-qubit",
        "numpy-float-identity-qubit", "negative-identity-qubit", "numpy-float-width"])
def test_string_refuses_widths_and_qubits_that_are_not_indices(width, letters, message):
    """2.5 used to be stored and break label(); True read as 1, 1.0 raised TypeError."""
    with pytest.raises(PauliError, match=message):
        PauliString(width, letters)


def test_string_stores_numpy_integer_width_and_qubits_as_ints():
    s = PauliString(np.int64(3), {np.uint8(1): "X", np.int32(2): "Z"})
    assert type(s.width) is int
    assert s == from_label("IXZ")
    assert PauliString(0) == identity_string(0)
    total = PauliSum(np.int64(3), ((1.0, s),))
    assert type(total.width) is int and total == PauliSum(3, ((1.0, s),))


@pytest.mark.parametrize("width, terms, message", [
    (2.5, (), "width 2.5 is not an integer"),
    (True, (), "width True is not an integer"),
    (-1, (), "negative width -1"),
    (3, ((1.0, from_label("XZ")),), "term width mismatch"),
], ids=["float-width", "bool-width", "negative-width", "term-width"])
def test_sum_refuses_widths_that_are_not_indices(width, terms, message):
    """PauliSum(2.5, ()) broke dense_sum, PauliSum(True, ()) was a 1-qubit sum
    and a 2-qubit string in a 3-qubit sum gave an 8x8 matrix."""
    with pytest.raises(PauliError, match=message):
        PauliSum(width, terms)


def ms_pair_loop(p: PauliString, axis: str, qubits, inverse: bool = False) -> PauliString:
    """MS conjugation one pair term at a time: the reference the closed form is checked against."""
    letter = "X" if axis == "xx" else "Y"
    unit = -1j if inverse else 1j
    out = p
    for i, j in itertools.combinations(sorted(set(qubits)), 2):
        pair = PauliString(p.width, {i: letter, j: letter})
        if not out.commutes_with(pair):
            product = multiply(out, pair)
            out = product.with_phase(unit * product.phase)
    return out


@pytest.mark.parametrize("axis", ["xx", "yy"])
@pytest.mark.parametrize("inverse", [False, True])
def test_ms_closed_form_matches_pair_loop(axis, inverse):
    # a counts the window qubits whose letter anticommutes with the axis
    # letter and r the rest; every a from 0 to |W| is drawn with every phase,
    # so a = 0, r = 0 and each parity pair of (a, r) occur.
    rng = np.random.default_rng(11)
    axis_letter = "X" if axis == "xx" else "Y"
    movers = [c for c in "XYZ" if c != axis_letter]
    shapes = set()
    for width in range(1, 19):
        for _ in range(3):
            size = int(rng.integers(1, width + 1))
            window = rng.choice(width, size=size, replace=False).tolist()
            for a, phase in itertools.product(range(size + 1), (1, -1, 1j, -1j)):
                letters = {q: "IXYZ"[rng.integers(0, 4)] for q in range(width)}
                for k, q in enumerate(window):
                    letters[q] = (movers if k < a else ("I", axis_letter))[rng.integers(0, 2)]
                p = PauliString(width, {q: c for q, c in letters.items() if c != "I"}, phase)
                got = conjugate_by_ms(p, axis, window, inverse=inverse)
                assert got == ms_pair_loop(p, axis, window, inverse), (p.label(), window)
                r = size - a
                shapes.add("a=0" if a == 0 else "r=0" if r == 0 else (a % 2, r % 2))
    assert shapes == {"a=0", "r=0", (0, 0), (0, 1), (1, 0), (1, 1)}


def test_ms_forward_backward_invert():
    rng = np.random.default_rng(3)
    for _ in range(40):
        width = int(rng.integers(1, 6))
        letters = {q: "IXYZ"[rng.integers(0, 4)] for q in range(width)}
        p = PauliString(width, {q: l for q, l in letters.items() if l != "I"},
                        (1, -1, 1j, -1j)[rng.integers(0, 4)])
        qs = tuple(range(width))
        round_trip = conjugate_by_ms(conjugate_by_ms(p, "xx", qs), "xx", qs, inverse=True)
        assert round_trip == p


def test_pauli_sum_merges_and_drops():
    a = from_label("XY")
    s = PauliSum.from_terms(2, [(0.5, a), (0.5, a.with_phase(-1)), (2.0, from_label("ZZ"))])
    assert len(s) == 1
    assert s.terms[0][0] == pytest.approx(2.0)


def test_pauli_sum_phase_folded_into_coefficient():
    s = PauliSum.from_terms(2, [(2.0, from_label("-iXY"))])
    coeff, string = s.terms[0]
    assert string.phase == 1
    assert coeff == pytest.approx(-2j)


def test_pauli_sum_hermitian_and_commuting_checks():
    g = PauliSum.from_terms(2, [(0.5, from_label("YX")), (-0.5, from_label("XY"))])
    assert g.is_hermitian()
    assert g.strings_commute()
    bad = PauliSum.from_terms(1, [(1j, from_label("X"))])
    assert not bad.is_hermitian()
    nc = PauliSum.from_terms(1, [(1.0, from_label("X")), (1.0, from_label("Z"))])
    assert not nc.strings_commute()


def test_string_invariants():
    p = from_label("XIZ")
    assert p.locality == 2
    assert p.support() == (0, 2)
    assert not p.is_identity()
    assert identity_string(3).is_identity()
    with pytest.raises(PauliError):
        PauliString(2, {5: "X"})
    with pytest.raises(PauliError):
        PauliString(2, {0: "Q"})
    with pytest.raises(PauliError):
        PauliString(2, {0: "X"}, phase=0.5)


# --- wide strings against a letter-by-letter reference -----------------------

# One-qubit products: (a, b) -> (phase, letter) with a * b = phase * letter.
LETTER_PRODUCT = {
    ("X", "X"): (1, "I"),
    ("Y", "Y"): (1, "I"),
    ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}
PHASES = (1, -1, 1j, -1j)


def letter_product(a: str, b: str) -> tuple[complex, str]:
    if a == "I" or b == "I":
        return 1, b if a == "I" else a
    return LETTER_PRODUCT[(a, b)]


def ref_string(letters: list[str], phase: complex) -> PauliString:
    return PauliString(len(letters), dict(enumerate(letters)), phase)


def ref_multiply(a, b):
    (la, pa), (lb, pb) = a, b
    phase, out = pa * pb, []
    for x, y in zip(la, lb):
        factor, letter = letter_product(x, y)
        phase *= factor
        out.append(letter)
    return out, phase


def ref_commutes(la: list[str], lb: list[str]) -> bool:
    return sum(x != "I" and y != "I" and x != y for x, y in zip(la, lb)) % 2 == 0


def ref_ms(letters: list[str], phase: complex, axis: str, window, inverse: bool):
    """One pair term at a time, each touching only its two letters."""
    letters = list(letters)
    axis_letter = "X" if axis == "xx" else "Y"
    for i, j in itertools.combinations(sorted(window), 2):
        if sum(letters[k] not in ("I", axis_letter) for k in (i, j)) % 2:
            phase *= -1j if inverse else 1j
            for k in (i, j):
                factor, letters[k] = letter_product(letters[k], axis_letter)
                phase *= factor
    return letters, phase


CNOT_MAT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CLIFFORD_MATS = {**GATE_MATS, "CNOT": CNOT_MAT, "CZ": np.diag([1, 1, 1, -1]).astype(complex)}


def ref_clifford(letters: list[str], phase: complex, gate: str, qubits):
    """Splice the dense image of the gate's letters back into the string."""
    u = CLIFFORD_MATS[gate]
    local = u @ dense(ref_string([letters[q] for q in qubits], 1)) @ u.conj().T
    for image in itertools.product("IXYZ", repeat=len(qubits)):
        overlap = np.trace(dense(ref_string(list(image), 1)).conj().T @ local) / len(local)
        if abs(overlap) > 0.5:
            out = list(letters)
            for q, letter in zip(qubits, image):
                out[q] = letter
            return out, phase * complex(round(overlap.real), round(overlap.imag))
    raise AssertionError("Clifford image is not a signed Pauli string")


@st.composite
def wide_strings(draw, count: int):
    width = draw(st.integers(1, 130))
    letters = st.lists(st.sampled_from("IXYZ"), min_size=width, max_size=width)
    return [(draw(letters), draw(st.sampled_from(PHASES))) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(wide_strings(2))
def test_wide_multiply_and_commute_match_letter_reference(pair):
    a, b = pair
    sa, sb = ref_string(*a), ref_string(*b)
    assert multiply(sa, sb) == ref_string(*ref_multiply(a, b))
    assert sa.commutes_with(sb) == ref_commutes(a[0], b[0])


@settings(max_examples=200, deadline=None)
@given(wide_strings(1), st.data())
def test_wide_conjugation_matches_letter_reference(strings, data):
    ((letters, phase),) = strings
    width = len(letters)
    p = ref_string(letters, phase)
    gate = data.draw(st.sampled_from(sorted(CLIFFORD_MATS) if width > 1 else sorted(GATE_MATS)))
    arity = 2 if gate in ("CNOT", "CZ") else 1
    qubits = tuple(data.draw(st.permutations(range(width)))[:arity])
    got = conjugate_by_clifford(p, gate, qubits)
    assert got == ref_string(*ref_clifford(letters, phase, gate, qubits))
    axis = data.draw(st.sampled_from(["xx", "yy"]))
    inverse = data.draw(st.booleans())
    window = data.draw(st.sets(st.integers(0, width - 1), min_size=1))
    got = conjugate_by_ms(p, axis, window, inverse=inverse)
    assert got == ref_string(*ref_ms(letters, phase, axis, window, inverse))


@settings(max_examples=200, deadline=None)
@given(wide_strings(2))
def test_wide_label_round_trip_and_equal_strings_hash_equal(pair):
    (letters, phase), (other, _) = pair
    prefix = {1: "+", -1: "-", 1j: "+i", -1j: "-i"}[phase]
    label = prefix + "".join(letters)
    p = ref_string(letters, phase)
    assert p.label() == label
    assert from_label(label) == p
    sparse = PauliString(len(letters), {q: c for q, c in enumerate(letters) if c != "I"}, phase)
    t = ref_string(other, 1)
    twice = multiply(multiply(p, t), t)  # t * t is the identity
    assert sparse == p == twice
    assert len({hash(p), hash(sparse), hash(twice), hash(from_label(label))}) == 1
    assert {p: 0, sparse: 1, twice: 2} == {p: 2}
