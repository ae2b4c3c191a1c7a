"""Dense-matrix oracle: exact circuit unitaries, generator exponentials and
equivalence predicates.

This module is the measuring instrument for the whole compiler, so its gate
matrices are constructed independently of the synthesis passes (bit masks and
basis-change tricks here, symbolic Pauli algebra there); a bug cannot cancel
between the two sides.

Conventions, fixed package-wide:
  - qubit 0 is the leftmost tensor factor, i.e. the most significant bit of a
    computational basis index;
  - the first gate of a circuit acts first, so the circuit unitary is the
    reversed matrix product of its gate matrices;
  - Rz(phi) = exp(-i phi/2 Z) = diag(e^{-i phi/2}, e^{+i phi/2}); CRz applies
    that Rz on the target when the control is |1>; Rzz(phi) = exp(-i phi/2 ZZ);
    GlobalPhase(g) multiplies by e^{ig};
  - the forward targeted MS gate on a window W is
    exp(-i pi/4 sum_{j<k in W} A_j A_k), A = X or Y by axis.  The untargeted
    form exp(-i pi/8 (sum_{j in W} A_j)^2) differs from it by the global phase
    e^{-i pi |W| / 8}; circuit_unitary exposes it via ms_form="squared".

Kernels.  Every result is the full matrix, computed without sampling or
truncation; the speed comes from doing less arithmetic, not other arithmetic.
  1. Idle-qubit factoring.  A qubit that no gate touches carries the identity,
     so circuit_unitary simulates only the touched qubits (GlobalPhase touches
     none) and writes U' (x) I into a zeroed register matrix: U' is copied
     once per basis state of the idle qubits, through a transposed view that
     lists the touched qubits first.  The embedding only copies.  The result
     is allocated before U' and the per-gate temporaries, which could
     otherwise split the free block it needs; allocated last, it raised peak
     resident memory on 10-qubit windows by one 16 MiB matrix.
  2. Strided in-place gate updates.  U' is updated in place, never rebuilt:
     Rz, CRz, Rzz, the MS diagonal and the S phases of the yy basis scale
     rows; Clifford1 mixes the two half-views u.reshape(2**q, 2, -1)[:, b]
     of its qubit by its 2x2 matrix; CNOT permutes rows; the MS basis change
     is the Hadamard butterfly (a, b) -> (a + b, a - b) per window qubit,
     whose 2^-|W| normalization is an exact power of two folded into the MS
     diagonal.  Each is the gate's dense embedding times U' with the
     known-zero terms left out.
  3. Signed-permutation targets.  A Pauli string is a signed permutation
     |i> -> phase(i) |i XOR flip> (_signed_permutation, which dense_pauli
     and dense_sum scatter too), so any product of factors
     cos I - i sin M(S) is a sum over flip masks of such matrices.
     ordered_product keeps one column-coefficient vector per flip mask,
     updates it once per string of each generator in factor order (each
     generator's strings commute, so their exponential is the product of
     these factors) and scatters it once into a zeroed matrix; entries with
     different flip masks never share a position, so the scatter adds
     nothing.  A string costs O(2^w) per flip mask held, where a dense
     product costs O(8^w) per factor.  The eight strings of a double
     excitation share one flip mask, so its exponential holds two vectors,
     and the three pairings of a double window hold at most two together.
     generator_unitary of a commuting sum is the one-factor case.
The dense cap MAX_QUBITS applies to the register width, however few qubits
a circuit touches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CNOT, MS, Circuit, Clifford1, CRz, Gate, GlobalPhase, Rz, Rzz, gate_qubits
from .pauli import PauliString, PauliSum, _index, _real

__all__ = [
    "DenseOperator",
    "VerifyError",
    "EquivalenceReport",
    "circuit_unitary",
    "generator_unitary",
    "ordered_product",
    "assert_equivalent",
    "dense_pauli",
    "dense_sum",
    "MAX_QUBITS",
]

MAX_QUBITS = 12

_SQ2 = 1.0 / math.sqrt(2.0)
_GATE1 = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "SX": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
    "SXDG": np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex) / 2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class VerifyError(ValueError):
    """Oracle precondition violated (size cap, hermiticity, shape)."""


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A 2^n x 2^n complex matrix with the qubit cap enforced."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        # shape and cap first, so a refused operator is never copied
        shape = np.shape(self.matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise VerifyError(f"operator must be square, got shape {shape}")
        n = shape[0].bit_length() - 1
        if (1 << n) != shape[0]:
            raise VerifyError(f"dimension {shape[0]} is not a power of two")
        _check_width(n)
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dimension.bit_length() - 1

    def unitarity_defect(self) -> float:
        m = self.matrix
        return float(np.linalg.norm(m.conj().T @ m - np.eye(self.dimension)))


def _check_width(width) -> int:
    """width as an int by the package's index rule (see pauli._index), at
    most MAX_QUBITS."""
    width = _index(width, "width", VerifyError)
    if width > MAX_QUBITS:
        raise VerifyError(f"{width} qubits exceeds the dense cap of {MAX_QUBITS}")
    return width


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, DenseOperator):
        return op.matrix
    return np.asarray(op, dtype=complex)


def _parity(values: np.ndarray) -> np.ndarray:
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def _string_masks(p: PauliString) -> tuple[int, int, int]:
    """Bit masks encoding the string's action: (flip, sign, y_count).

    M(p)|i> = phase * i^y_count * (-1)^popcount(i & sign) |i XOR flip>.
    """
    n = p.width
    flip = sign = y_count = 0
    for q in p.support():
        letter = p.letter(q)
        bit = 1 << (n - 1 - q)
        if letter != "Z":
            flip |= bit
        if letter != "X":
            sign |= bit
        if letter == "Y":
            y_count += 1
    return flip, sign, y_count


def _signed_permutation(p: PauliString, idx: np.ndarray) -> tuple[int, np.ndarray]:
    """(flip, phases) with M(p)|i> = phases[i] |i XOR flip> over the basis
    indices ``idx`` (np.arange of the dimension)."""
    flip, sign, y_count = _string_masks(p)
    return flip, p.phase * (1j ** y_count) * np.where(_parity(idx & sign), -1.0, 1.0)


def dense_pauli(p: PauliString) -> np.ndarray:
    """Dense matrix of a signed Pauli string (big-endian qubit order)."""
    _check_width(p.width)
    dim = 1 << p.width
    idx = np.arange(dim)
    flip, phases = _signed_permutation(p, idx)
    m = np.zeros((dim, dim), dtype=complex)
    m[idx ^ flip, idx] = phases
    return m


def dense_sum(g: PauliSum) -> np.ndarray:
    """Dense matrix of a Pauli sum: each string added onto its own 2^n
    signed-permutation entries of one matrix."""
    _check_width(g.width)
    dim = 1 << g.width
    idx = np.arange(dim)
    m = np.zeros((dim, dim), dtype=complex)
    for coeff, string in g.terms:
        flip, phases = _signed_permutation(string, idx)
        m[idx ^ flip, idx] += coeff * phases
    return m


# --- circuit unitaries -----------------------------------------------------

def _bit_values(n: int, q: int) -> np.ndarray:
    return (np.arange(1 << n) >> (n - 1 - q)) & 1


def _butterfly(u: np.ndarray, q: int) -> None:
    """Rows (a, b) of qubit q of a C-contiguous u become (a + b, a - b): sqrt(2) H."""
    a, b = u.reshape(1 << q, 2, -1).swapaxes(0, 1)
    diff = a - b
    a += b
    b[...] = diff


def _apply_gate(u: np.ndarray, g: Gate, local: dict[int, int], ms_form: str) -> None:
    """u <- G u in place; ``local`` maps register qubits to those of u."""
    n = len(local)
    if isinstance(g, MS):
        # B D B^dagger with B = H (xx) or S H (yy) on each window qubit; each
        # butterfly is sqrt(2) H, and D carries the 2^-|W| that undoes them
        qubits = [local[q] for q in g.qubits]
        s = sum(1 - 2 * _bit_values(n, q) for q in qubits)
        exponent = (s * s - len(qubits)) / 2.0 if ms_form == "targeted" else (s * s) / 2.0
        unit = -1j if g.direction == "forward" else 1j
        for q in qubits:
            if g.axis == "yy":
                u.reshape(1 << q, 2, -1)[:, 1] *= -1j
            _butterfly(u, q)
        u *= (np.exp(unit * (math.pi / 4.0) * exponent) * 2.0 ** -len(qubits))[:, None]
        for q in qubits:
            _butterfly(u, q)
            if g.axis == "yy":
                u.reshape(1 << q, 2, -1)[:, 1] *= 1j
    elif isinstance(g, (Rz, Rzz)):
        z = np.prod([1 - 2 * _bit_values(n, local[q]) for q in gate_qubits(g)], axis=0)
        u *= np.exp(-1j * g.angle / 2.0 * z)[:, None]
    elif isinstance(g, CRz):
        z = (1 - 2 * _bit_values(n, local[g.target])) * _bit_values(n, local[g.control])
        u *= np.exp(-1j * g.angle / 2.0 * z)[:, None]
    elif isinstance(g, Clifford1):
        (g00, g01), (g10, g11) = _GATE1[g.name]
        a, b = u.reshape(1 << local[g.qubit], 2, -1).swapaxes(0, 1)
        a[...], b[...] = g00 * a + g01 * b, g10 * a + g11 * b
    elif isinstance(g, CNOT):
        flip = _bit_values(n, local[g.control]) << (n - 1 - local[g.target])
        u[...] = u[np.arange(1 << n) ^ flip]
    elif isinstance(g, GlobalPhase):
        u *= np.exp(1j * g.angle)
    else:
        raise VerifyError(f"cannot simulate gate {g!r}")


def circuit_unitary(c: Circuit, ms_form: str = "targeted") -> DenseOperator:
    """Exact unitary of a circuit; first gate in the list acts first.

    ms_form selects the MS matrix convention: "targeted" (default) is the
    pairwise-sum exponential on the window; "squared" is the collective
    (sum of operators)^2 exponential, identical up to a global phase.
    """
    n = c.n_qubits
    _check_width(n)
    if ms_form not in ("targeted", "squared"):
        raise VerifyError(f"unknown ms_form {ms_form!r}")
    touched = sorted({q for g in c for q in gate_qubits(g)})
    local = {q: i for i, q in enumerate(touched)}
    idle = [q for q in range(n) if q not in local]
    full = np.zeros((1 << n, 1 << n), dtype=complex)  # before U'; see kernel 1
    u = np.eye(1 << len(touched), dtype=complex)
    for g in c:
        _apply_gate(u, g, local, ms_form)
    axes = [*touched, *idle]
    view = full.reshape((2,) * (2 * n)).transpose([*axes, *(q + n for q in axes)])
    block = u.reshape((2,) * (2 * len(touched)))
    rows = (slice(None),) * len(touched)
    for k in itertools.product((0, 1), repeat=len(idle)):
        view[(*rows, *k, *rows, *k)] = block
    return DenseOperator(full)


# --- generator exponentials ------------------------------------------------

def _exp_spectral(g: PauliSum, angle: float) -> np.ndarray:
    m = dense_sum(g)
    if np.abs(m - m.conj().T).max() > 1e-12:
        raise VerifyError("generator is not Hermitian")
    eigenvalues, vectors = np.linalg.eigh(m)
    return (vectors * np.exp(-1j * angle * eigenvalues)) @ vectors.conj().T


def _exp_product(factors: list[tuple[PauliSum, float]], width: int) -> np.ndarray:
    """exp(-i a_k G_k) ... exp(-i a_1 G_1) over ``factors`` [(G_1, a_1), ...] as
    an exact product of involution factors; the first factor acts first.

    Valid only when each G's strings commute pairwise; each string S of G
    contributes cos(a c) I - i sin(a c) M(S), applied on the left to
    {flip: column vector}.
    """
    dim = 1 << width
    idx = np.arange(dim)
    columns = {0: np.ones(dim, dtype=complex)}
    for g, angle in factors:
        for coeff, string in g.terms:
            flip, phases = _signed_permutation(string, idx)
            cos, sin = math.cos(angle * coeff.real), math.sin(angle * coeff.real)
            product = {f: cos * d for f, d in columns.items()}
            for f, d in columns.items():
                product[f ^ flip] = product.get(f ^ flip, 0) - 1j * sin * (phases[idx ^ f] * d)
            columns = product
    u = np.zeros((dim, dim), dtype=complex)
    for f, d in columns.items():
        u[idx ^ f, idx] = d
    return u


def _hermitian_sum(g: PauliSum | PauliString, width: int) -> PauliSum:
    """g as a Hermitian PauliSum on ``width`` qubits; a string is a one-term sum."""
    if g.width != width:
        raise VerifyError(f"generator {g!r} acts on {g.width} qubits, not {width}")
    if isinstance(g, PauliString):
        g = PauliSum.from_terms(width, [(1.0, g)])
    if not g.is_hermitian():
        raise VerifyError("generator is not Hermitian (complex coefficients)")
    return g


def ordered_product(factors, width: int) -> DenseOperator:
    """exp(-i a_k G_k) ... exp(-i a_1 G_1) over (G, a) factors; the first
    factor acts first, as a circuit's first gate does.

    Each G is a Hermitian PauliSum or PauliString on ``width`` qubits whose
    strings commute pairwise; the product is composed as signed permutations
    (kernel 3), never by dense matrix products.
    """
    width = _check_width(width)
    factors = [(_hermitian_sum(g, width), _real(angle, "angle", VerifyError))
               for g, angle in factors]
    if not factors:
        raise VerifyError("ordered product needs at least one factor")
    for k, (g, _) in enumerate(factors):
        if not g.strings_commute():
            raise VerifyError(f"factor {k}: generator strings do not commute pairwise")
    return DenseOperator(_exp_product(factors, width))


def generator_unitary(g: PauliSum | PauliString, angle: float) -> DenseOperator:
    """exp(-i * angle * M(g)) for a Hermitian Pauli sum.

    Pairwise-commuting strings take ordered_product's route, any other sum
    the eigendecomposition of its dense matrix.  The two routes agree to
    1e-12 and the test suite holds them to that.
    """
    _check_width(g.width)
    angle = _real(angle, "angle", VerifyError)
    g = _hermitian_sum(g, g.width)
    if g.strings_commute():
        return DenseOperator(_exp_product([(g, angle)], g.width))
    return DenseOperator(_exp_spectral(g, angle))


# --- equivalence -----------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    distance: float
    mode: str
    tol: float
    phase: complex | None = None

    def __bool__(self) -> bool:
        return self.passed


def assert_equivalent(u, v, mode: str = "exact", tol: float = 1e-10) -> EquivalenceReport:
    """Compare two operators: Frobenius distance, optionally mod global phase.

    exact: ||u - v|| <= tol.  global_phase: ||u - lambda v|| <= tol with
    lambda read off the phase of the largest-magnitude entry of v† u.
    Returns a report (truthy on pass) rather than raising.
    """
    a = _as_matrix(u)
    b = _as_matrix(v)
    if a.shape != b.shape:
        raise VerifyError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if mode == "exact":
        distance = float(np.linalg.norm(a - b))
        return EquivalenceReport(distance <= tol, distance, mode, tol)
    if mode == "global_phase":
        overlap = b.conj().T @ a
        flat = np.argmax(np.abs(overlap))
        entry = overlap.flat[flat]
        if abs(entry) == 0.0:
            return EquivalenceReport(False, float(np.linalg.norm(a)), mode, tol, None)
        lam = entry / abs(entry)
        distance = float(np.linalg.norm(a - lam * b))
        return EquivalenceReport(distance <= tol, distance, mode, tol, lam)
    raise VerifyError(f"unknown mode {mode!r}")
