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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CNOT, MS, Circuit, Clifford1, CRz, Gate, GlobalPhase, Rz, Rzz
from .pauli import PauliString, PauliSum

__all__ = [
    "DenseOperator",
    "VerifyError",
    "EquivalenceReport",
    "circuit_unitary",
    "generator_unitary",
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
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class VerifyError(ValueError):
    """Oracle precondition violated (size cap, hermiticity, shape)."""


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A 2^n x 2^n complex matrix with the qubit cap enforced."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise VerifyError(f"operator must be square, got shape {m.shape}")
        n = m.shape[0].bit_length() - 1
        if (1 << n) != m.shape[0]:
            raise VerifyError(f"dimension {m.shape[0]} is not a power of two")
        if n > MAX_QUBITS:
            raise VerifyError(f"{n} qubits exceeds the dense cap of {MAX_QUBITS}")
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dimension.bit_length() - 1

    def unitarity_defect(self) -> float:
        m = self.matrix
        return float(np.linalg.norm(m.conj().T @ m - np.eye(self.dimension)))


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, DenseOperator):
        return op.matrix
    return np.asarray(op, dtype=complex)


def _parity(values: np.ndarray) -> np.ndarray:
    v = values.copy()
    for shift in (8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def _string_masks(p: PauliString) -> tuple[int, int, int]:
    """Bit masks encoding the string's action: (flip, sign, y_count).

    M(p)|i> = phase * i^y_count * (-1)^popcount(i & sign) |i XOR flip>.
    """
    n = p.width
    flip = sign = y_count = 0
    for q, letter in p.letters.items():
        bit = 1 << (n - 1 - q)
        if letter != "Z":
            flip |= bit
        if letter != "X":
            sign |= bit
        if letter == "Y":
            y_count += 1
    return flip, sign, y_count


def dense_pauli(p: PauliString) -> np.ndarray:
    """Dense matrix of a signed Pauli string (big-endian qubit order)."""
    if p.width > MAX_QUBITS:
        raise VerifyError(f"{p.width} qubits exceeds the dense cap of {MAX_QUBITS}")
    dim = 1 << p.width
    flip, sign, y_count = _string_masks(p)
    idx = np.arange(dim)
    phases = p.phase * (1j ** y_count) * np.where(_parity(idx & sign), -1.0, 1.0)
    m = np.zeros((dim, dim), dtype=complex)
    m[idx ^ flip, idx] = phases
    return m


def dense_sum(g: PauliSum) -> np.ndarray:
    if g.width > MAX_QUBITS:
        raise VerifyError(f"{g.width} qubits exceeds the dense cap of {MAX_QUBITS}")
    dim = 1 << g.width
    m = np.zeros((dim, dim), dtype=complex)
    for coeff, string in g.terms:
        m += coeff * dense_pauli(string)
    return m


# --- circuit unitaries -----------------------------------------------------

def _apply_local(u: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """u <- embed(gate on qubits) @ u, acting on the row index of u."""
    k = len(qubits)
    dim = 1 << n
    t = u.reshape((2,) * n + (dim,))
    g = gate.reshape((2,) * (2 * k))
    t = np.tensordot(g, t, axes=(tuple(range(k, 2 * k)), qubits))
    order = list(qubits) + [ax for ax in range(n) if ax not in qubits] + [n]
    t = np.transpose(t, np.argsort(order))
    return t.reshape(dim, dim)


def _bit_values(n: int, q: int) -> np.ndarray:
    return (np.arange(1 << n) >> (n - 1 - q)) & 1


def _ms_diagonal(n: int, gate: MS, ms_form: str) -> np.ndarray:
    """Diagonal of the MS gate in the per-qubit A-eigenbasis of its window."""
    s = np.zeros(1 << n, dtype=np.int64)
    for q in gate.qubits:
        s += 1 - 2 * _bit_values(n, q)
    w = len(gate.qubits)
    if ms_form == "targeted":
        exponent = (s * s - w) / 2.0
    elif ms_form == "squared":
        exponent = (s * s) / 2.0
    else:
        raise VerifyError(f"unknown ms_form {ms_form!r}")
    unit = -1j if gate.direction == "forward" else 1j
    return np.exp(unit * (math.pi / 4.0) * exponent)


def _apply_gate(u: np.ndarray, g: Gate, n: int, ms_form: str) -> np.ndarray:
    if isinstance(g, MS):
        basis = _GATE1["H"] if g.axis == "xx" else _GATE1["S"] @ _GATE1["H"]
        for q in g.qubits:
            u = _apply_local(u, basis.conj().T, (q,), n)
        u = _ms_diagonal(n, g, ms_form)[:, None] * u
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
        return _apply_local(u, _GATE1[g.name], (g.qubit,), n)
    if isinstance(g, CNOT):
        return _apply_local(u, _CNOT, (g.control, g.target), n)
    if isinstance(g, GlobalPhase):
        return np.exp(1j * g.angle) * u
    raise VerifyError(f"cannot simulate gate {g!r}")


def circuit_unitary(c: Circuit, ms_form: str = "targeted") -> DenseOperator:
    """Exact unitary of a circuit; first gate in the list acts first.

    ms_form selects the MS matrix convention: "targeted" (default) is the
    pairwise-sum exponential on the window; "squared" is the collective
    (sum of operators)^2 exponential, identical up to a global phase.
    """
    if c.n_qubits > MAX_QUBITS:
        raise VerifyError(f"{c.n_qubits} qubits exceeds the dense cap of {MAX_QUBITS}")
    u = np.eye(1 << c.n_qubits, dtype=complex)
    for g in c:
        u = _apply_gate(u, g, c.n_qubits, ms_form)
    return DenseOperator(u)


# --- generator exponentials ------------------------------------------------

def _exp_spectral(g: PauliSum, angle: float) -> np.ndarray:
    m = dense_sum(g)
    if np.abs(m - m.conj().T).max() > 1e-12:
        raise VerifyError("generator is not Hermitian")
    eigenvalues, vectors = np.linalg.eigh(m)
    return (vectors * np.exp(-1j * angle * eigenvalues)) @ vectors.conj().T


def _exp_product(g: PauliSum, angle: float) -> np.ndarray:
    """exp(-i angle sum c_S S) as an exact product of involution factors.

    Valid only when the strings commute pairwise; each factor is
    cos(angle c) I - i sin(angle c) M(S), applied by index arithmetic.
    """
    dim = 1 << g.width
    u = np.eye(dim, dtype=complex)
    idx = np.arange(dim)
    for coeff, string in g.terms:
        flip, sign, y_count = _string_masks(string)
        phases = (1j ** y_count) * np.where(_parity(idx & sign), -1.0, 1.0)
        rows = idx ^ flip
        moved = phases[rows, None] * u[rows, :]
        u = math.cos(angle * coeff.real) * u - 1j * math.sin(angle * coeff.real) * moved
    return u


def generator_unitary(g: PauliSum | PauliString, angle: float, method: str = "auto") -> DenseOperator:
    """exp(-i * angle * M(g)) for a Hermitian Pauli sum.

    method: "spectral" forces the eigendecomposition route, "product" the
    commuting-factor route (rejected if strings do not commute pairwise),
    "auto" picks the product route when available.  The two routes agree to
    1e-12 and the test suite holds them to that.
    """
    if isinstance(g, PauliString):
        g = PauliSum.from_terms(g.width, [(1.0, g)])
    if g.width > MAX_QUBITS:
        raise VerifyError(f"{g.width} qubits exceeds the dense cap of {MAX_QUBITS}")
    if not g.is_hermitian():
        raise VerifyError("generator is not Hermitian (complex coefficients)")
    if method == "auto":
        method = "product" if g.strings_commute() else "spectral"
    if method == "product":
        if not g.strings_commute():
            raise VerifyError("product route requires pairwise-commuting strings")
        return DenseOperator(_exp_product(g, angle))
    if method == "spectral":
        return DenseOperator(_exp_spectral(g, angle))
    raise VerifyError(f"unknown method {method!r}")


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
