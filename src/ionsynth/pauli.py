"""Exact algebra of signed Pauli strings.

A string is stored sparsely (qubit -> letter) together with a phase from the
four-element group {1, -1, 1j, -1j}.  All operations track that phase exactly;
nothing in this module touches floating point except the letters' dense 2x2
matrices used elsewhere for verification.

Conjugation conventions
-----------------------
``conjugate_by_clifford`` and ``conjugate_by_ms`` return the Heisenberg-picture
image U p U†.  For the targeted MS gate the forward direction means
U = exp(-i pi/4 sum_{j<k in S} A_j A_k) with A = X or Y; the backward gate is
its inverse.  Since all pair terms commute, conjugation factorizes into a
product of single-pair updates: a string anticommuting with a pair term A_jA_k
picks up i * (A_jA_k) forward (-i backward) and is left alone otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = [
    "PauliString",
    "PauliSum",
    "identity_string",
    "from_label",
    "multiply",
    "conjugate_by_clifford",
    "conjugate_by_ms",
    "CLIFFORD1_NAMES",
    "CLIFFORD2_NAMES",
]

_PHASES = (1, -1, 1j, -1j)

# Single-qubit products: (a, b) -> (phase, letter or "").  Identity handled
# separately; the table covers the nine letter-letter cases.
_LETTER_PRODUCT: dict[tuple[str, str], tuple[complex, str]] = {
    ("X", "X"): (1, ""),
    ("Y", "Y"): (1, ""),
    ("Z", "Z"): (1, ""),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}

# Heisenberg images U p U† for the supported single-qubit Cliffords,
# letter -> (phase, letter).  Derived once from the dense 2x2 forms; the unit
# tests re-derive every row against that oracle.
_CLIFFORD1_ACTION: dict[str, dict[str, tuple[complex, str]]] = {
    "H": {"X": (1, "Z"), "Y": (-1, "Y"), "Z": (1, "X")},
    "S": {"X": (1, "Y"), "Y": (-1, "X"), "Z": (1, "Z")},
    "SDG": {"X": (-1, "Y"), "Y": (1, "X"), "Z": (1, "Z")},
    # sqrt(X) = exp(-i pi/4 X):  Y -> Z,  Z -> -Y
    "SX": {"X": (1, "X"), "Y": (1, "Z"), "Z": (-1, "Y")},
    "SXDG": {"X": (1, "X"), "Y": (-1, "Z"), "Z": (1, "Y")},
    "X": {"X": (1, "X"), "Y": (-1, "Y"), "Z": (-1, "Z")},
    "Y": {"X": (-1, "X"), "Y": (1, "Y"), "Z": (-1, "Z")},
    "Z": {"X": (-1, "X"), "Y": (-1, "Y"), "Z": (1, "Z")},
}

CLIFFORD1_NAMES = tuple(_CLIFFORD1_ACTION)
CLIFFORD2_NAMES = ("CNOT", "CZ")

# Two-qubit Clifford images on (control, target) letter pairs, "I" allowed.
# (a, b) -> (phase, a', b').  Generated from the dense 4x4 conjugation and
# frozen here; tests regenerate the full table.
_CNOT_ACTION: dict[tuple[str, str], tuple[complex, str, str]] = {
    ("I", "I"): (1, "I", "I"),
    ("I", "X"): (1, "I", "X"),
    ("I", "Y"): (1, "Z", "Y"),
    ("I", "Z"): (1, "Z", "Z"),
    ("X", "I"): (1, "X", "X"),
    ("X", "X"): (1, "X", "I"),
    ("X", "Y"): (1, "Y", "Z"),
    ("X", "Z"): (-1, "Y", "Y"),
    ("Y", "I"): (1, "Y", "X"),
    ("Y", "X"): (1, "Y", "I"),
    ("Y", "Y"): (-1, "X", "Z"),
    ("Y", "Z"): (1, "X", "Y"),
    ("Z", "I"): (1, "Z", "I"),
    ("Z", "X"): (1, "Z", "X"),
    ("Z", "Y"): (1, "I", "Y"),
    ("Z", "Z"): (1, "I", "Z"),
}

_CZ_ACTION: dict[tuple[str, str], tuple[complex, str, str]] = {
    ("I", "I"): (1, "I", "I"),
    ("I", "X"): (1, "Z", "X"),
    ("I", "Y"): (1, "Z", "Y"),
    ("I", "Z"): (1, "I", "Z"),
    ("X", "I"): (1, "X", "Z"),
    ("X", "X"): (1, "Y", "Y"),
    ("X", "Y"): (-1, "Y", "X"),
    ("X", "Z"): (1, "X", "I"),
    ("Y", "I"): (1, "Y", "Z"),
    ("Y", "X"): (-1, "X", "Y"),
    ("Y", "Y"): (1, "X", "X"),
    ("Y", "Z"): (1, "Y", "I"),
    ("Z", "I"): (1, "Z", "I"),
    ("Z", "X"): (1, "I", "X"),
    ("Z", "Y"): (1, "I", "Y"),
    ("Z", "Z"): (1, "Z", "Z"),
}


class PauliError(ValueError):
    """Structural error in Pauli-algebra inputs."""


def _check_phase(phase: complex) -> complex:
    if phase not in _PHASES:
        raise PauliError(f"phase must be one of {{1, -1, 1j, -1j}}, got {phase!r}")
    return phase


@dataclass(frozen=True)
class PauliString:
    """A signed Pauli string on ``width`` qubits.

    ``letters`` maps qubit index -> letter in {X, Y, Z}; identity positions are
    never stored, so ``len(letters)`` is the locality.
    """

    width: int
    letters: Mapping[int, str] = field(default_factory=dict)
    phase: complex = 1

    def __post_init__(self) -> None:
        _check_phase(self.phase)
        clean: dict[int, str] = {}
        for q, letter in self.letters.items():
            if letter == "I":
                continue
            if letter not in ("X", "Y", "Z"):
                raise PauliError(f"invalid Pauli letter {letter!r} on qubit {q}")
            if not (0 <= q < self.width):
                raise PauliError(f"qubit {q} outside width {self.width}")
            clean[q] = letter
        object.__setattr__(self, "letters", dict(sorted(clean.items())))

    # dataclass(frozen) gives eq on the dict; hashing needs a stable view
    def __hash__(self) -> int:
        return hash((self.width, tuple(self.letters.items()), self.phase))

    @property
    def locality(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def letter(self, q: int) -> str:
        return self.letters.get(q, "I")

    def support(self) -> tuple[int, ...]:
        return tuple(self.letters)

    def with_phase(self, phase: complex) -> "PauliString":
        return PauliString(self.width, self.letters, _check_phase(phase))

    def commutes_with(self, other: "PauliString") -> bool:
        if self.width != other.width:
            raise PauliError("width mismatch")
        anti = 0
        for q, a in self.letters.items():
            b = other.letters.get(q)
            if b is not None and b != a:
                anti ^= 1
        return anti == 0

    def label(self) -> str:
        """Dense text form, e.g. ``-iXIZ`` (qubit 0 leftmost)."""
        prefix = {1: "+", -1: "-", 1j: "+i", -1j: "-i"}[self.phase]
        body = "".join(self.letter(q) for q in range(self.width))
        return prefix + body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PauliString({self.label()!r})"


def identity_string(width: int) -> PauliString:
    return PauliString(width, {})


def from_label(label: str) -> PauliString:
    """Parse a dense label like ``XIZ``, ``-YY`` or ``+iXY``."""
    phase: complex = 1
    body = label
    for prefix, value in (("+i", 1j), ("-i", -1j), ("+", 1), ("-", -1)):
        if body.startswith(prefix):
            phase = value
            body = body[len(prefix):]
            break
    letters = {q: c for q, c in enumerate(body) if c != "I"}
    return PauliString(len(body), letters, phase)


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Signed product ``a * b`` with exact phase accumulation."""
    if a.width != b.width:
        raise PauliError(f"width mismatch: {a.width} vs {b.width}")
    phase = a.phase * b.phase
    letters = dict(a.letters)
    for q, lb in b.letters.items():
        la = letters.pop(q, None)
        if la is None:
            letters[q] = lb
            continue
        factor, prod = _LETTER_PRODUCT[(la, lb)]
        phase *= factor
        if prod:
            letters[q] = prod
    return PauliString(a.width, letters, phase)


def conjugate_by_clifford(
    p: PauliString, gate: str, qubits: tuple[int, ...] | Iterable[int]
) -> PauliString:
    """Heisenberg image U p U† for a named Clifford gate on ``qubits``.

    Supported names: H, S, SDG, SX, SXDG, X, Y, Z (one qubit) and CNOT, CZ
    (two qubits, (control, target) order for CNOT).
    """
    qubits = tuple(qubits)
    name = gate.upper()
    if name in _CLIFFORD1_ACTION:
        if len(qubits) != 1:
            raise PauliError(f"{name} acts on one qubit, got {qubits}")
        (q,) = qubits
        letter = p.letters.get(q)
        if letter is None:
            return p
        factor, new = _CLIFFORD1_ACTION[name][letter]
        letters = dict(p.letters)
        letters[q] = new
        return PauliString(p.width, letters, _check_phase(p.phase * factor))
    if name in ("CNOT", "CX", "CZ"):
        if len(qubits) != 2 or qubits[0] == qubits[1]:
            raise PauliError(f"{name} needs two distinct qubits, got {qubits}")
        c, t = qubits
        table = _CZ_ACTION if name == "CZ" else _CNOT_ACTION
        factor, lc, lt = table[(p.letter(c), p.letter(t))]
        letters = dict(p.letters)
        for q, letter in ((c, lc), (t, lt)):
            if letter == "I":
                letters.pop(q, None)
            else:
                letters[q] = letter
        return PauliString(p.width, letters, _check_phase(p.phase * factor))
    raise PauliError(f"unsupported Clifford gate {gate!r}")


def conjugate_by_ms(
    p: PauliString,
    axis: str,
    qubits: Iterable[int],
    inverse: bool = False,
) -> PauliString:
    """Image of ``p`` under the targeted MS Clifford on ``qubits``.

    Forward gate: exp(-i pi/4 sum_{j<k} A_j A_k), A in {X, Y} per ``axis``
    ("xx" or "yy"); ``inverse=True`` conjugates by the backward gate instead.
    """
    qs = sorted(set(qubits))
    if not qs:
        raise PauliError("MS qubit set is empty")
    if qs[0] < 0 or qs[-1] >= p.width:
        raise PauliError(f"MS qubits {qs} outside width {p.width}")
    letter = {"xx": "X", "yy": "Y"}.get(axis.lower())
    if letter is None:
        raise PauliError(f"MS axis must be 'xx' or 'yy', got {axis!r}")
    unit = -1j if inverse else 1j
    out = p
    for i, j in ((qs[a], qs[b]) for a in range(len(qs)) for b in range(a + 1, len(qs))):
        pair = PauliString(p.width, {i: letter, j: letter})
        if not out.commutes_with(pair):
            product = multiply(out, pair)
            out = product.with_phase(_check_phase(unit * product.phase))
    return out


@dataclass(frozen=True)
class PauliSum:
    """A complex-weighted sum of Pauli strings, canonically merged.

    Terms are keyed by letter content; any phase on an input string is folded
    into its coefficient, so stored strings always have phase +1.  Terms with
    coefficient magnitude below 1e-15 are dropped.
    """

    width: int
    terms: tuple[tuple[complex, PauliString], ...] = ()

    @staticmethod
    def from_terms(
        width: int, items: Iterable[tuple[complex, PauliString]]
    ) -> "PauliSum":
        acc: dict[tuple[tuple[int, str], ...], complex] = {}
        for coeff, string in items:
            if string.width != width:
                raise PauliError("term width mismatch")
            key = tuple(string.letters.items())
            acc[key] = acc.get(key, 0) + coeff * string.phase
        merged = []
        for key in sorted(acc):
            c = acc[key]
            if abs(c) > 1e-15:
                merged.append((c, PauliString(width, dict(key))))
        return PauliSum(width, tuple(merged))

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.width != other.width:
            raise PauliError("width mismatch")
        return PauliSum.from_terms(self.width, (*self.terms, *other.terms))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c, _ in self.terms)

    def strings_commute(self) -> bool:
        n = len(self.terms)
        return all(
            self.terms[i][1].commutes_with(self.terms[j][1])
            for i in range(n)
            for j in range(i + 1, n)
        )

    def __len__(self) -> int:
        return len(self.terms)
