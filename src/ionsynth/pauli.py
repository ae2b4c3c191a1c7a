"""Exact algebra of signed Pauli strings.

A string is stored sparsely (qubit -> letter) together with a phase from the
four-element group {1, -1, 1j, -1j}.  All operations track that phase exactly;
nothing in this module touches floating point except the letters' dense 2x2
matrices used elsewhere for verification.

Conjugation conventions
-----------------------
``conjugate_by_clifford`` and ``conjugate_by_ms`` return the Heisenberg-picture
image U p U†.  For the targeted MS gate on the window W the forward direction
means U = exp(-i pi/4 sum_{j<k in W} A_j A_k) with A = X or Y; the backward
gate is its inverse.  The pair terms commute with each other, and A_jA_k
anticommutes with p exactly when one of j, k lies in S, the window qubits
where p's letter is neither I nor A.  Each such pair maps p to i p A_jA_k
forward (-i backward), so with a = |S| and r = |W| - a the image is

    U p U† = (±i)^(a r) p A_T,   T = {q in S : r odd} ∪ {q in W - S : a odd},

which is p itself when a r = 0.  A Clifford gate is given by the images of X
and Z on each of its qubits; a string's image is the product of its letters'
images, with Y = iXZ.
"""

from __future__ import annotations

import itertools
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

# Heisenberg images U P U† of the generators of each supported Clifford: for
# the gate's k-th qubit, the images of X_k and Z_k as labels over the gate's
# qubits in the order they are passed (control first for CNOT).
_GENERATOR_IMAGES: dict[str, tuple[tuple[str, str], ...]] = {
    "H": (("Z", "X"),),
    "S": (("Y", "Z"),),
    "SDG": (("-Y", "Z"),),
    # sqrt(X) = exp(-i pi/4 X):  Z -> -Y
    "SX": (("X", "-Y"),),
    "SXDG": (("X", "Y"),),
    "X": (("X", "-Z"),),
    "Y": (("-X", "-Z"),),
    "Z": (("-X", "Z"),),
    "CNOT": (("XX", "ZI"), ("IX", "ZZ")),
    "CZ": (("XZ", "ZI"), ("ZX", "IZ")),
}

CLIFFORD1_NAMES = tuple(n for n, images in _GENERATOR_IMAGES.items() if len(images) == 1)
CLIFFORD2_NAMES = tuple(n for n, images in _GENERATOR_IMAGES.items() if len(images) == 2)

# Powers of i, indexed by the exponent mod 4.
_I_POWERS = (1, 1j, -1, -1j)


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


def _derive_action(images: tuple[tuple[str, str], ...]) -> dict[str, tuple[complex, str]]:
    """letters -> (phase, letters) over the gate's qubits, from its generator images.

    Conjugation is multiplicative, so a string's image is the product of its
    letters' images, with Y = iXZ.
    """
    gens = [(from_label(x), from_label(z)) for x, z in images]
    action = {}
    for letters in itertools.product("IXYZ", repeat=len(images)):
        out = identity_string(len(images))
        for letter, (x, z) in zip(letters, gens):
            if letter in "XY":
                out = multiply(out, x)
            if letter in "YZ":
                out = multiply(out, z)
            if letter == "Y":
                out = out.with_phase(1j * out.phase)
        action["".join(letters)] = (out.phase, "".join(map(out.letter, range(out.width))))
    return action


_CLIFFORD_ACTIONS = {name: _derive_action(images) for name, images in _GENERATOR_IMAGES.items()}


def conjugate_by_clifford(
    p: PauliString, gate: str, qubits: tuple[int, ...] | Iterable[int]
) -> PauliString:
    """Heisenberg image U p U† for a named Clifford gate on ``qubits``.

    Supported names: H, S, SDG, SX, SXDG, X, Y, Z (one qubit) and CNOT, CZ
    (two qubits, (control, target) order for CNOT).
    """
    qubits = tuple(qubits)
    name = gate.upper()
    action = _CLIFFORD_ACTIONS.get(name)
    if action is None:
        raise PauliError(f"unsupported Clifford gate {gate!r}")
    arity = len(_GENERATOR_IMAGES[name])
    if len(qubits) != arity or len(set(qubits)) != arity:
        raise PauliError(f"{name} acts on {arity} distinct qubit(s), got {qubits}")
    factor, image = action["".join(map(p.letter, qubits))]
    letters = dict(p.letters)
    letters.update(zip(qubits, image))
    return PauliString(p.width, letters, p.phase * factor)


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
    # moved and flipped are the sets S and T of the module docstring
    moved = {q for q in qs if p.letter(q) not in ("I", letter)}
    a, r = len(moved), len(qs) - len(moved)
    if a * r == 0:
        return p
    flipped = {q: letter for q in qs if (r if q in moved else a) % 2}
    turns = -a * r if inverse else a * r
    return multiply(p, PauliString(p.width, flipped, _I_POWERS[turns % 4]))


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
