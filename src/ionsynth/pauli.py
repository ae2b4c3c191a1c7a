"""Exact algebra of signed Pauli strings.

A string on ``width`` qubits is stored as two bit masks and a phase from the
four-element group {1, -1, 1j, -1j}: bit q of ``x`` is set when qubit q
carries X or Y, bit q of ``z`` when it carries Z or Y.  Writing X^x Z^z for
the product over qubits of X_q^(x_q) Z_q^(z_q), with Y = iXZ the string is

    phase * i^|x & z| * X^x Z^z,

where |m| counts the set bits of m.  Moving Z^(z_a) past X^(x_b) costs
(-1)^|z_a & x_b|, so the product of two strings is

    x = x_a ^ x_b,  z = z_a ^ z_b,
    phase = p_a p_b i^(|x_a & z_a| + |x_b & z_b| - |x & z| + 2 |z_a & x_b|),

and they commute exactly when |x_a & z_b ^ z_a & x_b| is even.  All
operations track the phase exactly; nothing in the algebra touches floating
point.  No other module reads the masks: strings are built from letters and
read through ``letter``, ``support`` and ``label``.

Input rules
-----------
The package checks its inputs by two rules kept here, each raising the error
class of the module that calls it.  ``_index`` is the rule for every mode,
qubit and count: an int or a numpy integer, never a bool or a float, and
never negative.  ``_real`` is the rule for every angle, coefficient and time
step: a finite float from any real number that is not a bool.

Conjugation conventions
-----------------------
``conjugate_by_clifford`` and ``conjugate_by_ms`` return the Heisenberg-picture
image U p U†.  For the targeted MS gate on the window W the forward direction
means U = exp(-i pi/4 sum_{j<k in W} A_j A_k) with A = X or Y; the backward
gate is its inverse.  The pair terms commute with each other, and A_jA_k
anticommutes with p exactly when one of j, k lies in S, the window qubits
where p's letter is neither I nor A: S = W & z for A = X and W & (x ^ z) for
A = Y.  Each such pair maps p to i p A_jA_k forward (-i backward), so with
a = |S| and r = |W| - a the image is

    U p U† = (±i)^(a r) p A_T,   T = {q in S : r odd} ∪ {q in W - S : a odd},

which is p itself when a r = 0.  A Clifford gate is given by the images of X
and Z on each of its qubits; a string's image is the product of its letters'
images, with Y = iXZ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from operator import index
from typing import Iterable, Mapping

__all__ = [
    "PauliError",
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

# A qubit's letter, indexed by its x bit plus twice its z bit.
_LETTERS = "IXZY"
_CODES = {letter: code for code, letter in enumerate(_LETTERS)}

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


def _index(value, what: str, error: type[Exception], size: int | None = None) -> int:
    """value as an int, or ``error`` naming ``what``: the rule for every mode,
    qubit and count in the package.  numpy integers pass; a bool or a float is
    refused rather than read as 0 or 1 or truncated, and so is a negative
    value or, when ``size`` is given, one of ``size`` or more."""
    if type(value) is not int:
        try:
            i = None if isinstance(value, bool) else index(value)
        except TypeError:
            i = None
        if i is None:
            raise error(f"{what} {value!r} is not an integer")
        value = i
    if value < 0:
        raise error(f"negative {what} {value}")
    if size is not None and value >= size:
        raise error(f"{what} {value} outside 0..{size - 1}")
    return value


def _real(value, what: str, error: type[Exception]) -> float:
    """value as a finite float, or ``error`` naming ``what``: the rule for
    every angle, coefficient and time step in the package.  Any real number
    passes, numpy floats and ints included; a bool, a string or a complex
    number is refused, and so are NaN and ±inf."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise error(f"{what} {value!r} is not a real number")
        try:
            value = float(value)
        except OverflowError:
            raise error(f"{what} must be finite, got {value!r}") from None
    if not math.isfinite(value):
        raise error(f"{what} must be finite, got {value!r}")
    return value


def _check_phase(phase: complex) -> complex:
    if phase not in _PHASES:
        raise PauliError(f"phase must be one of {{1, -1, 1j, -1j}}, got {phase!r}")
    return phase


@dataclass(frozen=True, slots=True, init=False)
class PauliString:
    """A signed Pauli string on ``width`` qubits.

    Built from ``letters``, a map qubit index -> letter in {I, X, Y, Z};
    identity letters may be given or left out.  The width and the qubits
    follow the package's index rule (see _index): numpy integers are stored
    as ints, bools, floats and negative values are refused.
    """

    width: int
    x: int
    z: int
    phase: complex

    def __init__(
        self, width: int, letters: Mapping[int, str] | None = None, phase: complex = 1
    ) -> None:
        width = _index(width, "width", PauliError)
        x = z = 0
        for q, letter in (letters or {}).items():
            code = _CODES.get(letter)
            if code is None:
                raise PauliError(f"invalid Pauli letter {letter!r} on qubit {q}")
            q = _index(q, "qubit", PauliError)
            if not code:
                continue
            if q >= width:
                raise PauliError(f"qubit {q} outside width {width}")
            x |= (code & 1) << q
            z |= (code >> 1) << q
        _fill(self, width, x, z, _check_phase(phase))

    @property
    def locality(self) -> int:
        return (self.x | self.z).bit_count()

    def is_identity(self) -> bool:
        return not (self.x | self.z)

    def letter(self, q: int) -> str:
        return _LETTERS[(self.x >> q & 1) | (self.z >> q & 1) << 1]

    def support(self) -> tuple[int, ...]:
        """Qubits with a non-identity letter, ascending."""
        out = []
        m = self.x | self.z
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    def with_phase(self, phase: complex) -> "PauliString":
        return _string(self.width, self.x, self.z, _check_phase(phase))

    def commutes_with(self, other: "PauliString") -> bool:
        if self.width != other.width:
            raise PauliError("width mismatch")
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    def label(self) -> str:
        """Dense text form, e.g. ``-iXIZ`` (qubit 0 leftmost)."""
        prefix = {1: "+", -1: "-", 1j: "+i", -1j: "-i"}[self.phase]
        return prefix + "".join(map(self.letter, range(self.width)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PauliString({self.label()!r})"


def _fill(s: PauliString, width: int, x: int, z: int, phase: complex) -> None:
    set_field = object.__setattr__  # the dataclass is frozen
    set_field(s, "width", width)
    set_field(s, "x", x)
    set_field(s, "z", z)
    set_field(s, "phase", phase)


def _string(width: int, x: int, z: int, phase: complex) -> PauliString:
    """Unchecked constructor for masks and a phase the algebra produced."""
    s = object.__new__(PauliString)
    _fill(s, width, x, z, phase)
    return s


def identity_string(width: int) -> PauliString:
    return _string(width, 0, 0, 1)


def from_label(label: str) -> PauliString:
    """Parse a dense label like ``XIZ``, ``-YY`` or ``+iXY``."""
    phase: complex = 1
    body = label
    for prefix, value in (("+i", 1j), ("-i", -1j), ("+", 1), ("-", -1)):
        if body.startswith(prefix):
            phase = value
            body = body[len(prefix):]
            break
    return PauliString(len(body), dict(enumerate(body)), phase)


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Signed product ``a * b`` with exact phase accumulation."""
    if a.width != b.width:
        raise PauliError(f"width mismatch: {a.width} vs {b.width}")
    x, z = a.x ^ b.x, a.z ^ b.z
    turns = (
        (a.x & a.z).bit_count() + (b.x & b.z).bit_count() - (x & z).bit_count()
        + 2 * (a.z & b.x).bit_count()
    )
    return _string(a.width, x, z, a.phase * b.phase * _I_POWERS[turns % 4])


def _derive_action(images: tuple[tuple[str, str], ...]) -> list[tuple[complex, int, int]]:
    """Image (phase, x, z) over the gate's qubits of each letter code.

    The code of a string on the gate's qubits holds the letter code of its
    k-th qubit at bits 2k and 2k + 1.  Conjugation is multiplicative, so a
    string's image is the product of its letters' images, with Y = iXZ.
    """
    gens = [(from_label(x), from_label(z)) for x, z in images]
    action = []
    for code in range(4 ** len(images)):
        out = identity_string(len(images))
        for k, (x, z) in enumerate(gens):
            bits = code >> 2 * k & 3
            if bits & 1:
                out = multiply(out, x)
            if bits & 2:
                out = multiply(out, z)
            if bits == 3:
                out = out.with_phase(1j * out.phase)
        action.append((out.phase, out.x, out.z))
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
    if min(qubits) < 0 or max(qubits) >= p.width:
        raise PauliError(f"{name} qubits {qubits} outside width {p.width}")
    x, z = p.x, p.z
    code = 0
    for k, q in enumerate(qubits):
        code |= ((x >> q & 1) | (z >> q & 1) << 1) << 2 * k
    if not code:
        return p
    factor, image_x, image_z = action[code]
    for k, q in enumerate(qubits):
        x = x & ~(1 << q) | (image_x >> k & 1) << q
        z = z & ~(1 << q) | (image_z >> k & 1) << q
    return _string(p.width, x, z, p.phase * factor)


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
    qs = tuple(qubits)
    if not qs:
        raise PauliError("MS qubit set is empty")
    if min(qs) < 0 or max(qs) >= p.width:
        raise PauliError(f"MS qubits {sorted(set(qs))} outside width {p.width}")
    ax = axis.lower()
    if ax not in ("xx", "yy"):
        raise PauliError(f"MS axis must be 'xx' or 'yy', got {axis!r}")
    window = 0
    for q in qs:
        window |= 1 << q
    # moved and flipped are the sets S and T of the module docstring
    moved = window & (p.z if ax == "xx" else p.x ^ p.z)
    a = moved.bit_count()
    r = window.bit_count() - a
    if a * r == 0:
        return p
    flipped = (moved if r % 2 else 0) | (window & ~moved if a % 2 else 0)
    turns = -a * r if inverse else a * r
    word = _string(p.width, flipped, flipped if ax == "yy" else 0, _I_POWERS[turns % 4])
    return multiply(p, word)


@dataclass(frozen=True)
class PauliSum:
    """A complex-weighted sum of Pauli strings, canonically merged.

    Terms are keyed by letter content; any phase on an input string is folded
    into its coefficient, so stored strings always have phase +1.  Terms are
    ordered by their (qubit, letter) sequences, and terms with coefficient
    magnitude below 1e-15 are dropped.  The width follows the index rule
    (see _index) and every string must have it.
    """

    width: int
    terms: tuple[tuple[complex, PauliString], ...] = ()

    def __post_init__(self) -> None:
        width = _index(self.width, "width", PauliError)
        if any(s.width != width for _, s in self.terms):
            raise PauliError("term width mismatch")
        object.__setattr__(self, "width", width)

    @staticmethod
    def from_terms(
        width: int, items: Iterable[tuple[complex, PauliString]]
    ) -> "PauliSum":
        acc: dict[PauliString, complex] = {}
        for coeff, string in items:
            if string.width != width:
                raise PauliError("term width mismatch")
            key = string if string.phase == 1 else string.with_phase(1)
            acc[key] = acc.get(key, 0) + coeff * string.phase
        merged = [(acc[s], s) for s in sorted(acc, key=_letter_order)]
        return PauliSum(width, tuple((c, s) for c, s in merged if abs(c) > 1e-15))

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


def _letter_order(s: PauliString) -> list[int]:
    """The (qubit, letter) sequence of s as 4 * qubit + rank, with X < Y < Z."""
    return [4 * q + 2 * (s.z >> q & 1) + ((s.x ^ s.z) >> q & 1) for q in s.support()]
