"""Second-quantized operators, the Jordan-Wigner mapping, excitation
generators and their number-operator symmetrization algebra.

Conventions, fixed package-wide:
  - qubit value 1 means the spin-orbital is occupied, and a creation operator
    maps |0> to |1> on its own qubit: a_p† -> (prod_{k<p} Z_k) (X_p - iY_p)/2,
    a_p -> (prod_{k<p} Z_k) (X_p + iY_p)/2;
  - spin-orbitals alternate up/down: index = 2*spatial + (0 up, 1 down);
  - an antisymmetrized excitation generator on creation modes (subscript) c_1
    < ... < c_N and annihilation modes (superscript) a_1 < ... < a_N is
    i(a†_{c_1}..a†_{c_N} a_{a_1}..a_{a_N} - h.c.); the symmetrized variant
    drops the i and takes the anticommutator-style sum (product + h.c.);
  - controlled_single(p, q, j) is the quartic remnant with a shared mode j:
    i(a†_p a†_j a_q a_j - h.c.) = -n_j * i(a†_p a_q - a†_q a_p).

generator_pauli builds the Pauli form of these generators combinatorially
(letter words, reordering signs and parity-string coverage computed in closed
form); jw_map expands ladder products through the symbolic Pauli algebra.
The two constructions share no code and the test suite holds them equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .pauli import PauliString, PauliSum, _index, _real, identity_string, multiply

__all__ = [
    "FermionError",
    "FermionOperator",
    "creation",
    "annihilation",
    "number",
    "identity_op",
    "jw_map",
    "ExcitationTerm",
    "single",
    "double",
    "controlled_single",
    "higher_excitation",
    "LocalTerm",
    "density_term",
    "coulomb_term",
    "generator_pauli",
    "local_pauli",
    "ladder_form",
    "local_ladder_form",
    "local_equivalence_conjugate",
    "HamiltonianTerms",
    "hamiltonian_ladder",
]


class FermionError(ValueError):
    """Structural error in a fermionic operator or excitation term."""


Factor = tuple[int, bool]  # (mode, is_creation)

_MERGE_EPS = 1e-15


def _bool(value, what: str) -> bool:
    """A flag as a bool: a numpy bool passes, anything else is refused rather
    than read through its truth value."""
    if type(value) is bool:
        return value
    if not isinstance(value, np.bool_):
        raise FermionError(f"{what} must be a bool, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class FermionOperator:
    """Linear combination of ladder-operator products.

    Each product is (coefficient, factors) with factors applied left to
    right as written; textually equal factor sequences are merged.  No
    normal ordering is attempted.
    """

    n_modes: int
    products: tuple[tuple[complex, tuple[Factor, ...]], ...] = ()

    def __post_init__(self) -> None:
        n_modes = _index(self.n_modes, "mode count", FermionError)
        object.__setattr__(self, "n_modes", n_modes)
        merged: dict[tuple[Factor, ...], complex] = {}
        for coeff, factors in self.products:
            factors = tuple((_index(m, "mode", FermionError, n_modes), _bool(c, "creation flag"))
                            for m, c in factors)
            merged[factors] = merged.get(factors, 0) + complex(coeff)
        kept = tuple(
            (c, f) for f, c in sorted(merged.items()) if abs(c) > _MERGE_EPS
        )
        object.__setattr__(self, "products", kept)

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if self.n_modes != other.n_modes:
            raise FermionError("mode count mismatch")
        return FermionOperator(self.n_modes, (*self.products, *other.products))

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, FermionOperator):
            if self.n_modes != other.n_modes:
                raise FermionError("mode count mismatch")
            prods = [
                (ca * cb, fa + fb)
                for ca, fa in self.products
                for cb, fb in other.products
            ]
            return FermionOperator(self.n_modes, tuple(prods))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor: complex) -> "FermionOperator":
        return FermionOperator(
            self.n_modes, tuple((factor * c, f) for c, f in self.products)
        )

    def adjoint(self) -> "FermionOperator":
        prods = []
        for coeff, factors in self.products:
            flipped = tuple((m, not c) for m, c in reversed(factors))
            prods.append((coeff.conjugate(), flipped))
        return FermionOperator(self.n_modes, tuple(prods))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        diff = self - self.adjoint()
        return all(abs(c) <= tol for c, _ in diff.products)

    def is_zero(self) -> bool:
        return not self.products


def identity_op(n_modes: int, coefficient: complex = 1.0) -> FermionOperator:
    return FermionOperator(n_modes, ((coefficient, ()),))


def creation(mode: int, n_modes: int) -> FermionOperator:
    return FermionOperator(n_modes, ((1.0, ((mode, True),)),))


def annihilation(mode: int, n_modes: int) -> FermionOperator:
    return FermionOperator(n_modes, ((1.0, ((mode, False),)),))


def number(mode: int, n_modes: int) -> FermionOperator:
    return FermionOperator(n_modes, ((1.0, ((mode, True), (mode, False))),))


def _ladder_pauli(mode: int, is_creation: bool, n: int) -> PauliSum:
    prefix = {k: "Z" for k in range(mode)}
    x = PauliString(n, {**prefix, mode: "X"})
    y = PauliString(n, {**prefix, mode: "Y"})
    y_coeff = -0.5j if is_creation else 0.5j
    return PauliSum.from_terms(n, [(0.5, x), (y_coeff, y)])


def _sum_product(a: PauliSum, b: PauliSum) -> PauliSum:
    terms = [
        (ca * cb, multiply(sa, sb))
        for ca, sa in a.terms
        for cb, sb in b.terms
    ]
    return PauliSum.from_terms(a.width, terms)


def jw_map(op: FermionOperator) -> PauliSum:
    """Qubit image of a fermionic operator under the parity-string encoding."""
    n = op.n_modes
    out: list[tuple[complex, PauliString]] = []
    for coeff, factors in op.products:
        acc = PauliSum.from_terms(n, [(1.0, identity_string(n))])
        for mode, is_creation in factors:
            acc = _sum_product(acc, _ladder_pauli(mode, is_creation, n))
        out.extend((coeff * c, s) for c, s in acc.terms)
    return PauliSum.from_terms(n, out)


# --- excitation terms ------------------------------------------------------

_KINDS = ("single", "double", "controlled_single", "higher")


@dataclass(frozen=True)
class ExcitationTerm:
    """A canonical excitation generator with a finite real weight.

    sub holds the creation (subscript) modes, sup the annihilation
    (superscript) modes, both strictly ascending; reordering signs are folded
    into the coefficient by the factory functions below.  Modes follow the
    package's index rule and the coefficient its finite-real rule (see
    pauli._index and pauli._real), and the flag is stored as a bool (numpy
    bools are converted); any other type is refused.  A NaN coefficient would
    lose every Pauli string (abs(nan) > eps is false), and ±inf has no circuit.
    """

    kind: str
    sub: tuple[int, ...]
    sup: tuple[int, ...]
    control: int | None = None
    symmetrized: bool = False
    coefficient: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise FermionError(f"unknown excitation kind {self.kind!r}")
        sub = tuple([_index(m, "mode", FermionError) for m in self.sub])
        sup = tuple([_index(m, "mode", FermionError) for m in self.sup])
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "sup", sup)
        if self.control is not None:
            object.__setattr__(self, "control", _index(self.control, "mode", FermionError))
        object.__setattr__(self, "symmetrized", _bool(self.symmetrized, "symmetrized"))
        coefficient = _real(self.coefficient, "coefficient", FermionError)
        object.__setattr__(self, "coefficient", coefficient)
        if sorted(set(sub)) != list(sub) or sorted(set(sup)) != list(sup):
            raise FermionError("mode lists must be ascending without repeats (use the factories)")
        if set(sub) & set(sup):
            raise FermionError("creation and annihilation modes must be disjoint")
        if self.kind == "single":
            if len(sub) != 1 or len(sup) != 1 or self.control is not None:
                raise FermionError("single takes one creation and one annihilation mode")
            if sub[0] > sup[0]:
                raise FermionError("single must have its smaller mode in the subscript")
        elif self.kind == "double":
            if len(sub) != 2 or len(sup) != 2 or self.control is not None:
                raise FermionError("double takes two creation and two annihilation modes")
            if min(sub) > min(sup):
                raise FermionError("double must carry the overall smallest mode in the subscript")
        elif self.kind == "controlled_single":
            if len(sub) != 1 or len(sup) != 1 or self.control is None:
                raise FermionError("controlled_single takes modes p, q and a control")
            if self.control in sub + sup:
                raise FermionError("control mode must differ from p and q")
            if sub[0] > sup[0]:
                raise FermionError("controlled_single must have p < q")
        else:
            if len(sub) != len(sup) or not sub:
                raise FermionError("higher excitation needs equal-length non-empty mode lists")
            if self.control is not None:
                raise FermionError("higher excitation takes no control")

    @property
    def letter_modes(self) -> tuple[int, ...]:
        """Modes that carry X/Y letters in the Pauli image, ascending."""
        return tuple(sorted(self.sub + self.sup))

    @property
    def modes(self) -> tuple[int, ...]:
        extra = (self.control,) if self.control is not None else ()
        return tuple(sorted(self.sub + self.sup + extra))

    def key(self) -> tuple:
        """Identity of the generator shape, ignoring the coefficient."""
        return (self.kind, self.sub, self.sup, self.control, self.symmetrized)


def _sort_parity(seq: Iterable[int]) -> tuple[tuple[int, ...], int]:
    items = list(seq)
    inversions = sum(
        1
        for i in range(len(items))
        for j in range(i + 1, len(items))
        if items[i] > items[j]
    )
    return tuple(sorted(items)), -1 if inversions % 2 else 1


def _single_order(p: int, q: int, symmetrized: bool) -> tuple[int, int, float]:
    """The modes of a (controlled) single, smaller first, and the sign that
    costs: swapping the creation and annihilation side is the adjoint, which
    negates an antisymmetrized generator and keeps a symmetrized one."""
    if p > q:
        return q, p, 1.0 if symmetrized else -1.0
    return p, q, 1.0


def _double_order(p: int, q: int, r: int, s: int,
                  symmetrized: bool) -> tuple[tuple[int, int], tuple[int, int], float]:
    """The pairs of a double (or coulomb term), each ascending and the one with
    the smallest mode first, and the sign that costs: a swap inside a pair
    negates, a swap of the pairs acts as in _single_order."""
    sign = 1.0
    if p > q:
        p, q, sign = q, p, -sign
    if r > s:
        r, s, sign = s, r, -sign
    if p > r:
        (p, q), (r, s) = (r, s), (p, q)
        if not symmetrized:
            sign = -sign
    return (p, q), (r, s), sign


# The factories check the coefficient before the reordering sign multiplies
# it: True * 1.0 is 1.0, which ExcitationTerm could no longer refuse.
def single(p: int, q: int, coefficient: float = 1.0, symmetrized: bool = False) -> ExcitationTerm:
    if p == q:
        raise FermionError("single excitation needs two distinct modes")
    p, q, sign = _single_order(p, q, symmetrized)
    coefficient = _real(coefficient, "coefficient", FermionError) * sign
    return ExcitationTerm("single", (p,), (q,), None, symmetrized, coefficient)


def double(p: int, q: int, r: int, s: int, coefficient: float = 1.0,
           symmetrized: bool = False) -> ExcitationTerm:
    """Double excitation with creation pair (p,q), annihilation pair (r,s)."""
    if len({p, q, r, s}) != 4:
        raise FermionError("double excitation needs four distinct modes")
    sub, sup, sign = _double_order(p, q, r, s, symmetrized)
    coefficient = _real(coefficient, "coefficient", FermionError) * sign
    return ExcitationTerm("double", sub, sup, None, symmetrized, coefficient)


def controlled_single(p: int, q: int, j: int, coefficient: float = 1.0,
                      symmetrized: bool = False) -> ExcitationTerm:
    if p == q or j in (p, q):
        raise FermionError("controlled single needs distinct p, q and control")
    p, q, sign = _single_order(p, q, symmetrized)
    coefficient = _real(coefficient, "coefficient", FermionError) * sign
    return ExcitationTerm("controlled_single", (p,), (q,), j, symmetrized, coefficient)


def higher_excitation(sub_modes: Iterable[int], sup_modes: Iterable[int],
                      coefficient: float = 1.0, symmetrized: bool = False) -> ExcitationTerm:
    sub, sign_sub = _sort_parity(sub_modes)
    sup, sign_sup = _sort_parity(sup_modes)
    if len(set(sub)) != len(sub) or len(set(sup)) != len(sup):
        raise FermionError("repeated mode in excitation list")
    coefficient = _real(coefficient, "coefficient", FermionError) * sign_sub * sign_sup
    return ExcitationTerm("higher", sub, sup, None, symmetrized, coefficient)


# --- local (diagonal) terms ------------------------------------------------

@dataclass(frozen=True)
class LocalTerm:
    """Occupation-diagonal Hamiltonian piece.

    density(p): generator 2 n_p, Pauli image I - Z_p.
    coulomb(p,q): generator -2 n_p n_q, image -(I - Z_p - Z_q + Z_p Z_q)/2.
    """

    kind: str
    modes: tuple[int, ...]
    coefficient: float = 1.0

    def __post_init__(self) -> None:
        modes = tuple([_index(m, "mode", FermionError) for m in self.modes])
        object.__setattr__(self, "modes", modes)
        coefficient = _real(self.coefficient, "coefficient", FermionError)
        object.__setattr__(self, "coefficient", coefficient)
        if self.kind == "density":
            if len(modes) != 1:
                raise FermionError("density term takes one mode")
        elif self.kind == "coulomb":
            if len(modes) != 2 or modes[0] >= modes[1]:
                raise FermionError("coulomb term takes two ascending modes")
        else:
            raise FermionError(f"unknown local kind {self.kind!r}")

    def key(self) -> tuple:
        return (self.kind, self.modes)


def density_term(p: int, coefficient: float = 1.0) -> LocalTerm:
    return LocalTerm("density", (p,), coefficient)


def coulomb_term(p: int, q: int, coefficient: float = 1.0) -> LocalTerm:
    if p == q:
        raise FermionError("coulomb term needs two distinct modes")
    return LocalTerm("coulomb", (min(p, q), max(p, q)), coefficient)


def local_pauli(t: LocalTerm, n_modes: int | None = None) -> PauliSum:
    n = (max(t.modes) + 1) if n_modes is None else n_modes
    c = t.coefficient
    if t.kind == "density":
        (p,) = t.modes
        terms = [(c, identity_string(n)), (-c, PauliString(n, {p: "Z"}))]
    else:
        p, q = t.modes
        terms = [
            (-c / 2, identity_string(n)),
            (c / 2, PauliString(n, {p: "Z"})),
            (c / 2, PauliString(n, {q: "Z"})),
            (-c / 2, PauliString(n, {p: "Z", q: "Z"})),
        ]
    return PauliSum.from_terms(n, terms)


def local_ladder_form(t: LocalTerm, n_modes: int) -> FermionOperator:
    if t.kind == "density":
        return number(t.modes[0], n_modes).scale(2 * t.coefficient)
    p, q = t.modes
    return (number(p, n_modes) * number(q, n_modes)).scale(-2 * t.coefficient)


# --- generator construction ------------------------------------------------

def _ladder_sequences(t: ExcitationTerm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Literal creation/annihilation mode orderings of the generator."""
    if t.kind == "controlled_single":
        return (t.sub[0], t.control), (t.sup[0], t.control)
    return t.sub, t.sup


def ladder_form(t: ExcitationTerm, n_modes: int | None = None) -> FermionOperator:
    """The generator as an explicit ladder-operator expression."""
    subs, sups = _ladder_sequences(t)
    n = (max(max(subs), max(sups)) + 1) if n_modes is None else n_modes
    a = identity_op(n)
    for m in subs:
        a = a * creation(m, n)
    for m in sups:
        a = a * annihilation(m, n)
    if t.symmetrized:
        op = a + a.adjoint()
    else:
        op = (a - a.adjoint()).scale(1j)
    return op.scale(t.coefficient)


def _distinct_mode_generator(
    sub: tuple[int, ...],
    sup: tuple[int, ...],
    symmetrized: bool,
    coefficient: float,
    n: int,
) -> list[tuple[float, PauliString]]:
    """Closed-form Pauli expansion of a generator on distinct modes.

    The letter words run over {X,Y}^(2N) on the sorted mode positions; the
    antisymmetrized generator keeps odd-Y words, the symmetrized one even-Y
    words.  Reordering the ladder factors into sorted-sub + sorted-sup order
    contributes the sign sigma computed below, and every mode covered by an
    odd number of parity strings carries a Z.
    """
    positions = sorted(sub + sup)
    k = len(positions)
    factors = [(m, True) for m in sub] + [(m, False) for m in sup]
    sigma = 1
    for i, (m, is_creation) in enumerate(factors):
        if is_creation:
            crossings = sum(1 for j in range(i) if factors[j][0] > m)
        else:
            crossings = sum(1 for j in range(i + 1, k) if factors[j][0] > m)
        if crossings % 2:
            sigma = -sigma
    in_window = set(positions)
    z_modes = [
        m
        for m in range(n)
        if m not in in_window and sum(1 for pos in positions if pos > m) % 2
    ]
    sup_set = set(sup)
    prefactor = coefficient * sigma * 2.0 / (2 ** k)
    out = []
    for word in itertools.product((0, 1), repeat=k):  # 1 marks a Y
        y_total = sum(word)
        if (y_total % 2 == 0) != symmetrized:
            continue
        y_sup = sum(y for y, pos in zip(word, positions) if pos in sup_set)
        y_sub = y_total - y_sup
        diff = (y_sup - y_sub) % 4
        if symmetrized:
            weight = 1.0 if diff == 0 else -1.0
        else:
            weight = 1.0 if diff == 3 else -1.0
        letters = {pos: ("Y" if y else "X") for y, pos in zip(word, positions)}
        letters.update({m: "Z" for m in z_modes})
        out.append((prefactor * weight, PauliString(n, letters)))
    return out


def generator_pauli(t: ExcitationTerm, n_modes: int | None = None) -> PauliSum:
    """Pauli form of an excitation generator, built combinatorially."""
    n = (max(t.modes) + 1) if n_modes is None else n_modes
    if max(t.modes) >= n:
        raise FermionError(f"term touches mode {max(t.modes)} outside 0..{n - 1}")
    if t.kind in ("single", "double", "higher"):
        terms = _distinct_mode_generator(t.sub, t.sup, t.symmetrized, t.coefficient, n)
        return PauliSum.from_terms(n, terms)
    # controlled single: -n_j times the plain generator on (p, q)
    base = _distinct_mode_generator(t.sub, t.sup, t.symmetrized, t.coefficient, n)
    z_control = PauliString(n, {t.control: "Z"})
    terms = []
    for c, s in base:
        terms.append((-0.5 * c, s))
        terms.append((0.5 * c, multiply(z_control, s)))
    return PauliSum.from_terms(n, terms)


def local_equivalence_conjugate(t: ExcitationTerm, j: int) -> tuple[ExcitationTerm, int]:
    """Image of the generator under conjugation by exp(-i pi/2 n_j).

    Conjugating a creation operator on mode j scales it by -i and an
    annihilation operator by +i, so an antisymmetrized generator whose
    subscript contains j maps to +1 times its symmetrized partner, one whose
    superscript contains j maps to -1 times it, and anything not touching j
    (the control mode included) is left alone.  Returns (term, sign) with the
    term's coefficient unchanged.
    """
    if t.symmetrized:
        raise FermionError("conjugation acts on antisymmetrized terms")
    if j in t.sub:
        return replace(t, symmetrized=True), 1
    if j in t.sup:
        return replace(t, symmetrized=True), -1
    return t, 1


# --- Hamiltonian splitting ---------------------------------------------------

@dataclass(frozen=True)
class HamiltonianTerms:
    """Weighted generator decomposition of an electronic Hamiltonian.

    The mode count, the reality class and the constant are checked here; the
    terms are not, since every op builds these and assemble checks its terms.
    """

    n_modes: int
    reality: str
    constant: float
    local_terms: tuple[LocalTerm, ...]
    excitation_terms: tuple[ExcitationTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_modes", _index(self.n_modes, "mode count", FermionError))
        if self.reality not in ("real", "complex"):
            raise FermionError(f"unknown reality class {self.reality!r}")
        object.__setattr__(self, "constant", _real(self.constant, "constant", FermionError))

    def pauli_sum(self, n_modes: int | None = None) -> PauliSum:
        n = self.n_modes if n_modes is None else n_modes
        terms: list[tuple[complex, PauliString]] = [
            (self.constant, identity_string(n))
        ]
        for lt in self.local_terms:
            terms.extend(local_pauli(lt, n).terms)
        for et in self.excitation_terms:
            terms.extend(generator_pauli(et, n).terms)
        return PauliSum.from_terms(n, terms)

    @classmethod
    def assemble(cls, n_modes: int, reality: str, constant: float,
                 local_terms, excitation_terms) -> "HamiltonianTerms":
        """Merge duplicate term keys and apply the canonical ordering."""
        n_modes = _index(n_modes, "mode count", FermionError)
        acc = _Accumulator()
        for lt in local_terms:
            if max(lt.modes) >= n_modes:
                raise FermionError(f"local term {lt} exceeds {n_modes} modes")
            acc.add(lt)
        for et in excitation_terms:
            if max(et.modes) >= n_modes:
                raise FermionError(f"term {et} exceeds {n_modes} modes")
            acc.add(et)
        return acc.finish(n_modes, reality, constant)


_DROP_EPS = 1e-14


def _digit_codes(base: int, dtype, digits):
    """The integers with the given digits in base, most significant first, as
    a new array of dtype.  The first digit is an array and may exceed base;
    the others are arrays or scalars below base.  Codes with the same first
    digit order as their digit tuples do."""
    first, *rest = digits
    codes = first.astype(dtype)
    for digit in rest:
        codes *= base
        codes += digit
    return codes


def _key_codes(n_modes: int, kind, symmetrized, modes):
    """Term keys (kind, symmetrized, m0, m1, m2, m3) as integers: the digits
    of 2 * kind + symmetrized and the modes in base n_modes.  kind is 0 for a
    coulomb term, 1 for a double and 2 for a controlled single, so every code
    lies below 6 * n_modes**4 and no two keys share one."""
    lead = np.uint8(2) * kind + symmetrized
    return _digit_codes(n_modes, np.min_scalar_type(6 * n_modes**4 - 1), (lead, *modes))


def _pair_codes(n_modes: int, a, b, c, d, symmetrized, coulomb):
    """_double_order over arrays: where the sign flips, and the key codes of
    the doubles (or coulomb terms) with pairs (a, b) and (c, d)."""
    negate = (a > b) ^ (c > d)
    low1, high1, low2, high2 = np.minimum(a, b), np.maximum(a, b), np.minimum(c, d), np.maximum(c, d)
    swap = low1 > low2
    negate ^= swap & ~symmetrized
    modes = (np.where(swap, low2, low1), np.where(swap, high2, high1),
             np.where(swap, low1, low2), np.where(swap, high1, high2))
    return negate, _key_codes(n_modes, ~coulomb, symmetrized, modes)


def _controlled_codes(n_modes: int, a, b, c, d, symmetrized):
    """Where the sign flips, and the key codes of the controlled singles with
    pairs (a, b) and (c, d) sharing one mode j: j moves last in both pairs,
    each move flipping the sign, then _single_order orders the other two."""
    a_shared, c_shared = (a == c) | (a == d), (a == c) | (b == c)
    p, r = np.where(a_shared, b, a), np.where(c_shared, d, c)
    negate = a_shared ^ c_shared ^ ((p > r) & ~symmetrized)
    modes = (np.minimum(p, r), np.maximum(p, r), np.where(a_shared, a, b), 0)
    return negate, _key_codes(n_modes, 2, symmetrized, modes)


def _quartic_codes(n_modes: int, a, b, c, d, weight, symmetrized):
    """The term key codes (_key_codes) and signed coefficients of the kept
    calls weight[i] * (anti)symmetrized generator of a+_a[i] a+_b[i] a_c[i]
    a_d[i], in call order.

    A call is dropped when |weight| <= _DROP_EPS, a == b or c == d, and so is
    the antisymmetrized part of an occupation (coulomb) term, which vanishes.
    The modes the two pairs share classify the rest: two make a coulomb term,
    one a controlled single on the shared mode, none a double.
    """
    keep = (a != b) & (c != d) & (np.abs(weight) > _DROP_EPS)
    ac, ad, bc, bd = a == c, a == d, b == c, b == d
    coulomb = (ac & bd) | (ad & bc)
    keep &= symmetrized | ~coulomb
    controlled = (ac | ad | bc | bd) & ~coulomb
    del ac, ad, bc, bd
    a, b, c, d, weight, symmetrized, coulomb, controlled = (
        x[keep] for x in (a, b, c, d, weight, symmetrized, coulomb, controlled))
    negate, codes = _pair_codes(n_modes, a, b, c, d, symmetrized, coulomb)
    i = np.flatnonzero(controlled)
    negate[i], codes[i] = _controlled_codes(n_modes, *(x[i] for x in (a, b, c, d, symmetrized)))
    np.negative(weight, out=weight, where=negate)
    return codes, weight


class _Accumulator:
    """Sums coefficients per term shape in addition order; terms are built in finish.

    A key is (term class, term.key()), and term.key() lists the class's
    fields in order up to the coefficient, so cls(*key, coefficient) rebuilds
    the term.
    """

    def __init__(self) -> None:
        self.weights: dict[tuple, float] = {}

    def add(self, term: LocalTerm | ExcitationTerm) -> None:
        key = (type(term), term.key())
        self.weights[key] = self.weights.get(key, 0.0) + term.coefficient

    def quartics(self, n_modes: int, a, b, c, d, weight, symmetrized) -> None:
        """Accumulate weight[i] * (anti)symmetrized generator of
        a+_a[i] a+_b[i] a_c[i] a_d[i] over the calls i, in call order.

        The arguments are equal-length numpy arrays: unsigned modes below
        n_modes, float64 weights and bool flags.  np.bincount sums the
        coefficients into one bin per term key code (_quartic_codes), adding
        each bin's inputs one after another in call order, so each total is
        the float sum that adding the calls' terms one by one would give.
        Bins that stay exactly zero are skipped, as finish would drop them.
        Adding a total to its key's running sum keeps that exact where no
        earlier add used the key, as in term_list, whose one-body pass makes
        only density and single terms.
        """
        codes, coefficients = _quartic_codes(n_modes, a, b, c, d, weight, symmetrized)
        totals = np.bincount(codes, coefficients)
        del codes, coefficients
        codes = np.flatnonzero(totals)
        totals = totals[codes].tolist()
        digits = []
        for _ in range(4):
            codes, digit = np.divmod(codes, n_modes)
            digits.insert(0, digit.tolist())
        for kind_sym, m0, m1, m2, m3, total in zip(codes.tolist(), *digits, totals):
            kind, sym = divmod(kind_sym, 2)
            if kind == 0:
                key = (LocalTerm, ("coulomb", (m0, m1)))
            elif kind == 1:
                key = (ExcitationTerm, ("double", (m0, m1), (m2, m3), None, bool(sym)))
            else:
                key = (ExcitationTerm, ("controlled_single", (m0,), (m1,), m2, bool(sym)))
            self.weights[key] = self.weights.get(key, 0.0) + total

    def finish(self, n_modes: int, reality: str, constant: float) -> HamiltonianTerms:
        terms = [cls(*key, c) for (cls, key), c in self.weights.items() if abs(c) > _DROP_EPS]
        local_order = {"density": 0, "coulomb": 1}
        locals_out = tuple(
            sorted(
                (t for t in terms if isinstance(t, LocalTerm)),
                key=lambda t: (local_order[t.kind], t.modes),
            )
        )
        kind_order = {"single": 0, "double": 1, "controlled_single": 2, "higher": 3}
        exc_out = tuple(
            sorted(
                (t for t in terms if isinstance(t, ExcitationTerm)),
                key=lambda t: (
                    t.modes,
                    kind_order[t.kind],
                    t.sub,
                    t.sup,
                    -1 if t.control is None else t.control,
                    t.symmetrized,
                ),
            )
        )
        return HamiltonianTerms(n_modes, reality, constant, locals_out, exc_out)


def hamiltonian_ladder(table) -> FermionOperator:
    """The electronic Hamiltonian as raw ladder products (test oracle form):
    sum_pq h_pq a†_p a_q + 1/2 sum_pqrs h_pqrs a†_p a†_q a_r a_s + shift."""
    n = table.n_modes
    products: list[tuple[complex, tuple[Factor, ...]]] = [
        (complex(table.constant), ())
    ]
    for p in range(n):
        for q in range(n):
            h = complex(table.one_body_value(p, q))
            if abs(h) > _DROP_EPS:
                products.append((h, ((p, True), (q, False))))
    for p, q, r, s in itertools.product(range(n), repeat=4):
        h = complex(table.two_body_value(p, q, r, s))
        if abs(h) > _DROP_EPS:
            products.append(
                (0.5 * h, ((p, True), (q, True), (r, False), (s, False)))
            )
    return FermionOperator(n, tuple(products))
