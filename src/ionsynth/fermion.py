"""Excitation and local terms, their Jordan-Wigner Pauli forms, the
number-operator symmetrization algebra and the Hamiltonian term list.

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
form); verify.dense_ladder is the independent reference it is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .pauli import PauliString, PauliSum, _index, _real, identity_string, multiply

__all__ = [
    "FermionError",
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
    "local_equivalence_conjugate",
    "HamiltonianTerms",
]


class FermionError(ValueError):
    """Structural error in an excitation term, local term or term list."""


def _bool(value, what: str) -> bool:
    """A flag as a bool: a numpy bool passes, anything else is refused rather
    than read through its truth value."""
    if type(value) is bool:
        return value
    if not isinstance(value, np.bool_):
        raise FermionError(f"{what} must be a bool, got {value!r}")
    return bool(value)


# --- excitation terms ------------------------------------------------------

_KINDS = ("single", "double", "controlled_single", "higher")


@dataclass(frozen=True, init=False)
class ExcitationTerm:
    """A canonical excitation generator with a finite real weight.

    sub holds the creation (subscript) modes, sup the annihilation
    (superscript) modes, both strictly ascending; reordering signs are folded
    into the coefficient by the factory functions below.  Modes follow the
    package's index rule and the coefficient its finite-real rule (see
    pauli._index and pauli._real), and the flag is stored as a bool (numpy
    bools are converted); any other type is refused.  A NaN coefficient would
    lose every Pauli string (abs(nan) > eps is false), and ±inf has no circuit.

    The constructor checks and sets each field once.  It also stores, outside
    the fields, letter_modes (the modes that carry X/Y letters in the Pauli
    image) and modes (those and the control), each ascending, so sorting,
    fusion and synthesis read them without sorting again; equality, hashing,
    repr and dataclasses.replace see only the fields.
    """

    kind: str
    sub: tuple[int, ...]
    sup: tuple[int, ...]
    control: int | None = None
    symmetrized: bool = False
    coefficient: float = 1.0

    def __init__(self, kind: str, sub: tuple[int, ...], sup: tuple[int, ...],
                 control: int | None = None, symmetrized: bool = False,
                 coefficient: float = 1.0) -> None:
        if kind not in _KINDS:
            raise FermionError(f"unknown excitation kind {kind!r}")
        sub = tuple([_index(m, "mode", FermionError) for m in sub])
        sup = tuple([_index(m, "mode", FermionError) for m in sup])
        if control is not None:
            control = _index(control, "mode", FermionError)
        symmetrized = _bool(symmetrized, "symmetrized")
        coefficient = _real(coefficient, "coefficient", FermionError)
        if sorted(set(sub)) != list(sub) or sorted(set(sup)) != list(sup):
            raise FermionError("mode lists must be ascending without repeats (use the factories)")
        letter_modes = tuple(sorted(sub + sup))
        if len(set(letter_modes)) != len(letter_modes):
            raise FermionError("creation and annihilation modes must be disjoint")
        if kind == "single":
            if len(sub) != 1 or len(sup) != 1 or control is not None:
                raise FermionError("single takes one creation and one annihilation mode")
            if sub[0] > sup[0]:
                raise FermionError("single must have its smaller mode in the subscript")
        elif kind == "double":
            if len(sub) != 2 or len(sup) != 2 or control is not None:
                raise FermionError("double takes two creation and two annihilation modes")
            if sub[0] > sup[0]:
                raise FermionError("double must carry the overall smallest mode in the subscript")
        elif kind == "controlled_single":
            if len(sub) != 1 or len(sup) != 1 or control is None:
                raise FermionError("controlled_single takes modes p, q and a control")
            if control in letter_modes:
                raise FermionError("control mode must differ from p and q")
            if sub[0] > sup[0]:
                raise FermionError("controlled_single must have p < q")
        else:
            if len(sub) != len(sup) or not sub:
                raise FermionError("higher excitation needs equal-length non-empty mode lists")
            if control is not None:
                raise FermionError("higher excitation takes no control")
        modes = letter_modes if control is None else tuple(sorted(letter_modes + (control,)))
        # one update of the instance dict, which a frozen dataclass leaves writable
        self.__dict__.update(kind=kind, sub=sub, sup=sup, control=control, symmetrized=symmetrized,
                             coefficient=coefficient, letter_modes=letter_modes, modes=modes)

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

@dataclass(frozen=True, init=False)
class LocalTerm:
    """Occupation-diagonal Hamiltonian piece.

    density(p): generator 2 n_p, Pauli image I - Z_p.
    coulomb(p,q): generator -2 n_p n_q, image -(I - Z_p - Z_q + Z_p Z_q)/2.
    The constructor checks and sets each field once.
    """

    kind: str
    modes: tuple[int, ...]
    coefficient: float = 1.0

    def __init__(self, kind: str, modes: tuple[int, ...], coefficient: float = 1.0) -> None:
        modes = tuple([_index(m, "mode", FermionError) for m in modes])
        coefficient = _real(coefficient, "coefficient", FermionError)
        if kind == "density":
            if len(modes) != 1:
                raise FermionError("density term takes one mode")
        elif kind == "coulomb":
            if len(modes) != 2 or modes[0] >= modes[1]:
                raise FermionError("coulomb term takes two ascending modes")
        else:
            raise FermionError(f"unknown local kind {kind!r}")
        self.__dict__.update(kind=kind, modes=modes, coefficient=coefficient)

    def key(self) -> tuple:
        return (self.kind, self.modes)


def density_term(p: int, coefficient: float = 1.0) -> LocalTerm:
    return LocalTerm("density", (p,), coefficient)


def coulomb_term(p: int, q: int, coefficient: float = 1.0) -> LocalTerm:
    if p == q:
        raise FermionError("coulomb term needs two distinct modes")
    return LocalTerm("coulomb", (min(p, q), max(p, q)), coefficient)


def _register(t: LocalTerm | ExcitationTerm, n_modes: int | None) -> int:
    """The width of t's Pauli form: n_modes, which must hold every mode of t,
    or just wide enough for t when n_modes is None."""
    top = t.modes[-1]
    if n_modes is None:
        return top + 1
    n = _index(n_modes, "mode count", FermionError)
    if top >= n:
        raise FermionError(f"term touches mode {top} outside 0..{n - 1}")
    return n


def local_pauli(t: LocalTerm, n_modes: int | None = None) -> PauliSum:
    n = _register(t, n_modes)
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
    return PauliSum(n, terms)


# --- generator construction ------------------------------------------------

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
    n = _register(t, n_modes)
    if t.kind in ("single", "double", "higher"):
        terms = _distinct_mode_generator(t.sub, t.sup, t.symmetrized, t.coefficient, n)
        return PauliSum(n, terms)
    # controlled single: -n_j times the plain generator on (p, q)
    base = _distinct_mode_generator(t.sub, t.sup, t.symmetrized, t.coefficient, n)
    z_control = PauliString(n, {t.control: "Z"})
    terms = []
    for c, s in base:
        terms.append((-0.5 * c, s))
        terms.append((0.5 * c, multiply(z_control, s)))
    return PauliSum(n, terms)


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

_DROP_EPS = 1e-14

_LOCAL_RANK = {"density": 0, "coulomb": 1}
_KIND_RANK = {kind: rank for rank, kind in enumerate(_KINDS)}


def _local_order(t: LocalTerm) -> tuple:
    return _LOCAL_RANK[t.kind], t.modes


def _excitation_order(t: ExcitationTerm) -> tuple:
    control = -1 if t.control is None else t.control
    return t.modes, _KIND_RANK[t.kind], t.sub, t.sup, control, t.symmetrized


def _canonical_terms(terms, cls: type, slot: str, n_modes: int, order) -> tuple:
    """terms as HamiltonianTerms keeps them in ``slot``: each checked to be a
    cls within n_modes, same-key terms merged into one whose coefficient is
    their sum in the order given, coefficients of magnitude _DROP_EPS and
    below dropped, and the rest sorted by order."""
    merged: dict[tuple, LocalTerm | ExcitationTerm] = {}
    for t in terms:
        if not isinstance(t, cls):
            raise FermionError(f"{slot} takes {cls.__name__} objects, got {t!r}")
        if t.modes[-1] >= n_modes:
            raise FermionError(f"term {t} exceeds {n_modes} modes")
        key = t.key()
        if key in merged:
            t = replace(t, coefficient=merged[key].coefficient + t.coefficient)
        merged[key] = t
    return tuple(sorted((t for t in merged.values() if abs(t.coefficient) > _DROP_EPS), key=order))


@dataclass(frozen=True)
class HamiltonianTerms:
    """Weighted generator decomposition of an electronic Hamiltonian, in
    canonical form.

    The constructor checks the mode count, the reality class and the
    constant, and every term: local_terms takes LocalTerm objects and
    excitation_terms ExcitationTerm objects, each within n_modes.  Terms of
    equal key() are merged, and the terms are put in canonical order (see
    _canonical_terms): local terms density first, then coulomb, each by
    modes; excitation terms by modes, then kind, sub, sup, control and flag.
    A Trotter step applies the excitation terms in this order.
    """

    n_modes: int
    reality: str
    constant: float
    local_terms: tuple[LocalTerm, ...]
    excitation_terms: tuple[ExcitationTerm, ...]

    def __post_init__(self) -> None:
        n_modes = _index(self.n_modes, "mode count", FermionError)
        object.__setattr__(self, "n_modes", n_modes)
        if self.reality not in ("real", "complex"):
            raise FermionError(f"unknown reality class {self.reality!r}")
        object.__setattr__(self, "constant", _real(self.constant, "constant", FermionError))
        local = _canonical_terms(self.local_terms, LocalTerm, "local_terms", n_modes, _local_order)
        excitations = _canonical_terms(self.excitation_terms, ExcitationTerm, "excitation_terms",
                                       n_modes, _excitation_order)
        object.__setattr__(self, "local_terms", local)
        object.__setattr__(self, "excitation_terms", excitations)

    def pauli_sum(self, n_modes: int | None = None) -> PauliSum:
        n = self.n_modes if n_modes is None else _index(n_modes, "mode count", FermionError)
        terms: list[tuple[complex, PauliString]] = [
            (self.constant, identity_string(n))
        ]
        for lt in self.local_terms:
            terms.extend(local_pauli(lt, n).terms)
        for et in self.excitation_terms:
            terms.extend(generator_pauli(et, n).terms)
        return PauliSum(n, terms)


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


def _code_digits(base: int, codes, count: int) -> list[list]:
    """The inverse of _digit_codes: what each code holds above its last count
    digits in base, then those digits, most significant first, as lists."""
    digits = []
    for _ in range(count):
        # not np.divmod, which refuses the object arrays of codes past 64 bits
        codes, digit = codes // base, codes % base
        digits.insert(0, digit.tolist())
    return [codes.tolist(), *digits]


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


def _quartic_terms(n_modes: int, a, b, c, d, weight, symmetrized):
    """The local and the excitation terms of weight[i] * (anti)symmetrized
    generator of a+_a[i] a+_b[i] a_c[i] a_d[i] summed over the calls i, as
    two lists: coulomb terms, then doubles and controlled singles.

    The arguments are equal-length numpy arrays: unsigned modes below
    n_modes, float64 weights and bool flags.  np.bincount sums the
    coefficients into one bin per term key code (_quartic_codes), adding
    each bin's inputs one after another in call order, so each total is the
    float sum that adding the calls' terms one by one would give.  Bins that
    stay exactly zero are skipped; HamiltonianTerms drops the other small ones.
    """
    codes, coefficients = _quartic_codes(n_modes, a, b, c, d, weight, symmetrized)
    totals = np.bincount(codes, coefficients)
    del codes, coefficients
    codes = np.flatnonzero(totals)
    totals = totals[codes].tolist()
    local: list[LocalTerm] = []
    excitations: list[ExcitationTerm] = []
    for kind_sym, m0, m1, m2, m3, total in zip(*_code_digits(n_modes, codes, 4), totals):
        kind, sym = divmod(kind_sym, 2)
        if kind == 0:
            local.append(LocalTerm("coulomb", (m0, m1), total))
        elif kind == 1:
            excitations.append(ExcitationTerm("double", (m0, m1), (m2, m3), None, bool(sym), total))
        else:
            excitations.append(
                ExcitationTerm("controlled_single", (m0,), (m1,), m2, bool(sym), total))
    return local, excitations
