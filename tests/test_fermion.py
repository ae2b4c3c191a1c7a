"""Excitation terms, their closed-form Pauli generators, local terms and
term lists.

The closed-form generator construction is held against the ladder-operator
reference verify.dense_ladder on dense matrices: that oracle acts with each
a_p and a_p† on basis indices by bit masks, and shares no code with pauli or
generator_pauli.  The first tests below pin the oracle's own conventions.
"""

import itertools
from dataclasses import FrozenInstanceError, astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ionsynth.fermion import (
    ExcitationTerm,
    FermionError,
    HamiltonianTerms,
    LocalTerm,
    controlled_single,
    coulomb_term,
    density_term,
    double,
    generator_pauli,
    higher_excitation,
    local_equivalence_conjugate,
    local_pauli,
    single,
)
from ionsynth.pauli import PauliString, PauliSum
from ionsynth.verify import VerifyError, dense_ladder, dense_pauli, dense_sum

RNG = np.random.default_rng(416)


def as_dict(ps: PauliSum) -> dict:
    return {s.label(): c for c, s in ps.terms}


def dense(ps: PauliSum) -> np.ndarray:
    return dense_sum(ps)


def ladder(n: int, *factors) -> np.ndarray:
    """dense_ladder of one unit-weight product on n modes."""
    return dense_ladder([(1.0, factors)], n)


def ladder_generator(subs, sups, coefficient: float, symmetrized: bool) -> list:
    """dense_ladder products of the generator of A = a†_subs... a_sups... in
    the order given: i(A - A†), or A + A† when symmetrized."""
    a = tuple((m, True) for m in subs) + tuple((m, False) for m in sups)
    a_dag = tuple((m, not c) for m, c in reversed(a))
    if symmetrized:
        return [(coefficient, a), (coefficient, a_dag)]
    return [(1j * coefficient, a), (-1j * coefficient, a_dag)]


def term_ladder(t: ExcitationTerm) -> list:
    """The term's literal ladder products; a controlled single's are
    a†_p a†_j a_q a_j."""
    if t.kind == "controlled_single":
        return ladder_generator((t.sub[0], t.control), (t.sup[0], t.control),
                                t.coefficient, t.symmetrized)
    return ladder_generator(t.sub, t.sup, t.coefficient, t.symmetrized)


def local_ladder(t: LocalTerm) -> list:
    """dense_ladder products of a local term: 2c n_p, or -2c n_p n_q."""
    if t.kind == "density":
        (p,) = t.modes
        return [(2 * t.coefficient, ((p, True), (p, False)))]
    p, q = t.modes
    return [(-2 * t.coefficient, ((p, True), (p, False), (q, True), (q, False)))]


# --- the ladder oracle's conventions -------------------------------------------

def test_products_merge_and_drop():
    """Every product is added into the one matrix: equal ones add, opposite
    ones cancel."""
    once = ladder(2, (0, True))
    assert np.array_equal(dense_ladder([(1.0, ((0, True),))] * 2, 2), 2 * once)
    assert not dense_ladder([(1.0, ((0, True),)), (-1.0, ((0, True),))], 2).any()


def test_mode_range_checked():
    with pytest.raises(VerifyError, match="mode 3 outside 0..2"):
        ladder(3, (3, True))
    with pytest.raises(VerifyError, match="negative mode -1"):
        ladder(3, (-1, False))


def test_adjoint_reverses_and_flips():
    """The product with its factors reversed and its flags flipped is the
    conjugate transpose."""
    op = ladder(3, (0, True), (2, False))
    assert np.array_equal(ladder(3, (2, True), (0, False)), op.conj().T)
    assert not np.array_equal(op, op.conj().T)
    assert np.array_equal(dense_ladder([(2.5, ())], 3), 2.5 * np.eye(8))


def test_scalar_and_operator_products():
    """Factors are written left to right, so the rightmost acts first: a
    product is the matrix product of its factors, times its coefficient."""
    got = dense_ladder([(2.0, ((1, True), (0, False)))], 2)
    assert np.array_equal(got, 2.0 * ladder(2, (1, True)) @ ladder(2, (0, False)))
    assert not np.array_equal(got, 2.0 * ladder(2, (0, False)) @ ladder(2, (1, True)))


@pytest.mark.parametrize("flag", [True, False, np.bool_(True), np.bool_(False)])
def test_operator_stores_bool_creation_flags(flag):
    """numpy modes and flags act as the int and bool they equal."""
    got = dense_ladder([(1.0, ((np.int64(1), flag),))], 2)
    assert np.array_equal(got, ladder(2, (1, bool(flag))))


@pytest.mark.parametrize("flag", ["no", None, 1, 0.0])
def test_operator_refuses_creation_flags_that_are_not_bools(flag):
    """Compared with the occupation bits, 1 would read as a creation operator,
    0.0 as an annihilation one, and "no" or None as neither."""
    with pytest.raises(VerifyError, match="creation flag must be a bool"):
        ladder(2, (0, flag))


def test_operator_takes_numpy_and_real_coefficients_as_complex():
    got = dense_ladder([(np.complex64(0.5j), ((0, True),)), (2, ((1, False),))], 2)
    assert got.dtype == complex
    assert np.array_equal(got, 0.5j * ladder(2, (0, True)) + 2 * ladder(2, (1, False)))


# --- occupation encoding -----------------------------------------------------

def test_number_operator_image():
    got = ladder(1, (0, True), (0, False))
    assert np.array_equal(got, dense(PauliSum(1, [(0.5, PauliString(1, {})),
                                                  (-0.5, PauliString(1, {0: "Z"}))])))


def test_creation_image_single_mode():
    """a_p† -> Z_0..Z_{p-1} (X_p - iY_p)/2 and a_p -> Z_0..Z_{p-1} (X_p + iY_p)/2.
    Number-conserving products cannot tell a parity string below p from one
    above it, so only these single-mode images pin the side."""
    n = 3
    for p in range(n):
        x, y = (dense_pauli(PauliString(n, {**{k: "Z" for k in range(p)}, p: letter}))
                for letter in "XY")
        assert np.array_equal(ladder(n, (p, True)), 0.5 * x - 0.5j * y)
        assert np.array_equal(ladder(n, (p, False)), 0.5 * x + 0.5j * y)


def test_creation_populates_its_qubit():
    # |1> means occupied, so the creation matrix takes |0> to |1>
    m = ladder(1, (0, True))
    assert np.allclose(m, [[0, 0], [1, 0]])


def test_hopping_image_with_parity_string():
    got = dense_ladder([(1.0, ((0, True), (2, False))), (1.0, ((2, True), (0, False)))], 3)
    expected = PauliSum(3, [(0.5, PauliString(3, {0: "X", 1: "Z", 2: "X"})),
                            (0.5, PauliString(3, {0: "Y", 1: "Z", 2: "Y"}))])
    assert np.array_equal(got, dense(expected))


def test_canonical_anticommutation_relations():
    n = 3
    eye = np.eye(2 ** n)
    for p in range(n):
        for q in range(n):
            a_p = ladder(n, (p, False))
            adag_q = ladder(n, (q, True))
            anti = a_p @ adag_q + adag_q @ a_p
            expected = eye if p == q else 0 * eye
            assert np.abs(anti - expected).max() < 1e-14
            a_q = ladder(n, (q, False))
            assert np.abs(a_p @ a_q + a_q @ a_p).max() < 1e-14


# --- excitation term canonicalization ---------------------------------------

def test_single_swap_sign():
    t = single(2, 0, coefficient=1.0)
    assert (t.sub, t.sup) == ((0,), (2,))
    assert t.coefficient == -1.0
    ts = single(2, 0, coefficient=1.0, symmetrized=True)
    assert ts.coefficient == 1.0


def test_double_canonicalization_signs():
    base = double(0, 1, 2, 3)
    assert (base.sub, base.sup, base.coefficient) == ((0, 1), (2, 3), 1.0)
    assert double(1, 0, 2, 3).coefficient == -1.0
    assert double(1, 0, 3, 2).coefficient == 1.0
    swapped = double(2, 3, 0, 1)
    assert (swapped.sub, swapped.sup) == ((0, 1), (2, 3))
    assert swapped.coefficient == -1.0
    assert double(2, 3, 0, 1, symmetrized=True).coefficient == 1.0
    interleaved = double(0, 2, 1, 3)
    assert (interleaved.sub, interleaved.sup) == ((0, 2), (1, 3))
    nested = double(0, 3, 1, 2)
    assert (nested.sub, nested.sup) == ((0, 3), (1, 2))


def test_term_construction_guards():
    with pytest.raises(FermionError):
        single(1, 1)
    with pytest.raises(FermionError):
        double(0, 1, 1, 2)
    with pytest.raises(FermionError):
        controlled_single(0, 2, 2)
    with pytest.raises(FermionError):
        higher_excitation((0, 1), (1, 2))
    with pytest.raises(FermionError):
        ExcitationTerm("single", (2,), (0,))
    with pytest.raises(FermionError):
        ExcitationTerm("double", (1, 2), (0, 3))


TERM_REFUSALS = {
    "unknown-kind": (lambda: ExcitationTerm("triple", (0,), (1,)), "unknown excitation kind"),
    "float-mode": (lambda: ExcitationTerm("single", (0,), (2.0,)), "mode 2.0 is not an integer"),
    "bool-control": (lambda: ExcitationTerm("controlled_single", (0,), (2,), True),
                     "mode True is not an integer"),
    "string-flag": (lambda: ExcitationTerm("single", (0,), (1,), None, "no"),
                    "symmetrized must be a bool"),
    "negative-mode": (lambda: ExcitationTerm("single", (-1,), (1,)), "negative mode -1"),
    "negative-control": (lambda: ExcitationTerm("controlled_single", (0,), (2,), -1),
                         "negative mode -1"),
    "descending": (lambda: ExcitationTerm("double", (1, 0), (2, 3)), "must be ascending"),
    "repeated-sub": (lambda: ExcitationTerm("double", (0, 0), (1, 2)), "ascending without repeats"),
    "repeated-sup": (lambda: ExcitationTerm("double", (0, 1), (2, 2)), "ascending without repeats"),
    "higher-repeated": (lambda: ExcitationTerm("higher", (0, 0), (1, 2)),
                        "ascending without repeats"),
    "overlap": (lambda: ExcitationTerm("double", (0, 1), (1, 2)), "must be disjoint"),
    "single-arity": (lambda: ExcitationTerm("single", (0, 1), (2, 3)),
                     "single takes one creation and one annihilation mode"),
    "single-control": (lambda: ExcitationTerm("single", (0,), (1,), 2),
                       "single takes one creation and one annihilation mode"),
    "single-order": (lambda: ExcitationTerm("single", (2,), (0,)), "smaller mode in the subscript"),
    "double-arity": (lambda: ExcitationTerm("double", (0,), (1,)),
                     "double takes two creation and two annihilation modes"),
    "double-control": (lambda: ExcitationTerm("double", (0, 1), (2, 3), 4),
                       "double takes two creation and two annihilation modes"),
    "double-order": (lambda: ExcitationTerm("double", (1, 2), (0, 3)), "overall smallest mode"),
    "controlled-no-control": (lambda: ExcitationTerm("controlled_single", (0,), (2,)),
                              "takes modes p, q and a control"),
    "controlled-arity": (lambda: ExcitationTerm("controlled_single", (0, 1), (2, 3), 4),
                         "takes modes p, q and a control"),
    "control-on-core": (lambda: ExcitationTerm("controlled_single", (0,), (2,), 2),
                        "control mode must differ from p and q"),
    "controlled-order": (lambda: ExcitationTerm("controlled_single", (2,), (0,), 1),
                         "controlled_single must have p < q"),
    "higher-unequal": (lambda: ExcitationTerm("higher", (0, 1), (2,)),
                       "equal-length non-empty mode lists"),
    "higher-empty": (lambda: ExcitationTerm("higher", (), ()), "equal-length non-empty mode lists"),
    "higher-control": (lambda: ExcitationTerm("higher", (0,), (1,), 2), "takes no control"),
    "density-arity": (lambda: LocalTerm("density", (0, 1)), "density term takes one mode"),
    "coulomb-arity": (lambda: LocalTerm("coulomb", (0,)), "two ascending modes"),
    "coulomb-order": (lambda: LocalTerm("coulomb", (2, 1)), "two ascending modes"),
    "local-kind": (lambda: LocalTerm("hopping", (0, 1)), "unknown local kind"),
    "local-float-mode": (lambda: LocalTerm("density", (1.5,)), "mode 1.5 is not an integer"),
    "local-negative-mode": (lambda: LocalTerm("density", (-1,)), "negative mode -1"),
    "coulomb-same-mode": (lambda: coulomb_term(1, 1), "two distinct modes"),
    # The constructor assembles its terms: the assemble-* rows give it some.
    "assemble-reality": (lambda: HamiltonianTerms(2, "imaginary", 0.0, (density_term(0),), ()),
                         "unknown reality class 'imaginary'"),
    "assemble-local-range": (lambda: HamiltonianTerms(2, "real", 0.0,
                                                      (density_term(0), density_term(2)), ()),
                             "exceeds 2 modes"),
    "assemble-excitation-range": (lambda: HamiltonianTerms(2, "real", 0.0, (),
                                                           (single(0, 1), single(0, 2))),
                                  "exceeds 2 modes"),
    "terms-local-slot": (lambda: HamiltonianTerms(3, "real", 0.0, (single(0, 1, 0.1),), ()),
                         "local_terms takes LocalTerm objects, got ExcitationTerm"),
    "terms-excitation-slot": (lambda: HamiltonianTerms(3, "real", 0.0, (), (density_term(0),)),
                              "excitation_terms takes ExcitationTerm objects, got LocalTerm"),
    "terms-float-count": (lambda: HamiltonianTerms(2.5, "real", 0.0, (), ()),
                          "mode count 2.5 is not an integer"),
    "terms-reality": (lambda: HamiltonianTerms(2, "imaginary", 0.0, (), ()),
                      "unknown reality class 'imaginary'"),
}


@pytest.mark.parametrize("make, message", TERM_REFUSALS.values(), ids=TERM_REFUSALS.keys())
def test_term_refusals_name_their_cause(make, message):
    with pytest.raises(FermionError, match=message):
        make()


# Each constructor message, pinned whole, once by a term that breaks only its
# rule and then by terms that break two rules, which are refused by the first
# rule in the order the constructors check them: the kind, each mode in sub
# then sup order, the control, the flag, the coefficient, ascending lists,
# disjointness, then the kind's shape (a local term: modes, coefficient, kind).
CONSTRUCTOR_REFUSALS = {
    "kind": (lambda: ExcitationTerm("triple", (0,), (1,)), "unknown excitation kind 'triple'"),
    "float-mode": (lambda: ExcitationTerm("single", (0,), (2.0,)), "mode 2.0 is not an integer"),
    "negative-mode": (lambda: ExcitationTerm("single", (-1,), (1,)), "negative mode -1"),
    "flag": (lambda: ExcitationTerm("single", (0,), (1,), None, "no"),
             "symmetrized must be a bool, got 'no'"),
    "nan-coefficient": (lambda: ExcitationTerm("single", (0,), (1,), None, False, float("nan")),
                        "coefficient must be finite, got nan"),
    "descending-pair": (lambda: ExcitationTerm("double", (1, 0), (2, 3)),
                        "mode lists must be ascending without repeats (use the factories)"),
    "descending-triple": (lambda: ExcitationTerm("higher", (0, 2, 1), (3, 4, 5)),
                          "mode lists must be ascending without repeats (use the factories)"),
    "repeated-triple": (lambda: ExcitationTerm("higher", (0, 1, 2), (3, 4, 4)),
                        "mode lists must be ascending without repeats (use the factories)"),
    "overlap": (lambda: ExcitationTerm("double", (0, 1), (1, 2)),
                "creation and annihilation modes must be disjoint"),
    "single-arity": (lambda: ExcitationTerm("single", (0, 1), (2, 3)),
                     "single takes one creation and one annihilation mode"),
    "single-order": (lambda: ExcitationTerm("single", (2,), (0,)),
                     "single must have its smaller mode in the subscript"),
    "double-arity": (lambda: ExcitationTerm("double", (0,), (1,)),
                     "double takes two creation and two annihilation modes"),
    "double-order": (lambda: ExcitationTerm("double", (1, 2), (0, 3)),
                     "double must carry the overall smallest mode in the subscript"),
    "controlled-arity": (lambda: ExcitationTerm("controlled_single", (0,), (2,)),
                         "controlled_single takes modes p, q and a control"),
    "control-on-core": (lambda: ExcitationTerm("controlled_single", (0,), (2,), 2),
                        "control mode must differ from p and q"),
    "controlled-order": (lambda: ExcitationTerm("controlled_single", (2,), (0,), 1),
                         "controlled_single must have p < q"),
    "higher-arity": (lambda: ExcitationTerm("higher", (0, 1), (2,)),
                     "higher excitation needs equal-length non-empty mode lists"),
    "higher-control": (lambda: ExcitationTerm("higher", (0,), (1,), 2),
                       "higher excitation takes no control"),
    "density-arity": (lambda: LocalTerm("density", (0, 1)), "density term takes one mode"),
    "coulomb-order": (lambda: LocalTerm("coulomb", (2, 1)),
                      "coulomb term takes two ascending modes"),
    "local-kind": (lambda: LocalTerm("hopping", (0, 1)), "unknown local kind 'hopping'"),
    "local-negative-mode": (lambda: LocalTerm("density", (-1,)), "negative mode -1"),
    "kind-before-mode": (lambda: ExcitationTerm("triple", (0.5,), (1,)),
                         "unknown excitation kind 'triple'"),
    "sub-before-sup": (lambda: ExcitationTerm("single", (2.0,), (-1,)),
                       "mode 2.0 is not an integer"),
    "first-negative-in-order": (lambda: ExcitationTerm("double", (0, -1), (-2, 3)),
                                "negative mode -1"),
    "negative-before-float": (lambda: ExcitationTerm("double", (-1, 0), (2.5, 3)),
                              "negative mode -1"),
    "numpy-then-negative": (lambda: ExcitationTerm("single", (np.int64(0),), (-3,)),
                            "negative mode -3"),
    "mode-before-control": (lambda: ExcitationTerm("controlled_single", (-1,), (2,), 1.5),
                            "negative mode -1"),
    "control-before-flag": (lambda: ExcitationTerm("controlled_single", (0,), (2,), True, "no"),
                            "mode True is not an integer"),
    "flag-before-coefficient": (lambda: ExcitationTerm("single", (0,), (1,), None, 1, float("nan")),
                                "symmetrized must be a bool, got 1"),
    "coefficient-before-order": (lambda: ExcitationTerm("double", (1, 0), (2, 3), None, False, "x"),
                                 "coefficient 'x' is not a real number"),
    "order-before-overlap": (lambda: ExcitationTerm("double", (1, 0), (0, 1)),
                             "mode lists must be ascending without repeats (use the factories)"),
    "overlap-before-shape": (lambda: ExcitationTerm("single", (0,), (0,), 1),
                             "creation and annihilation modes must be disjoint"),
    "arity-before-order": (lambda: ExcitationTerm("single", (3,), (1,), 2),
                           "single takes one creation and one annihilation mode"),
    "control-on-core-before-order": (lambda: ExcitationTerm("controlled_single", (2,), (0,), 2),
                                     "control mode must differ from p and q"),
    "higher-arity-before-control": (lambda: ExcitationTerm("higher", (0, 1), (2,), 3),
                                    "higher excitation needs equal-length non-empty mode lists"),
    "local-mode-before-kind": (lambda: LocalTerm("hopping", (1.5,)), "mode 1.5 is not an integer"),
    "local-coefficient-before-kind": (lambda: LocalTerm("hopping", (0,), float("inf")),
                                      "coefficient must be finite, got inf"),
    "local-coefficient-before-arity": (lambda: LocalTerm("coulomb", (2, 1), True),
                                       "coefficient True is not a real number"),
}


@pytest.mark.parametrize("make, message", CONSTRUCTOR_REFUSALS.values(),
                         ids=CONSTRUCTOR_REFUSALS.keys())
def test_term_constructors_refuse_by_the_first_broken_rule(make, message):
    with pytest.raises(FermionError) as info:
        make()
    assert str(info.value) == message


_TERM_FACTORIES = {
    "single": (2, lambda ms, c, sym: single(*ms, c, sym)),
    "double": (4, lambda ms, c, sym: double(*ms, c, sym)),
    "controlled": (3, lambda ms, c, sym: controlled_single(*ms, c, sym)),
    "higher": (6, lambda ms, c, sym: higher_excitation(ms[:3], ms[3:], c, sym)),
}


@given(st.sampled_from(tuple(_TERM_FACTORIES)), st.data())
def test_terms_store_their_sorted_modes_outside_their_fields(kind, data):
    """modes and letter_modes are the sorted recomputation; the fields, and
    so equality, hashing, repr and dataclasses.replace, are those of a plain
    dataclass of the six fields."""
    size, make = _TERM_FACTORIES[kind]
    modes = data.draw(st.lists(st.integers(0, 12), min_size=size, max_size=size, unique=True))
    sym = data.draw(st.booleans())
    t = make(modes, 0.5, sym)
    extra = () if t.control is None else (t.control,)
    assert t.letter_modes == tuple(sorted(t.sub + t.sup))
    assert t.modes == tuple(sorted(t.sub + t.sup + extra)) == tuple(sorted(modes))
    assert type(t.modes) is tuple and type(t.letter_modes) is tuple
    assert [f.name for f in fields(t)] == ["kind", "sub", "sup", "control", "symmetrized",
                                           "coefficient"]
    assert repr(t) == (f"ExcitationTerm(kind={t.kind!r}, sub={t.sub!r}, sup={t.sup!r}, "
                       f"control={t.control!r}, symmetrized={t.symmetrized!r}, "
                       f"coefficient={t.coefficient!r})")
    twin = ExcitationTerm(t.kind, t.sub, t.sup, t.control, t.symmetrized, t.coefficient)
    assert twin == t and hash(twin) == hash(t)
    assert astuple(t) == (t.kind, t.sub, t.sup, t.control, t.symmetrized, t.coefficient)
    rescaled = replace(t, coefficient=0.25)
    assert rescaled == ExcitationTerm(t.kind, t.sub, t.sup, t.control, t.symmetrized, 0.25)
    assert rescaled.modes == t.modes and rescaled.letter_modes == t.letter_modes
    flipped = replace(t, symmetrized=not sym)
    assert flipped.modes == t.modes and flipped.letter_modes == t.letter_modes
    assert flipped != t and flipped.key() != t.key()
    if kind == "controlled":
        moved = replace(t, control=13)
        assert moved.modes == tuple(sorted(t.letter_modes + (13,)))
        assert moved.letter_modes == t.letter_modes
    with pytest.raises(FrozenInstanceError):
        t.coefficient = 1.0
    with pytest.raises(FermionError, match="ascending"):
        replace(t, sub=t.sub * 2)


def test_local_terms_keep_their_dataclass_fields():
    t = coulomb_term(3, 1, 0.5)
    assert [f.name for f in fields(t)] == ["kind", "modes", "coefficient"]
    assert repr(t) == "LocalTerm(kind='coulomb', modes=(1, 3), coefficient=0.5)"
    twin = LocalTerm("coulomb", (1, 3), 0.5)
    assert t == twin and hash(t) == hash(twin)
    assert replace(t, coefficient=0.25) == LocalTerm("coulomb", (1, 3), 0.25)
    with pytest.raises(FermionError, match="two ascending modes"):
        replace(t, modes=(3, 1))
    with pytest.raises(FrozenInstanceError):
        t.modes = (0, 1)


# Modes as given to a constructor: integers pass as ints, the rest is refused.
_MODE_TYPES = {int: True, np.int64: True, np.uint8: True, np.int32: True,
               float: False, np.float64: False, bool: False}
_FLAG_TYPES = {bool: True, np.bool_: True, int: False, str: False}


@given(st.data())
def test_terms_store_integer_modes_as_ints_and_refuse_the_rest(data):
    kind = data.draw(st.sampled_from(("single", "double", "controlled", "higher",
                                      "density", "coulomb")))
    size = {"single": 2, "double": 4, "controlled": 3, "higher": 6,
            "density": 1, "coulomb": 2}[kind]
    modes = data.draw(st.lists(st.integers(0, 9), min_size=size, max_size=size, unique=True))
    types = data.draw(st.lists(st.sampled_from(tuple(_MODE_TYPES)), min_size=size, max_size=size))
    flag = data.draw(st.booleans())
    flag_type = data.draw(st.sampled_from(tuple(_FLAG_TYPES)))

    def build(ms, sym):
        if kind == "single":
            return single(*ms, 0.5, sym)
        if kind == "double":
            return double(*ms, 0.5, sym)
        if kind == "controlled":
            return controlled_single(*ms, 0.5, sym)
        if kind == "higher":
            return higher_excitation(ms[:3], ms[3:], 0.5, sym)
        if kind == "density":
            return density_term(*ms, 0.5)
        return coulomb_term(*ms, 0.5)

    given_modes = [t(m) for t, m in zip(types, modes)]
    given_flag = flag_type(flag)
    accepted = all(_MODE_TYPES[t] for t in types)
    if kind not in ("density", "coulomb"):
        accepted = accepted and _FLAG_TYPES[flag_type]
    if not accepted:
        with pytest.raises(FermionError):
            build(given_modes, given_flag)
        return
    term = build(given_modes, given_flag)
    assert term == build(modes, flag)
    if isinstance(term, LocalTerm):
        fields = list(term.modes)
    else:
        fields = [*term.sub, *term.sup, *([] if term.control is None else [term.control])]
        assert type(term.symmetrized) is bool
        assert generator_pauli(term) == generator_pauli(build(modes, flag))
    assert all(type(m) is int for m in fields)


REGISTER_FORMS = {
    "generator_pauli": lambda n: generator_pauli(single(0, 1), n),
    "local_pauli": lambda n: local_pauli(density_term(1), n),
    "pauli_sum": lambda n: HamiltonianTerms(2, "real", 0.0, (density_term(1),),
                                            (single(0, 1),)).pauli_sum(n),
}


@pytest.mark.parametrize("width", [2.5, "3", True, 3.0])
@pytest.mark.parametrize("form", REGISTER_FORMS.values(), ids=REGISTER_FORMS.keys())
def test_register_widths_follow_the_index_rule(form, width):
    """2.5 and '3' used to raise a bare TypeError from deep in the build."""
    with pytest.raises(FermionError, match="mode count .* is not an integer"):
        form(width)


@pytest.mark.parametrize("form", REGISTER_FORMS.values(), ids=REGISTER_FORMS.keys())
def test_register_widths_take_numpy_integers(form):
    assert form(np.int64(3)) == form(3)


@pytest.mark.parametrize("form", REGISTER_FORMS.values(), ids=REGISTER_FORMS.keys())
def test_register_widths_below_a_term_mode_are_refused(form):
    """local_pauli, and pauli_sum through it, used to raise PauliError."""
    with pytest.raises(FermionError, match="mode 1 outside 0..0"):
        form(1)


NON_FINITE_TERMS = {
    "single": lambda c: single(0, 1, c),
    "double": lambda c: double(0, 1, 2, 3, c),
    "double-symmetrized": lambda c: double(0, 1, 2, 3, c, symmetrized=True),
    "controlled-single": lambda c: controlled_single(0, 2, 1, c),
    "higher": lambda c: higher_excitation((0, 1, 2), (3, 4, 5), c),
    "excitation-term": lambda c: ExcitationTerm("single", (0,), (1,), coefficient=c),
    "density": lambda c: density_term(0, c),
    "coulomb": lambda c: coulomb_term(0, 1, c),
    "local-term": lambda c: LocalTerm("density", (0,), c),
    "assemble-constant": lambda c: HamiltonianTerms(2, "real", c, (density_term(0),) * 2, ()),
    "terms-constant": lambda c: HamiltonianTerms(2, "real", c, (), ()),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("make", NON_FINITE_TERMS.values(), ids=NON_FINITE_TERMS.keys())
def test_non_finite_weights_are_refused(make, value):
    """A NaN term would lose every Pauli string and an inf term has no circuit."""
    with pytest.raises(FermionError, match="must be finite"):
        make(value)


@pytest.mark.parametrize("value", [True, "0.1", 1 + 0j], ids=["bool", "str", "complex"])
@pytest.mark.parametrize("make", NON_FINITE_TERMS.values(), ids=NON_FINITE_TERMS.keys())
def test_weights_that_are_not_real_numbers_are_refused(make, value):
    """True used to be read as 1.0 and "0.1" as 0.1; 1+0j was read by the
    factories as a complex weight."""
    with pytest.raises(FermionError, match="is not a real number"):
        make(value)


@pytest.mark.parametrize("value", [np.float64(0.5), 2], ids=["numpy-float", "int"])
@pytest.mark.parametrize("make", NON_FINITE_TERMS.values(), ids=NON_FINITE_TERMS.keys())
def test_real_weights_are_stored_as_floats(make, value):
    made = make(value)
    weight = made.constant if isinstance(made, HamiltonianTerms) else made.coefficient
    assert type(weight) is float and abs(weight) == value


def test_higher_excitation_sort_parity():
    t = higher_excitation((2, 0, 4), (5, 1, 3))
    assert t.sub == (0, 2, 4)
    assert t.sup == (1, 3, 5)
    # one inversion in (2,0,4) plus two in (5,1,3): net sign -1
    assert t.coefficient == -1.0
    assert higher_excitation((2, 0), (1, 3)).coefficient == -1.0
    # cross-check the folded parity against the raw-order ladder product
    n = 6
    lhs = dense_ladder(ladder_generator((2, 0, 4), (5, 1, 3), 1.0, False), n)
    rhs = dense(generator_pauli(t, n))
    assert np.abs(lhs - rhs).max() < 1e-12


# --- generator closed forms --------------------------------------------------

def test_single_generator_strings():
    got = as_dict(generator_pauli(single(0, 1)))
    assert got == {"+YX": pytest.approx(0.5), "+XY": pytest.approx(-0.5)}


def test_single_generator_parity_string():
    got = as_dict(generator_pauli(single(0, 3)))
    assert got == {"+YZZX": pytest.approx(0.5), "+XZZY": pytest.approx(-0.5)}


def test_symmetrized_single_strings():
    got = as_dict(generator_pauli(single(0, 2, symmetrized=True)))
    assert got == {"+XZX": pytest.approx(0.5), "+YZY": pytest.approx(0.5)}


def test_double_generator_sign_table():
    got = as_dict(generator_pauli(double(0, 1, 2, 3)))
    eighth = pytest.approx(0.125)
    minus_eighth = pytest.approx(-0.125)
    assert got == {
        "+XYYY": eighth, "+YXYY": eighth, "+XXYX": eighth, "+XXXY": eighth,
        "+YYXY": minus_eighth, "+YYYX": minus_eighth,
        "+YXXX": minus_eighth, "+XYXX": minus_eighth,
    }


def test_double_generator_interior_parity_strings():
    # letters on the four modes, Z strictly inside each pair, gap untouched
    got = as_dict(generator_pauli(double(0, 2, 4, 6), n_modes=7))
    assert len(got) == 8
    for label in got:
        body = label[1:]
        assert body[0] in "XY" and body[2] in "XY"
        assert body[4] in "XY" and body[6] in "XY"
        assert body[1] == "Z" and body[5] == "Z"
        assert body[3] == "I"


def test_controlled_single_case2_strings():
    got = as_dict(generator_pauli(controlled_single(0, 2, 1)))
    quarter = pytest.approx(0.25)
    minus_quarter = pytest.approx(-0.25)
    assert got == {
        "+YZX": minus_quarter, "+XZY": quarter,
        "+YIX": quarter, "+XIY": minus_quarter,
    }


def test_controlled_single_case1_strings():
    got = as_dict(generator_pauli(controlled_single(0, 1, 3)))
    assert set(got) == {"+YXII", "+XYII", "+YXIZ", "+XYIZ"}
    assert got["+YXII"] == pytest.approx(-0.25)
    assert got["+XYII"] == pytest.approx(0.25)
    assert got["+YXIZ"] == pytest.approx(0.25)
    assert got["+XYIZ"] == pytest.approx(-0.25)


def test_permutation_partners_share_letter_pool():
    pools = []
    for t in (double(0, 1, 2, 3), double(0, 2, 1, 3), double(0, 3, 1, 2)):
        ps = generator_pauli(t)
        assert len(ps) == 8
        pools.append(frozenset(s.label()[1:] for _, s in ps.terms))
        assert all(abs(abs(c) - 0.125) < 1e-15 for c, _ in ps.terms)
    assert pools[0] == pools[1] == pools[2]


def _random_term(n_modes):
    kind = RNG.choice(["single", "double", "controlled", "higher2", "higher3"])
    symmetrized = bool(RNG.integers(2))
    coeff = float(RNG.normal())
    if kind == "single":
        p, q = (int(v) for v in RNG.permutation(n_modes)[:2])
        return single(p, q, coeff, symmetrized)
    if kind == "double":
        p, q, r, s = (int(v) for v in RNG.permutation(n_modes)[:4])
        return double(p, q, r, s, coeff, symmetrized)
    if kind == "controlled":
        p, q, j = (int(v) for v in RNG.permutation(n_modes)[:3])
        return controlled_single(p, q, j, coeff, symmetrized)
    size = 2 if kind == "higher2" else 3
    modes = [int(v) for v in RNG.permutation(n_modes)[: 2 * size]]
    return higher_excitation(modes[:size], modes[size:], coeff, symmetrized)


def test_generator_matches_ladder_expansion():
    n = 6
    for _ in range(60):
        t = _random_term(n)
        direct = dense(generator_pauli(t, n))
        via_ladder = dense_ladder(term_ladder(t), n)
        assert np.abs(direct - via_ladder).max() < 1e-12, t


def test_generators_are_hermitian():
    for _ in range(20):
        t = _random_term(6)
        ps = generator_pauli(t, 6)
        assert ps.is_hermitian()
        m = dense(ps)
        assert np.abs(m - m.conj().T).max() < 1e-12


def test_mode_outside_width_rejected():
    with pytest.raises(FermionError):
        generator_pauli(single(0, 4), n_modes=3)


# --- local terms -------------------------------------------------------------

def test_density_term_image():
    got = as_dict(local_pauli(density_term(1, 0.7), 2))
    assert got == {"+II": pytest.approx(0.7), "+IZ": pytest.approx(-0.7)}


def test_coulomb_term_image():
    lt = coulomb_term(0, 1, 1.0)
    direct = dense(local_pauli(lt, 2))
    via_ladder = dense_ladder(local_ladder(lt), 2)
    assert np.abs(direct - via_ladder).max() < 1e-14
    # -2 n_0 n_1 is diagonal with a -2 only on the doubly occupied state
    assert np.allclose(np.diag(direct), [0, 0, 0, -2])


def test_local_ladder_cross_validation_wide():
    for lt in (density_term(2, -0.4), coulomb_term(1, 3, 0.9)):
        direct = dense(local_pauli(lt, 4))
        via_ladder = dense_ladder(local_ladder(lt), 4)
        assert np.abs(direct - via_ladder).max() < 1e-14


# --- number-operator conjugation ---------------------------------------------

def _occupation_rotation(j, n):
    idx = np.arange(2 ** n)
    bits = (idx >> (n - 1 - j)) & 1
    return np.diag(np.where(bits == 1, -1j, 1.0))


def test_conjugation_cases_single():
    t = single(1, 3, coefficient=0.8)
    sym_p, sign_p = local_equivalence_conjugate(t, 1)
    assert sym_p.symmetrized and sign_p == 1
    assert sym_p.coefficient == pytest.approx(0.8)
    sym_q, sign_q = local_equivalence_conjugate(t, 3)
    assert sym_q.symmetrized and sign_q == -1
    same, sign_o = local_equivalence_conjugate(t, 0)
    assert same == t and sign_o == 1


def test_conjugation_rejects_symmetrized_input():
    with pytest.raises(FermionError):
        local_equivalence_conjugate(single(0, 1, symmetrized=True), 0)


def test_conjugation_controlled_only_core_modes():
    t = controlled_single(0, 2, 4)
    out, sign = local_equivalence_conjugate(t, 4)
    assert out == t and sign == 1
    out_p, sign_p = local_equivalence_conjugate(t, 0)
    assert out_p.symmetrized and sign_p == 1
    out_q, sign_q = local_equivalence_conjugate(t, 2)
    assert out_q.symmetrized and sign_q == -1


def test_conjugation_dense_invariant_all_cases():
    n = 5
    t = double(0, 1, 2, 3, coefficient=0.6)
    for j in range(n):
        out, sign = local_equivalence_conjugate(t, j)
        w = _occupation_rotation(j, n)
        lhs = w @ dense(generator_pauli(t, n)) @ w.conj().T
        rhs = sign * dense(generator_pauli(out, n))
        assert np.abs(lhs - rhs).max() < 1e-12, j


def test_conjugation_dense_invariant_controlled_and_higher():
    n = 6
    for t in (controlled_single(1, 4, 2, coefficient=0.3),
              higher_excitation((0, 2, 4), (1, 3, 5), coefficient=0.5)):
        for j in range(n):
            out, sign = local_equivalence_conjugate(t, j)
            w = _occupation_rotation(j, n)
            lhs = w @ dense(generator_pauli(t, n)) @ w.conj().T
            rhs = sign * dense(generator_pauli(out, n))
            assert np.abs(lhs - rhs).max() < 1e-12, (t.kind, j)


# --- Hamiltonian term lists --------------------------------------------------

def _unit_terms():
    """One unit-weight term of each key on 6 modes: every local and
    excitation shape, both flags, and one higher excitation."""
    pairs = list(itertools.combinations(range(6), 2))
    terms = [density_term(p) for p in range(6)] + [coulomb_term(p, q) for p, q in pairs]
    for sym in (False, True):
        terms += [single(p, q, symmetrized=sym) for p, q in pairs]
        terms += [double(*w, symmetrized=sym) for w in itertools.combinations(range(6), 4)]
        terms += [controlled_single(p, q, j, symmetrized=sym)
                  for p, q in pairs for j in range(6) if j not in (p, q)]
        terms.append(higher_excitation((0, 2, 4), (1, 3, 5), symmetrized=sym))
    return terms


_UNIT_TERMS = _unit_terms()
# Multiples of 1/16: every sum and split below is exact in floats.
_sixteenths = st.integers(-64, 64).map(lambda k: k / 16)


@st.composite
def canonical_term_lists(draw):
    """A HamiltonianTerms on 6 modes with 1 to 12 terms of distinct keys and
    nonzero weights in sixteenths."""
    chosen = draw(st.lists(st.sampled_from(_UNIT_TERMS), min_size=1, max_size=12, unique=True))
    terms = [replace(t, coefficient=draw(_sixteenths.filter(bool))) for t in chosen]
    local = [t for t in terms if isinstance(t, LocalTerm)]
    excitations = [t for t in terms if isinstance(t, ExcitationTerm)]
    return HamiltonianTerms(6, draw(st.sampled_from(("real", "complex"))), 0.25, local, excitations)


@given(canonical_term_lists(), st.data())
def test_term_list_constructor_is_canonical(canonical, data):
    """Shuffled terms of distinct keys and duplicates split into exactly
    summable parts build the canonical term list."""
    local, excitations = canonical.local_terms, canonical.excitation_terms
    assert len(local) + len(excitations) > 0
    assert [t.kind for t in local] == sorted((t.kind for t in local),
                                             key=("density", "coulomb").index)
    assert [t.modes for t in excitations] == sorted(t.modes for t in excitations)

    def build(local, excitations):
        return HamiltonianTerms(6, canonical.reality, 0.25, local, excitations)

    def split(terms):
        parts = [data.draw(_sixteenths) for _ in terms]
        out = [replace(t, coefficient=part) for t, part in zip(terms, parts)]
        out += [replace(t, coefficient=t.coefficient - part) for t, part in zip(terms, parts)]
        return data.draw(st.permutations(out))

    assert build(local, excitations) == canonical
    shuffled = data.draw(st.permutations(local)), data.draw(st.permutations(excitations))
    assert build(*shuffled) == canonical
    assert build(split(local), split(excitations)) == canonical
