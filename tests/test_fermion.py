"""Fermionic algebra, the occupation-encoding map, and generator forms.

The closed-form generator construction is held against the symbolic ladder
expansion (jw_map of ladder_form) on dense matrices; the two code paths are
independent.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ionsynth.fermion import (
    ExcitationTerm,
    FermionError,
    FermionOperator,
    HamiltonianTerms,
    LocalTerm,
    annihilation,
    controlled_single,
    coulomb_term,
    creation,
    density_term,
    double,
    generator_pauli,
    higher_excitation,
    identity_op,
    jw_map,
    ladder_form,
    local_equivalence_conjugate,
    local_ladder_form,
    local_pauli,
    number,
    single,
)
from ionsynth.pauli import PauliSum
from ionsynth.verify import dense_pauli, dense_sum

RNG = np.random.default_rng(416)


def as_dict(ps: PauliSum) -> dict:
    return {s.label(): c for c, s in ps.terms}


def dense(ps: PauliSum) -> np.ndarray:
    return dense_sum(ps)


# --- FermionOperator algebra -------------------------------------------------

def test_products_merge_and_drop():
    op = creation(0, 2) + creation(0, 2)
    assert len(op.products) == 1
    coeff, factors = op.products[0]
    assert coeff == 2.0
    assert factors == ((0, True),)
    assert (op - op.scale(1.0)).is_zero()


def test_mode_range_checked():
    with pytest.raises(FermionError):
        creation(3, 3)
    with pytest.raises(FermionError):
        annihilation(0, 2) + annihilation(0, 3)


def test_adjoint_reverses_and_flips():
    op = creation(0, 3) * annihilation(2, 3)
    adj = op.adjoint()
    assert adj.products == ((1.0, ((2, True), (0, False))),)
    assert not op.is_hermitian()
    assert (op + adj).is_hermitian()
    assert identity_op(3, 2.5).is_hermitian()


def test_scalar_and_operator_products():
    op = 2.0 * creation(1, 2)
    assert op.products[0][0] == 2.0
    op2 = op * annihilation(0, 2)
    assert op2.products == ((2.0, ((1, True), (0, False))),)


# --- occupation encoding -----------------------------------------------------

def test_number_operator_image():
    got = as_dict(jw_map(number(0, 1)))
    assert got == {"+I": pytest.approx(0.5), "+Z": pytest.approx(-0.5)}


def test_creation_image_single_mode():
    got = as_dict(jw_map(creation(0, 1)))
    assert got["+X"] == pytest.approx(0.5)
    assert got["+Y"] == pytest.approx(-0.5j)


def test_creation_populates_its_qubit():
    # |1> means occupied, so the creation matrix takes |0> to |1>
    m = dense(jw_map(creation(0, 1)))
    assert np.allclose(m, [[0, 0], [1, 0]])


def test_hopping_image_with_parity_string():
    op = creation(0, 3) * annihilation(2, 3) + creation(2, 3) * annihilation(0, 3)
    got = as_dict(jw_map(op))
    assert got == {
        "+XZX": pytest.approx(0.5),
        "+YZY": pytest.approx(0.5),
    }


def test_canonical_anticommutation_relations():
    n = 3
    eye = np.eye(2 ** n)
    for p in range(n):
        for q in range(n):
            a_p = dense(jw_map(annihilation(p, n)))
            adag_q = dense(jw_map(creation(q, n)))
            anti = a_p @ adag_q + adag_q @ a_p
            expected = eye if p == q else 0 * eye
            assert np.abs(anti - expected).max() < 1e-14
            a_q = dense(jw_map(annihilation(q, n)))
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
    "operator-float-count": (lambda: FermionOperator(2.5), "mode count 2.5 is not an integer"),
    "operator-negative-count": (lambda: FermionOperator(-1), "negative mode count"),
    "operator-count-mismatch": (lambda: FermionOperator(2) + FermionOperator(3),
                                "mode count mismatch"),
    "assemble-reality": (lambda: HamiltonianTerms.assemble(2, "imaginary", 0.0, (), ()),
                         "unknown reality class 'imaginary'"),
    "assemble-local-range": (lambda: HamiltonianTerms.assemble(2, "real", 0.0,
                                                               (density_term(2),), ()),
                             "exceeds 2 modes"),
    "assemble-excitation-range": (lambda: HamiltonianTerms.assemble(2, "real", 0.0, (),
                                                                    (single(0, 2),)),
                                  "exceeds 2 modes"),
    "terms-float-count": (lambda: HamiltonianTerms(2.5, "real", 0.0, (), ()),
                          "mode count 2.5 is not an integer"),
    "terms-reality": (lambda: HamiltonianTerms(2, "imaginary", 0.0, (), ()),
                      "unknown reality class 'imaginary'"),
}


@pytest.mark.parametrize("make, message", TERM_REFUSALS.values(), ids=TERM_REFUSALS.keys())
def test_term_refusals_name_their_cause(make, message):
    with pytest.raises(FermionError, match=message):
        make()


# Modes as given to a constructor: integers pass as ints, the rest is refused.
_MODE_TYPES = {int: True, np.int64: True, np.uint8: True, np.int32: True,
               float: False, np.float64: False, bool: False}
_FLAG_TYPES = {bool: True, np.bool_: True, int: False, str: False}


@given(st.data())
def test_terms_store_integer_modes_as_ints_and_refuse_the_rest(data):
    kind = data.draw(st.sampled_from(("single", "double", "controlled", "higher",
                                      "density", "coulomb", "ladder")))
    size = {"single": 2, "double": 4, "controlled": 3, "higher": 6,
            "density": 1, "coulomb": 2, "ladder": 1}[kind]
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
        if kind == "coulomb":
            return coulomb_term(*ms, 0.5)
        return creation(*ms, 10)

    given_modes = [t(m) for t, m in zip(types, modes)]
    given_flag = flag_type(flag)
    accepted = all(_MODE_TYPES[t] for t in types)
    if kind not in ("density", "coulomb", "ladder"):
        accepted = accepted and _FLAG_TYPES[flag_type]
    if not accepted:
        with pytest.raises(FermionError):
            build(given_modes, given_flag)
        return
    term = build(given_modes, given_flag)
    assert term == build(modes, flag)
    if isinstance(term, FermionOperator):
        fields = [m for _, factors in term.products for m, _ in factors]
    elif isinstance(term, LocalTerm):
        fields = list(term.modes)
    else:
        fields = [*term.sub, *term.sup, *([] if term.control is None else [term.control])]
        assert type(term.symmetrized) is bool
        assert generator_pauli(term) == generator_pauli(build(modes, flag))
    assert all(type(m) is int for m in fields)


@pytest.mark.parametrize("flag", [True, False, np.bool_(True), np.bool_(False)])
def test_operator_stores_bool_creation_flags(flag):
    op = FermionOperator(2, ((1.0, ((np.int64(1), flag),)),))
    assert op.products == ((1.0, ((1, bool(flag)),)),)
    assert type(op.products[0][1][0][1]) is bool


@pytest.mark.parametrize("flag", ["no", None, 1, 0.0])
def test_operator_refuses_creation_flags_that_are_not_bools(flag):
    """"no" used to read as a creation operator and None as an annihilation one."""
    with pytest.raises(FermionError, match="creation flag must be a bool"):
        FermionOperator(2, ((1.0, ((0, flag),)),))


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
    "assemble-constant": lambda c: HamiltonianTerms.assemble(2, "real", c, (), ()),
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
    raw = identity_op(n)
    for m in (2, 0, 4):
        raw = raw * creation(m, n)
    for m in (5, 1, 3):
        raw = raw * annihilation(m, n)
    g_raw = 1j * (raw - raw.adjoint())
    lhs = dense(jw_map(g_raw))
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
        via_ladder = dense(jw_map(ladder_form(t, n)))
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
    via_ladder = dense(jw_map(local_ladder_form(lt, 2)))
    assert np.abs(direct - via_ladder).max() < 1e-14
    # -2 n_0 n_1 is diagonal with a -2 only on the doubly occupied state
    assert np.allclose(np.diag(direct), [0, 0, 0, -2])


def test_local_ladder_cross_validation_wide():
    for lt in (density_term(2, -0.4), coulomb_term(1, 3, 0.9)):
        direct = dense(local_pauli(lt, 4))
        via_ladder = dense(jw_map(local_ladder_form(lt, 4)))
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
