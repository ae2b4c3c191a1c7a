"""Integral tables: symmetry closure, parsing, and Hamiltonian splitting.

Reconstruction tests pit the generator decomposition against a direct
ladder-operator expansion of the same table on dense matrices
(verify.dense_hamiltonian).
"""

import contextlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsynth.fermion import (
    HamiltonianTerms,
    LocalTerm,
    controlled_single,
    coulomb_term,
    density_term,
    double,
    single,
)
from ionsynth.integrals import (
    IntegralError,
    IntegralParseError,
    IntegralTable,
    SymmetryConflictError,
    _canonical,
    _least_codes,
    _one_body_orbit,
    _two_body_orbit,
    h3plus_builtin,
    h3plus_table,
    parse_integrals,
    term_list,
)
from ionsynth.verify import dense_hamiltonian, dense_sum

from dense_tables import fill_complex_table, fill_real_table, reconstruction_defect
from integral_reference import orbit as reference_orbit, reference_parse

RNG = np.random.default_rng(2718)


# --- symmetry closure ----------------------------------------------------

def test_real_one_body_closure():
    table = parse_integrals("norb 3 reality real\n0.25 1 2 0 0\n")
    assert table.one_body_value(0, 1) == 0.25
    assert table.one_body_value(1, 0) == 0.25
    assert table.one_body_value(2, 1) == 0


def test_complex_one_body_conjugation():
    table = IntegralTable(3, "complex")
    table.set_one_body(0, 2, 0.5 + 0.25j)
    assert table.one_body_value(0, 2) == 0.5 + 0.25j
    assert table.one_body_value(2, 0) == 0.5 - 0.25j


def test_complex_two_body_group():
    table = IntegralTable(4, "complex")
    v = 0.3 - 0.7j
    table.set_two_body(0, 1, 2, 3, v)
    assert table.two_body_value(0, 1, 2, 3) == v
    assert table.two_body_value(1, 0, 3, 2) == v
    assert table.two_body_value(2, 3, 0, 1) == v.conjugate()
    assert table.two_body_value(3, 2, 1, 0) == v.conjugate()
    # tuples outside the orbit stay empty
    assert table.two_body_value(0, 2, 1, 3) == 0


def test_real_two_body_group_has_eight_members():
    table = IntegralTable(4, "real")
    table.set_two_body(0, 1, 2, 3, 0.9)
    members = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0),
               (2, 1, 0, 3), (3, 0, 1, 2), (0, 3, 2, 1), (1, 2, 3, 0)]
    for m in members:
        assert table.two_body_value(*m) == 0.9
    # a member of a different orbit
    assert table.two_body_value(0, 2, 1, 3) == 0


def test_stored_keys_are_orbit_minima():
    table = IntegralTable(4, "real")
    table.set_two_body(3, 2, 1, 0, 0.4)
    assert list(table.two_body) == [(0, 1, 2, 3)]
    table.set_one_body(2, 1, 0.1)
    assert list(table.one_body) == [(1, 2)]


def test_consistent_duplicates_accepted():
    table = IntegralTable(4, "complex")
    table.set_two_body(0, 1, 2, 3, 1.0 + 1.0j)
    table.set_two_body(2, 3, 0, 1, 1.0 - 1.0j)
    assert table.two_body_value(0, 1, 2, 3) == 1.0 + 1.0j


def test_symmetry_conflict_names_both_tuples():
    table = IntegralTable(4, "complex")
    table.set_two_body(0, 1, 2, 3, 1.0)
    with pytest.raises(SymmetryConflictError) as info:
        table.set_two_body(2, 3, 0, 1, 0.5)
    assert info.value.new_key == (2, 3, 0, 1)
    assert info.value.old_key == (0, 1, 2, 3)


def test_self_conjugate_orbit_pins_value_real():
    table = IntegralTable(3, "complex")
    with pytest.raises(SymmetryConflictError):
        table.set_two_body(0, 1, 0, 1, 1.0 + 0.5j)
    with pytest.raises(SymmetryConflictError):
        table.set_one_body(1, 1, 0.2 + 0.1j)
    table.set_two_body(0, 1, 0, 1, 0.8)
    assert table.two_body_value(1, 0, 1, 0) == 0.8


def test_real_table_rejects_imaginary_values():
    table = IntegralTable(3, "real")
    with pytest.raises(IntegralError):
        table.set_one_body(0, 1, 1j)
    with pytest.raises(IntegralError):
        table.set_two_body(0, 1, 2, 0, 0.5 + 0.2j)


def test_mode_range_checked():
    table = IntegralTable(3, "real")
    with pytest.raises(IntegralError):
        table.set_one_body(0, 3, 1.0)
    with pytest.raises(IntegralError):
        table.two_body_value(0, 1, 2, 5)


# --- parsing --------------------------------------------------------------

def test_parse_minimal_document():
    table = parse_integrals(
        "# comment\n\nnorb 2 reality real\n-1.0 1 1 0 0\n0.5 1 2 1 2\n"
    )
    assert table.n_modes == 2
    assert table.reality == "real"
    assert table.one_body_value(0, 0) == -1.0
    assert table.two_body_value(1, 0, 1, 0) == 0.5


def test_parse_complex_columns_and_constant():
    table = parse_integrals(
        "norb 2 reality complex\n0.75 0 0 0 0\n0.1 -0.2 1 2 0 0\n"
    )
    assert table.constant == 0.75
    assert table.one_body_value(1, 0) == pytest.approx(0.1 + 0.2j)


def test_parse_rejects_imaginary_column_in_real_table():
    with pytest.raises(IntegralParseError) as info:
        parse_integrals("norb 2 reality real\n0.1 0.2 1 2 0 0\n")
    assert info.value.line_no == 2


def test_parse_error_line_numbers():
    cases = [
        ("norb 2 reality real\nnot numbers here x\n", 2),
        ("norb 2 reality real\n0.5 1 2 3 0\n", 2),
        ("norb 2 reality real\n\n0.5 0 1 0 0\n", 3),
        ("norb 2 reality real\n0.5 1 2 1 9\n", 2),
        ("norb two reality real\n", 1),
        ("norb 2 parity real\n", 1),
        ("norb 2 reality sometimes\n", 1),
        ("norb 2 reality real\n0.5 1 2\n", 2),
        ("norb 0 reality real\n", 1),
        ("norb 2 reality real\nx 1 1 0 0\n", 2),
        ("norb 2 reality complex\n0.1 0.2 0 0 0 0\n", 2),
        ("norb 4 reality real\n0.5 1 2 0 3\n", 2),
    ]
    for text, line_no in cases:
        with pytest.raises(IntegralParseError) as info:
            parse_integrals(text)
        assert info.value.line_no == line_no, text


@pytest.mark.parametrize("text, line_no", [
    ("norb 1_2 reality real\n", 1),
    ("norb \u0661 reality real\n", 1),
    ("norb 2 reality real\n0.5 \u0661 1 0 0\n", 2),
    ("norb 2 reality real\n1_000.5 1 1 0 0\n", 2),
    ("norb 2 reality real\n0.5 1 1 0 0_0\n", 2),
    ("norb 2 reality complex\n# ok\n0.5 0_1 1 2 0 0\n", 3),
    ("norb 2 reality real\n\uff10.5 1 1 0 0\n", 2),
], ids=["norb-underscore", "norb-arabic-indic", "index-arabic-indic", "value-underscore",
        "index-underscore", "imaginary-underscore", "value-full-width"])
def test_parse_refuses_numbers_python_would_read_at_their_line(text, line_no):
    with pytest.raises(IntegralParseError) as info:
        parse_integrals(text)
    assert info.value.line_no == line_no


def test_parse_comments_keep_any_text():
    table = parse_integrals("# caf\u00e9_1\nnorb 2 reality real # \u0661_\n0.5 1 1 0 0 # 1_2\n")
    assert table.one_body == {(0, 0): 0.5}


def test_parse_empty_document_rejected():
    """An empty or comment-only document is refused at its last line, or at
    line 1 when it has none, as deserialize refuses a missing qubits line."""
    for text, line_no in [("", 1), ("\n", 1), ("# nothing\n", 1), ("# nothing", 1),
                          ("# one\n\n  # three\n", 3)]:
        with pytest.raises(IntegralParseError, match="empty document, missing header") as info:
            parse_integrals(text)
        assert info.value.line_no == line_no, text


def test_parse_conflicting_lines_rejected():
    text = "norb 4 reality real\n0.5 1 2 3 4\n0.25 3 4 1 2\n"
    with pytest.raises(IntegralParseError) as info:
        parse_integrals(text)
    assert info.value.line_no == 3
    with pytest.raises(IntegralParseError):
        parse_integrals("norb 2 reality real\n0.1 0 0 0 0\n0.2 0 0 0 0\n")


@pytest.mark.parametrize("first, then", [(0.5, 0.5000000000001), (0.5000000000001, 0.5)])
def test_parse_keeps_the_first_of_two_agreeing_lines(first, then):
    # a repeat within the conflict tolerance is accepted and changes nothing,
    # for the constant as for every other entry
    table = parse_integrals(f"norb 2 reality real\n{first!r} 0 0 0 0\n{then!r} 0 0 0 0\n"
                            f"{first!r} 1 1 0 0\n{then!r} 1 1 0 0\n")
    assert table.constant == first
    assert table.one_body_value(0, 0) == first


def test_parse_rejects_nan_diagonal_entry():
    # abs(nan) compares false against the drop threshold, so a NaN on the
    # diagonal would otherwise vanish from the term list without a word
    with pytest.raises(IntegralParseError) as info:
        parse_integrals("norb 2 reality real\nnan 1 1 0 0\n")
    assert info.value.line_no == 2
    assert "not finite" in str(info.value)


def test_parse_rejects_nan_before_conflicting_partner():
    # NaN compares false against the conflict tolerance too; the NaN line
    # itself must fail before its symmetry partner can be accepted
    with pytest.raises(IntegralParseError) as info:
        parse_integrals("norb 2 reality real\nnan 1 2 0 0\n0.3 2 1 0 0\n")
    assert info.value.line_no == 2


def test_parse_rejects_infinite_entry_with_line():
    for text in ("norb 2 reality real\ninf 1 2 0 0\n",
                 "norb 2 reality complex\n0.1 -inf 1 2 0 0\n",
                 "norb 2 reality real\n-inf 1 2 1 2\n",
                 "norb 2 reality real\ninf 0 0 0 0\n"):
        with pytest.raises(IntegralParseError) as info:
            parse_integrals(text)
        assert info.value.line_no == 2, text


def test_table_setters_and_constant_reject_non_finite():
    table = IntegralTable(3, "complex")
    with pytest.raises(IntegralError):
        table.set_one_body(0, 1, float("nan"))
    with pytest.raises(IntegralError):
        table.set_two_body(0, 1, 2, 0, complex(0.1, float("inf")))
    with pytest.raises(IntegralError):
        IntegralTable(3, "real", constant=float("-inf"))
    assert table.one_body == {} and table.two_body == {}


@pytest.mark.parametrize("value, message", [
    ("0.3", "value '0.3' is not a number"),
    (True, "value True is not a number"),
    (float("nan"), "value .* is not finite"),
    (complex(float("inf"), 0.0), "value .* is not finite"),
    (10**400, "value .* is not finite"),
], ids=["str", "bool", "nan", "inf", "huge-int"])
@pytest.mark.parametrize("set_entry", [
    lambda t, v: t.set_one_body(0, 1, v),
    lambda t, v: t.set_one_body(1, 1, v),
    lambda t, v: t.set_two_body(0, 1, 2, 0, v),
], ids=["one-body", "one-body-diagonal", "two-body"])
def test_table_refuses_entries_that_are_not_finite_numbers(set_entry, value, message):
    """'0.3' used to be stored as 0.3+0j and True as 1+0j."""
    table = IntegralTable(3, "complex")
    with pytest.raises(IntegralError, match=message):
        set_entry(table, value)
    assert table.one_body == {} and table.two_body == {}


def test_table_takes_numpy_entries_as_complex():
    table = IntegralTable(3, "complex")
    table.set_one_body(0, 1, np.float32(0.5))
    table.set_two_body(0, 1, 2, 0, np.complex128(0.25 - 0.5j))
    assert table.one_body_value(0, 1) == 0.5 and table.two_body_value(0, 1, 2, 0) == 0.25 - 0.5j
    assert type(table.one_body_value(0, 1)) is complex


@pytest.mark.parametrize("n_modes", [2.5, 3.0, True, "3"])
def test_table_refuses_non_integer_mode_count(n_modes):
    """2.5 used to build a 2-mode table."""
    with pytest.raises(IntegralError, match="not an integer"):
        IntegralTable(n_modes, "real")


@pytest.mark.parametrize("n_modes, reality, message", [
    (2, "quaternion", "unknown reality class 'quaternion'"),
    (0, "real", "need at least one mode"),
])
def test_table_refuses_an_unknown_reality_or_no_modes(n_modes, reality, message):
    with pytest.raises(IntegralError, match=message):
        IntegralTable(n_modes, reality)


@pytest.mark.parametrize("value", [True, "0.1", 1 + 0j, 1 + 2j],
                         ids=["bool", "str", "complex", "imaginary"])
def test_table_refuses_a_constant_that_is_not_a_real_number(value):
    """1+2j used to be stored as 1.0, and True as 1.0."""
    with pytest.raises(IntegralError, match="constant .* is not a real number"):
        IntegralTable(2, "real", constant=value)


@pytest.mark.parametrize("value", [np.float64(0.5), 2], ids=["numpy-float", "int"])
def test_table_stores_a_real_constant_as_a_float(value):
    constant = IntegralTable(2, "real", constant=value).constant
    assert type(constant) is float and constant == value


def test_table_mode_count_accepts_numpy_integers():
    table = IntegralTable(np.int64(3), "real")
    assert table.n_modes == 3 and type(table.n_modes) is int


@pytest.mark.parametrize("set_entry", [
    lambda t: t.set_two_body(0, 1, 2, 2.5, 0.7),
    lambda t: t.set_one_body(0, 1.5, 0.3),
    lambda t: t.set_one_body(True, 1, 0.3),
    lambda t: t.two_body_value(0, 1, 2, 2.0),
    lambda t: t.one_body_value(0, "1"),
], ids=["two-body-2.5", "one-body-1.5", "one-body-bool", "lookup-2.0", "lookup-str"])
def test_table_refuses_non_integer_modes(set_entry):
    """2.5 was stored, read back as 0j by two_body_value(0, 1, 2, 2), and
    truncated to mode 2 by term_list; 1.5 was stored and then ignored."""
    table = IntegralTable(4, "real")
    with pytest.raises(IntegralError, match="is not an integer"):
        set_entry(table)
    assert table.one_body == {} and table.two_body == {}
    assert term_list(table).excitation_terms == ()


def test_table_stores_numpy_integer_modes_as_ints():
    table = IntegralTable(4, "real")
    table.set_two_body(np.int64(0), np.uint8(1), 2, np.int32(3), 0.7)
    table.set_one_body(np.int64(1), 2, 0.3)
    assert all(type(m) is int for key in (*table.two_body, *table.one_body) for m in key)
    assert table.two_body_value(np.int64(0), 1, 2, 3) == table.two_body_value(0, 1, 2, 3) == 0.7
    plain = IntegralTable(4, "real")
    plain.set_two_body(0, 1, 2, 3, 0.7)
    plain.set_one_body(1, 2, 0.3)
    assert repr(table) == repr(plain)


# --- term lists ------------------------------------------------------------

def test_zero_table_gives_empty_list():
    terms = term_list(parse_integrals("norb 4 reality real\n"))
    assert terms.local_terms == ()
    assert terms.excitation_terms == ()
    assert terms.constant == 0.0


def test_random_real_table_reconstruction():
    for n in (3, 4):
        table = fill_real_table(n, RNG)
        assert reconstruction_defect(table) < 1e-12


def test_random_complex_table_reconstruction():
    table = fill_complex_table(4, RNG)
    dense = dense_hamiltonian(table)
    assert np.abs(dense - dense.conj().T).max() < 1e-12
    terms = term_list(table)
    assert any(not t.symmetrized for t in terms.excitation_terms)
    assert any(t.symmetrized for t in terms.excitation_terms)
    assert reconstruction_defect(table) < 1e-12


def test_real_values_through_complex_path_agree():
    real = fill_real_table(4, RNG)
    complex_twin = IntegralTable(4, "complex")
    for p in range(4):
        for q in range(4):
            v = real.one_body_value(p, q)
            if v:
                complex_twin.set_one_body(p, q, v)
    for key in itertools.product(range(4), repeat=4):
        v = real.two_body_value(*key)
        if v:
            complex_twin.set_two_body(*key, v)
    lhs = dense_sum(term_list(real).pauli_sum())
    rhs = dense_sum(term_list(complex_twin).pauli_sum())
    assert np.abs(lhs - rhs).max() < 1e-12


# --- bit-identity against the index-by-index split ---------------------------

def _reference_quartic(p, q, r, s, weight, symmetrized):
    """The term of weight * generator(a+_p a+_q a_r a_s), built by the factories."""
    if abs(weight) <= 1e-14 or p == q or r == s:
        return []
    shared = {p, q} & {r, s}
    if len(shared) == 2:
        if not symmetrized:
            return []
        sign = 1.0
        if p > q:
            p, q, sign = q, p, -sign
        if r > s:
            r, s, sign = s, r, -sign
        return [coulomb_term(p, q, weight * sign)]
    if len(shared) == 1:
        j = shared.pop()
        sign = 1.0
        if p == j:
            p, q, sign = q, p, -sign
        if r == j:
            r, s, sign = s, r, -sign
        return [controlled_single(p, r, j, weight * sign, symmetrized)]
    return [double(p, q, r, s, weight, symmetrized)]


def reference_split(table):
    """term_list as an n^4 loop over symmetry-resolved lookups, building each
    term with the factories; it adds every coefficient in index order, as
    term_list must, so the two agree bit for bit."""
    n, terms = table.n_modes, []
    for p, q in itertools.product(range(n), repeat=2):
        h = table.one_body_value(p, q)
        if abs(h) <= 1e-14:
            continue
        if p == q:
            terms.append(density_term(p, 0.5 * h.real))
            continue
        if table.reality == "complex" and abs(h.imag) > 1e-14:
            terms.append(single(p, q, 0.5 * h.imag))
        terms.append(single(p, q, 0.5 * h.real, symmetrized=True))
    for p, q, r, s in itertools.product(range(n), repeat=4):
        h = table.two_body_value(p, q, r, s)
        if table.reality == "real" and abs(h.real) > 1e-14:
            terms += _reference_quartic(p, q, r, s, h.real / 8.0, True)
            terms += _reference_quartic(p, s, r, q, h.real / 8.0, True)
        elif table.reality == "complex" and abs(h) > 1e-14:
            terms += _reference_quartic(p, q, r, s, h.imag / 4.0, False)
            terms += _reference_quartic(p, q, r, s, h.real / 4.0, True)
    local = [t for t in terms if isinstance(t, LocalTerm)]
    excitations = [t for t in terms if not isinstance(t, LocalTerm)]
    return HamiltonianTerms(n, table.reality, table.constant, local, excitations)


@st.composite
def integral_tables(draw):
    """Real and complex tables of 1-6 modes, from sparse to dense.  Each index
    tuple is tried once in a random order, so the first tuple drawn from an
    orbit sets it (repeated-index orbits included), and a complex value on a
    self-conjugate orbit is refused; real and nearly real values (imaginary
    part 1e-13) let self-conjugate complex orbits fill too.  Values of
    ±{1, 4, 8, 9}e-14 sit at the drop threshold 1e-14 of an entry, and of
    the h/8 and h/4 weights each two-body entry splits into."""
    n = draw(st.integers(1, 6))
    reality = draw(st.sampled_from(("real", "complex")))
    fill = draw(st.sampled_from((0.05, 0.3, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    table = IntegralTable(n, reality, rng.uniform(-1, 1))

    def part(*choices):
        tiny = rng.choice((-1, 1)) * rng.choice((1, 4, 8, 9)) * 1e-14
        return rng.choice((0.0, rng.uniform(-1, 1), tiny, *choices))

    def value():
        return complex(part(), part(1e-13) if reality == "complex" else 0.0)

    keys = [*itertools.product(range(n), repeat=2), *itertools.product(range(n), repeat=4)]
    rng.shuffle(keys)
    for key in keys:
        if rng.random() < fill:
            setter = table.set_one_body if len(key) == 2 else table.set_two_body
            with contextlib.suppress(SymmetryConflictError):
                setter(*key, value())
    return table


@settings(max_examples=120, deadline=None)
@given(integral_tables())
def test_term_list_matches_index_order_split_exactly(table):
    assert term_list(table) == reference_split(table)


def rebuild(text):
    """A new table from an IntegralTable repr, by setting its listed entries."""

    def build(n_modes, reality, constant, one_body, two_body):
        table = IntegralTable(n_modes, reality, constant)
        for key, value in one_body.items():
            table.set_one_body(*key, value)
        for key, value in two_body.items():
            table.set_two_body(*key, value)
        return table

    return eval(text, {"IntegralTable": build})


@settings(max_examples=60, deadline=None)
@given(integral_tables())
def test_table_repr_rebuilds_the_table(table):
    text = repr(table)
    again = rebuild(text)
    assert repr(again) == text
    assert again.one_body == table.one_body and again.two_body == table.two_body
    assert term_list(again) == term_list(table)


def test_table_repr_is_deterministic_and_names_every_entry():
    entries = [((0, 0, 0, 0), 0.7), ((0, 1, 1, 0), 0.3 + 1e-13j), ((0, 0, 1, 2), 0.2 - 0.4j),
               ((2, 1, 1, 2), -0.1), ((1, 1, 2, 2), 0.4)]
    tables = []
    for order in (entries, entries[::-1]):
        table = IntegralTable(3, "complex", -0.25)
        table.set_one_body(2, 0, 0.1 + 0.3j)
        for key, value in order:
            table.set_two_body(*key, value)
        tables.append(table)
    text = repr(tables[0])
    assert text == repr(tables[1])
    assert "object at" not in text
    assert text.startswith("IntegralTable(3, 'complex', -0.25, ")
    for rep, value in [*tables[0].one_body.items(), *tables[0].two_body.items()]:
        assert f"{rep}: " in text
    assert "(0, 1, 1, 0): complex(0.3, 1e-13)" in text


def test_term_list_matches_split_on_repeated_index_orbits():
    table = IntegralTable(3, "complex")
    for key, v in (((0, 0, 0, 0), 0.7), ((0, 1, 1, 0), 0.3 + 1e-13j), ((0, 0, 1, 2), 0.2 - 0.4j),
                   ((1, 2, 0, 1), -0.5 + 0.6j), ((2, 1, 1, 2), -0.1), ((1, 1, 2, 2), 0.4)):
        table.set_two_body(*key, v)
    table.set_one_body(2, 0, 0.1 + 0.3j)
    table.set_one_body(1, 1, -0.6 + 1e-13j)
    terms = term_list(table)
    assert terms == reference_split(table)
    assert any(not t.symmetrized for t in terms.excitation_terms)


def test_term_list_matches_split_on_h3plus():
    assert term_list(h3plus_table()) == reference_split(h3plus_table())


def dense_document(n, reality, rng):
    """An integral document setting every orbit of an n-mode table once, to a
    random value; real where the complex symmetry group pins the orbit to its
    own conjugate."""

    def entry(real):
        im = "" if reality == "real" else f" {0.0 if real else rng.uniform(-1, 1):.6f}"
        return f"{rng.uniform(-1, 1):.6f}{im}"

    lines = [f"norb {n} reality {reality}", f"{entry(True)} 0 0 0 0"]
    lines += [f"{entry(p == q)} {p} {q} 0 0" for p in range(1, n + 1) for q in range(p, n + 1)]
    seen = set()
    for key in itertools.product(range(1, n + 1), repeat=4):
        p, q, r, s = key
        plain, conjugated = {key, (q, p, s, r)}, {(r, s, p, q), (s, r, q, p)}
        if reality == "real":
            plain |= conjugated | {(r, q, p, s), (s, p, q, r), (p, s, r, q), (q, r, s, p)}
            conjugated = set()
        rep = min(plain | conjugated)
        if rep not in seen:
            seen.add(rep)
            lines.append(f"{entry(bool(plain & conjugated))} {' '.join(map(str, rep))}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n, reality", [(10, "real"), (12, "real"), (8, "complex")])
def test_term_list_matches_split_on_dense_tables(n, reality):
    """Dense tables above the 1-6 modes integral_tables draws: larger mode
    digits and wider code dtypes, where an integer term key encoding could
    overflow or alias unseen at small sizes."""
    table = parse_integrals(dense_document(n, reality, random.Random(f"dense/{reality}/{n}")))
    assert term_list(table) == reference_split(table)


# --- packaged dataset -------------------------------------------------------

def exc_map(terms):
    return {t.key(): t.coefficient for t in terms.excitation_terms}


def local_map(terms):
    return {t.key(): t.coefficient for t in terms.local_terms}


def test_h3plus_parse_matches_builtin():
    assert h3plus_builtin() == term_list(h3plus_table())


def test_h3plus_term_structure():
    built = h3plus_builtin()
    assert built.n_modes == 6 and built.reality == "real"
    densities = [t for t in built.local_terms if t.kind == "density"]
    coulombs = [t for t in built.local_terms if t.kind == "coulomb"]
    assert len(densities) == 6
    assert len(coulombs) == 15
    assert len(built.excitation_terms) == 14
    assert all(t.symmetrized for t in built.excitation_terms)
    kinds = sorted(t.kind for t in built.excitation_terms)
    assert kinds.count("double") == 10
    assert kinds.count("controlled_single") == 4


def test_h3plus_listed_coefficients():
    built = h3plus_builtin()
    locals_ = local_map(built)
    assert locals_[("density", (0,))] == pytest.approx(-0.917)
    assert locals_[("density", (4,))] == pytest.approx(-0.535)
    assert locals_[("coulomb", (0, 1))] == pytest.approx(-0.307)
    assert locals_[("coulomb", (2, 3))] == pytest.approx(-0.337)
    exc = exc_map(built)
    sym = True
    assert exc[("double", (0, 1), (2, 3), None, sym)] == pytest.approx(-0.142)
    assert exc[("double", (0, 3), (1, 2), None, sym)] == pytest.approx(+0.142)
    assert exc[("double", (0, 1), (4, 5), None, sym)] == pytest.approx(-0.142)
    assert exc[("double", (0, 5), (1, 4), None, sym)] == pytest.approx(+0.142)
    assert exc[("controlled_single", (0,), (2,), 3, sym)] == pytest.approx(-0.090)
    assert exc[("controlled_single", (1,), (3,), 2, sym)] == pytest.approx(-0.090)
    assert exc[("controlled_single", (0,), (2,), 5, sym)] == pytest.approx(+0.090)
    assert exc[("controlled_single", (1,), (3,), 4, sym)] == pytest.approx(+0.090)
    assert exc[("double", (1, 2), (4, 5), None, sym)] == pytest.approx(-0.090)
    assert exc[("double", (1, 4), (2, 5), None, sym)] == pytest.approx(-0.090)
    assert exc[("double", (2, 3), (4, 5), None, sym)] == pytest.approx(-0.072)
    assert exc[("double", (2, 5), (3, 4), None, sym)] == pytest.approx(+0.072)


def test_h3plus_dense_reconstruction():
    table = h3plus_table()
    assert reconstruction_defect(table) < 1e-12
    dense = dense_sum(h3plus_builtin().pauli_sum())
    assert np.abs(dense - dense.conj().T).max() < 1e-12


# --- the parser against the per-line reference ---------------------------------

def _outcome(parse, text):
    """The table's repr and the source line of each stored orbit (which later
    set_* conflicts name), or the refusal's class, line and message."""
    try:
        table = parse(text)
    except IntegralParseError as exc:
        return type(exc), exc.line_no, str(exc)
    return repr(table), table._sources


def _number(rng, value):
    """value as a token: its repr, or another spelling float() reads the same."""
    return rng.choice((repr(value), repr(value), f"{value:.17e}", f"{value:+.17g}"))


class _Document:
    """A valid integral document drawn from rng: comments, blank lines, five-
    and six-field lines, repeated constants, and repeats of earlier orbits
    from any member, conjugated where the member is, each within the conflict
    tolerance of the first."""

    def __init__(self, rng, n, reality):
        self.rng, self.n, self.reality = rng, n, reality
        self.lines = [rng.choice(("", "# integrals", "  # café_1"))
                      for _ in range(rng.randint(0, 2))]
        self.lines.append(f"norb {n} reality {reality}" + rng.choice(("", " # ١_")))
        self.orbits = {}  # representative -> (1-based key of the first line, its value)
        for _ in range(rng.randint(0, 14)):
            self.lines.append(self.entry())
            if rng.random() < 0.2:
                self.lines.append(rng.choice(("", "   ", "# between", "\t# x_1 é")))

    def line(self, value, indices):
        rng = self.rng
        fields = [_number(rng, value.real)]
        if self.reality == "complex" and (value.imag != 0 or rng.random() < 0.7):
            fields.append(_number(rng, value.imag))
        fields += [rng.choice((str(i), f"{i:02d}", f"+{i}")) if rng.random() < 0.1 else str(i)
                   for i in indices]
        text = rng.choice((" ", "  ", "\t")).join(fields)
        return text + rng.choice(("", "", " # note", "  #1_2 é"))

    def entry(self):
        rng, n = self.rng, self.n
        kind = rng.choice(("constant", "one", "two", "two", "repeat"))
        if kind == "constant":
            value = self.orbits.setdefault("constant", (None, complex(rng.uniform(-1, 1), 0)))[1]
            tiny = rng.choice((0.0, 1e-13, -4e-13))
            imaginary = rng.choice((0.0, 9e-13, -9e-13)) if self.reality == "complex" else 0.0
            return self.line(complex(value.real + tiny, imaginary), (0, 0, 0, 0))
        if kind == "repeat" and len(self.orbits) > 1:
            rep = rng.choice([r for r in self.orbits if r != "constant"])
            key, value = self.orbits[rep]
            orbit = reference_orbit(tuple(k - 1 for k in key), self.reality)
            member, conjugating = rng.choice(orbit)
            value = value.conjugate() if conjugating else value
            value += rng.choice((0.0, 1e-13, -4e-13))
            if self.reality == "complex":
                value += rng.choice((0.0, 2e-13j))
            indices = tuple(m + 1 for m in member)
            return self.line(value, indices + (0, 0) * (len(indices) == 2))
        size = 2 if kind == "one" else 4
        key = tuple(rng.randint(1, n) for _ in range(size))
        orbit = reference_orbit(tuple(k - 1 for k in key), self.reality)
        rep = min(member for member, _ in orbit)
        flags = {flag for member, flag in orbit if member == rep}
        if rep in self.orbits:  # a repeat of an earlier orbit, from this member
            first, value = self.orbits[rep]
            members = dict(reference_orbit(tuple(k - 1 for k in first), self.reality))
            value = value.conjugate() if members[tuple(k - 1 for k in key)] else value
        else:
            imaginary = 0.0
            if self.reality == "complex":
                imaginary = rng.choice((0.0, 1e-13)) if len(flags) == 2 else rng.uniform(-1, 1)
            value = complex(rng.choice((rng.uniform(-1, 1), 0.0, 1e-14)), imaginary)
            self.orbits[rep] = (key, value)
        return self.line(value, key + (0, 0) * (size == 2))


def _fault(rng, document, kind):
    """Text that breaks the parse rule kind, given the document so far."""
    n, complex_ = document.n, document.reality == "complex"
    im = " 0.0" if complex_ else ""
    faults = {
        "fields": lambda: rng.choice(("0.5 1 2", "0.5 1 1 0 0 0 0", "x", "1 2 3 4 5 6 7 8")),
        "imaginary-column": lambda: ("0.5 0.1 1 1 0 0" if not complex_ else "0.5 0.1 0.2 1 1 0 0"),
        "plain": lambda: rng.choice((f"0.5{im} 1_0 1 0 0", f"０.5{im} 1 1 0 0",
                                     f"0.5{im} ١ 1 0 0", f"1_000.5{im} 1 1 0 0")),
        "token": lambda: rng.choice((f"x{im} 1 1 0 0", f"0.5{im} 1.0 1 0 0", f"0.5{im} 1 0x1 0 0",
                                     f"0.5{im} 1 1 0 e", f"0.5{' y' if complex_ else ''} 1 1 z 0")),
        "range": lambda: rng.choice((f"0.5{im} {n + 1} 1 0 0", f"0.5{im} 1 -1 0 0",
                                     f"0.5{im} 1 1 1 {n + rng.randint(1, 9)}",
                                     f"0.5{im} 99999999999999999999999 1 0 0")),
        "zero-pattern": lambda: rng.choice((f"0.5{im} 0 1 0 0", f"0.5{im} 1 0 0 0",
                                            f"0.5{im} 1 1 1 0", f"0.5{im} 0 1 1 1")),
        "finite": lambda: rng.choice((f"nan{im} 1 1 0 0", f"inf{im} 1 1 1 1",
                                      f"-1e400{im} 0 0 0 0",
                                      *(["0.5 nan 1 1 0 0", "0.5 -inf 1 1 1 1"] * complex_))),
        "imaginary-constant": lambda: "0.5 1e-11 0 0 0 0",
        "self-conjugate": lambda: rng.choice(("0.5 0.1 1 1 0 0", "0.5 -2e-12 1 1 1 1",
                                              f"0.5 0.3 1 {n} {n} 1")),
        "conflict": lambda: _conflict(rng, document),
        "constant": lambda: (f"{document.orbits.get('constant', (None, 0.25))[1].real + 1e-3!r}{im}"
                             f" 0 0 0 0\n0.25{im} 0 0 0 0"),
    }
    return faults[kind]()


def _conflict(rng, document):
    """A line of an earlier orbit, from any member, whose value differs from
    the first by more than the tolerance; or a fresh orbit's line, twice."""
    reps = [rep for rep in document.orbits if rep != "constant"]
    if not reps:
        return "0.5 1 1 0 0\n0.50001 1 1 0 0"
    key, value = document.orbits[rng.choice(reps)]
    member, conjugating = rng.choice(reference_orbit(tuple(k - 1 for k in key), document.reality))
    shifts = (2e-12, -1.5, 2e-12j) if document.reality == "complex" else (2e-12, -1.5)
    value = (value.conjugate() if conjugating else value) + rng.choice(shifts)
    return document.line(value, tuple(m + 1 for m in member) + (0, 0) * (len(member) == 2))


FAULT_KINDS = ("fields", "imaginary-column", "plain", "token", "range", "zero-pattern", "finite",
               "imaginary-constant", "self-conjugate", "conflict", "constant")


@st.composite
def faulty_documents(draw, kinds):
    """A drawn document with one fault of each of kinds, each at its own line."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    document = _Document(rng, draw(st.integers(1, 4)), draw(st.sampled_from(("real", "complex"))))
    lines = document.lines
    header = next(i for i, line in enumerate(lines) if line.startswith("norb"))
    for kind in kinds:
        at = rng.randint(header + 1, len(lines))
        lines.insert(at, _fault(rng, document, kind))
    return "\n".join(lines) + rng.choice(("", "\n"))


@settings(max_examples=300, deadline=None)
@given(faulty_documents(()))
def test_parse_matches_the_per_line_reference_on_valid_documents(text):
    assert _outcome(parse_integrals, text) == _outcome(reference_parse, text)


@pytest.mark.parametrize("kind", FAULT_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_parse_refuses_each_fault_as_the_reference_does(kind, data):
    text = data.draw(faulty_documents((kind,)))
    expected = _outcome(reference_parse, text)
    assert expected[0] is IntegralParseError
    assert _outcome(parse_integrals, text) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_refuses_the_first_of_two_faults_as_the_reference_does(data):
    kinds = data.draw(st.lists(st.sampled_from(FAULT_KINDS), min_size=2, max_size=2))
    text = data.draw(faulty_documents(kinds))
    expected = _outcome(reference_parse, text)
    assert expected[0] is IntegralParseError
    assert _outcome(parse_integrals, text) == expected


@pytest.mark.parametrize("text", [
    "norb 100000 reality real\n0.5 1 2 3 4\n0.5 4 3 2 1\n0.25 99999 1 0 0\n",
    "norb 100000 reality real\n0.5 1 2 3 4\n0.6 2 1 4 3\n",
    "norb 100000000000000000000 reality complex\n0.5 0.1 1 2 3 4\n0.5 -0.1 3 4 1 2\n"
    "0.6 0.1 99999999999999999999 1 0 0\n",
    "norb 100000000000000000000 reality complex\n0.5 0.1 1 2 3 4\n0.5 0.1 3 4 1 2\n",
], ids=["wide-codes", "wide-codes-conflict", "huge-indices", "huge-indices-conflict"])
def test_parse_matches_the_reference_past_64_bit_codes(text):
    """Mode counts whose orbit codes or indices do not fit 64 bits."""
    assert _outcome(parse_integrals, text) == _outcome(reference_parse, text)


@pytest.mark.parametrize("reality", ["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_least_codes_match_the_scalar_canonical_form(n, reality):
    """The array orbit helper gives, for every one- and two-body index tuple,
    the representative and the flags that _canonical gives."""
    for width, orbit in ((2, _one_body_orbit), (4, _two_body_orbit)):
        keys = list(itertools.product(range(n), repeat=width))
        plain, conjugating = _least_codes(n, orbit, reality, tuple(np.array(keys, np.uint8).T))
        for key, least_plain, least_conjugating in zip(keys, plain.tolist(), conjugating.tolist()):
            rep, flags = _canonical(orbit(key, reality))
            code = min(least_plain, least_conjugating)
            assert code == sum(m * n ** (width - 1 - i) for i, m in enumerate(rep)), key
            reached = {flag for flag, least in ((False, least_plain), (True, least_conjugating))
                       if least == code}
            assert flags == reached, key
