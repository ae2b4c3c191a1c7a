"""Integral tables: symmetry closure, parsing, and Hamiltonian splitting.

Reconstruction tests pit the generator decomposition against a direct
ladder-operator expansion of the same table on dense matrices.
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
    hamiltonian_ladder,
    jw_map,
    single,
)
from ionsynth.integrals import (
    IntegralError,
    IntegralParseError,
    IntegralTable,
    SymmetryConflictError,
    h3plus_builtin,
    h3plus_table,
    parse_integrals,
    term_list,
)
from ionsynth.verify import dense_sum

RNG = np.random.default_rng(2718)


def reconstruction_defect(table):
    direct = dense_sum(term_list(table).pauli_sum())
    via_ladder = dense_sum(jw_map(hamiltonian_ladder(table)))
    return np.abs(direct - via_ladder).max()


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
    with pytest.raises(IntegralParseError):
        parse_integrals("# nothing\n")


def test_parse_conflicting_lines_rejected():
    text = "norb 4 reality real\n0.5 1 2 3 4\n0.25 3 4 1 2\n"
    with pytest.raises(IntegralParseError) as info:
        parse_integrals(text)
    assert info.value.line_no == 3
    with pytest.raises(IntegralParseError):
        parse_integrals("norb 2 reality real\n0.1 0 0 0 0\n0.2 0 0 0 0\n")



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


def _fill_real_table(n):
    table = IntegralTable(n, "real")
    for p in range(n):
        for q in range(p, n):
            table.set_one_body(p, q, round(RNG.normal(), 3))
    seen = set()
    for key in itertools.product(range(n), repeat=4):
        p, q, r, s = key
        orbit = {key, (q, p, s, r), (r, s, p, q), (s, r, q, p),
                 (r, q, p, s), (s, p, q, r), (p, s, r, q), (q, r, s, p)}
        rep = min(orbit)
        if rep in seen:
            continue
        seen.add(rep)
        table.set_two_body(*rep, round(RNG.normal(), 3))
    return table


def _fill_complex_table(n):
    table = IntegralTable(n, "complex")
    for p in range(n):
        for q in range(p, n):
            imag = 0.0 if p == q else round(RNG.normal(), 3)
            table.set_one_body(p, q, complex(round(RNG.normal(), 3), imag))
    seen = set()
    for key in itertools.product(range(n), repeat=4):
        p, q, r, s = key
        plain = {key, (q, p, s, r)}
        conjugated = {(r, s, p, q), (s, r, q, p)}
        rep = min(plain | conjugated)
        if rep in seen:
            continue
        seen.add(rep)
        pinned = bool(plain & conjugated)
        imag = 0.0 if pinned else round(RNG.normal(), 3)
        table.set_two_body(*rep, complex(round(RNG.normal(), 3), imag))
    return table


def test_random_real_table_reconstruction():
    for n in (3, 4):
        table = _fill_real_table(n)
        assert reconstruction_defect(table) < 1e-12


def test_random_complex_table_reconstruction():
    table = _fill_complex_table(4)
    dense = dense_sum(jw_map(hamiltonian_ladder(table)))
    assert np.abs(dense - dense.conj().T).max() < 1e-12
    terms = term_list(table)
    assert any(not t.symmetrized for t in terms.excitation_terms)
    assert any(t.symmetrized for t in terms.excitation_terms)
    assert reconstruction_defect(table) < 1e-12


def test_real_values_through_complex_path_agree():
    real = _fill_real_table(4)
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
    return HamiltonianTerms.assemble(n, table.reality, table.constant, local, excitations)


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
