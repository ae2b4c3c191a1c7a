"""Circuit synthesis: sandwich structure, MS budgets, dense-oracle exactness."""

import importlib.util
import itertools
import math
import random
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsynth import circuit, synth
from ionsynth.circuit import (
    CNOT,
    MS,
    Circuit,
    Clifford1,
    CRz,
    GlobalPhase,
    Rz,
    count,
    gate_qubits,
    serialize,
)
from ionsynth.fermion import (
    controlled_single,
    double,
    generator_pauli,
    higher_excitation,
    local_equivalence_conjugate,
    single,
)
from ionsynth.evolution import TrotterConfig, build_trotter_step, fusion_groups
from ionsynth.integrals import h3plus_builtin, parse_integrals, term_list
from ionsynth.pauli import (
    CLIFFORD1_NAMES,
    PauliString,
    PauliSum,
    conjugate_by_clifford,
    from_label,
)
from ionsynth.synth import (
    SynthesisError,
    _Slot,
    _clear_caches,
    _lower_group,
    _sandwich,
    _template,
    baseline_string_by_string,
    compile_controlled_single,
    compile_coupled_exchange,
    compile_double_block,
    compile_higher_excitation,
    compile_mixed_cnot,
    compile_pauli_rotation,
    compile_single_excitation,
    compile_symmetrized,
    eliminate_backward_ms,
    higher_order_ms_count,
    ms_square_phase_exponent,
)
from ionsynth.verify import (
    assert_equivalent,
    circuit_unitary,
    dense_pauli,
    generator_unitary,
    ordered_product,
)

RNG = np.random.default_rng(20260816)


def ms_gates(c):
    return [g for g in c if isinstance(g, MS)]


def rz_angles(c):
    return [g.angle for g in c if isinstance(g, Rz)]


def clifford_rows(c):
    return [(g.qubit, g.name.lower()) for g in c if isinstance(g, Clifford1)]


def assert_exact(c, generator, angle, tol=1e-10):
    """The compiled circuit must equal exp(-i * angle * generator) with no
    leftover global phase; phase-exactness is part of the contract."""
    report = assert_equivalent(circuit_unitary(c), generator_unitary(generator, angle), tol=tol)
    assert report, f"defect {report.distance:.3e} exceeds {tol}"


def term_product(width, factors):
    """Ordered product of exp(-i a G(t)) over (t, a); the first acts first."""
    return ordered_product([(generator_pauli(t, width), a) for t, a in factors], width)


# --- plain Pauli rotations ----------------------------------------------------


def test_rotation_one_local_needs_no_ms():
    c = compile_pauli_rotation(from_label("Z"), 0.7)
    assert count(c).ms_total == 0
    assert rz_angles(c) == [0.7]
    assert_exact(c, from_label("Z"), 0.35)


def test_rotation_one_local_x_dresses_to_z():
    c = compile_pauli_rotation(from_label("X"), 0.9)
    assert count(c).ms_total == 0
    assert_exact(c, from_label("X"), 0.45)


def test_rotation_two_local_spends_one_ms_pair():
    c = compile_pauli_rotation(from_label("ZZ"), math.pi / 3)
    r = count(c)
    assert (r.ms_forward, r.ms_backward) == (1, 1)
    assert len(rz_angles(c)) == 1
    assert_exact(c, from_label("ZZ"), math.pi / 6)


def test_rotation_leaves_rotation_qubit_undressed():
    c = compile_pauli_rotation(from_label("ZZZZZ"), 1.1)
    assert count(c).ms_total == 2
    assert all(q != 0 for q, _ in clifford_rows(c))
    assert_exact(c, from_label("ZZZZZ"), 0.55)


def test_rotation_folds_negative_string_phase():
    p = PauliString(2, {0: "Z", 1: "Z"}, phase=-1)
    c = compile_pauli_rotation(p, 0.8)
    assert_exact(c, from_label("ZZ"), -0.4)


def test_rotation_rejects_identity_and_imaginary_phases():
    with pytest.raises(SynthesisError):
        compile_pauli_rotation(PauliString(2, {}), 0.3)
    with pytest.raises(SynthesisError):
        compile_pauli_rotation(PauliString(2, {0: "X"}, phase=1j), 0.3)


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 5),
    seed=st.integers(0, 10**6),
    phi=st.floats(-6.0, 6.0, allow_nan=False),
)
def test_rotation_matches_oracle_on_random_strings(width, seed, phi):
    rng = np.random.default_rng(seed)
    letters = {}
    while not letters:
        letters = {
            q: l
            for q, l in zip(range(width), rng.choice(["I", "X", "Y", "Z"], size=width))
            if l != "I"
        }
    p = PauliString(width, letters, phase=int(rng.choice([1, -1])))
    c = compile_pauli_rotation(p, phi)
    sign = 1 if p.phase == 1 else -1
    assert_exact(c, p.with_phase(1), sign * phi / 2.0)


# --- single excitations -------------------------------------------------------


def test_single_adjacent_layer_shape():
    t = single(0, 1)
    c = compile_single_excitation(t, 0.37)
    assert [g.qubits for g in ms_gates(c)] == [(0, 1), (0, 1)]
    assert [g.direction for g in ms_gates(c)] == ["forward", "backward"]
    assert clifford_rows(c) == []
    assert sorted(rz_angles(c)) == pytest.approx([-0.37, 0.37])
    assert_exact(c, generator_pauli(t, 2), 0.37)


def test_single_gapped_window_dresses_interior():
    t = single(0, 2)
    c = compile_single_excitation(t, 0.52)
    assert all(g.qubits == (0, 1, 2) for g in ms_gates(c))
    names = {name for _, name in clifford_rows(c)}
    assert names <= {"sx", "sxdg", "h"}
    assert {q for q, name in clifford_rows(c) if name == "h"} == {1}
    assert_exact(c, generator_pauli(t, 3), 0.52)


def test_single_yy_axis_gives_the_same_unitary():
    t = single(1, 4)
    c = compile_single_excitation(t, -0.8, axis="yy")
    assert {g.axis for g in ms_gates(c)} == {"yy"}
    assert_exact(c, generator_pauli(t, 5), -0.8)


def test_single_zero_angle_is_the_identity():
    c = compile_single_excitation(single(0, 2), 0.0)
    u = circuit_unitary(c).matrix
    assert np.linalg.norm(u - np.eye(8)) < 1e-12


def test_single_embeds_into_a_wider_register():
    t = single(1, 2)
    c = compile_single_excitation(t, 0.4, n_qubits=5)
    assert c.n_qubits == 5
    assert_exact(c, generator_pauli(t, 5), 0.4)
    with pytest.raises(SynthesisError):
        compile_single_excitation(t, 0.4, n_qubits=2)


def test_single_rejects_wrong_kinds():
    with pytest.raises(SynthesisError):
        compile_single_excitation(double(0, 1, 2, 3), 0.1)
    with pytest.raises(SynthesisError):
        compile_single_excitation(single(0, 1, symmetrized=True), 0.1)
    with pytest.raises(SynthesisError):
        compile_single_excitation(single(0, 1), 0.1, axis="zz")
    for axis in (1, None):
        with pytest.raises(SynthesisError, match="axis must be"):
            compile_single_excitation(single(0, 1), 0.1, axis=axis)


# --- double-excitation blocks -------------------------------------------------


def test_double_block_single_pairing_oracle():
    c = compile_double_block(0, 1, 2, 3, (0.6, 0.0, 0.0))
    r = count(c)
    assert r.ms_total == 4
    assert sorted(r.ms_by_axis) == ["xx", "yy"]
    assert len(rz_angles(c)) == 8
    assert_exact(c, generator_pauli(double(0, 1, 2, 3), 4), 0.6)


def test_double_block_runs_all_three_pairings_in_parallel():
    angles = (0.3, -0.2, 0.11)
    c = compile_double_block(0, 1, 2, 3, angles)
    assert count(c).ms_total == 4
    pairs = [double(0, 1, 2, 3), double(0, 2, 1, 3), double(0, 3, 1, 2)]
    report = assert_equivalent(circuit_unitary(c), term_product(4, zip(pairs, angles)), tol=1e-10)
    assert report, report.distance


def test_double_block_window_skips_the_gap_qubit():
    c = compile_double_block(0, 1, 3, 4, (0.25, 0.19, -0.31))
    assert all(g.qubits == (0, 1, 3, 4) for g in ms_gates(c))
    touched = set()
    for g in c:
        touched.update(getattr(g, "qubits", ()) or [getattr(g, "qubit", -1)])
    assert 2 not in touched
    pairs = [double(0, 1, 3, 4), double(0, 3, 1, 4), double(0, 4, 1, 3)]
    v = term_product(5, zip(pairs, (0.25, 0.19, -0.31)))
    report = assert_equivalent(circuit_unitary(c), v, tol=1e-10)
    assert report, report.distance


def test_double_block_zero_angles_compile_to_identity():
    c = compile_double_block(0, 1, 2, 3, (0.0, 0.0, 0.0))
    assert count(c).ms_total == 4
    u = circuit_unitary(c).matrix
    assert np.linalg.norm(u - np.eye(16)) < 1e-12


def test_double_block_input_guards():
    with pytest.raises(SynthesisError):
        compile_double_block(0, 1, 1, 3, (0.1, 0.1, 0.1))
    with pytest.raises(SynthesisError):
        compile_double_block(0, 1, 2, 3, (0.1, 0.1))
    with pytest.raises(SynthesisError, match="^double block takes three pairing angles, got 5$"):
        compile_double_block(0, 1, 2, 3, 5)
    with pytest.raises(SynthesisError, match="mode 0.5 is not an integer"):
        compile_double_block(0.5, 1, 2, 3, (0.1, 0.1, 0.1))
    with pytest.raises(SynthesisError, match="angle True is not a real number"):
        compile_double_block(0, 1, 2, 3, (0.1, True, 0.1))
    with pytest.raises(SynthesisError, match="mode 3.0 is not an integer"):
        compile_coupled_exchange(0, 1, 2, 3.0, 0.1)


# --- coupled exchange ---------------------------------------------------------


def test_coupled_exchange_cancels_half_the_rotations():
    c = compile_coupled_exchange(0, 1, 2, 3, 0.41)
    assert count(c).ms_total == 4
    assert len(rz_angles(c)) == 4
    v = term_product(4, [(double(0, 3, 2, 1), 0.41), (double(0, 1, 2, 3), 0.41)])
    report = assert_equivalent(circuit_unitary(c), v, tol=1e-10)
    assert report, report.distance


def test_coupled_exchange_equals_the_signed_block():
    # The second pairing slot idles and the third runs with the opposite
    # angle; the all-plus assignment is a different operator, pinned below.
    theta = 0.53
    c = compile_coupled_exchange(1, 2, 4, 5, theta)
    b = compile_double_block(1, 2, 4, 5, (theta, 0.0, -theta))
    diff = np.linalg.norm(circuit_unitary(c).matrix - circuit_unitary(b).matrix)
    assert diff < 1e-14
    wrong = compile_double_block(1, 2, 4, 5, (theta, 0.0, theta))
    v = term_product(6, [(double(1, 5, 4, 2), theta), (double(1, 2, 4, 5), theta)])
    assert assert_equivalent(circuit_unitary(c), v, tol=1e-10)
    assert assert_equivalent(circuit_unitary(wrong), v, tol=1e-10).distance > 0.1


def test_coupled_exchange_zero_angle():
    c = compile_coupled_exchange(0, 1, 2, 3, 0.0)
    u = circuit_unitary(c).matrix
    assert np.linalg.norm(u - np.eye(16)) < 1e-12


def test_coupled_exchange_refuses_unordered_orbitals():
    with pytest.raises(SynthesisError, match="strictly increasing"):
        compile_coupled_exchange(3, 2, 1, 0, 0.1)


# --- controlled singles -------------------------------------------------------


def test_controlled_variant_a_control_stays_outside_the_ms_set():
    c = compile_controlled_single(0, 2, 3, 0.31)
    assert [g.qubits for g in ms_gates(c)] == [(0, 1, 2), (0, 1, 2)]
    crz = [(g.control, g.target) for g in c if isinstance(g, CRz)]
    assert crz == [(3, 0), (3, 2)]
    assert rz_angles(c) == []
    assert_exact(c, generator_pauli(controlled_single(0, 2, 3), 4), 0.31)


def test_controlled_variant_a_interior_control_shrinks_the_window():
    c = compile_controlled_single(0, 2, 1, 0.31)
    assert [g.qubits for g in ms_gates(c)] == [(0, 2), (0, 2)]
    crz = [(g.control, g.target) for g in c if isinstance(g, CRz)]
    assert crz == [(1, 0), (1, 2)]
    assert_exact(c, generator_pauli(controlled_single(0, 2, 1), 3), 0.31)


def test_controlled_variant_b_spends_two_sandwiches():
    c = compile_controlled_single(0, 2, 3, 0.31, variant="b")
    assert [g.qubits for g in ms_gates(c)] == [(0, 1, 2, 3)] * 2 + [(0, 1, 2)] * 2
    assert not any(isinstance(g, CRz) for g in c)
    assert len(rz_angles(c)) == 4
    assert_exact(c, generator_pauli(controlled_single(0, 2, 3), 4), 0.31)

    e = compile_controlled_single(0, 2, 1, 0.31, variant="b")
    assert [g.qubits for g in ms_gates(e)] == [(0, 1, 2)] * 2 + [(0, 2)] * 2
    assert_exact(e, generator_pauli(controlled_single(0, 2, 1), 3), 0.31)


def test_sandwich_refuses_a_control_inside_its_window():
    target = PauliString(3, {0: "X", 2: "Y"})
    with pytest.raises(SynthesisError):
        _sandwich(3, "xx", [(0, 0.1, target, 2)])


def test_controlled_both_variants_match_the_oracle_everywhere():
    for p, q, j in [(0, 2, 3), (1, 3, 0), (0, 2, 1), (2, 4, 0)]:
        width = max(p, q, j) + 1
        g = generator_pauli(controlled_single(p, q, j), width)
        for variant in ("a", "b"):
            theta = float(RNG.uniform(-2.0, 2.0))
            c = compile_controlled_single(p, q, j, theta, variant=variant)
            assert all(j not in m.qubits for m in ms_gates(c)) or variant == "b"
            assert_exact(c, g, theta)


def test_controlled_zero_angle_and_guards():
    c = compile_controlled_single(0, 2, 3, 0.0)
    u = circuit_unitary(c).matrix
    assert np.linalg.norm(u - np.eye(16)) < 1e-12
    with pytest.raises(SynthesisError):
        compile_controlled_single(0, 2, 0, 0.1)
    with pytest.raises(SynthesisError):
        compile_controlled_single(2, 0, 1, 0.1)
    with pytest.raises(SynthesisError):
        compile_controlled_single(0, 2, 3, 0.1, variant="c")
    with pytest.raises(SynthesisError, match=r"^variant must be 'a' or 'b', got \['a'\]$"):
        compile_controlled_single(0, 2, 1, 0.1, variant=["a"])
    with pytest.raises(SynthesisError, match="^variant must be 'a' or 'b', got array"):
        compile_controlled_single(0, 2, 1, 0.1, variant=np.array(["a", "b"]))
    with pytest.raises(SynthesisError, match="mode 0.5 is not an integer"):
        compile_controlled_single(0.5, 2, 1, 0.1)
    with pytest.raises(SynthesisError, match="negative mode -1"):
        compile_controlled_single(0, 2, -1, 0.1)
    with pytest.raises(SynthesisError, match="angle '0.1' is not a real number"):
        compile_controlled_single(0, 2, 1, "0.1")


# --- higher-order excitations -------------------------------------------------


def test_higher_order_ms_budget():
    assert [higher_order_ms_count(n) for n in (1, 2, 3, 4)] == [2, 4, 12, 32]
    with pytest.raises(SynthesisError, match="excitation order must be at least 1"):
        higher_order_ms_count(0)
    for value, message in (("3", "'3' is not an integer"), (2.0, "2.0 is not an integer"),
                           (True, "True is not an integer"), (-1, "negative excitation order -1")):
        with pytest.raises(SynthesisError, match=message):
            higher_order_ms_count(value)


def test_higher_order_one_reduces_to_the_single_layer():
    t = higher_excitation([0], [2])
    c = compile_higher_excitation(t, 0.6)
    assert count(c).ms_total == 2
    assert_exact(c, generator_pauli(t, 3), 0.6)
    down = higher_excitation([3], [1])
    d = compile_higher_excitation(down, 0.6)
    assert count(d).ms_total == 2
    assert_exact(d, generator_pauli(down, 4), 0.6)


def test_higher_order_two_packs_into_two_star_layers():
    t = higher_excitation([0, 1], [3, 4])
    c = compile_higher_excitation(t, 0.45)
    assert count(c).ms_total == 4
    assert all(g.qubits == (0, 1, 3, 4) for g in ms_gates(c))
    assert_exact(c, generator_pauli(t, 5), 0.45)


def test_higher_order_three_stays_on_budget():
    t = higher_excitation([0, 1, 2], [3, 4, 5])
    c = compile_higher_excitation(t, 0.23)
    assert count(c).ms_total == 12
    assert count(c).cnot > 0
    assert_exact(c, generator_pauli(t, 6), 0.23, tol=1e-9)
    again = compile_higher_excitation(t, 0.23)
    assert serialize(again) == serialize(c)


def test_higher_order_three_has_no_six_star_cover():
    """Six single-flip stars cover at most 30 of the 32 odd-parity words.

    Each layer with a local dressing handles the star of one even center
    (the six words one letter flip away), so a 12-MS compile of an order
    three excitation cannot be built from local layers alone; this is why
    the packer switches to CNOT-assisted dressing.  Any cover could be
    translated (XOR by one of its centers) to contain center 0, so fixing
    the first center loses no generality.
    """
    words = [w for w in range(64) if bin(w).count("1") % 2 == 1]
    index = {w: i for i, w in enumerate(words)}
    centers = [c for c in range(64) if bin(c).count("1") % 2 == 0]
    star = {c: sum(1 << index[c ^ (1 << i)] for i in range(6)) for c in centers}
    full = (1 << 32) - 1
    best = 0
    rest = [c for c in centers if c != 0]
    for combo in itertools.combinations(rest, 5):
        mask = star[0]
        for c in combo:
            mask |= star[c]
        if mask == full:
            pytest.fail(f"unexpected six-star cover: {(0,) + combo}")
        best = max(best, bin(mask).count("1"))
    assert best == 30
    witness = (0, 3, 5, 30, 46, 54, 57)
    mask = 0
    for c in witness:
        mask |= star[c]
    assert mask == full


def test_higher_order_rejects_wrong_kind():
    with pytest.raises(SynthesisError):
        compile_higher_excitation(single(0, 1), 0.1)


# ROADMAP item 7 packs orders 4 and 5 on budget; then this becomes an MS-count
# test of those orders.
@pytest.mark.parametrize("order, message", [
    (4, "packing used 36 MS gates, budget is 32"),
    (5, "packing used 112 MS gates, budget is 104"),
])
def test_higher_order_refuses_a_packing_over_budget(order, message):
    t = higher_excitation(range(order), range(order, 2 * order))
    with pytest.raises(SynthesisError, match=message):
        compile_higher_excitation(t, 0.3)


# --- symmetrized terms --------------------------------------------------------


def test_symmetrized_wraps_the_antisymmetrized_circuit():
    t = single(0, 2, symmetrized=True)
    c = compile_symmetrized(t, 0.44)
    first, *inner, last = c.gates
    assert (first.qubit, first.name.lower()) == (0, "s")
    assert (last.qubit, last.name.lower()) == (0, "sdg")
    assert tuple(inner) == compile_single_excitation(single(0, 2), 0.44).gates
    assert_exact(c, generator_pauli(t, 3), 0.44)


def test_symmetrized_annihilation_mode_flips_the_inner_angle():
    t = single(0, 2, symmetrized=True)
    c = compile_symmetrized(t, 0.44, conjugation_mode=2)
    _, *inner, _ = c.gates
    assert tuple(inner) == compile_single_excitation(single(0, 2), -0.44).gates
    assert_exact(c, generator_pauli(t, 3), 0.44)


def test_symmetrized_covers_every_kind():
    cases = [
        (single(1, 4, symmetrized=True), 5, 0.3, 1e-10),
        (double(0, 1, 2, 3, symmetrized=True), 4, -0.7, 1e-10),
        (controlled_single(0, 2, 3, symmetrized=True), 4, 0.52, 1e-10),
        (higher_excitation([0, 1, 2], [3, 4, 5], symmetrized=True), 6, 0.21, 1e-9),
    ]
    for t, width, theta, tol in cases:
        c = compile_symmetrized(t, theta)
        assert_exact(c, generator_pauli(t, width), theta, tol=tol)


def test_symmetrized_guards():
    with pytest.raises(SynthesisError):
        compile_symmetrized(single(0, 1), 0.1)
    with pytest.raises(SynthesisError):
        compile_symmetrized(single(0, 1, symmetrized=True), 0.1, conjugation_mode=4, n_qubits=5)


# Neither a bool, a float, a string nor a negative number is an index, whether
# or not the template of the index it would equal is cached.
_NOT_INDICES = pytest.mark.parametrize("value, message", [
    (2.0, "{} 2.0 is not an integer"), (True, "{} True is not an integer"),
    ("4", "{} '4' is not an integer"), (-1, "negative {} -1"),
], ids=["float", "bool", "str", "negative"])
_CACHES = pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])


def _caches(warm, call):
    _clear_caches()
    if warm:
        call()


@_CACHES
@_NOT_INDICES
def test_symmetrized_refuses_a_conjugation_mode_that_is_not_an_index(warm, value, message):
    t = single(0, 2, symmetrized=True)
    _caches(warm, lambda: compile_symmetrized(t, 0.3, conjugation_mode=2))
    with pytest.raises(SynthesisError, match=message.format("conjugation mode")):
        compile_symmetrized(t, 0.3, conjugation_mode=value)


_REGISTER_CALLS = {
    "single": lambda n: compile_single_excitation(single(0, 2), 0.3, n_qubits=n),
    "double_block": lambda n: compile_double_block(0, 1, 2, 3, (0.1, 0.2, 0.3), n_qubits=n),
    "coupled_exchange": lambda n: compile_coupled_exchange(0, 1, 2, 3, 0.3, n_qubits=n),
    "controlled": lambda n: compile_controlled_single(0, 2, 3, 0.3, n_qubits=n),
    "higher": lambda n: compile_higher_excitation(higher_excitation([0], [2]), 0.3, n_qubits=n),
    "symmetrized": lambda n: compile_symmetrized(single(0, 2, symmetrized=True), 0.3,
                                                 n_qubits=n),
    "baseline": lambda n: baseline_string_by_string(single(0, 2), 0.3, n_qubits=n),
    "mixed_cnot": lambda n: compile_mixed_cnot(double(0, 1, 2, 3), 0.3, n_qubits=n),
}


@_CACHES
@_NOT_INDICES
@pytest.mark.parametrize("call", _REGISTER_CALLS.values(), ids=_REGISTER_CALLS)
def test_compilers_refuse_a_register_width_that_is_not_an_index(call, warm, value, message):
    _caches(warm, lambda: call(4))
    with pytest.raises(SynthesisError, match=message.format("qubit count")):
        call(value)


_WRONG_OPERANDS = {
    "pauli_rotation": (lambda: compile_pauli_rotation("XX", 0.1),
                       "string must be PauliString, got 'XX'"),
    "single": (lambda: compile_single_excitation((0, 1), 0.1),
               r"term must be ExcitationTerm, got \(0, 1\)"),
    "symmetrized": (lambda: compile_symmetrized("x", 0.1), "term must be ExcitationTerm, got 'x'"),
    "baseline": (lambda: baseline_string_by_string(5, 0.1), "term must be ExcitationTerm, got 5"),
    "mixed_cnot": (lambda: compile_mixed_cnot([1], 0.1),
                   r"term must be ExcitationTerm, got \[1\]"),
    "higher": (lambda: compile_higher_excitation(None, 0.1),
               "term must be ExcitationTerm, got None"),
    "eliminate_backward": (lambda: eliminate_backward_ms([1]),
                           r"circuit must be Circuit, got \[1\]"),
}


@pytest.mark.parametrize("call, message", _WRONG_OPERANDS.values(), ids=_WRONG_OPERANDS)
def test_compilers_refuse_an_operand_of_the_wrong_type(call, message):
    with pytest.raises(SynthesisError, match=message):
        call()


# --- string-by-string baseline ------------------------------------------------


def test_baseline_ms_counts_per_kind():
    cases = [
        (single(0, 1), 2, 4),
        (single(0, 3), 4, 4),
        (double(0, 1, 2, 3), 4, 16),
        (controlled_single(0, 2, 1), 3, 8),
        # One pair per string of the unit-coefficient generator, however
        # small the coefficient.
        (double(0, 2, 5, 7, 1e-16), 8, 16),
        (double(0, 2, 5, 7, 0.0), 8, 16),
    ]
    for t, width, expected_ms in cases:
        c = baseline_string_by_string(t, 0.33)
        assert count(c).ms_total == expected_ms
        assert_exact(c, generator_pauli(t, width), 0.33)


def test_baseline_agrees_with_the_parallel_compilers():
    t = double(0, 1, 2, 3)
    base = circuit_unitary(baseline_string_by_string(t, 0.29)).matrix
    par = circuit_unitary(compile_double_block(0, 1, 2, 3, (0.29, 0.0, 0.0))).matrix
    assert np.linalg.norm(base - par) < 1e-10


# --- backward-MS elimination --------------------------------------------------


def test_ms_square_table_regenerates_from_dense_matrices():
    for n in range(1, 9):
        window = tuple(range(n))
        k, pauli = ms_square_phase_exponent(n)
        for axis, letter in (("xx", "X"), ("yy", "Y")):
            u = circuit_unitary(Circuit(n, (MS(axis, "forward", window),))).matrix
            word = from_label(letter * n) if pauli else PauliString(n, {})
            expected = (1j**k) * dense_pauli(word)
            assert np.linalg.norm(u @ u - expected) < 1e-12


@pytest.mark.parametrize("value, message", [
    (2.5, "MS window size 2.5 is not an integer"), (-2, "negative MS window size -2"),
    ("3", "MS window size '3' is not an integer"), (True, "MS window size True is not an integer"),
], ids=["float", "negative", "str", "bool"])
def test_ms_square_phase_exponent_refuses_a_size_that_is_not_an_index(value, message):
    with pytest.raises(SynthesisError, match=message):
        ms_square_phase_exponent(value)


def test_eliminate_backward_is_exact_for_every_window_size():
    for n in range(2, 8):
        for axis in ("xx", "yy"):
            c = Circuit(n, (MS(axis, "backward", tuple(range(n))),))
            e = eliminate_backward_ms(c)
            r = count(e)
            assert r.ms_backward == 0 and r.ms_total == 1
            letters = clifford_rows(e)
            if n % 2 == 0:
                assert len(letters) == n
                assert {name for _, name in letters} == {axis[0]}
            else:
                assert letters == []
            diff = np.linalg.norm(circuit_unitary(c).matrix - circuit_unitary(e).matrix)
            assert diff < 1e-12


def test_eliminate_backward_passthrough_and_idempotence():
    fwd = Circuit(3, (MS("xx", "forward", (0, 1, 2)),))
    assert eliminate_backward_ms(fwd) is fwd
    c = compile_double_block(0, 1, 2, 3, (0.3, 0.2, 0.1))
    e = eliminate_backward_ms(c)
    r = count(e)
    assert (r.ms_forward, r.ms_backward) == (4, 0)
    assert eliminate_backward_ms(e) is e
    diff = np.linalg.norm(circuit_unitary(c).matrix - circuit_unitary(e).matrix)
    assert diff < 1e-10
    assert e.metadata == c.metadata


# --- CNOT-ladder mixed scheme -------------------------------------------------


def test_mixed_cnot_single_sandwich_counts():
    t = double(0, 1, 2, 3)
    c = compile_mixed_cnot(t, 0.37)
    r = count(c)
    assert r.ms_total == 2
    assert r.cnot == 16
    assert_exact(c, generator_pauli(t, 4), 0.37)


def test_mixed_cnot_handles_gapped_windows():
    for p, q, r_, s in [(0, 1, 3, 4), (0, 2, 3, 5)]:
        t = double(p, q, r_, s)
        width = s + 1
        c = compile_mixed_cnot(t, -0.52)
        rep = count(c)
        assert rep.ms_total == 2 and rep.cnot == 16
        assert_exact(c, generator_pauli(t, width), -0.52)


def test_mixed_cnot_zero_angle_and_guards():
    c = compile_mixed_cnot(double(0, 1, 2, 3), 0.0)
    u = circuit_unitary(c).matrix
    assert np.linalg.norm(u - np.eye(16)) < 1e-12
    with pytest.raises(SynthesisError):
        compile_mixed_cnot(single(0, 1), 0.1)


# --- cross-kind oracle sweep --------------------------------------------------


def test_every_compiler_is_phase_exact_on_random_angles():
    rng = np.random.default_rng(7)

    def angles(k=2):
        return [float(a) for a in rng.uniform(-2.5, 2.5, size=k)]

    for theta in angles():
        for p, q in [(0, 1), (0, 3), (2, 5), (0, 9)]:
            t = single(p, q)
            c = compile_single_excitation(t, theta)
            assert_exact(c, generator_pauli(t, q + 1), theta)
    for theta in angles():
        for orbitals in [(1, 3, 4, 6), (2, 4, 7, 9)]:
            c = compile_double_block(*orbitals, (theta, 0.0, 0.0))
            t = double(*orbitals)
            assert_exact(c, generator_pauli(t, orbitals[-1] + 1), theta)
    for theta in angles():
        c = compile_coupled_exchange(0, 2, 3, 5, theta)
        v = term_product(6, [(double(0, 5, 3, 2), theta), (double(0, 2, 3, 5), theta)])
        report = assert_equivalent(circuit_unitary(c), v, tol=1e-10)
        assert report, report.distance
    for theta in angles():
        for p, q, j in [(0, 3, 5), (2, 6, 4)]:
            g = generator_pauli(controlled_single(p, q, j), max(p, q, j) + 1)
            for variant in ("a", "b"):
                c = compile_controlled_single(p, q, j, theta, variant=variant)
                assert_exact(c, g, theta)
    for theta in angles():
        for sub, sup in [([1], [4]), ([0, 2], [3, 5])]:
            t = higher_excitation(sub, sup)
            c = compile_higher_excitation(t, theta)
            assert_exact(c, generator_pauli(t, max(sub + sup) + 1), theta)
    for theta in angles():
        t = double(1, 2, 4, 5, symmetrized=True)
        c = compile_symmetrized(t, theta)
        assert_exact(c, generator_pauli(t, 6), theta)
        m = compile_mixed_cnot(double(1, 2, 4, 5), theta)
        assert_exact(m, generator_pauli(double(1, 2, 4, 5), 6), theta)


# --- block templates ------------------------------------------------------------


def _shifted(t, k):
    control = None if t.control is None else t.control + k
    return replace(t, sub=tuple(m + k for m in t.sub), sup=tuple(m + k for m in t.sup),
                   control=control)


_coefficients = st.floats(0.05, 2.0).flatmap(lambda c: st.sampled_from((c, -c)))
_tiny_coefficients = st.floats(-300.0, 0.0).flatmap(
    lambda e: st.sampled_from((10.0**e, -(10.0**e))))


_SCHEMES_BY_SHAPE = {
    "single": ("layers", "strings"),
    "double": ("layers", "strings", "ladder"),
    "coupled": ("layers", "strings", "ladder"),
    "controlled": ("layers", "core_strings", "strings", "halves"),
}


@st.composite
def _template_groups(draw, coefficients=_coefficients):
    """(terms on modes from 0, lowering options) of one group: a single,
    doubles with 1-3 pairings on one window, coupled exchange, controlled
    singles with the control inside or outside the core, or a symmetrized
    group of any of these with a conjugation mode, each coefficient drawn
    from ``coefficients``, lowered by any block scheme that applies."""
    shape = draw(st.sampled_from(tuple(_SCHEMES_BY_SHAPE)))
    symmetrized = draw(st.booleans())
    options = {}
    if shape == "single":
        terms = [single(0, draw(st.integers(1, 6)), draw(coefficients), symmetrized)]
    elif shape in ("double", "coupled"):
        p, q, r, s = [0, *sorted(draw(st.sets(st.integers(1, 6), min_size=3, max_size=3)))]
        if shape == "double":
            pairings = [(p, q, r, s), (p, r, q, s), (p, s, q, r)]
            picked = draw(st.lists(st.sampled_from(pairings), min_size=1, max_size=3, unique=True))
            terms = [double(*m, draw(coefficients), symmetrized) for m in picked]
        else:
            c = draw(coefficients)
            terms = [double(p, q, r, s, c, symmetrized), double(p, s, r, q, c, symmetrized)]
    else:
        core = draw(st.integers(2, 5))
        p, q = draw(st.sampled_from(((0, core), (1, core + 1))))
        if draw(st.booleans()):
            controls = [draw(st.integers(p + 1, q - 1))]
        else:
            outside = [m for m in range(q + 3) if not p <= m <= q]
            controls = draw(st.lists(st.sampled_from(outside), min_size=1, max_size=2, unique=True))
        terms = [controlled_single(p, q, j, draw(coefficients), symmetrized) for j in controls]
    options["scheme"] = draw(st.sampled_from(_SCHEMES_BY_SHAPE[shape]))
    lo = min(m for t in terms for m in t.modes)
    terms = [_shifted(t, -lo) for t in terms]
    if symmetrized:
        options["conjugation_mode"] = draw(st.sampled_from((None, *terms[0].sub, *terms[0].sup)))
    return terms, options


def _exact_angle_magnitudes(pairs, width, conjugation_mode=None, scheme="layers", **_):
    """|angle| of every rotation a group can emit: each pool string's weight
    summed from 0.0 in member order (one product per string for controlled
    singles and for the strings and halves schemes), from the generator
    strings of the actual terms; the strings scheme does not conjugate."""
    head = pairs[0][0]
    if head.symmetrized and scheme != "strings":
        j = head.sub[0] if conjugation_mode is None else conjugation_mode
        twins = [(replace(t, symmetrized=False), theta) for t, theta in pairs]
        pairs = [(t, local_equivalence_conjugate(t, j)[1] * theta) for t, theta in twins]
    products = [(theta * c.real, s) for t, theta in pairs
                for c, s in generator_pauli(t, width).terms]
    if head.kind == "controlled_single" and scheme in ("layers", "core_strings"):
        return {abs(4.0 * w) for w, _ in products}
    if scheme in ("strings", "halves"):
        return {abs(2.0 * w) for w, _ in products}
    weights = {}
    for w, s in products:
        weights[s] = weights.get(s, 0.0) + w
    return {0.0, *(abs(2.0 * w) for w in weights.values())}


@settings(max_examples=150, deadline=None)
@given(_template_groups(), st.data())
def test_templates_fill_what_a_fresh_derivation_emits(group, data):
    terms, options = group
    span = 1 + max(m for t in terms for m in t.modes)
    a, b = data.draw(st.lists(st.integers(0, 10 - span), min_size=2, max_size=2))
    # Seeded uniform angles have full mantissas, so their sums round by order;
    # drawn floats bring zeros and subnormals.
    seeded = st.randoms(use_true_random=False).map(
        lambda rng: [rng.uniform(-2.0, 2.0) for _ in terms])
    angles = st.one_of(seeded, st.lists(st.floats(-2.0, 2.0), min_size=len(terms),
                                        max_size=len(terms)))
    thetas, others = data.draw(angles), data.draw(angles)
    width = span + max(a, b)

    def lower(offset, angles):
        placed = dict(options)
        if placed.get("conjugation_mode") is not None:
            placed["conjugation_mode"] += offset
        pairs = [(_shifted(t, offset), theta) for t, theta in zip(terms, angles)]
        return pairs, placed, Circuit(width, _lower_group(pairs, width, **placed))

    _clear_caches()
    at_a, placed, cold = lower(a, thetas)
    _clear_caches()
    lower(b, others)
    derived = _template.cache_info().misses
    warm = lower(a, thetas)[2]
    assert _template.cache_info().misses == derived
    assert serialize(warm) == serialize(cold)

    exact = _exact_angle_magnitudes(at_a, width, **placed)
    assert all(abs(g.angle) in exact for g in warm if isinstance(g, (Rz, CRz)))
    generator = PauliSum(
        width, [(theta * c, s) for t, theta in at_a for c, s in generator_pauli(t, width).terms])
    report = assert_equivalent(circuit_unitary(warm), generator_unitary(generator, 1.0), tol=1e-9)
    assert report, report.distance


def _record_line(g):
    """The record line serialize writes for ``g``."""
    return serialize(Circuit(1 + g._highest, (g,))).splitlines()[-1]


def _moved(gate, k):
    """A new gate equal to the Clifford1, CNOT or MS ``gate`` moved ``k``
    qubits up, built by its own constructor."""
    if type(gate) is Clifford1:
        return Clifford1(gate.qubit + k, gate.name)
    if type(gate) is CNOT:
        return CNOT(gate.control + k, gate.target + k)
    return MS(gate.axis, gate.direction, [q + k for q in gate.qubits])


def _lowered_with_template(pairs, width, **options):
    """(gates, template items, offset of the template, placed items) of one
    _lower_group call: the placement is the one of the template's placements
    whose gate objects the call emitted, and there must be exactly one."""
    with mock.patch.object(synth, "_template", wraps=synth._template) as template:
        gates = _lower_group(pairs, width, **options)
    items, placements = _template(*template.call_args.args)
    (offset,) = [o for o, (placed, _) in placements.items()
                 if all(g is at for g, at in zip(gates, placed) if type(at) is not _Slot)]
    return gates, items, offset, placements[offset][0]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_template_groups(), _template_groups(_tiny_coefficients)), st.data())
def test_every_lowering_emits_one_gate_per_template_item(group, data):
    """Each Clifford1, CNOT and MS gate of a fill is the placed template's
    object, the one shared object of the item's gate shifted up, whose kept
    record line is the one a freshly built equal gate formats, and each slot
    is filled with a rotation on the slot's shifted qubits."""
    terms, options = group
    shift = data.draw(st.integers(0, 3))
    if options.get("conjugation_mode") is not None:
        options["conjugation_mode"] += shift
    terms = [_shifted(t, shift) for t in terms]
    width = 1 + max(m for t in terms for m in t.modes)
    angle = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-2.0, 2.0))
    thetas = data.draw(st.lists(angle, min_size=len(terms), max_size=len(terms)))
    gates, template, offset, placed = _lowered_with_template(
        list(zip(terms, thetas)), width, **options)
    assert len(gates) == len(template) == len(placed)
    assert offset == shift
    for gate, item, at in zip(gates, template, placed):
        if type(item) is _Slot:
            assert type(gate) is (Rz if item.control is None else CRz)
            expected = (item.qubit + shift,) if item.control is None else (
                item.control + shift, item.qubit + shift)
            assert gate_qubits(gate) == expected
        else:
            assert gate is at is circuit._SHARED[_record_line(gate)]
            shifted = _moved(item, shift)
            assert gate == shifted
            assert gate._record == circuit._format(shifted)


def test_placing_shared_lines_again_builds_no_gate(monkeypatch):
    """Every (template items, offset) a cold dense 12-mode Trotter step
    places, placed again while its lines are shared, hands out the shared
    objects and constructs no Clifford1, CNOT or MS gate."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look their module up
    spec.loader.exec_module(inputs)
    table = parse_integrals(inputs.integral_document(12, random.Random("profile/12")))
    terms = term_list(table)
    _clear_caches()
    with mock.patch.object(synth, "_place", wraps=synth._place) as place:
        build_trotter_step(terms, TrotterConfig(0.1, orbital_class=table.reality))
    calls = [c.args for c in place.call_args_list]
    assert len(calls) == 846
    assert sum(type(item) is not _Slot for items, _ in calls for item in items) == 18070
    shared = dict(circuit._SHARED)
    patches = [mock.patch.object(kind, "__init__", autospec=True, side_effect=kind.__init__)
               for kind in (Clifford1, CNOT, MS)]
    with patches[0] as cl, patches[1] as cnot, patches[2] as ms:
        again = [synth._place(items, offset) for items, offset in calls]
    assert (cl.call_count, cnot.call_count, ms.call_count) == (0, 0, 0)
    assert all(g is shared[g._record] for placed, _ in again for g in placed if type(g) is not _Slot)
    assert circuit._SHARED == shared


def _rotation_key(g):
    """A rotation's kind, qubits and angle, the sign of a zero angle included."""
    return (type(g), gate_qubits(g), g.angle, math.copysign(1.0, g.angle))


def test_equal_rotations_of_one_fill_are_one_gate():
    """Each group of the H3+ step is one fill: its equal Rz values are one
    object, while an exact -0.0 and 0.0 on one qubit (which serialize
    differently) stay two gates."""
    signed_zero_pairs = repeats = 0
    for group in fusion_groups(h3plus_builtin().excitation_terms):
        gates, template, _, _ = _lowered_with_template([(t, 0.1) for t in group], 6)
        assert len(gates) == len(template)
        rotations = [g for g in gates if type(g) in (Rz, CRz)]
        shared = {}
        for g in rotations:
            assert shared.setdefault(_rotation_key(g), g) is g
        assert len({id(g) for g in rotations}) == len(shared)
        repeats += len(rotations) - len(shared)
        zeros = {}
        for g in rotations:
            if g.angle == 0.0:
                zeros.setdefault(gate_qubits(g), {})[math.copysign(1.0, g.angle)] = g
        for by_sign in zeros.values():
            if len(by_sign) == 2:
                signed_zero_pairs += 1
                negative, positive = by_sign[-1.0], by_sign[1.0]
                assert negative is not positive
                assert serialize(Circuit(6, (negative,))) != serialize(Circuit(6, (positive,)))
    assert signed_zero_pairs > 0 and repeats > 0


def test_coupled_exchange_group_keeps_its_shape_at_any_coefficient():
    # The two slots the pair cancels round to exactly zero at c = 0.1 only.
    shapes = []
    for c in (0.1, 1e-300, 1.0):
        pairs = [(double(0, 1, 2, 3, c), 0.1), (double(0, 3, 2, 1, c), 0.10000000000000002)]
        gates, template, _, _ = _lowered_with_template(pairs, 4)
        assert len(gates) == len(template) == 12
        shapes.append(_without_angles(gates))
    assert shapes[0] == shapes[1] == shapes[2]


def _derived_key(pairs, **options):
    """The template key _lower_group derives for ``pairs``, every cache
    emptied afterwards so the next _template call derives it afresh."""
    width = 1 + max(t.modes[-1] for t, _ in pairs)
    with mock.patch.object(synth, "_template", wraps=synth._template) as template:
        _lower_group(pairs, width, **options)
    (key,) = template.call_args.args
    _clear_caches()
    return key


@pytest.mark.parametrize("pairs", [
    [(single(1, 4), 0.3)],
    [(double(0, 2, 3, 5), 0.1), (double(0, 3, 2, 5), 0.2), (double(0, 5, 2, 3), 0.3)],
    [(controlled_single(0, 3, 5), 0.4)],
], ids=["single", "double", "controlled_single"])
def test_a_template_derivation_builds_only_the_gates_it_keeps(pairs):
    """A local-dressing sandwich builds its closing gates once and conjugates
    each request's Z string by the MS gate once, so deriving a template
    constructs each of its Clifford1 and MS gates once and no other, and
    calls conjugate_by_ms once per rotation slot."""
    key = _derived_key(pairs)
    patches = [mock.patch.object(kind, "__init__", autospec=True, side_effect=kind.__init__)
               for kind in (Clifford1, MS)]
    conjugations = mock.patch.object(synth, "conjugate_by_ms", wraps=synth.conjugate_by_ms)
    with patches[0] as cl, patches[1] as ms, conjugations as conj:
        items, _ = _template(key)
    assert not any(type(item) is CNOT for item in items)
    assert cl.call_count == sum(type(item) is Clifford1 for item in items) > 0
    assert ms.call_count == sum(type(item) is MS for item in items) > 0
    assert conj.call_count == sum(type(item) is _Slot for item in items) > 0


@pytest.mark.parametrize("pairs, scheme", [
    ([(double(0, 1, 2, 3), 0.37)], "ladder"),
    ([(higher_excitation([0, 1, 2], [3, 4, 5]), 0.23)], "layers"),
], ids=["mixed_cnot", "order_three"])
def test_a_template_derivation_conjugates_each_request_by_ms_once(pairs, scheme):
    """The ZZ requests of the CNOT-ladder scheme and the CNOT-assisted layers
    of order three also cost one conjugate_by_ms call per rotation slot."""
    key = _derived_key(pairs, scheme=scheme)
    with mock.patch.object(synth, "conjugate_by_ms", wraps=synth.conjugate_by_ms) as conj:
        items, _ = _template(key)
    assert any(type(item) is CNOT for item in items)
    assert conj.call_count == sum(type(item) is _Slot for item in items) > 0


def _reference_letter_word(rows):
    """The search the letter-word table replaces: every word of at most three
    CLIFFORD1_NAMES gates, shortest first, the first whose pullback maps each
    base letter as ``rows`` asks, or None.  The pullback inverts the word's
    forward letter map, computed through conjugate_by_clifford."""
    for length in range(4):
        for word in itertools.product(CLIFFORD1_NAMES, repeat=length):
            pull = {}
            for letter in "XYZ":
                e = PauliString(1, {0: letter})
                for name in word:
                    e = conjugate_by_clifford(e, name, (0,))
                pull[e.letter(0)] = letter
            if all(pull[b] == t for b, t in rows.items()):
                return word
    return None


def test_letter_words_match_the_search_they_replace():
    assert len(synth._LETTER_WORDS) == 6
    found = 0
    # every partial map from {X, Y, Z} into {X, Y, Z}
    for images in itertools.product((None, "X", "Y", "Z"), repeat=3):
        rows = {b: t for b, t in zip("XYZ", images) if t is not None}
        want = _reference_letter_word(rows)
        if want is None:
            with pytest.raises(SynthesisError, match="no dressing word"):
                synth._solve_letter_word(rows)
        else:
            assert synth._solve_letter_word(rows) == want
            found += 1
    # the empty map, 9 one-letter maps, 18 two-letter and 6 full ones
    assert found == 34


def test_template_angles_sum_in_member_order_to_the_last_bit():
    rng = np.random.default_rng(7)
    pairings = [double(0, 2, 3, 5, 1.3), double(0, 3, 2, 5), double(0, 5, 2, 3, -0.75)]
    # theta * (coefficient * scale) is not (theta * coefficient) * scale for a
    # subnormal theta.
    subnormal = (2.2250738585e-313, 0.0, -0.0)
    for thetas in [*rng.uniform(-2.0, 2.0, (20, 3)), subnormal]:
        pairs = [(_shifted(t, 1), float(theta)) for t, theta in zip(pairings, thetas)]
        exact = _exact_angle_magnitudes(pairs, 7)
        gates = _lower_group(pairs, 7)
        assert all(abs(g.angle) in exact for g in gates if isinstance(g, Rz))


# --- blocks that depend on the term's shape only ------------------------------
# PauliSum drops weights of magnitude 1e-15 and below, so generator_pauli of a
# tiny term has no strings; every compiler reads them at coefficient 1.0.


def _unit(t):
    """t at coefficient +-1, keeping the sign the coupled exchange cancels by."""
    return replace(t, coefficient=math.copysign(1.0, t.coefficient))


def _without_angles(gates):
    return [replace(g, angle=0.0) if isinstance(g, (Rz, CRz)) else g for g in gates]


def test_tiny_order_three_term_compiles_on_budget():
    for coefficient in (1e-16, 0.0, -1e-300):
        t = higher_excitation((0, 2, 3), (4, 6, 7), coefficient=coefficient)
        c = compile_higher_excitation(t, 0.4)
        assert count(c).ms_total == higher_order_ms_count(3) == 12
        assert_exact(c, generator_pauli(t, 8), 0.4, tol=1e-9)
        unit = compile_higher_excitation(_unit(t), 0.4)
        assert _without_angles(c.gates) == _without_angles(unit.gates)


def test_tiny_double_keeps_its_parity_qubits_in_the_ms_window():
    for coefficient in (1e-16, 0.0, 1.0):
        t = double(0, 2, 5, 7, coefficient)
        lowered = _lower_group([(t, 0.4)], 8)
        mixed = compile_mixed_cnot(t, 0.4)
        for gates in (lowered, mixed.gates):
            assert {g.qubits for g in gates if isinstance(g, MS)} == {(0, 1, 2, 5, 6, 7)}
        assert_exact(mixed, generator_pauli(t, 8), 0.4)


def test_tiny_symmetrized_controlled_single_compiles():
    t = controlled_single(0, 3, 5, 1e-16, True)
    c = compile_symmetrized(t, 0.3)
    unit = compile_symmetrized(_unit(t), 0.3)
    assert _without_angles(c.gates) == _without_angles(unit.gates)
    assert_exact(c, generator_pauli(t, 6), 0.3)


def test_zero_coefficient_fills_the_unit_template_with_zero_angles():
    t = double(1, 3, 4, 6)
    _clear_caches()
    unit = _lower_group([(t, 0.4)], 7)
    derived = _template.cache_info().misses
    zero = _lower_group([(replace(t, coefficient=0.0), 0.4)], 7)
    assert _template.cache_info().misses == derived
    assert _without_angles(zero) == _without_angles(unit)
    assert {g.angle for g in zero if isinstance(g, Rz)} == {0.0}
    assert any(g.angle != 0.0 for g in unit if isinstance(g, Rz))


@settings(max_examples=80, deadline=None)
@given(_template_groups(_tiny_coefficients), st.data())
def test_tiny_coefficients_keep_the_unit_shape_and_the_unitary(group, data):
    terms, options = group
    width = 1 + max(m for t in terms for m in t.modes)
    thetas = data.draw(st.lists(st.floats(0.1, 2.0), min_size=len(terms), max_size=len(terms)))
    gates = _lower_group(list(zip(terms, thetas)), width, **options)
    unit = _lower_group([(_unit(t), theta) for t, theta in zip(terms, thetas)], width, **options)
    assert _without_angles(gates) == _without_angles(unit)
    generator = PauliSum(
        width, [(theta * c, s) for t, theta in zip(terms, thetas)
                for c, s in generator_pauli(t, width).terms])
    report = assert_equivalent(circuit_unitary(Circuit(width, gates)),
                               generator_unitary(generator, 1.0), tol=1e-9)
    assert report, report.distance
