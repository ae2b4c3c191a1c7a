"""Ansatz layers and Trotter steps: counts, ordering, dense-oracle exactness."""

import itertools
import math
import random
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
    GlobalPhase,
    Rz,
    Rzz,
    count,
    deserialize,
    serialize,
)
from ionsynth.evolution import (
    AnsatzSpec,
    EvolutionError,
    TrotterConfig,
    build_trotter_step,
    build_uccsd_layer,
    fusion_groups,
    prepare_reference,
    trotter_error_probe,
    uccsd_excitations,
)
from ionsynth.fermion import (
    FermionError,
    HamiltonianTerms,
    controlled_single,
    coulomb_term,
    density_term,
    double,
    generator_pauli,
    higher_excitation,
    local_pauli,
    single,
)
from ionsynth.integrals import IntegralTable, h3plus_builtin, term_list
from ionsynth.verify import circuit_unitary, dense_sum, ordered_product

H3 = h3plus_builtin()
H3_SPEC = AnsatzSpec(6, (0, 1), (2, 3, 4, 5), tuple(0.07 * (i + 1) for i in range(8)))


def nonlocal_part(terms):
    return HamiltonianTerms(terms.n_modes, terms.reality, 0.0, (), terms.excitation_terms)


def exact_exp(matrix, dt):
    evals, evecs = np.linalg.eigh(matrix)
    return (evecs * np.exp(-1j * dt * evals)) @ evecs.conj().T


def spectral_product(terms, dt, groups):
    """Product of exact factors, each by eigendecomposition: diagonal part
    first, then each group.  It shares no code with ordered_product."""
    n = 1 << terms.n_modes
    diagonal = float(terms.constant) * np.eye(n, dtype=complex)
    for lt in terms.local_terms:
        diagonal += dense_sum(local_pauli(lt, terms.n_modes))
    v = exact_exp(diagonal, dt)
    for group in groups:
        block = np.zeros((n, n), dtype=complex)
        for t in group:
            block += dense_sum(generator_pauli(t, terms.n_modes))
        v = exact_exp(block, dt) @ v
    return v


def per_term_groups(terms):
    return tuple((t,) for t in terms.excitation_terms)


# MS gates per parallelized block, keyed by the kind of the group's terms
BLOCK_MS = {"double": 4, "controlled_single": 2, "single": 2}


# --- domain types ---------------------------------------------------------------


def test_ansatz_spec_guards():
    with pytest.raises(EvolutionError):
        AnsatzSpec(6, (0, 1), (1, 2), ())
    with pytest.raises(EvolutionError):
        AnsatzSpec(6, (0, 0), (2, 3), ())
    with pytest.raises(EvolutionError):
        AnsatzSpec(4, (0, 1), (2, 5), ())
    with pytest.raises(EvolutionError):
        AnsatzSpec(6, (0, 1), (2, 3, 4, 5), (0.1,))


@pytest.mark.parametrize("occupied, virtual", [
    ((0, 1.5), (2, 3)),
    ((0, 1), (2.0, 3)),
    ((0, True), (2, 3)),
])
def test_ansatz_spec_refuses_non_integer_modes(occupied, virtual):
    """A float used to be truncated: (0, 1.5) became occupied == (0, 1)."""
    with pytest.raises(EvolutionError, match="not an integer"):
        AnsatzSpec(6, occupied, virtual, ())


@pytest.mark.parametrize("n_modes, occupied", [(2.5, (0,)), (True, (0,)), (6.0, (0, 1)), ("6", (0,))])
def test_mode_count_must_be_an_integer(n_modes, occupied):
    """AnsatzSpec(2.5, ...) and AnsatzSpec(True, ...) used to be built, and
    prepare_reference((0,), 2.5) failed later with a CircuitError."""
    with pytest.raises(EvolutionError, match="mode count .* is not an integer"):
        AnsatzSpec(n_modes, occupied, (), ())
    with pytest.raises(EvolutionError, match="mode count .* is not an integer"):
        prepare_reference(occupied, n_modes)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ansatz_spec_refuses_non_finite_parameters(bad):
    with pytest.raises(EvolutionError, match="finite"):
        AnsatzSpec(6, (0, 1), (2, 3, 4, 5), (bad,) + (0.1,) * 7)


def test_ansatz_modes_accept_numpy_integers():
    spec = AnsatzSpec(6, (np.int64(0), np.int32(1)), (2, 3, np.int16(4), 5), (0.1,) * 8)
    assert spec.occupied == (0, 1) and spec.virtual == (2, 3, 4, 5)
    assert all(type(m) is int for m in spec.occupied + spec.virtual)
    assert prepare_reference((np.int64(2),), 3) == prepare_reference((2,), 3)
    spec = AnsatzSpec(np.int64(6), (0, 1), (2, 3, 4, 5), (0.1,) * 8)
    assert type(spec.n_modes) is int and spec == AnsatzSpec(6, (0, 1), (2, 3, 4, 5), (0.1,) * 8)
    assert prepare_reference((2,), np.int32(3)) == prepare_reference((2,), 3)


@pytest.mark.parametrize("occupied", [[0.7], [True], [1, 2.0]])
def test_prepare_reference_refuses_non_integer_modes(occupied):
    """[0.7] used to put an X on qubit 0."""
    with pytest.raises(EvolutionError, match="not an integer"):
        prepare_reference(occupied, 3)


@pytest.mark.parametrize("value", [True, "0.1", 1 + 0j], ids=["bool", "str", "complex"])
def test_time_steps_and_parameters_that_are_not_real_numbers_are_refused(value):
    with pytest.raises(EvolutionError, match="time step .* is not a real number"):
        TrotterConfig(value)
    with pytest.raises(EvolutionError, match="parameter .* is not a real number"):
        AnsatzSpec(6, (0, 1), (2, 3, 4, 5), (value,) + (0.1,) * 7)


@pytest.mark.parametrize("value", [np.float64(0.5), 2], ids=["numpy-float", "int"])
def test_time_steps_and_parameters_are_stored_as_floats(value):
    step = TrotterConfig(value).time_step
    (parameter, *_) = AnsatzSpec(6, (0, 1), (2, 3, 4, 5), (value,) + (0.1,) * 7).parameters
    assert type(step) is float and type(parameter) is float and step == parameter == value


def test_trotter_config_guards():
    with pytest.raises(EvolutionError):
        TrotterConfig(float("inf"))
    with pytest.raises(EvolutionError):
        TrotterConfig(0.1, orbital_class="spherical")
    with pytest.raises(EvolutionError):
        TrotterConfig(0.1, scheduling="eager")


# --- UCCSD ansatz ---------------------------------------------------------------


def test_uccsd_excitations_are_spin_preserving_and_ordered():
    terms = uccsd_excitations(H3_SPEC)
    assert [(t.kind, t.sub, t.sup) for t in terms] == [
        ("single", (0,), (2,)),
        ("single", (0,), (4,)),
        ("single", (1,), (3,)),
        ("single", (1,), (5,)),
        ("double", (0, 1), (2, 3)),
        ("double", (0, 1), (2, 5)),
        ("double", (0, 1), (3, 4)),
        ("double", (0, 1), (4, 5)),
    ]


def test_uccsd_layer_ms_budget_and_oracle():
    layer = build_uccsd_layer(H3_SPEC)
    assert count(layer).ms_total == 24
    v = np.eye(64, dtype=complex)
    for t, theta in zip(uccsd_excitations(H3_SPEC), H3_SPEC.parameters):
        v = exact_exp(dense_sum(generator_pauli(t, 6)), theta) @ v
    assert np.linalg.norm(circuit_unitary(layer).matrix - v) < 1e-9


def test_uccsd_baseline_compiler_costs_eighty():
    base = build_uccsd_layer(H3_SPEC, scheduling="baseline")
    assert count(base).ms_total == 80
    par = build_uccsd_layer(H3_SPEC)
    diff = np.linalg.norm(circuit_unitary(base).matrix - circuit_unitary(par).matrix)
    assert diff < 1e-9


def test_uccsd_zero_parameters_is_identity():
    spec = AnsatzSpec(6, (0, 1), (2, 3, 4, 5), (0.0,) * 8)
    u = circuit_unitary(build_uccsd_layer(spec)).matrix
    assert np.linalg.norm(u - np.eye(64)) < 1e-12


def test_uccsd_degenerate_specs_give_empty_circuits():
    assert build_uccsd_layer(AnsatzSpec(4, (), (0, 1), ())).gates == ()
    assert build_uccsd_layer(AnsatzSpec(4, (0, 1), (), ())).gates == ()
    with pytest.raises(EvolutionError):
        build_uccsd_layer(H3_SPEC, scheduling="eager")


def test_prepare_reference_places_x_gates():
    c = prepare_reference((0, 1), 6)
    state = circuit_unitary(c).matrix[:, 0]
    assert abs(state[48] - 1.0) < 1e-15
    assert prepare_reference((), 3).gates == ()
    lone = circuit_unitary(prepare_reference((5,), 6)).matrix[:, 0]
    assert abs(lone[1] - 1.0) < 1e-15
    with pytest.raises(EvolutionError):
        prepare_reference((6,), 6)
    with pytest.raises(EvolutionError):
        prepare_reference((2, 2), 6)


# --- fusion groups --------------------------------------------------------------


def test_fusion_groups_for_the_builtin_hamiltonian():
    groups = fusion_groups(H3.excitation_terms)
    shape = [(g[0].kind, len(g)) for g in groups]
    assert shape == [
        ("double", 2),
        ("double", 2),
        ("controlled_single", 2),
        ("double", 2),
        ("controlled_single", 1),
        ("double", 2),
        ("controlled_single", 1),
        ("double", 2),
    ]


def test_same_core_different_window_controls_do_not_fuse():
    # Both excite mode 1 to mode 3, but an in-core control strips itself out
    # of the MS window while an outside control does not; the sandwiches are
    # on different qubit sets, so fusing them is impossible.
    a = controlled_single(1, 3, 2, 0.1, symmetrized=True)
    b = controlled_single(1, 3, 4, 0.1, symmetrized=True)
    groups = fusion_groups((a, b))
    assert [len(g) for g in groups] == [1, 1]


# --- Trotter steps --------------------------------------------------------------


def test_trotter_ms_counts_pin_the_three_schedules():
    part = nonlocal_part(H3)
    for orbital_class, scheduling, want in [
        ("real", "parallelized", 26),
        ("real", "baseline", 56),
        ("complex", "baseline", 176),
    ]:
        cfg = TrotterConfig(0.1, orbital_class=orbital_class, scheduling=scheduling)
        assert count(build_trotter_step(part, cfg)).ms_total == want


def test_trotter_parallel_count_matches_the_per_block_ledger():
    groups = fusion_groups(H3.excitation_terms)
    expected = sum(BLOCK_MS[g[0].kind] for g in groups)
    c = build_trotter_step(nonlocal_part(H3), TrotterConfig(0.1))
    assert count(c).ms_total == expected == 26


@st.composite
def fusable_terms(draw):
    """A random excitation table on at most 6 modes whose fusion groups are wide.

    Doubles come as several pairings of one window; controlled singles as one
    core with several controls, inside and outside the core, so a group can
    reach 4 members.  Complex tables mix in symmetrized partners.
    """
    n = draw(st.integers(4, 6))
    reality = draw(st.sampled_from(("real", "complex")))
    coefficient = st.builds(
        lambda sign, size: sign * size,
        st.sampled_from((-1.0, 1.0)),
        st.floats(0.05, 1.0),
    )
    symmetrized = st.booleans() if reality == "complex" else st.just(False)
    terms = []
    for family in draw(st.lists(st.sampled_from(("single", "double", "controlled")),
                                min_size=1, max_size=4)):
        sym = draw(symmetrized)
        if family == "single":
            p, q = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            terms.append(single(p, q, draw(coefficient), symmetrized=sym))
        elif family == "double":
            w = sorted(draw(st.lists(st.integers(0, n - 1), min_size=4, max_size=4,
                                     unique=True)))
            pairings = [(w[0], w[1], w[2], w[3]), (w[0], w[2], w[1], w[3]),
                        (w[0], w[3], w[1], w[2])]
            for pairing in draw(st.lists(st.sampled_from(pairings), min_size=1, max_size=3,
                                         unique=True)):
                terms.append(double(*pairing, draw(coefficient), symmetrized=sym))
        else:
            p, q = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                        unique=True)))
            others = [j for j in range(n) if j not in (p, q)]
            for j in draw(st.lists(st.sampled_from(others), min_size=1, max_size=4,
                                   unique=True)):
                terms.append(controlled_single(p, q, j, draw(coefficient), symmetrized=sym))
    return HamiltonianTerms(n, reality, 0.0, (), terms)


@settings(max_examples=30, deadline=None)
@given(terms=fusable_terms(), dt=st.floats(0.01, 0.3))
def test_parallel_step_is_the_product_over_fusion_groups(terms, dt):
    groups = fusion_groups(terms.excitation_terms)
    c = build_trotter_step(terms, TrotterConfig(dt, orbital_class=terms.reality))
    v = spectral_product(terms, dt, groups)
    assert np.linalg.norm(circuit_unitary(c).matrix - v) < 1e-9
    assert count(c).ms_total == sum(BLOCK_MS[g[0].kind] for g in groups)


def test_trotter_step_matches_the_ordered_product():
    dt = 0.05
    for orbital_class, scheduling in [
        ("real", "parallelized"),
        ("real", "baseline"),
        ("complex", "baseline"),
    ]:
        cfg = TrotterConfig(dt, orbital_class=orbital_class, scheduling=scheduling)
        c = build_trotter_step(H3, cfg)
        groups = (
            fusion_groups(H3.excitation_terms)
            if scheduling == "parallelized"
            else per_term_groups(H3)
        )
        v = spectral_product(H3, dt, groups)
        assert np.linalg.norm(circuit_unitary(c).matrix - v) < 1e-9


def test_trotter_schedules_agree_when_fused_families_commute():
    dt = 0.08
    par = build_trotter_step(H3, TrotterConfig(dt))
    base = build_trotter_step(H3, TrotterConfig(dt, scheduling="baseline"))
    diff = np.linalg.norm(circuit_unitary(par).matrix - circuit_unitary(base).matrix)
    assert diff < 1e-9


def test_trotter_diagonal_part_is_rz_rzz_exact():
    local_only = HamiltonianTerms(6, "real", 0.45, H3.local_terms, ())
    c = build_trotter_step(local_only, TrotterConfig(0.31))
    kinds = {type(g) for g in c}
    assert kinds <= {GlobalPhase, Rz, Rzz}
    assert count(c).ms_total == 0
    h = dense_sum(local_only.pauli_sum())
    assert np.linalg.norm(circuit_unitary(c).matrix - exact_exp(h, 0.31)) < 1e-12


def test_trotter_rejects_reality_mismatch_and_unknown_kinds():
    fake_complex = HamiltonianTerms(6, "complex", 0.0, H3.local_terms, H3.excitation_terms)
    with pytest.raises(EvolutionError):
        build_trotter_step(fake_complex, TrotterConfig(0.1, orbital_class="real"))
    exotic = HamiltonianTerms(
        6, "real", 0.0, (), (higher_excitation([0, 1, 2], [3, 4, 5], 0.1),)
    )
    with pytest.raises(EvolutionError):
        build_trotter_step(exotic, TrotterConfig(0.1))


@pytest.mark.parametrize("local, excitation, message", [
    ((single(0, 1, 0.1),), (), "local_terms takes LocalTerm objects"),
    ((density_term(3, 0.1),), (), "exceeds 3 modes"),
    ((), (single(0, 3, 0.1),), "exceeds 3 modes"),
], ids=["single-as-local", "local-range", "excitation-range"])
def test_trotter_input_is_refused_where_it_is_given(local, excitation, message):
    """A single in the local slot used to compile as a coulomb term (Rz, Rzz,
    Rz), and a term outside the register failed deep in the build with
    PauliError or SynthesisError."""
    with pytest.raises(FermionError, match=message):
        build_trotter_step(HamiltonianTerms(3, "real", 0.0, local, excitation), TrotterConfig(0.1))


def test_trotter_complex_class_handles_mixed_families():
    terms = HamiltonianTerms(
        4,
        "complex",
        0.1,
        (density_term(0, 0.2), coulomb_term(0, 1, 0.3)),
        (
            single(0, 1, 0.15),
            single(0, 1, 0.2, symmetrized=True),
            double(0, 1, 2, 3, 0.12),
            double(0, 1, 2, 3, 0.09, symmetrized=True),
            controlled_single(0, 2, 3, 0.07),
            controlled_single(0, 2, 3, 0.05, symmetrized=True),
        ),
    )
    dt = 0.11
    for scheduling in ("parallelized", "baseline"):
        cfg = TrotterConfig(dt, orbital_class="complex", scheduling=scheduling)
        c = build_trotter_step(terms, cfg)
        groups = (
            fusion_groups(terms.excitation_terms)
            if scheduling == "parallelized"
            else per_term_groups(terms)
        )
        v = spectral_product(terms, dt, groups)
        assert np.linalg.norm(circuit_unitary(c).matrix - v) < 1e-9
    # the symmetrized and antisymmetrized doubles share a window but not a block
    sizes = [len(g) for g in fusion_groups(terms.excitation_terms)]
    assert sizes == [1] * 6


def test_trotter_error_probe_scaling():
    probe = trotter_error_probe(H3, (0.2, 0.1, 0.05))
    errors = [e for _, e in probe]
    assert all(e > 0 for e in errors)
    assert 3.5 < errors[0] / errors[1] < 4.5
    assert 3.5 < errors[1] / errors[2] < 4.5
    zero = trotter_error_probe(H3, (0.0,))
    assert zero[0][1] < 1e-12


def test_trotter_error_probe_commuting_terms_are_exact():
    local_only = HamiltonianTerms(6, "real", 0.45, H3.local_terms, ())
    for _, err in trotter_error_probe(local_only, (0.3, 0.9)):
        assert err < 1e-10


def test_trotter_error_probe_rejects_large_registers():
    big = HamiltonianTerms(11, "real", 0.0, (), ())
    with pytest.raises(EvolutionError):
        trotter_error_probe(big, (0.1,))


# --- shared Clifford gates ----------------------------------------------------------


def _random_terms(n: int, seed: int, reality: str = "real") -> HamiltonianTerms:
    """A dense table on n modes, every symmetry orbit set from the seed;
    complex where the orbit does not tie the entry to its own conjugate."""
    rng = random.Random(seed)
    table = IntegralTable(n, reality)

    def value(real: bool):
        v = rng.uniform(-1.0, 1.0)
        return v if real or reality == "real" else complex(v, rng.uniform(-1.0, 1.0))

    for p in range(n):
        for q in range(p, n):
            table.set_one_body(p, q, value(p == q))
    seen = set()
    for key in itertools.product(range(n), repeat=4):
        p, q, r, s = key
        plain, conjugated = {key, (q, p, s, r)}, {(r, s, p, q), (s, r, q, p)}
        if reality == "real":
            plain |= conjugated | {(r, q, p, s), (s, p, q, r), (p, s, r, q), (q, r, s, p)}
        rep = min(plain | conjugated)
        if rep not in seen:
            seen.add(rep)
            table.set_two_body(*rep, value(plain == conjugated))
    return term_list(table)


RANDOM8 = _random_terms(8, 17)
SHARED_BUILDS = {
    "h3_trotter": lambda: build_trotter_step(H3, TrotterConfig(0.1)),
    "random8_trotter": lambda: build_trotter_step(RANDOM8, TrotterConfig(0.1)),
    "h3_uccsd": lambda: build_uccsd_layer(H3_SPEC),
}


def _cold(build):
    synth._clear_caches()
    return build()


def _record_line(g):
    """The record line serialize writes for ``g``."""
    return serialize(Circuit(1 + g._highest, (g,))).splitlines()[-1]


@pytest.mark.parametrize("build", SHARED_BUILDS.values(), ids=SHARED_BUILDS)
@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_equal_clifford_gates_are_one_object(build, cold):
    c = _cold(build) if cold else build()
    first = {}
    cliffords = [g for g in c if type(g) in (Clifford1, CNOT, MS)]
    assert len(set(cliffords)) < len(cliffords)
    for g in cliffords:
        assert first.setdefault(g, g) is g, g
        assert circuit._SHARED[_record_line(g)] is g


@pytest.mark.parametrize("build", SHARED_BUILDS.values(), ids=SHARED_BUILDS)
@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_angle_free_gates_read_back_as_the_built_objects(build, cold):
    """A built step's Clifford1, CNOT and MS gates are the shared objects that
    deserialize hands out, and a rotation reads back as a new, equal gate."""
    c = _cold(build) if cold else build()
    again = deserialize(serialize(c))
    assert again == c
    for g, h in zip(c.gates, again.gates):
        if type(g) in (Clifford1, CNOT, MS):
            assert h is g
        else:
            assert h is not g
    assert {type(g) for g in circuit._SHARED.values()} <= {Clifford1, CNOT, MS}


@pytest.mark.parametrize("build", SHARED_BUILDS.values(), ids=SHARED_BUILDS)
def test_cold_and_warm_builds_serialize_alike(build):
    text = serialize(_cold(build))
    warm = build()
    assert serialize(warm) == text
    assert serialize(deserialize(text)) == text


def test_shared_gates_outlive_evicted_templates():
    """The gate cache is keyed by gate value, not by template object, so a
    template derived and placed again after the template cache, placements
    included, is cleared fills the same objects."""
    before = build_trotter_step(RANDOM8, TrotterConfig(0.1))
    synth._template.cache_clear()
    after = build_trotter_step(RANDOM8, TrotterConfig(0.1))
    assert after == before
    for g, h in zip(before, after):
        if type(g) in (Clifford1, CNOT, MS):
            assert g is h
        elif type(g) is Rz:
            assert g is not h


@pytest.mark.parametrize("build", SHARED_BUILDS.values(), ids=SHARED_BUILDS)
def test_a_cold_build_derives_each_shape_once(build):
    """Every cache is unbounded, so no shape is derived twice in a process, no
    shape is placed twice at one offset and no gate value is built twice."""
    assert synth._template.cache_info().maxsize is None
    with mock.patch.object(synth, "_place", wraps=synth._place) as place:
        _cold(build)
        info = synth._template.cache_info()
        assert info.misses == info.currsize > 0
        # the template items are cached, so their ids name the shapes
        placements = {(id(call.args[0]), call.args[1]) for call in place.call_args_list}
        assert len(placements) == place.call_count >= info.currsize
        shared = dict(circuit._SHARED)
        assert shared
        place.reset_mock()
        build()
        assert synth._template.cache_info().misses == info.misses
        assert place.call_count == 0
    assert circuit._SHARED == shared
    assert all(circuit._SHARED[key] is g for key, g in shared.items())


# --- whole-step oracle checks -------------------------------------------------------


def group_factors(terms, groups):
    """One generator per factor of a step: the diagonal part (constant and
    local Z strings, which all commute), then each group in order."""
    n, reality = terms.n_modes, terms.reality
    blocks = [HamiltonianTerms(n, reality, terms.constant, terms.local_terms, ())]
    blocks += [HamiltonianTerms(n, reality, 0.0, (), g) for g in groups]
    return [b.pauli_sum() for b in blocks]


@pytest.mark.parametrize("reality", ["real", "complex"])
def test_eight_mode_step_is_the_product_over_fusion_groups(reality):
    """A whole parallelized step on a dense 8-mode table.  Factors must be
    grouped: the schedule moves each fused group to its first member's
    position, so the per-term order is a different operator."""
    terms = RANDOM8 if reality == "real" else _random_terms(8, 17, "complex")
    dt = 0.07
    groups = fusion_groups(terms.excitation_terms)
    assert max(len(g) for g in groups) > 1
    c = build_trotter_step(terms, TrotterConfig(dt, orbital_class=reality))
    v = ordered_product([(g, dt) for g in group_factors(terms, groups)], 8)
    assert np.linalg.norm(circuit_unitary(c).matrix - v.matrix) < 1e-9
