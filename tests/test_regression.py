"""Byte-identity regression set: SHA-256 of ``serialize()`` for fixed circuits.

Each hash pins one circuit gate for gate, angle bits included.  A change that
moves any of them changes compiled output; if that is intended, the change
says why and the hash is updated with it.
"""

import hashlib
import itertools
import math
import random

import pytest

from ionsynth.circuit import serialize
from ionsynth.evolution import AnsatzSpec, TrotterConfig, build_trotter_step, build_uccsd_layer
from ionsynth.fermion import (
    HamiltonianTerms,
    controlled_single,
    coulomb_term,
    density_term,
    double,
    higher_excitation,
    single,
)
from ionsynth.integrals import IntegralTable, h3plus_builtin, term_list
from ionsynth.pauli import from_label
from ionsynth.synth import (
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
)

H3_SPEC = AnsatzSpec(6, (0, 1), (2, 3, 4, 5), tuple(0.07 * (i + 1) for i in range(8)))

MIXED_COMPLEX = HamiltonianTerms(
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


def _dense_real_terms(n: int, seed: int) -> HamiltonianTerms:
    """Every entry of every symmetry orbit of a real table set, seeded."""
    rng = random.Random(seed)
    table = IntegralTable(n, "real")
    for p in range(n):
        for q in range(p, n):
            table.set_one_body(p, q, round(rng.uniform(-1.0, 1.0), 6))
    seen = set()
    for key in itertools.product(range(n), repeat=4):
        p, q, r, s = key
        rep = min(key, (q, p, s, r), (r, s, p, q), (s, r, q, p),
                  (r, q, p, s), (s, p, q, r), (p, s, r, q), (q, r, s, p))
        if rep not in seen:
            seen.add(rep)
            table.set_two_body(*rep, round(rng.uniform(-1.0, 1.0), 6))
    return term_list(table)


def _wide_spec(n_modes: int, n_electrons: int) -> AnsatzSpec:
    """A UCCSD spec over the lowest ``n_electrons`` modes, seeded parameters;
    the excitation count comes from combinatorics over the alpha (even) and
    beta (odd) halves."""
    occ_a, occ_b = (n_electrons + 1) // 2, n_electrons // 2
    vir_a, vir_b = (n_modes + 1) // 2 - occ_a, n_modes // 2 - occ_b
    count = (occ_a * vir_a + occ_b * vir_b
             + math.comb(occ_a, 2) * math.comb(vir_a, 2)
             + math.comb(occ_b, 2) * math.comb(vir_b, 2)
             + occ_a * occ_b * vir_a * vir_b)
    rng = random.Random(f"wide/{n_modes}/{n_electrons}")
    return AnsatzSpec(n_modes, tuple(range(n_electrons)), tuple(range(n_electrons, n_modes)),
                      tuple(rng.uniform(-1.0, 1.0) for _ in range(count)))


# the perfbench uccsd_wide registers: long parity strings, many offsets
WIDE_SPECS = {f"{n}_{e}": _wide_spec(n, e) for n, e in ((16, 4), (16, 6), (20, 4))}

H3 = h3plus_builtin()
DENSE6 = _dense_real_terms(6, 2024)


def _trotter(terms, orbital_class, scheduling, dt):
    return lambda: build_trotter_step(terms, TrotterConfig(dt, orbital_class, scheduling))


CIRCUITS = {
    "h3_uccsd_parallelized": lambda: build_uccsd_layer(H3_SPEC, "parallelized"),
    "h3_uccsd_baseline": lambda: build_uccsd_layer(H3_SPEC, "baseline"),
    **{f"wide_uccsd_{name}_{scheduling}": (
        lambda spec=spec, scheduling=scheduling: build_uccsd_layer(spec, scheduling))
       for name, spec in WIDE_SPECS.items() for scheduling in ("parallelized", "baseline")},
    "h3_trotter_real_parallelized": _trotter(H3, "real", "parallelized", 0.1),
    "h3_trotter_real_baseline": _trotter(H3, "real", "baseline", 0.1),
    "h3_trotter_complex_baseline": _trotter(H3, "complex", "baseline", 0.1),
    "h3_trotter_complex_parallelized": _trotter(H3, "complex", "parallelized", 0.1),
    "mixed_complex_parallelized": _trotter(MIXED_COMPLEX, "complex", "parallelized", 0.11),
    "mixed_complex_baseline": _trotter(MIXED_COMPLEX, "complex", "baseline", 0.11),
    "dense6_parallelized": _trotter(DENSE6, "real", "parallelized", 0.07),
    "dense6_baseline": _trotter(DENSE6, "real", "baseline", 0.07),
    "pauli_rotation": lambda: compile_pauli_rotation(from_label("XZYI").with_phase(-1), 0.37),
    "single_xx": lambda: compile_single_excitation(single(1, 4, 0.8), 0.3),
    "single_yy": lambda: compile_single_excitation(single(0, 3), -0.45, axis="yy", n_qubits=5),
    "double_block": lambda: compile_double_block(0, 2, 3, 5, (0.21, -0.13, 0.4)),
    "coupled_exchange": lambda: compile_coupled_exchange(0, 1, 3, 4, 0.29),
    "controlled_a_outside": lambda: compile_controlled_single(0, 2, 4, 0.33),
    "controlled_a_inside": lambda: compile_controlled_single(0, 3, 1, 0.33),
    "controlled_b_inside": lambda: compile_controlled_single(1, 4, 2, -0.19, variant="b"),
    "controlled_b_outside": lambda: compile_controlled_single(1, 3, 5, 0.41, variant="b"),
    "higher_3": lambda: compile_higher_excitation(
        higher_excitation([0, 1, 2], [3, 4, 5], 0.6), 0.2
    ),
    "symmetrized_single": lambda: compile_symmetrized(
        single(0, 2, 0.7, symmetrized=True), 0.31, conjugation_mode=2
    ),
    "symmetrized_double": lambda: compile_symmetrized(
        double(0, 2, 1, 3, 0.5, symmetrized=True), 0.27, conjugation_mode=3
    ),
    "symmetrized_controlled": lambda: compile_symmetrized(
        controlled_single(0, 3, 1, 0.9, symmetrized=True), -0.22, conjugation_mode=3
    ),
    "symmetrized_higher": lambda: compile_symmetrized(
        higher_excitation([0, 1, 2], [3, 4, 5], 0.4, symmetrized=True), 0.15, conjugation_mode=4
    ),
    "baseline_string_by_string": lambda: baseline_string_by_string(double(0, 1, 2, 3, 0.6), 0.25),
    "baseline_controlled": lambda: baseline_string_by_string(
        controlled_single(1, 4, 6, 0.7), 0.3, n_qubits=8
    ),
    "baseline_symmetrized_double": lambda: baseline_string_by_string(
        double(1, 3, 2, 5, 0.5, symmetrized=True), -0.27
    ),
    "eliminate_backward_ms": lambda: eliminate_backward_ms(
        compile_double_block(0, 1, 2, 4, (0.3, 0.1, -0.2))
    ),
    "mixed_cnot": lambda: compile_mixed_cnot(double(0, 1, 2, 3, 0.8), 0.35),
    "mixed_cnot_interior": lambda: compile_mixed_cnot(double(1, 3, 6, 8, -0.6), 0.23),
}

EXPECTED = {
    "baseline_controlled": "250ae6be4d5c30189def8aa0886b572fddb45d1809669bd4d2f605030713c208",
    "baseline_symmetrized_double": "01f4b4c8fc642afa0a2463db65acca0d79888ebcf210384acd93b764cb4d207c",
    "baseline_string_by_string": "39ee0a311c82ecd335966584773b364e4d7056f8278daa1105a395a0d36d60c4",
    "controlled_a_inside": "262802ed4832bf268304fed18c20bdd4b2c692ffd04d066faec02f0e328be709",
    "controlled_a_outside": "a0aed2b584ce7bcdf5c69abb8c91889166e5067788aa926f42221614052a5cc9",
    "controlled_b_inside": "1136a969909152e977d9d5f62d064f6c309f78169e8d93c522a1b27380031046",
    "controlled_b_outside": "720883e35615b94e3a05184200951e5fac4f2b7b00921e0f369ca38effac4506",
    "coupled_exchange": "3d1ab5764194fbca74a866aa0d6d0d53480de76deb696f5a5648bd11f01af96c",
    "dense6_baseline": "484f2fb6721b9b7a173c47932137921270b1206c04bfb08015ff01a018c93fa4",
    "dense6_parallelized": "ee532cbf5750f8ebb232039f1cc7bb585340770fd052184a2d7c62da01463146",
    "double_block": "435587d2924dd4ac6dd4a30eafe014301e732a2075f56ed113ab71704b81f6bd",
    "eliminate_backward_ms": "0c5caadf3b5872d96b2dc6dceec486c75076f8f75154a0bf6118c09d52305fb7",
    "h3_trotter_complex_baseline": "164331ce919d725da28edf395b8e07326ac319c4cea04ccba03a31d6df1a0cab",
    "h3_trotter_complex_parallelized": "57c16ff7f8916e0a66ae5b68196496f865c370d70a5146000eec665fa12b13c2",
    "h3_trotter_real_baseline": "33d729edf85cdfb886de35780614b4903e6bd2ec2a980e7b8b08e6499a44ba41",
    "h3_trotter_real_parallelized": "57c16ff7f8916e0a66ae5b68196496f865c370d70a5146000eec665fa12b13c2",
    "h3_uccsd_baseline": "0e2c596fc4ae9821d84cc650f26cb501930ca92a9bf865599fcfd38715ead214",
    "h3_uccsd_parallelized": "d9627449a9fc2d364fa0d891e68df1e8fafd12d952082f943a430be2ef58c789",
    "higher_3": "909cc7635d896337ffafc3c9b8019528516e4a768a33800d601070ac23963046",
    "mixed_cnot": "5d2f85ed0f089b82914ba4a22dd995545549974d97e7754c3461b6d07554e08d",
    "mixed_cnot_interior": "b14c0a7e55407c5b31e13b4c1ae825444cedad85d53065a6d551bd1e95614087",
    "mixed_complex_baseline": "aadad024d17524a6fb3817c3d910becf44353b7cef05a63e5451fc7ccdbc3958",
    "mixed_complex_parallelized": "3352e4472b890cd4836a92b45c8fbda5cf578d09ecd935a1eefcbff34b4f8e8a",
    "pauli_rotation": "d69997d6526f259d568f823201cdc23406f15e9c88f85002dc2829179c9e3850",
    "single_xx": "5558adaf854d15ee5948f47dcee7de33e1d0b225d2e151af5f3b91488e94ccdb",
    "single_yy": "af03187e3d28009a3ea6df3af70f4fd8d2053605696985c933fe968182c15d64",
    "symmetrized_controlled": "1af1af17dc0bae755ce3358e8bc1ebfec519cb41b851a9c5c90072158e765d1a",
    "symmetrized_double": "8a90f5d9137c8d942b3f85975932a49706b05468f09f67480c64ad0fd3b8e1e2",
    "symmetrized_higher": "75358143b96d87d2939014b525a83a85c1db2cea895b37a644a7b25d05a55436",
    "symmetrized_single": "62ca4df3e8b1e8c3b0a00137ddbc2077bc44c4a28367a64bac6742047c5557a8",
    "wide_uccsd_16_4_baseline": "68ef177ef41f83157cc138957ea469e2308133671ffa86ab98e7838b3a41b792",
    "wide_uccsd_16_4_parallelized": "bd9c98c61894616ae24dc27ab57b7a0b0e1820f1e85cddb62445c95c87f73eb1",
    "wide_uccsd_16_6_baseline": "a9bed0553eb6a5c3907005412a0578a3cf583321bc03e9c5b3922e0c3a105194",
    "wide_uccsd_16_6_parallelized": "efe7a95f2b0f201fb2f7405463d8fe465951a0b8df47992826688e9bcae6b4c0",
    "wide_uccsd_20_4_baseline": "52a414d0766901ef67469dd826c134bcaf6d320ed20433ec7200312c464f962a",
    "wide_uccsd_20_4_parallelized": "63b31541ec211ba65d996fb6811c77d5a82ca194945efd487d39db707ba8be26",
}


def fingerprint(name: str) -> str:
    return hashlib.sha256(serialize(CIRCUITS[name]()).encode()).hexdigest()


def test_regression_set_is_complete():
    assert set(EXPECTED) == set(CIRCUITS)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_serialized_circuit_is_byte_identical(name):
    assert fingerprint(name) == EXPECTED[name]
