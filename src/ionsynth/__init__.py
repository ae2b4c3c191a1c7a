"""ionsynth: fermionic excitations and Hamiltonians on trapped-ion hardware.

The pipeline runs Pauli algebra (pauli) -> gate model and circuit files
(circuit) -> second-quantized operators under the Jordan-Wigner mapping
(fermion, integrals) -> MS-native block synthesis (synth) -> ansatz and
Trotter assembly (evolution), with every compiled block checkable against a
dense oracle (verify).  The command-line entry point lives in cli.
"""

from .circuit import (
    CNOT,
    CRz,
    Circuit,
    CircuitError,
    Clifford1,
    CostReport,
    Gate,
    GateCountReport,
    GlobalPhase,
    MS,
    ParseError,
    Rz,
    Rzz,
    SchemaError,
    cost,
    count,
    deserialize,
    gate_qubits,
    inverse,
    serialize,
)
from .evolution import (
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
from .fermion import (
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
    hamiltonian_ladder,
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
from .integrals import (
    IntegralError,
    IntegralParseError,
    IntegralTable,
    SymmetryConflictError,
    h3plus_builtin,
    h3plus_table,
    parse_integrals,
    term_list,
)
from .pauli import (
    CLIFFORD1_NAMES,
    CLIFFORD2_NAMES,
    PauliError,
    PauliString,
    PauliSum,
    conjugate_by_clifford,
    conjugate_by_ms,
    from_label,
    identity_string,
    multiply,
)
from .synth import (
    SynthesisError,
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
from .verify import (
    MAX_QUBITS,
    DenseOperator,
    EquivalenceReport,
    VerifyError,
    assert_equivalent,
    circuit_unitary,
    dense_pauli,
    dense_sum,
    generator_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # pauli
    "PauliError", "PauliString", "PauliSum", "identity_string", "from_label",
    "multiply", "conjugate_by_clifford", "conjugate_by_ms",
    "CLIFFORD1_NAMES", "CLIFFORD2_NAMES",
    # circuit
    "MS", "Rz", "CRz", "Rzz", "Clifford1", "CNOT", "GlobalPhase", "Gate",
    "Circuit", "GateCountReport", "CostReport", "CircuitError", "ParseError",
    "SchemaError", "count", "cost", "serialize", "deserialize",
    "gate_qubits", "inverse",
    # fermion
    "FermionError", "FermionOperator", "creation", "annihilation", "number",
    "identity_op", "jw_map", "ExcitationTerm", "single", "double",
    "controlled_single", "higher_excitation", "LocalTerm", "density_term",
    "coulomb_term", "generator_pauli", "local_pauli", "ladder_form",
    "local_ladder_form", "local_equivalence_conjugate", "HamiltonianTerms",
    "hamiltonian_ladder",
    # integrals
    "IntegralError", "IntegralParseError", "SymmetryConflictError",
    "IntegralTable", "parse_integrals", "term_list", "h3plus_table",
    "h3plus_builtin",
    # synth
    "SynthesisError",
    "ms_square_phase_exponent", "compile_pauli_rotation",
    "compile_single_excitation", "compile_double_block",
    "compile_coupled_exchange", "compile_controlled_single",
    "compile_higher_excitation", "compile_symmetrized",
    "baseline_string_by_string", "eliminate_backward_ms",
    "compile_mixed_cnot", "higher_order_ms_count",
    # verify
    "DenseOperator", "VerifyError", "EquivalenceReport", "circuit_unitary",
    "generator_unitary", "assert_equivalent", "dense_pauli", "dense_sum",
    "MAX_QUBITS",
    # evolution
    "EvolutionError", "AnsatzSpec", "TrotterConfig", "uccsd_excitations",
    "build_uccsd_layer", "prepare_reference", "fusion_groups",
    "build_trotter_step", "trotter_error_probe",
]
