"""Circuit IR: construction guards, counting, cost model, serialization."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsynth.circuit import (
    CNOT,
    MS,
    Circuit,
    CircuitError,
    Clifford1,
    CostReport,
    CRz,
    GlobalPhase,
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


def test_ms_normalizes_axis_direction_and_sorts_qubits():
    g = MS("XX", "Forward", (3, 1, 2))
    assert g.axis == "xx"
    assert g.direction == "forward"
    assert g.qubits == (1, 2, 3)
    assert g.locality == 3


def test_gate_construction_guards():
    with pytest.raises(CircuitError):
        MS("xx", "forward", ())
    with pytest.raises(CircuitError):
        MS("xx", "forward", (0, 0, 1))
    with pytest.raises(CircuitError):
        MS("zz", "forward", (0, 1))
    with pytest.raises(CircuitError):
        MS("xx", "sideways", (0, 1))
    with pytest.raises(CircuitError):
        CRz(2, 2, 0.1)
    with pytest.raises(CircuitError):
        Rzz(5, 5, 0.1)
    with pytest.raises(CircuitError):
        CNOT(1, 1)
    with pytest.raises(CircuitError):
        Clifford1(0, "t")
    with pytest.raises(CircuitError):
        Clifford1(0, 5)
    with pytest.raises(CircuitError):
        Rz(0, float("nan"))
    with pytest.raises(CircuitError):
        GlobalPhase(float("inf"))


def test_circuit_rejects_out_of_range_qubits():
    with pytest.raises(CircuitError):
        Circuit(2, (Rz(2, 0.1),))
    with pytest.raises(CircuitError):
        Circuit(3, (MS("xx", "forward", (1, 3)),))


def test_gate_qubits():
    assert gate_qubits(MS("xx", "forward", (4, 0))) == (0, 4)
    assert gate_qubits(Rz(2, 0.1)) == (2,)
    assert gate_qubits(CRz(1, 3, 0.1)) == (1, 3)
    assert gate_qubits(Rzz(2, 5, 0.1)) == (2, 5)
    assert gate_qubits(Clifford1(7, "h")) == (7,)
    assert gate_qubits(CNOT(0, 6)) == (0, 6)
    assert gate_qubits(GlobalPhase(0.3)) == ()
    with pytest.raises(CircuitError):
        gate_qubits("rz 0 0.1")
    with pytest.raises(CircuitError):
        inverse("rz 0 0.1")


def test_inverse_is_involutive_and_flips_direction():
    gates = [
        MS("yy", "forward", (0, 1, 2)),
        Rz(1, 0.7),
        CRz(0, 2, -0.3),
        Rzz(1, 2, 1.1),
        Clifford1(0, "s"),
        Clifford1(0, "sx"),
        Clifford1(0, "h"),
        CNOT(2, 0),
        GlobalPhase(0.25),
    ]
    for g in gates:
        assert inverse(inverse(g)) == g
    assert inverse(MS("xx", "forward", (0, 1))).direction == "backward"
    assert inverse(Clifford1(0, "s")) == Clifford1(0, "sdg")
    assert inverse(Rz(3, 0.5)) == Rz(3, -0.5)
    assert inverse(CRz(0, 2, -0.3)) == CRz(0, 2, 0.3)
    assert inverse(Rzz(1, 2, 1.1)) == Rzz(1, 2, -1.1)
    assert inverse(GlobalPhase(0.25)) == GlobalPhase(-0.25)


def test_count_empty_circuit_is_all_zero():
    report = count(Circuit(3))
    assert report.ms_forward == 0
    assert report.ms_backward == 0
    assert report.ms_total == 0
    assert report.ms_by_axis == {"xx": 0, "yy": 0}
    assert report.single_qubit == 0
    assert report.crz == 0
    assert report.rzz == 0
    assert report.cnot == 0
    assert report.ms_locality_histogram == {}


def test_count_mixed_circuit():
    c = Circuit(6, (
        MS("xx", "forward", (0, 1, 2, 3)),
        Rz(0, 0.1),
        Rz(1, 0.2),
        Clifford1(2, "h"),
        MS("xx", "backward", (0, 1, 2, 3)),
        MS("yy", "forward", (0, 1)),
        CRz(4, 5, 0.3),
        Rzz(4, 5, 0.4),
        CNOT(0, 5),
        GlobalPhase(1.0),
        MS("yy", "backward", (0, 1)),
    ))
    report = count(c)
    assert report.ms_forward == 2
    assert report.ms_backward == 2
    assert report.ms_total == 4
    assert report.ms_by_axis == {"xx": 2, "yy": 2}
    assert report.single_qubit == 3
    assert report.crz == 1
    assert report.rzz == 1
    assert report.cnot == 1
    assert report.ms_locality_histogram == {2: 2, 4: 2}


def test_cost_square_root_time_model():
    c = Circuit(4, (MS("xx", "forward", (0, 1, 2, 3)),))
    report = cost(c, tau=1.0)
    assert report.total_ms_time == pytest.approx(2.0)
    c2 = Circuit(4, (MS("xx", "forward", (0, 1)), MS("yy", "backward", (1, 2, 3))))
    report2 = cost(c2, tau=2.5)
    assert report2.total_ms_time == pytest.approx(2.5 * (math.sqrt(2) + math.sqrt(3)))
    assert isinstance(report2, CostReport)
    with pytest.raises(CircuitError):
        cost(c, tau=0.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf,
                                 pytest.param(10**400, id="huge-int")])
def test_cost_rejects_non_finite_tau(tau):
    """An int too large for a float used to raise OverflowError."""
    c = Circuit(2, (MS("xx", "forward", (0, 1)),))
    with pytest.raises(CircuitError):
        cost(c, tau=tau)


@pytest.mark.parametrize("tau", [True, False, "1", None, 1 + 0j],
                         ids=["true", "false", "str", "none", "complex"])
def test_cost_refuses_a_tau_that_is_not_a_real_number(tau):
    c = Circuit(2, (MS("xx", "forward", (0, 1)),))
    with pytest.raises(CircuitError, match="not a real number"):
        cost(c, tau=tau)


def test_cost_takes_numpy_and_integer_taus():
    c = Circuit(2, (MS("xx", "forward", (0, 1)),))
    assert cost(c, tau=np.float64(2.0)).total_ms_time == cost(c, tau=2).total_ms_time


@pytest.mark.parametrize("angle", [np.float64(0.5), 2], ids=["numpy-float", "int"])
def test_angles_take_numpy_floats_and_ints_as_floats(angle):
    for gate in (Rz(0, angle), CRz(0, 1, angle), Rzz(0, 1, angle), GlobalPhase(angle)):
        assert type(gate.angle) is float and gate.angle == angle


def test_depth_greedy_layering():
    # Disjoint single-qubit gates share a layer; overlapping gates stack.
    c = Circuit(4, (Rz(0, 0.1), Rz(1, 0.1), Rz(2, 0.1), Rz(0, 0.2)))
    assert cost(c).sequential_depth == 2
    c2 = Circuit(4, (MS("xx", "forward", (0, 1)), MS("xx", "forward", (2, 3)),
                     MS("xx", "forward", (1, 2))))
    assert cost(c2).sequential_depth == 2
    # GlobalPhase occupies no qubits and no layer.
    assert cost(Circuit(1, (GlobalPhase(0.5),))).sequential_depth == 0
    assert cost(Circuit(0)).sequential_depth == 0


def test_depth_invariant_under_relabeling():
    perm = {0: 3, 1: 0, 2: 4, 3: 1, 4: 2}
    base = Circuit(5, (
        MS("xx", "forward", (0, 1, 2)),
        Rz(3, 0.3),
        CRz(3, 4, 0.2),
        MS("yy", "backward", (0, 4)),
        CNOT(1, 2),
    ))
    relabeled_gates = []
    for g in base:
        if isinstance(g, MS):
            relabeled_gates.append(MS(g.axis, g.direction, tuple(perm[q] for q in g.qubits)))
        elif isinstance(g, Rz):
            relabeled_gates.append(Rz(perm[g.qubit], g.angle))
        elif isinstance(g, CRz):
            relabeled_gates.append(CRz(perm[g.control], perm[g.target], g.angle))
        elif isinstance(g, CNOT):
            relabeled_gates.append(CNOT(perm[g.control], perm[g.target]))
    relabeled = Circuit(5, tuple(relabeled_gates))
    assert cost(base).sequential_depth == cost(relabeled).sequential_depth
    assert cost(base).total_ms_time == pytest.approx(cost(relabeled).total_ms_time)


def test_serialize_empty_circuit_is_header_only():
    doc = serialize(Circuit(3))
    assert doc == "ionsynth-circuit v1\nqubits 3\n"
    assert deserialize(doc) == Circuit(3)


def test_round_trip_preserves_angles_exactly():
    c = Circuit(5, (
        MS("xx", "forward", (0, 2, 3)),
        Rz(1, -math.pi / 2),
        CRz(0, 4, 1e-17),
        Rzz(2, 3, 0.1 + 0.2),
        Clifford1(4, "sxdg"),
        CNOT(3, 0),
        GlobalPhase(-math.pi / 4),
        MS("yy", "backward", (1, 4)),
    ), {"op": "demo block", "theta": "0.3"})
    again = deserialize(serialize(c))
    assert again == c
    assert again.gates[1].angle == -math.pi / 2
    assert again.metadata == {"op": "demo block", "theta": "0.3"}


# One gate of each kind and its exact v1 record.
_RECORD_LINES = [
    (MS("YY", "Backward", (4, 1)), "ms yy backward 1 4"),
    (Rz(1, -math.pi / 2), "rz 1 -1.5707963267948966"),
    (CRz(0, 3, 1e-17), "crz 0 3 1e-17"),
    (Rzz(2, 5, 0.1 + 0.2), "rzz 2 5 0.30000000000000004"),
    (Clifford1(4, "SXDG"), "cl 4 sxdg"),
    (CNOT(3, 0), "cnot 3 0"),
    (GlobalPhase(-0.25), "phase -0.25"),
]


@pytest.mark.parametrize("gate, record", _RECORD_LINES)
def test_record_line_of_each_gate_kind(gate, record):
    c = Circuit(6, (gate,))
    doc = serialize(c)
    assert doc == f"ionsynth-circuit v1\nqubits 6\n{record}\n"
    assert deserialize(doc) == c


@pytest.mark.parametrize("record", [
    "ms xx forward",
    "rz 1", "rz 1 0.5 2",
    "crz 0 1", "crz 0 1 0.5 2",
    "rzz 0 1", "rzz 0 1 0.5 2",
    "cl 0", "cl 0 h 1",
    "cnot 0", "cnot 0 1 2",
    "phase", "phase 0.5 1",
])
def test_record_with_wrong_operand_count_is_parse_error_at_its_line(record):
    doc = f"ionsynth-circuit v1\nqubits 2\n# comment\n{record}\nrz 0 0.1\n"
    with pytest.raises(ParseError) as err:
        deserialize(doc)
    assert type(err.value) is ParseError
    assert err.value.line_no == 4


@pytest.mark.parametrize("metadata", [
    {"note": "a\rb"},
    {"note": "a\x0cb"},
    {"note": "a\u2028b"},
    {"k\tx": "v"},
    {"note": "a\tb"},
    {"note": "a  b"},
    {"note": " ab"},
    {"note": "ab "},
])
def test_serialize_refuses_metadata_that_does_not_read_back(metadata):
    with pytest.raises(CircuitError):
        serialize(Circuit(1, (), metadata))


@pytest.mark.parametrize("doc, line_no", [
    ("ionsynth-circuit v1\nqubits 2\nrz 1 0.1\nqubits 3\n", 4),
    ("ionsynth-circuit v1\nqubits 1\nmeta op a\nmeta op b\nrz 0 0.1\n", 4),
    ("ionsynth-circuit v1\nqubits -1\n# a\n# b\n# c\n", 2),
    ("ionsynth-circuit v1\nqubits 1\nmeta\n", 3),
    ("ionsynth-circuit v1\n", 1),
])
def test_repeated_lines_and_negative_width_fail_at_their_line(doc, line_no):
    with pytest.raises(ParseError) as err:
        deserialize(doc)
    assert err.value.line_no == line_no


@pytest.mark.parametrize("metadata", [{"k": 1}, {1: "v"}, {"k": None}])
def test_circuit_refuses_metadata_that_is_not_strings(metadata):
    """Such an entry used to be built and then break serialize with an AttributeError."""
    with pytest.raises(CircuitError, match="not a pair of strings"):
        Circuit(1, (), metadata)


def test_metadata_value_keeps_interior_spaces():
    c = Circuit(1, (), {"note": "three spaced words", "empty": ""})
    assert deserialize(serialize(c)) == c


def test_parse_error_carries_line_number():
    doc = "ionsynth-circuit v1\nqubits 2\nrz 0 not-a-number\n"
    with pytest.raises(ParseError) as err:
        deserialize(doc)
    assert err.value.line_no == 3
    assert "line 3" in str(err.value)


def test_unknown_gate_is_schema_error():
    doc = "ionsynth-circuit v1\nqubits 2\nfredkin 0 1\n"
    with pytest.raises(SchemaError):
        deserialize(doc)


def test_wrong_header_version_rejected():
    with pytest.raises(SchemaError):
        deserialize("ionsynth-circuit v2\nqubits 1\n")
    with pytest.raises(SchemaError):
        deserialize("something else\n")
    with pytest.raises(ParseError):
        deserialize("")


def test_gate_before_qubits_line_rejected():
    doc = "ionsynth-circuit v1\nrz 0 0.5\nqubits 2\n"
    with pytest.raises(ParseError) as err:
        deserialize(doc)
    assert err.value.line_no == 2


def test_structural_errors_surface_as_parse_errors_with_line():
    doc = "ionsynth-circuit v1\nqubits 4\nms xx forward 1 1 2\n"
    with pytest.raises(ParseError) as err:
        deserialize(doc)
    assert err.value.line_no == 3
    doc2 = "ionsynth-circuit v1\nqubits 2\nrz 5 0.1\n"
    with pytest.raises(ParseError):
        deserialize(doc2)


def test_out_of_range_qubit_fails_at_its_own_line():
    doc = "ionsynth-circuit v1\nqubits 2\nrz 5 0.1\n# a\n# b\n"
    with pytest.raises(ParseError) as err:
        deserialize(doc)
    assert err.value.line_no == 3
    assert "outside 0..1" in str(err.value)
    with pytest.raises(ParseError) as err:
        deserialize("ionsynth-circuit v1\nqubits 3\ncnot 0 1\n\nms yy backward 0 2 3\nrz 0 0.1\n")
    assert err.value.line_no == 5
    with pytest.raises(ParseError) as err:  # a repeated record fails at its first copy
        deserialize("ionsynth-circuit v1\nqubits 2\nrz 0 0.1\nrz 5 0.1\nrz 0 0.1\nrz 5 0.1\n")
    assert err.value.line_no == 4
    assert "outside 0..1" in str(err.value)


@pytest.mark.parametrize("make", [
    lambda: MS(1, "forward", (0, 1)),
    lambda: MS("xx", 2, (0, 1)),
    lambda: MS("xx", "forward", (0, 0.5)),
    lambda: Rz(0.5, 0.1),
    lambda: Rz(True, 0.1),
    lambda: CRz(0, 1.0, 0.1),
    lambda: Rzz(False, 1, 0.1),
    lambda: Clifford1("0", "h"),
    lambda: CNOT(0, True),
    lambda: Rz(0, True),
    lambda: Rz(0, "0.1"),
    lambda: Rz(0, 1 + 0j),
    lambda: GlobalPhase(False),
], ids=["ms-axis", "ms-direction", "ms-qubit", "rz-float", "rz-bool", "crz-float",
        "rzz-bool", "cl-str", "cnot-bool", "rz-bool-angle", "rz-str-angle", "rz-complex-angle",
        "phase-bool-angle"])
def test_gate_operands_that_would_not_read_back_are_refused(make):
    with pytest.raises(CircuitError):
        Circuit(2, (make(),))


def test_numpy_integer_qubits_are_accepted():
    c = Circuit(2, (Rz(np.int64(1), 0.1), MS("xx", "forward", (np.int32(0), 1))))
    assert serialize(c) == "ionsynth-circuit v1\nqubits 2\nrz 1 0.1\nms xx forward 0 1\n"
    assert deserialize(serialize(c)) == c
    wide = Circuit(np.int64(2), (Rz(1, 0.1),))
    assert type(wide.n_qubits) is int
    assert serialize(wide) == "ionsynth-circuit v1\nqubits 2\nrz 1 0.1\n"
    assert deserialize(serialize(wide)) == wide


def test_negative_width_and_non_gates_are_refused():
    with pytest.raises(CircuitError, match="negative qubit count"):
        Circuit(-1)
    with pytest.raises(CircuitError, match="not a gate: 'rz'"):
        Circuit(2, ("rz",))


@pytest.mark.parametrize("width", [2.5, True, 3.0, "3", None])
def test_non_integer_width_is_refused(width):
    """A float or bool width would be written as a qubits line the v1 parser rejects."""
    with pytest.raises(CircuitError, match="not an integer"):
        Circuit(width)


@pytest.mark.parametrize("doc, line_no", [
    ("qubits 1_2\n", 2),
    ("qubits \u0661\n", 2),
    ("qubits \uff12\n", 2),
    ("qubits 2\nrz \u0661 0.5\n", 3),
    ("qubits 2\nrz 0 1_000.5\n", 3),
    ("qubits 2\nrz 0 \u0661.5\n", 3),
    ("qubits 12\n# ok\nms xx forward 0 1_1\n", 4),
    ("qubits 2\ncnot \uff10 1\n", 3),
    ("qubits 2\ncrz 0 1 0.5\nrzz 0 1 1_0.0\n", 4),
    ("qubits 2\ncl 0 \u017f\n", 3),  # the long s upper-cases to S
], ids=["qubits-underscore", "qubits-arabic-indic", "qubits-full-width", "qubit-arabic-indic",
        "angle-underscore", "angle-arabic-indic", "ms-qubit-underscore", "cnot-full-width",
        "rzz-angle-underscore", "clifford-long-s"])
def test_numeric_tokens_python_would_read_are_refused_at_their_line(doc, line_no):
    with pytest.raises(ParseError) as err:
        deserialize("ionsynth-circuit v1\n" + doc)
    assert err.value.line_no == line_no


def test_meta_values_and_comments_keep_any_text():
    doc = ("ionsynth-circuit v1\nqubits 2\nmeta note caf\u00e9_1 \u0661\n"
           "# \u0661_2 comment\nrz 0 -1.5e-3\n")
    c = deserialize(doc)
    assert c.metadata == {"note": "caf\u00e9_1 \u0661"}
    assert c.gates == (Rz(0, -1.5e-3),)


def test_comments_and_blank_lines_are_ignored():
    doc = "ionsynth-circuit v1\nqubits 2\n\n# a comment\nrz 0 0.5\n"
    c = deserialize(doc)
    assert c.gates == (Rz(0, 0.5),)
    # a record repeated across them reads back as one shared gate
    c = deserialize("ionsynth-circuit v1\nqubits 2\ncl 1 h\n# a comment\n\ncl 1 h\nrz 0 0.5\ncl 1 h\n")
    assert c.gates == (Clifford1(1, "h"), Clifford1(1, "h"), Rz(0, 0.5), Clifford1(1, "h"))
    assert c.gates[0] is c.gates[1] is c.gates[3]


_angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                    allow_infinity=False)


@st.composite
def _gates(draw, n_qubits):
    kind = draw(st.sampled_from(["ms", "rz", "crz", "rzz", "cl", "cnot", "phase"]))
    if kind == "ms":
        size = draw(st.integers(min_value=1, max_value=n_qubits))
        qs = tuple(draw(st.permutations(range(n_qubits)))[:size])
        return MS(draw(st.sampled_from(["xx", "yy"])),
                  draw(st.sampled_from(["forward", "backward"])), qs)
    if kind == "rz":
        return Rz(draw(st.integers(0, n_qubits - 1)), draw(_angles))
    if kind == "crz":
        c, t = draw(st.permutations(range(n_qubits)))[:2]
        return CRz(c, t, draw(_angles))
    if kind == "rzz":
        a, b = draw(st.permutations(range(n_qubits)))[:2]
        return Rzz(a, b, draw(_angles))
    if kind == "cl":
        return Clifford1(draw(st.integers(0, n_qubits - 1)),
                         draw(st.sampled_from(["h", "s", "sdg", "sx", "sxdg", "x", "y", "z"])))
    if kind == "cnot":
        c, t = draw(st.permutations(range(n_qubits)))[:2]
        return CNOT(c, t)
    return GlobalPhase(draw(_angles))


@st.composite
def _circuits(draw):
    """Circuits whose gates come from a drawn pool, so records often repeat."""
    n = draw(st.integers(min_value=2, max_value=7))
    pool = draw(st.lists(_gates(n), min_size=1, max_size=12))
    gates = draw(st.lists(st.sampled_from(pool), max_size=20))
    meta = draw(st.dictionaries(
        st.text(alphabet="abcdefgh_", min_size=1, max_size=6),
        st.text(alphabet="xyz0123456789.", min_size=0, max_size=8),
        max_size=3,
    ))
    return Circuit(n, tuple(gates), meta)


@settings(max_examples=150, deadline=None)
@given(_circuits())
def test_round_trip_identity_randomized(c):
    text = serialize(c)
    again = deserialize(text)
    assert again == c
    # identical record lines read back as one gate object
    shared: dict[str, int] = {}
    for line, g in zip(text.splitlines()[2 + len(c.metadata):], again.gates):
        assert shared.setdefault(line, id(g)) == id(g)


@settings(max_examples=60, deadline=None)
@given(_circuits())
def test_reports_invariant_under_round_trip(c):
    again = deserialize(serialize(c))
    assert count(again) == count(c)
    assert cost(again, tau=1.5) == cost(c, tau=1.5)


def _numpy_qubits(g):
    """g with its qubits as numpy integers, which a Circuit accepts."""
    changes = {}
    for f in fields(g):
        value = getattr(g, f.name)
        if type(value) is int:
            changes[f.name] = np.int64(value)
        elif type(value) is tuple:
            changes[f.name] = tuple(map(np.int32, value))
    return replace(g, **changes)


def _reference_qubits(g) -> set[int]:
    if isinstance(g, MS):
        return set(g.qubits)
    if isinstance(g, (Rz, Clifford1)):
        return {g.qubit}
    if isinstance(g, (CRz, CNOT)):
        return {g.control, g.target}
    if isinstance(g, Rzz):
        return {g.qubit_a, g.qubit_b}
    assert isinstance(g, GlobalPhase)
    return set()


def _reference_cost(c: Circuit, tau: float) -> tuple[float, int]:
    """The model of cost's docstring, kept as explicit layers: each MS on n
    qubits takes tau * sqrt(n), summed in program order; each gate joins the
    layer after the last one that holds any of its qubits, so gates on
    disjoint qubits share a layer; GlobalPhase joins none."""
    total = 0.0
    layers: list[set[int]] = []
    for g in c.gates:
        if isinstance(g, MS):
            total += tau * math.sqrt(len(g.qubits))
        qubits = _reference_qubits(g)
        if not qubits:
            continue
        last = max((i for i, layer in enumerate(layers) if layer & qubits), default=-1)
        if last + 1 == len(layers):
            layers.append(set())
        layers[last + 1] |= qubits
    return total, len(layers)


@st.composite
def _cost_circuits(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    gates = draw(st.lists(st.one_of(_gates(n), _gates(n).map(_numpy_qubits)), max_size=30))
    return Circuit(n, tuple(gates))


@settings(max_examples=150, deadline=None)
@given(_cost_circuits(), st.floats(min_value=0.01, max_value=10.0))
def test_cost_matches_reference_layering(c, tau):
    report = cost(c, tau=tau)
    total, depth = _reference_cost(c, tau)
    assert report.sequential_depth == depth
    assert report.total_ms_time == total  # bit-equal: the same sum in the same order
    assert report.tau == tau
