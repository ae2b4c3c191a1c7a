"""Native-gate instruction set, circuit container, counting, cost model and
the versioned text serialization.

Gate zoo: targeted MS entanglers (axis XX or YY, forward/backward), Rz, CRz,
Rzz, a closed set of single-qubit Cliffords, CNOT, and a first-class
GlobalPhase so rewrite passes can stay phase-exact.

Time convention: ``Circuit.gates`` is ordered first-acting-first; the dense
unitary of a circuit is the reversed matrix product (see ionsynth.verify).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

from .pauli import CLIFFORD1_NAMES

__all__ = [
    "MS",
    "Rz",
    "CRz",
    "Rzz",
    "Clifford1",
    "CNOT",
    "GlobalPhase",
    "Gate",
    "Circuit",
    "GateCountReport",
    "CostReport",
    "CircuitError",
    "ParseError",
    "SchemaError",
    "count",
    "cost",
    "serialize",
    "deserialize",
    "gate_qubits",
    "inverse",
]

FORMAT_HEADER = "ionsynth-circuit v1"


class CircuitError(ValueError):
    """Structural error in circuit construction."""


class ParseError(ValueError):
    """Malformed circuit document; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaError(ParseError):
    """Unknown gate name or unsupported format version."""


def _check_angle(angle: float) -> float:
    angle = float(angle)
    if not math.isfinite(angle):
        raise CircuitError(f"angle must be finite, got {angle!r}")
    return angle


@dataclass(frozen=True)
class MS:
    """Targeted Moelmer-Soerensen gate on a qubit subset.

    Forward means exp(-i pi/4 sum_{j<k in qubits} A_j A_k) with A = X or Y
    according to ``axis``; backward is the inverse.
    """

    axis: str
    direction: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        axis = self.axis.lower()
        if axis not in ("xx", "yy"):
            raise CircuitError(f"MS axis must be 'xx' or 'yy', got {self.axis!r}")
        direction = self.direction.lower()
        if direction not in ("forward", "backward"):
            raise CircuitError(f"MS direction must be forward/backward, got {self.direction!r}")
        qs = tuple(sorted(self.qubits))
        if not qs:
            raise CircuitError("MS qubit set is empty")
        if len(set(qs)) != len(qs):
            raise CircuitError(f"MS qubit set has duplicates: {self.qubits}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "qubits", qs)

    @property
    def locality(self) -> int:
        return len(self.qubits)


@dataclass(frozen=True)
class Rz:
    qubit: int
    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", _check_angle(self.angle))


@dataclass(frozen=True)
class CRz:
    control: int
    target: int
    angle: float

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise CircuitError("CRz control equals target")
        object.__setattr__(self, "angle", _check_angle(self.angle))


@dataclass(frozen=True)
class Rzz:
    qubit_a: int
    qubit_b: int
    angle: float

    def __post_init__(self) -> None:
        if self.qubit_a == self.qubit_b:
            raise CircuitError("Rzz qubits coincide")
        object.__setattr__(self, "angle", _check_angle(self.angle))


@dataclass(frozen=True)
class Clifford1:
    qubit: int
    name: str

    def __post_init__(self) -> None:
        name = self.name.upper()
        if name not in CLIFFORD1_NAMES:
            raise CircuitError(f"unknown Clifford name {self.name!r}")
        object.__setattr__(self, "name", name)


@dataclass(frozen=True)
class CNOT:
    control: int
    target: int

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise CircuitError("CNOT control equals target")


@dataclass(frozen=True)
class GlobalPhase:
    """Multiplies the state by exp(i * angle)."""

    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", _check_angle(self.angle))


Gate = Union[MS, Rz, CRz, Rzz, Clifford1, CNOT, GlobalPhase]


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, MS):
        return gate.qubits
    if isinstance(gate, Rz):
        return (gate.qubit,)
    if isinstance(gate, (CRz, CNOT)):
        return (gate.control, gate.target)
    if isinstance(gate, Rzz):
        return (gate.qubit_a, gate.qubit_b)
    if isinstance(gate, Clifford1):
        return (gate.qubit,)
    if isinstance(gate, GlobalPhase):
        return ()
    raise CircuitError(f"not a gate: {gate!r}")


_CLIFFORD_INVERSE = {
    "H": "H", "S": "SDG", "SDG": "S", "SX": "SXDG", "SXDG": "SX",
    "X": "X", "Y": "Y", "Z": "Z",
}


def inverse(gate: Gate) -> Gate:
    """Exact inverse gate (used to close conjugation sandwiches)."""
    if isinstance(gate, MS):
        flipped = "backward" if gate.direction == "forward" else "forward"
        return MS(gate.axis, flipped, gate.qubits)
    if isinstance(gate, Rz):
        return Rz(gate.qubit, -gate.angle)
    if isinstance(gate, CRz):
        return CRz(gate.control, gate.target, -gate.angle)
    if isinstance(gate, Rzz):
        return Rzz(gate.qubit_a, gate.qubit_b, -gate.angle)
    if isinstance(gate, Clifford1):
        return Clifford1(gate.qubit, _CLIFFORD_INVERSE[gate.name])
    if isinstance(gate, CNOT):
        return gate
    if isinstance(gate, GlobalPhase):
        return GlobalPhase(-gate.angle)
    raise CircuitError(f"not a gate: {gate!r}")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_qubits < 0:
            raise CircuitError("negative qubit count")
        gates = tuple(self.gates)
        for g in gates:
            for q in gate_qubits(g):
                if not (0 <= q < self.n_qubits):
                    raise CircuitError(f"gate {g!r} touches qubit {q} outside 0..{self.n_qubits - 1}")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "metadata", dict(self.metadata))

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def with_metadata(self, **entries: str) -> "Circuit":
        meta = {**self.metadata, **{k: str(v) for k, v in entries.items()}}
        return Circuit(self.n_qubits, self.gates, meta)


def concatenate(*circuits: Circuit) -> Circuit:
    """Time-ordered concatenation; metadata of the first circuit wins."""
    if not circuits:
        raise CircuitError("nothing to concatenate")
    n = max(c.n_qubits for c in circuits)
    gates: list[Gate] = []
    for c in circuits:
        gates.extend(c.gates)
    return Circuit(n, tuple(gates), circuits[0].metadata)


@dataclass(frozen=True)
class GateCountReport:
    ms_forward: int
    ms_backward: int
    ms_by_axis: Mapping[str, int]
    single_qubit: int
    crz: int
    rzz: int
    cnot: int
    ms_locality_histogram: Mapping[int, int]

    @property
    def ms_total(self) -> int:
        return self.ms_forward + self.ms_backward

    def as_dict(self) -> dict:
        return {
            "ms_forward": self.ms_forward,
            "ms_backward": self.ms_backward,
            "ms_total": self.ms_total,
            "ms_by_axis": dict(self.ms_by_axis),
            "single_qubit": self.single_qubit,
            "crz": self.crz,
            "rzz": self.rzz,
            "cnot": self.cnot,
            "ms_locality_histogram": {str(k): v for k, v in self.ms_locality_histogram.items()},
        }


@dataclass(frozen=True)
class CostReport:
    total_ms_time: float
    sequential_depth: int
    tau: float

    def as_dict(self) -> dict:
        return {
            "total_ms_time": self.total_ms_time,
            "sequential_depth": self.sequential_depth,
            "tau": self.tau,
        }


def count(c: Circuit) -> GateCountReport:
    ms_forward = ms_backward = single_qubit = crz = rzz = cnot = 0
    by_axis = {"xx": 0, "yy": 0}
    histogram: dict[int, int] = {}
    for g in c:
        if isinstance(g, MS):
            if g.direction == "forward":
                ms_forward += 1
            else:
                ms_backward += 1
            by_axis[g.axis] += 1
            histogram[g.locality] = histogram.get(g.locality, 0) + 1
        elif isinstance(g, (Rz, Clifford1)):
            single_qubit += 1
        elif isinstance(g, CRz):
            crz += 1
        elif isinstance(g, Rzz):
            rzz += 1
        elif isinstance(g, CNOT):
            cnot += 1
        # GlobalPhase intentionally uncounted: no physical gate
    return GateCountReport(
        ms_forward, ms_backward, by_axis, single_qubit, crz, rzz, cnot,
        dict(sorted(histogram.items())),
    )


def cost(c: Circuit, tau: float = 1.0) -> CostReport:
    """MS time model: each MS on n qubits takes tau * sqrt(n).

    Depth is greedy disjoint-qubit layering in program order; gates on
    disjoint qubit sets share a layer, GlobalPhase occupies none.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise CircuitError(f"tau must be positive and finite, got {tau}")
    total = 0.0
    for g in c:
        if isinstance(g, MS):
            total += tau * math.sqrt(g.locality)
    frontier: dict[int, int] = {}
    depth = 0
    for g in c:
        qs = gate_qubits(g)
        if not qs:
            continue
        layer = 1 + max((frontier.get(q, 0) for q in qs), default=0)
        for q in qs:
            frontier[q] = layer
        depth = max(depth, layer)
    return CostReport(total, depth, tau)


# --- serialization ---------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def serialize(c: Circuit) -> str:
    lines = [FORMAT_HEADER, f"qubits {c.n_qubits}"]
    for key in sorted(c.metadata):
        value = c.metadata[key]
        if "\n" in key or "\n" in value or " " in key or not key:
            raise CircuitError(f"metadata key/value not serializable: {key!r}")
        lines.append(f"meta {key} {value}")
    for g in c:
        if isinstance(g, MS):
            lines.append(f"ms {g.axis} {g.direction} " + " ".join(map(str, g.qubits)))
        elif isinstance(g, Rz):
            lines.append(f"rz {g.qubit} {_fmt(g.angle)}")
        elif isinstance(g, CRz):
            lines.append(f"crz {g.control} {g.target} {_fmt(g.angle)}")
        elif isinstance(g, Rzz):
            lines.append(f"rzz {g.qubit_a} {g.qubit_b} {_fmt(g.angle)}")
        elif isinstance(g, Clifford1):
            lines.append(f"cl {g.qubit} {g.name.lower()}")
        elif isinstance(g, CNOT):
            lines.append(f"cnot {g.control} {g.target}")
        elif isinstance(g, GlobalPhase):
            lines.append(f"phase {_fmt(g.angle)}")
        else:  # pragma: no cover
            raise CircuitError(f"not a gate: {g!r}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected integer {what}, got {token!r}") from None


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"expected number {what}, got {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"non-finite {what}: {token!r}")
    return value


def deserialize(document: str) -> Circuit:
    lines = document.splitlines()
    if not lines:
        raise ParseError(1, "empty document")
    if lines[0].strip() != FORMAT_HEADER:
        raise SchemaError(1, f"unsupported format header {lines[0]!r}; expected {FORMAT_HEADER!r}")
    n_qubits: int | None = None
    metadata: dict[str, str] = {}
    gates: list[Gate] = []
    for idx, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "qubits":
            if len(args) != 1:
                raise ParseError(idx, "qubits line takes one integer")
            n_qubits = _parse_int(args[0], idx, "qubit count")
            continue
        if n_qubits is None:
            raise ParseError(idx, "qubits line must precede gates")
        try:
            if kind == "meta":
                if not args:
                    raise ParseError(idx, "meta line needs a key")
                metadata[args[0]] = " ".join(args[1:])
            elif kind == "ms":
                if len(args) < 3:
                    raise ParseError(idx, "ms line needs axis, direction and qubits")
                qs = tuple(_parse_int(t, idx, "MS qubit") for t in args[2:])
                gates.append(MS(args[0], args[1], qs))
            elif kind == "rz":
                if len(args) != 2:
                    raise ParseError(idx, "rz line takes qubit and angle")
                gates.append(Rz(_parse_int(args[0], idx, "qubit"), _parse_float(args[1], idx, "angle")))
            elif kind == "crz":
                if len(args) != 3:
                    raise ParseError(idx, "crz line takes control, target and angle")
                gates.append(CRz(_parse_int(args[0], idx, "control"),
                                 _parse_int(args[1], idx, "target"),
                                 _parse_float(args[2], idx, "angle")))
            elif kind == "rzz":
                if len(args) != 3:
                    raise ParseError(idx, "rzz line takes two qubits and an angle")
                gates.append(Rzz(_parse_int(args[0], idx, "qubit"),
                                 _parse_int(args[1], idx, "qubit"),
                                 _parse_float(args[2], idx, "angle")))
            elif kind == "cl":
                if len(args) != 2:
                    raise ParseError(idx, "cl line takes qubit and name")
                gates.append(Clifford1(_parse_int(args[0], idx, "qubit"), args[1]))
            elif kind == "cnot":
                if len(args) != 2:
                    raise ParseError(idx, "cnot line takes control and target")
                gates.append(CNOT(_parse_int(args[0], idx, "control"),
                                  _parse_int(args[1], idx, "target")))
            elif kind == "phase":
                if len(args) != 1:
                    raise ParseError(idx, "phase line takes one angle")
                gates.append(GlobalPhase(_parse_float(args[0], idx, "angle")))
            else:
                raise SchemaError(idx, f"unknown gate record {kind!r}")
        except CircuitError as exc:
            raise ParseError(idx, str(exc)) from None
    if n_qubits is None:
        raise ParseError(len(lines), "missing qubits line")
    try:
        return Circuit(n_qubits, tuple(gates), metadata)
    except CircuitError as exc:
        raise ParseError(len(lines), str(exc)) from None
