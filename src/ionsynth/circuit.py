"""Native-gate instruction set, circuit container, counting, cost model and
the versioned text serialization.

Gate zoo: targeted MS entanglers (axis XX or YY, forward/backward), Rz, CRz,
Rzz, a closed set of single-qubit Cliffords, CNOT, and a first-class
GlobalPhase so rewrite passes can stay phase-exact.

Time convention: ``Circuit.gates`` is ordered first-acting-first; the dense
unitary of a circuit is the reversed matrix product (see ionsynth.verify).

Circuit files (format v1) are line based: the header ``ionsynth-circuit v1``,
one ``qubits <n>`` line, at most one ``meta <key> <value>`` line per key
(the key one token, the value the rest of the line's tokens joined by single
spaces, so ``serialize`` refuses a value that would not read back that way),
then one record per gate in time order.  Blank lines and lines starting with ``#`` are skipped.
A record is its kind's tag followed by the gate's fields in declaration
order, written in lower case, with angles in shortest round-trip form:

    ms <axis> <direction> <qubit> ...    MS (xx|yy, forward|backward)
    rz <qubit> <angle>                   Rz
    crz <control> <target> <angle>       CRz
    rzz <qubit_a> <qubit_b> <angle>      Rzz
    cl <qubit> <name>                    Clifford1 (h s sdg sx sxdg x y z)
    cnot <control> <target>              CNOT
    phase <angle>                        GlobalPhase

Numeric fields, and the ``qubits`` count, are plain ASCII without '_':
Python's int() and float() would also read '1_2' or non-ASCII digits, which
the parser refuses at their line.  Meta values and comments take any text.

Gates are immutable, so one gate object may stand at many positions of a
circuit, as every equal Clifford gate of a built step does
(``ionsynth.synth``).  ``serialize`` formats each distinct gate object once,
and ``deserialize`` parses each distinct record line of a document once, so
identical records of one document read back as one shared gate object.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Union, get_type_hints

from .pauli import CLIFFORD1_NAMES, _index, _real

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
        axis = str(self.axis).lower()
        if axis not in ("xx", "yy"):
            raise CircuitError(f"MS axis must be 'xx' or 'yy', got {self.axis!r}")
        direction = str(self.direction).lower()
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
        object.__setattr__(self, "angle", _real(self.angle, "angle", CircuitError))


@dataclass(frozen=True)
class CRz:
    control: int
    target: int
    angle: float

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise CircuitError("CRz control equals target")
        object.__setattr__(self, "angle", _real(self.angle, "angle", CircuitError))


@dataclass(frozen=True)
class Rzz:
    qubit_a: int
    qubit_b: int
    angle: float

    def __post_init__(self) -> None:
        if self.qubit_a == self.qubit_b:
            raise CircuitError("Rzz qubits coincide")
        object.__setattr__(self, "angle", _real(self.angle, "angle", CircuitError))


@dataclass(frozen=True)
class Clifford1:
    qubit: int
    name: str

    def __post_init__(self) -> None:
        name = str(self.name).upper()
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
        object.__setattr__(self, "angle", _real(self.angle, "angle", CircuitError))


Gate = Union[MS, Rz, CRz, Rzz, Clifford1, CNOT, GlobalPhase]


# --- the v1 record of each gate kind ----------------------------------------

class _Record(NamedTuple):
    kind: type
    tag: str
    line: str  # %-template of the record line
    values: Callable[[Gate], tuple]  # a gate's operands for the template
    parsers: tuple[type, ...]  # the type of each field before a qubit list
    rest: str | None  # a trailing qubit-list field, which takes the rest
    usage: str  # the field names, for error messages
    qubits: Callable[[Gate], tuple[int, ...]]


def _fields_getter(names: list[str]) -> Callable[[Gate], tuple]:
    """Reads the named fields of a gate as a tuple."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda gate: (get(gate),)
    return lambda gate: ()


def _record(kind: type, tag: str) -> _Record:
    """Derives a kind's record from its fields: each is written with str and
    parsed by its type, int and tuple-of-int fields are its qubits, and a
    tuple-of-int field comes last and takes the rest of the record."""
    types = get_type_hints(kind)
    names = [f.name for f in fields(kind)]
    rest = names.pop() if types[names[-1]] == tuple[int, ...] else None
    values = _fields_getter(names)
    if rest:
        qubits = attrgetter(rest)
        head = values
        values = lambda gate: (*head(gate), " ".join(map(str, qubits(gate))))
    else:
        qubits = _fields_getter([name for name in names if types[name] is int])
    operands = names + [f"{rest}..."] * bool(rest)
    return _Record(kind, tag, tag + " %s" * len(operands) + "\n", values,
                   tuple(types[name] for name in names), rest, " ".join(operands), qubits)


# The seven gate kinds, each with the tag that starts its record.
_RECORDS = {kind: _record(kind, tag) for kind, tag in (
    (MS, "ms"), (Rz, "rz"), (CRz, "crz"), (Rzz, "rzz"),
    (Clifford1, "cl"), (CNOT, "cnot"), (GlobalPhase, "phase"),
)}
_RECORDS_BY_TAG = {record.tag: record for record in _RECORDS.values()}
_QUBITS = {kind: record.qubits for kind, record in _RECORDS.items()}


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    qubits = _QUBITS.get(type(gate))
    if qubits is None:
        raise CircuitError(f"not a gate: {gate!r}")
    return qubits(gate)


_CLIFFORD_INVERSE = {
    "H": "H", "S": "SDG", "SDG": "S", "SX": "SXDG", "SXDG": "SX",
    "X": "X", "Y": "Y", "Z": "Z",
}


def inverse(gate: Gate) -> Gate:
    """Exact inverse gate (used to close conjugation sandwiches).

    MS flips its direction, a Clifford takes its inverse's name and CNOT is
    its own inverse.  Every other kind is its qubits followed by an angle,
    and negates the angle.
    """
    if isinstance(gate, MS):
        flipped = "backward" if gate.direction == "forward" else "forward"
        return MS(gate.axis, flipped, gate.qubits)
    if isinstance(gate, Clifford1):
        return Clifford1(gate.qubit, _CLIFFORD_INVERSE[gate.name])
    if isinstance(gate, CNOT):
        return gate
    return type(gate)(*gate_qubits(gate), -gate.angle)


def _unplain(tokens) -> str | None:
    """The first token that is not plain ASCII without '_', or None: int() and
    float() would read '1_2' as 12 and Arabic-Indic or full-width digits as
    ASCII ones, which no writer of these formats emits."""
    return next((token for token in tokens if not token.isascii() or "_" in token), None)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A bool, a float or a str width or qubit would be written as a record
        # the v1 parser rejects, so each follows the index rule.
        n = _index(self.n_qubits, "qubit count", CircuitError)
        gates = tuple(self.gates)
        readers = _QUBITS
        # Gates are immutable, so a gate object that recurs (as every copy of a
        # parsed record and every shared Clifford gate of a built step does) is
        # checked at its first position only.
        for g in dict(zip(map(id, gates), gates)).values():
            if type(g) not in readers:
                gate_qubits(g)  # raises: not a gate
            try:
                for q in readers[type(g)](g):
                    _index(q, "qubit", CircuitError, n)
            except CircuitError as exc:
                raise CircuitError(f"gate {g!r}: {exc}") from None
        metadata = dict(self.metadata)
        for key, value in metadata.items():
            if not (isinstance(key, str) and isinstance(value, str)):
                raise CircuitError(f"metadata entry {key!r}: {value!r} is not a pair of strings")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "metadata", metadata)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def with_metadata(self, **entries: str) -> "Circuit":
        meta = {**self.metadata, **{k: str(v) for k, v in entries.items()}}
        return Circuit(self.n_qubits, self.gates, meta)


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
    gates = c.gates
    kinds = Counter(map(type, gates))
    shapes = Counter((g.direction, g.axis, g.locality) for g in gates if type(g) is MS)
    directions, axes, localities = {"forward": 0, "backward": 0}, {"xx": 0, "yy": 0}, Counter()
    for (direction, axis, locality), n in shapes.items():
        directions[direction] += n
        axes[axis] += n
        localities[locality] += n
    # GlobalPhase intentionally uncounted: no physical gate
    return GateCountReport(
        directions["forward"], directions["backward"], axes,
        kinds[Rz] + kinds[Clifford1], kinds[CRz], kinds[Rzz], kinds[CNOT],
        dict(sorted(localities.items())),
    )


def cost(c: Circuit, tau: float = 1.0) -> CostReport:
    """MS time model: each MS on n qubits takes tau * sqrt(n).

    Depth is greedy disjoint-qubit layering in program order; gates on
    disjoint qubit sets share a layer, GlobalPhase occupies none.
    """
    tau = _real(tau, "tau", CircuitError)
    if tau <= 0:
        raise CircuitError(f"tau must be positive, got {tau}")
    readers, sqrt = _QUBITS, math.sqrt
    total = 0.0
    # The Circuit has checked every qubit, so the layer a qubit was last
    # busy in can be indexed by it; the deepest of these is the depth.
    frontier = [0] * c.n_qubits
    for g in c.gates:
        kind = type(g)
        qs = readers[kind](g)
        if kind is MS:
            total += tau * sqrt(len(qs))
        if qs:
            layer = 1 + max(map(frontier.__getitem__, qs))
            for q in qs:
                frontier[q] = layer
    return CostReport(total, max(frontier, default=0), tau)


# --- serialization ---------------------------------------------------------

def serialize(c: Circuit) -> str:
    lines = [FORMAT_HEADER, f"qubits {c.n_qubits}"]
    for key in sorted(c.metadata):
        value = c.metadata[key]
        # The parser splits a meta line into tokens and joins the value's with
        # single spaces, so a key must be one token and a value must be its
        # tokens joined that way: no line break, tab, run of spaces or
        # leading or trailing space.
        if key.split() != [key] or " ".join(value.split()) != value:
            raise CircuitError(f"metadata entry not serializable: {key!r}: {value!r}")
        lines.append(f"meta {key} {value}")
    records = _RECORDS
    # Each distinct gate object is formatted once; the circuit holds every
    # gate, so no id is reused while this runs.
    gates = c.gates
    text = {}
    for key, g in dict(zip(map(id, gates), gates)).items():
        record = records[type(g)]
        text[key] = record.line % record.values(g)
    return "\n".join(lines) + "\n" + "".join(map(text.__getitem__, map(id, gates))).lower()


def deserialize(document: str) -> Circuit:
    lines = document.splitlines()
    if not lines:
        raise ParseError(1, "empty document")
    if lines[0].strip() != FORMAT_HEADER:
        raise SchemaError(1, f"unsupported format header {lines[0]!r}; expected {FORMAT_HEADER!r}")
    n_qubits: int | None = None
    metadata: dict[str, str] = {}
    gates: list[Gate] = []
    # The gate each record line parsed to.  The width is fixed before the first
    # record and cannot change, so a copy of a line parses to the same gate.
    parsed: dict[str, Gate] = {}
    for idx, line in enumerate(lines[1:], start=2):
        gate = parsed.get(line)
        if gate is not None:
            gates.append(gate)
            continue
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        tag, args = tokens[0], tokens[1:]
        if n_qubits is None and tag != "qubits":
            raise ParseError(idx, "qubits line must precede gates")
        record = _RECORDS_BY_TAG.get(tag)
        if record is not None:
            parsers, rest = record.parsers, record.rest
            if len(args) <= len(parsers) if rest else len(args) != len(parsers):
                raise ParseError(idx, f"{tag} record takes: {record.usage}")
            # isascii() reads a flag, so a plain line costs one scan for '_'
            if (not line.isascii() or "_" in line) and (bad := _unplain(args)):
                raise ParseError(idx, f"{tag} record: field {bad!r} is not plain ASCII without '_'")
            try:
                # Each field's type parses its token: type.__call__(int, "3") is int("3").
                values = map(type.__call__, parsers, args)
                if rest:
                    values = (*values, tuple(map(int, args[len(parsers):])))
                gate = record.kind(*values)
                for q in record.qubits(gate):
                    _index(q, "qubit", CircuitError, n_qubits)
            except ValueError as exc:  # a token that does not parse, or a CircuitError
                raise ParseError(idx, f"{tag} record: {exc}") from None
            parsed[line] = gate
            gates.append(gate)
        elif tag == "qubits":
            if n_qubits is not None:
                raise ParseError(idx, "repeated qubits line")
            try:
                if _unplain(args):
                    raise ValueError
                (n_qubits,) = map(int, args)
            except ValueError:
                n_qubits = -1
            if n_qubits < 0:
                raise ParseError(idx, f"qubits line takes one non-negative integer, got {' '.join(args)!r}")
        elif tag == "meta":
            if not args:
                raise ParseError(idx, "meta line needs a key")
            if args[0] in metadata:
                raise ParseError(idx, f"repeated meta key {args[0]!r}")
            metadata[args[0]] = " ".join(args[1:])
        else:
            raise SchemaError(idx, f"unknown gate record {tag!r}")
    if n_qubits is None:
        raise ParseError(len(lines), "missing qubits line")
    return Circuit(n_qubits, tuple(gates), metadata)
