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

Every gate checks its own qubits when it is built: each follows the index
rule of ``pauli._index`` and is kept as an int, so a bool, float, str or
negative qubit is refused by the gate, naming it.  A gate also keeps its
highest qubit outside its fields, so a ``Circuit`` checks its width once,
against the maximum over its gates, and walks its gates for the first bad
one only when that check, or the check of their kinds, fails.

Gates are immutable, so one gate object may stand at many positions of a
circuit and in many circuits.  Each gate object formats its lowercased record
line once and keeps it, so ``serialize`` formats only gate objects it has not
written before.  That line is also the one identity of an angle-free gate
(Clifford1, CNOT, MS): ``_SHARED`` keeps one object per line per process.
Every fill of a template (``ionsynth.synth``) hands out that object, and
``deserialize``, once it has read the ``qubits`` line, looks each record line
up there before it splits it, so a written angle-free gate reads back as its
object and is not built again.  A record spelled otherwise (case, spacing, MS
qubit order) is parsed and built, then exchanged for the object of its line.
A record its constructor refuses, or one past the register, adds nothing,
and no gate that carries an angle is ever kept.  ``deserialize`` parses each
distinct record line of a document once, so identical records of one
document read back as one gate object.  The line of a record with a qubit
outside the register is recovered, by the gates' highest qubits, only when
reading fails.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import compress
from operator import attrgetter, not_
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


# Every gate checks its own operands in its own __init__, each qubit by the
# index rule and each angle by the finite-real rule (``pauli._index`` and
# ``_real``), and writes its fields once, straight into its instance dict,
# which a frozen dataclass leaves writable.  A gate also stores its highest
# qubit as ``_highest`` (GlobalPhase, on no qubit, has -1 on its class), and
# its record line is kept as ``_record`` once formatted (None, on the class,
# until then).  Both lie outside the fields, from which records, equality,
# hashing and repr are all derived.
# A Circuit checks its width against the maximum of the highest qubits, once
# per circuit.

class _GateBase:
    """What every gate kind shares outside its fields."""

    _record: str | None = None  # the lowercased v1 record line, once written

@dataclass(frozen=True, init=False)
class MS(_GateBase):
    """Targeted Moelmer-Soerensen gate on a qubit subset.

    Forward means exp(-i pi/4 sum_{j<k in qubits} A_j A_k) with A = X or Y
    according to ``axis``; backward is the inverse.  Each qubit follows the
    index rule before the set is sorted, and the set may not be empty or
    repeat a qubit.
    """

    axis: str
    direction: str
    qubits: tuple[int, ...]

    def __init__(self, axis: str, direction: str, qubits: tuple[int, ...]) -> None:
        lower = str(axis).lower()
        if lower not in ("xx", "yy"):
            raise CircuitError(f"MS axis must be 'xx' or 'yy', got {axis!r}")
        way = str(direction).lower()
        if way not in ("forward", "backward"):
            raise CircuitError(f"MS direction must be forward/backward, got {direction!r}")
        try:
            qubits = tuple(qubits)
        except TypeError:
            raise CircuitError(f"MS qubit set {qubits!r} is not a collection of qubits") from None
        qs = tuple(sorted([_index(q, "qubit", CircuitError) for q in qubits]))
        if not qs:
            raise CircuitError("MS qubit set is empty")
        if len(set(qs)) != len(qs):
            raise CircuitError(f"MS qubit set has duplicates: {qubits}")
        state = self.__dict__
        state["axis"], state["direction"], state["qubits"] = lower, way, qs
        state["_highest"] = qs[-1]

    @property
    def locality(self) -> int:
        return len(self.qubits)


@dataclass(frozen=True, init=False)
class Rz(_GateBase):
    """exp(-i angle/2 Z) on ``qubit``."""

    qubit: int
    angle: float

    def __init__(self, qubit: int, angle: float) -> None:
        state = self.__dict__
        state["qubit"] = state["_highest"] = _index(qubit, "qubit", CircuitError)
        state["angle"] = _real(angle, "angle", CircuitError)


@dataclass(frozen=True, init=False)
class CRz(_GateBase):
    """Rz(angle) on ``target`` when ``control`` is 1; the two qubits differ."""

    control: int
    target: int
    angle: float

    def __init__(self, control: int, target: int, angle: float) -> None:
        control = _index(control, "qubit", CircuitError)
        target = _index(target, "qubit", CircuitError)
        if control == target:
            raise CircuitError("CRz control equals target")
        state = self.__dict__
        state["control"], state["target"] = control, target
        state["angle"] = _real(angle, "angle", CircuitError)
        state["_highest"] = max(control, target)


@dataclass(frozen=True, init=False)
class Rzz(_GateBase):
    """exp(-i angle/2 Z Z) on two distinct qubits."""

    qubit_a: int
    qubit_b: int
    angle: float

    def __init__(self, qubit_a: int, qubit_b: int, angle: float) -> None:
        qubit_a = _index(qubit_a, "qubit", CircuitError)
        qubit_b = _index(qubit_b, "qubit", CircuitError)
        if qubit_a == qubit_b:
            raise CircuitError("Rzz qubits coincide")
        state = self.__dict__
        state["qubit_a"], state["qubit_b"] = qubit_a, qubit_b
        state["angle"] = _real(angle, "angle", CircuitError)
        state["_highest"] = max(qubit_a, qubit_b)


@dataclass(frozen=True, init=False)
class Clifford1(_GateBase):
    """One of the named single-qubit Cliffords (h s sdg sx sxdg x y z), any case."""

    qubit: int
    name: str

    def __init__(self, qubit: int, name: str) -> None:
        qubit = _index(qubit, "qubit", CircuitError)
        upper = str(name).upper()
        if upper not in CLIFFORD1_NAMES:
            raise CircuitError(f"unknown Clifford name {name!r}")
        state = self.__dict__
        state["qubit"], state["name"], state["_highest"] = qubit, upper, qubit


@dataclass(frozen=True, init=False)
class CNOT(_GateBase):
    """X on ``target`` when ``control`` is 1; the two qubits differ."""

    control: int
    target: int

    def __init__(self, control: int, target: int) -> None:
        control = _index(control, "qubit", CircuitError)
        target = _index(target, "qubit", CircuitError)
        if control == target:
            raise CircuitError("CNOT control equals target")
        state = self.__dict__
        state["control"], state["target"] = control, target
        state["_highest"] = max(control, target)


@dataclass(frozen=True, init=False)
class GlobalPhase(_GateBase):
    """Multiplies the state by exp(i * angle); it acts on no qubit."""

    angle: float
    _highest = -1

    def __init__(self, angle: float) -> None:
        self.__dict__["angle"] = _real(angle, "angle", CircuitError)


Gate = Union[MS, Rz, CRz, Rzz, Clifford1, CNOT, GlobalPhase]


# --- the v1 record of each gate kind ----------------------------------------

class _Record(NamedTuple):
    kind: type
    tag: str
    line: str  # %-template of the record line
    values: Callable[[Gate], tuple]  # a gate's operands before a qubit list
    parsers: tuple[type, ...]  # the type of each field before a qubit list
    rest: str | None  # a trailing qubit-list field, which takes the rest
    usage: str  # the field names, for error messages
    qubits: Callable[[Gate], tuple[int, ...]]
    shared: bool  # angle-free: one object per record line (_SHARED)


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
    else:
        qubits = _fields_getter([name for name in names if types[name] is int])
    operands = names + [f"{rest}..."] * bool(rest)
    return _Record(kind, tag, tag + " %s" * len(operands), values,
                   tuple(types[name] for name in names), rest, " ".join(operands), qubits,
                   float not in types.values())


# The seven gate kinds, each with the tag that starts its record.
_RECORDS = {kind: _record(kind, tag) for kind, tag in (
    (MS, "ms"), (Rz, "rz"), (CRz, "crz"), (Rzz, "rzz"),
    (Clifford1, "cl"), (CNOT, "cnot"), (GlobalPhase, "phase"),
)}
_RECORDS_BY_TAG = {record.tag: record for record in _RECORDS.values()}
_QUBITS = {kind: record.qubits for kind, record in _RECORDS.items()}
_HIGHEST = attrgetter("_highest")
_RECORD_LINE = attrgetter("_record")


# --- one object per angle-free gate ----------------------------------------

# The one object of each angle-free gate (Clifford1, CNOT, MS) kept so far in
# this process, by the record line ``serialize`` writes for it.  A gate that
# carries an angle never enters it.
_SHARED: dict[str, Gate] = {}


def _shared(gate: Gate, n_qubits: int | None = None) -> Gate:
    """The one object of the Clifford1, CNOT or MS ``gate``: the gate already
    kept for its record line, or else ``gate`` itself, kept unless it has a
    qubit of ``n_qubits`` or more."""
    line = gate._record or _format(gate)
    kept = _SHARED.get(line)
    if kept is None:
        kept = gate
        if n_qubits is None or gate._highest < n_qubits:
            _SHARED[line] = gate
    return kept


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    qubits = _QUBITS.get(type(gate))
    if qubits is None:
        raise CircuitError(f"not a gate: {gate!r}")
    return qubits(gate)


def _outside(gate: Gate, n_qubits: int) -> CircuitError:
    """The error for the first qubit of ``gate``, in field order (sorted for
    MS), that a register of ``n_qubits`` does not hold."""
    q = next(q for q in gate_qubits(gate) if q >= n_qubits)
    return CircuitError(f"qubit {q} outside 0..{n_qubits - 1}")


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
    """Gates on ``n_qubits`` qubits in time order, with string metadata.

    The width follows the index rule.  Each gate has checked its own qubits,
    so the circuit checks the kinds of its gates with one set and their
    highest qubit against the width with one maximum; only when either check
    fails does it walk the gates in order, refusing the first that is not a
    gate or that has a qubit past the register, naming it and that qubit.
    """

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A bool, a float or a str width would be written as a qubits line the
        # v1 parser rejects, so it follows the index rule, as every gate's
        # qubits already have.  What is left is one check of their maximum.
        n = _index(self.n_qubits, "qubit count", CircuitError)
        gates = tuple(self.gates)
        if (not set(map(type, gates)) <= _RECORDS.keys()
                or max(map(_HIGHEST, gates), default=-1) >= n):
            for g in gates:  # the first non-gate or gate past the register
                gate_qubits(g)  # raises: not a gate
                if g._highest >= n:
                    raise CircuitError(f"gate {g!r}: {_outside(g, n)}")
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
    disjoint qubit sets share a layer, GlobalPhase occupies none.  A
    one-qubit gate (Rz, Clifford1) lands one layer above its qubit's last,
    so it steps that qubit's frontier by one; every other gate takes the
    layer above the deepest of its qubits.
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
        if kind is Rz or kind is Clifford1:
            frontier[g.qubit] += 1
            continue
        qs = readers[kind](g)
        if kind is MS:
            total += tau * sqrt(len(qs))
        if qs:
            layer = 1 + max(map(frontier.__getitem__, qs))
            for q in qs:
                frontier[q] = layer
    return CostReport(total, max(frontier, default=0), tau)


# --- serialization ---------------------------------------------------------

def _format(g: Gate) -> str:
    """The record line of ``g``, lowercased, formatted and kept on the gate."""
    record = _RECORDS[type(g)]
    if record.rest:
        line = record.line % (*record.values(g), " ".join(map(str, record.qubits(g))))
    else:
        line = record.line % record.values(g)
    line = g.__dict__["_record"] = line.lower()
    return line


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
    # Each gate object keeps its record line from the first time it is
    # written, so only the positions of gates not written before are filled
    # here, a gate repeated among them once.
    gates = c.gates
    records = list(map(_RECORD_LINE, gates))
    for i in compress(range(len(gates)), map(not_, records)):
        records[i] = gates[i]._record or _format(gates[i])
    lines += records
    lines.append("")
    return "\n".join(lines)


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
    # Each gate checks its own qubits; the width is checked once, by the
    # Circuit returned below.  A record with a qubit outside the register
    # fails before any later line, so when reading fails the records parsed
    # so far are rescanned, by their highest qubit, for one in line order.
    try:
        for idx, line in enumerate(lines[1:], start=2):
            gate = parsed.get(line)
            # once the width is known, a line written for a shared gate is that gate
            if gate is None and n_qubits is not None:
                gate = _SHARED.get(line)
                if gate is not None:
                    parsed[line] = gate
            if gate is not None:
                gates.append(gate)
                continue
            head = line.split(None, 1)
            if not head or head[0].startswith("#"):
                continue
            tag = head[0]
            operands = head[1] if len(head) == 2 else ""
            if n_qubits is None and tag != "qubits":
                raise ParseError(idx, "qubits line must precede "
                                 + ("meta lines" if tag == "meta" else "gates"))
            record = _RECORDS_BY_TAG.get(tag)
            if record is not None:
                parsers, rest = record.parsers, record.rest
                # a trailing qubit list stays one text, the last of the args
                args = operands.split(None, len(parsers)) if rest else operands.split()
                if len(args) <= len(parsers) if rest else len(args) != len(parsers):
                    raise ParseError(idx, f"{tag} record takes: {record.usage}")
                # isascii() reads a flag, so a plain line costs one scan for '_'
                if (not line.isascii() or "_" in line) and (bad := _unplain(operands.split())):
                    raise ParseError(idx, f"{tag} record: field {bad!r} is not plain ASCII without '_'")
                try:
                    # Each field's type parses its token: type.__call__(int, "3") is int("3").
                    values = tuple(map(type.__call__, parsers, args))
                    if rest:
                        values += (tuple(map(int, args[-1].split())),)
                    gate = record.kind(*values)
                    if record.shared:  # the one object of its line, however spelled
                        gate = _shared(gate, n_qubits)
                except ValueError as exc:  # a token that does not parse, or a CircuitError
                    raise ParseError(idx, f"{tag} record: {exc}") from None
                parsed[line] = gate
                gates.append(gate)
            elif tag == "qubits":
                args = operands.split()
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
                args = operands.split()
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
    except (ParseError, CircuitError):
        for idx, line in enumerate(lines[1:], start=2):
            if (gate := parsed.get(line)) is not None and gate._highest >= n_qubits:
                raise ParseError(idx, f"{line.split()[0]} record: {_outside(gate, n_qubits)}") from None
        raise
