"""Lowering Pauli rotations and excitation generators to MS-native circuits.

Every compiled block is a conjugation sandwich: a Clifford dressing layer, a
forward targeted MS gate, a set of commuting diagonal rotations, the backward
MS gate, and the inverted dressing.  Writing V for the dressing-plus-MS
prefix, an Rz(phi) on qubit t contributes exp(-i phi/2 V&dagger Z_t V), so the
whole art is picking the dressing such that the pulled-back Z strings hit the
target Pauli strings.  A sandwich's MS window is the support of the strings
it targets (under Jordan-Wigner their parity qubits included), read off the
targets by ``_sandwich`` and nowhere else; its dressing comes from the solver
it is given, per-qubit Clifford words (``_local_dressing``, the star layers)
or a CNOT-assisted reduction (``_entangled_dressing``), so a layer's kind is
its solver.  Signs are never tabulated by hand here: the pullback is
computed exactly over the Pauli group, the resulting +-1 is folded into the
rotation angle, and the dense-matrix oracle in the test suite checks the
product phase-exactly.

None of that depends on the angles, so the one group lowering
(``_lower_group``) derives it once per group shape.  Every excitation compiler
and both evolution builders lower their blocks through it; only
compile_pauli_rotation, which takes a bare Pauli string, builds its sandwich
directly.  A group's scheme says how its strings are spent:

- ``layers``: star and CNOT-assisted layers of the combined string pool, or
  one shared CRz sandwich for controlled singles;
- ``core_strings``: one CRz sandwich per control-free core string;
- ``strings``: one MS pair per generator string, with no S_j conjugation;
- ``halves``: one plain-Rz sandwich per control letter (variant "b");
- ``ladder``: one XX sandwich, the all-Y star via CNOT ladders (mixed CNOT).

The key holds no angle and no coefficient: per member the kind, the sub, sup
and control modes counted from the group's lowest mode and the symmetrized
flag, then the relative conjugation mode, the scheme and the star axis.
``_template`` (a fixed-size LRU cache) derives the gates at offset 0:
each Clifford1, CNOT and MS gate as the plain tuple (kind, *fields), and each
Rz / CRz as a slot (qubit, control, factor, zero, ((member, scale), ...))
whose factor is 2 or 4 times the pullback sign and whose scales are the exact
generator string weights of unit-coefficient terms.  A call emits one gate
per item, whatever the angles: the Clifford gates shifted to the group's
lowest mode, one shared object per gate value (``_SHARED``: gates are frozen
and compare by value, so every fill of every template that emits
Clifford1(3, "H") emits the same object, built and checked once), and each
slot as an Rz / CRz of angle factor * weight, with weight summed from
``zero`` over theta_j * (coefficient_j * scale) in member order, then string
order: the order in which the string pool always summed them.
Every scale and factor is a signed power of two, so coefficient_j * scale is
the string weight the generator itself computes, and the angles keep their
last bit, subnormal angles included.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import fields, replace
from typing import NamedTuple

from .circuit import (
    CNOT,
    CRz,
    Circuit,
    Clifford1,
    Gate,
    GlobalPhase,
    MS,
    Rz,
    inverse,
)
from .fermion import (
    ExcitationTerm,
    controlled_single,
    double,
    generator_pauli,
    local_equivalence_conjugate,
)
from .pauli import (
    CLIFFORD1_NAMES,
    PauliString,
    _index,
    _real,
    conjugate_by_clifford,
    conjugate_by_ms,
)

__all__ = [
    "SynthesisError",
    "ms_square_phase_exponent",
    "compile_pauli_rotation",
    "compile_single_excitation",
    "compile_double_block",
    "compile_coupled_exchange",
    "compile_controlled_single",
    "compile_higher_excitation",
    "compile_symmetrized",
    "baseline_string_by_string",
    "eliminate_backward_ms",
    "compile_mixed_cnot",
    "higher_order_ms_count",
]


class SynthesisError(ValueError):
    """Structural problem with a synthesis request."""


_AXIS_LETTER = {"xx": "X", "yy": "Y"}


def _pull_perm(name: str) -> dict[str, str]:
    """Sign-free letter action of the inverse of a one-qubit Clifford, the
    action a dressing word applies under pullback."""
    out = {}
    for letter in "XYZ":
        image = conjugate_by_clifford(PauliString(1, {0: letter}), name, (0,))
        out[image.letter(0)] = letter
    return out


_PULL_PERM = {name: _pull_perm(name) for name in CLIFFORD1_NAMES}


# --- exact Heisenberg transport ----------------------------------------------

def _push(gate: Gate, s: PauliString) -> PauliString:
    """Image g s g&dagger; for the Clifford gates synthesis emits."""
    if isinstance(gate, Clifford1):
        return conjugate_by_clifford(s, gate.name, (gate.qubit,))
    if isinstance(gate, CNOT):
        return conjugate_by_clifford(s, "CNOT", (gate.control, gate.target))
    if isinstance(gate, MS):
        return conjugate_by_ms(s, gate.axis, gate.qubits, inverse=gate.direction == "backward")
    raise SynthesisError(f"cannot transport a Pauli through {gate!r}")


def _pullback(s: PauliString, gates) -> PauliString:
    """V&dagger; s V for the circuit prefix ``gates`` (time order)."""
    for gate in reversed(tuple(gates)):
        s = _push(inverse(gate), s)
    return s


def _sign_against(e: PauliString, target: PauliString) -> float:
    if e.with_phase(target.phase) != target:
        raise SynthesisError(
            f"dressing failed: pulled back {e.label()}, wanted letters of {target.label()}"
        )
    ratio = e.phase / target.phase
    if ratio == 1:
        return 1.0
    if ratio == -1:
        return -1.0
    raise SynthesisError(f"non-real phase ratio {ratio} against {target.label()}")


# --- local dressing search -----------------------------------------------------

def _solve_letter_word(rows: dict[str, str]) -> tuple[str, ...]:
    """Shortest Clifford word whose pullback maps each base letter as asked."""
    for length in range(4):
        # CLIFFORD1_NAMES in order, shortest words first, so compiled circuits
        # are reproducible gate for gate
        for word in itertools.product(CLIFFORD1_NAMES, repeat=length):
            mapping = {letter: letter for letter in "XYZ"}
            for name in word:
                pull = _PULL_PERM[name]
                mapping = {L: mapping[pull[L]] for L in "XYZ"}
            if all(mapping[b] == t for b, t in rows.items()):
                return word
    raise SynthesisError(f"no dressing word of length <= 3 realizes {rows}")


def _local_dressing(
    width: int,
    window: tuple[int, ...],
    axis: str,
    requests,
) -> list[Gate]:
    """Per-qubit Clifford words turning MS-conjugated Z's into the targets."""
    bases = {}
    for t, _, _, _ in requests:
        bases[t] = conjugate_by_ms(PauliString(width, {t: "Z"}), axis, window, inverse=True)
    rows: dict[int, dict[str, str]] = {k: {} for k in window}
    for t, _, target, _ in requests:
        base = bases[t]
        for k in window:
            b, want = base.letter(k), target.letter(k)
            if want == "I":
                raise SynthesisError(f"target {target.label()} is identity on window qubit {k}")
            seen = rows[k].setdefault(b, want)
            if seen != want:
                raise SynthesisError(
                    f"conflicting dressing rows at qubit {k}: {b} -> {seen} and {b} -> {want}"
                )
    gates: list[Gate] = []
    for k in window:
        for name in _solve_letter_word(rows[k]):
            gates.append(Clifford1(k, name))
    return gates


# --- entangled dressing (tableau reduction) -----------------------------------

def _reduce_to_z(strings, targets, width: int) -> list[Gate]:
    """Clifford gates whose conjugation maps strings[i] to +-Z on targets[i].

    Standard symplectic elimination: purify the X-part, funnel it onto the
    target qubit with CNOTs, rotate it into Z, then cancel the leftover Z's.
    Earlier targets are never disturbed because a commuting independent family
    carries no X on them and CNOT controls preserve their Z.
    """
    gates: list[Gate] = []
    cur = [s.with_phase(1) for s in strings]
    pinned = [PauliString(width, {t: "Z"}) for t in targets]

    def emit(gate: Gate) -> None:
        gates.append(gate)
        for i, s in enumerate(cur):
            cur[i] = _push(gate, s)

    done: list[int] = []
    for i, target in enumerate(targets):
        for qb in cur[i].support():
            if cur[i].letter(qb) == "Y":
                emit(Clifford1(qb, "S"))
        if not any(cur[i].letter(qb) == "X" for qb in cur[i].support()):
            free = [qb for qb in cur[i].support() if qb not in done]
            if not free:
                raise SynthesisError("strings are not independent; cannot diagonalize jointly")
            emit(Clifford1(free[0], "H"))
        if cur[i].letter(target) != "X":
            pivot = next(qb for qb in cur[i].support() if cur[i].letter(qb) == "X")
            emit(CNOT(pivot, target))
            emit(CNOT(target, pivot))
            emit(CNOT(pivot, target))
        for qb in cur[i].support():
            if qb != target and cur[i].letter(qb) == "X":
                emit(CNOT(target, qb))
        if cur[i].letter(target) == "Y":
            emit(Clifford1(target, "S"))
        emit(Clifford1(target, "H"))
        for qb in cur[i].support():
            if qb != target and cur[i].letter(qb) == "Z":
                emit(CNOT(qb, target))
        if cur[i].with_phase(1) != pinned[i]:
            raise SynthesisError(f"reduction left {cur[i].label()} instead of Z[{target}]")
        done.append(target)
    if any(c.with_phase(1) != z for c, z in zip(cur, pinned)):
        raise SynthesisError("reduction disturbed an earlier pinned string")
    return gates


def _entangled_dressing(
    width: int,
    window: tuple[int, ...],
    axis: str,
    requests,
) -> list[Gate]:
    """Joint Clifford dressing for a layer local words cannot realize.

    Builds D with D s_i D&dagger; = +-(MS&dagger; Z_{t_i} MS), so the pullback
    of Z_{t_i} through [D, MS] lands on +-s_i.  Composed from two reductions
    onto the same Z targets.
    """
    targets = [t for t, _, _, _ in requests]
    layer = [s for _, _, s, _ in requests]
    bases = [
        conjugate_by_ms(PauliString(width, {t: "Z"}), axis, window, inverse=True)
        for t in targets
    ]
    to_z_from_layer = _reduce_to_z(layer, targets, width)
    to_z_from_bases = _reduce_to_z(bases, targets, width)
    return to_z_from_layer + [inverse(g) for g in reversed(to_z_from_bases)]


# --- the sandwich assembler ----------------------------------------------------

class _Slot(NamedTuple):
    """A rotation whose angle is filled in from the group's (term, angle) pairs.

    The angle is factor * weight, with weight summed from ``zero`` over
    theta[member] * (coefficient[member] * scale) in the order of ``terms``;
    ``factor`` is 2 (Rz) or 4 (CRz) times the pullback sign, and each scale
    is an exact generator string weight.
    """

    qubit: int
    control: int | None
    factor: float
    zero: float
    terms: tuple[tuple[int, float], ...]


def _summed(contributions) -> tuple[float, tuple[tuple[int, float], ...]]:
    """Weight of a pool string: its contributions summed from 0.0, as the
    pool always summed them (so a lone -0.0 contribution gives 0.0)."""
    return 0.0, tuple(contributions)


def _product(member: int, scale: float) -> tuple[float, tuple[tuple[int, float], ...]]:
    """Weight of one product: summed from -0.0, the exact additive identity,
    so the product's own sign of zero passes through."""
    return -0.0, ((member, scale),)


def _zz_ladder(qubits: tuple[int, ...], rotation: _Slot) -> list:
    ladder = [CNOT(qubits[i], qubits[i + 1]) for i in range(len(qubits) - 1)]
    return [*ladder, rotation, *[inverse(g) for g in reversed(ladder)]]


def _sandwich(width: int, axis: str, requests, dressing=_local_dressing, zz_requests=()) -> list:
    """One dressed MS pair realizing exp(-i sum_t 2 w_t S_t) rotations.

    ``requests`` is a sequence of (rotation qubit, weight, target string,
    control), with the weight a (zero, ((member, scale), ...)) pair (see
    ``_Slot``); the emitted Rz slot carries factor 2 * sign with the sign
    read off the exact pullback, i.e. exp(-i angle/2 E_t) == exp(-i w_t S_t)
    per rotation.  A request with a control qubit becomes a CRz slot that
    contributes the (S_t - Z_control S_t)/2 pair at twice the angle.
    The MS window is the support of the targets, read off the first one;
    ``dressing`` is the solver (``_local_dressing`` or
    ``_entangled_dressing``) that picks the Clifford layer on that window.
    Rotations are emitted in request order; ``_fill`` turns the slots into
    gates.
    """
    window = requests[0][2].support()
    dressing = dressing(width, window, axis, requests)
    prefix: list[Gate] = list(dressing)
    if len(window) > 1:
        prefix.append(MS(axis, "forward", window))

    rotations: list[_Slot] = []
    for t, weight, target, control in requests:
        if control in window:
            raise SynthesisError(f"control qubit {control} sits inside the MS window {window}")
        e = _pullback(PauliString(width, {t: "Z"}), prefix)
        factor = 4.0 if control is not None else 2.0
        rotations.append(_Slot(t, control, factor * _sign_against(e, target), *weight))

    items: list = [*prefix, *rotations]
    for qs, weight, target in zz_requests:
        qs = tuple(sorted(qs))
        e = _pullback(PauliString(width, {q: "Z" for q in qs}), prefix)
        items.extend(_zz_ladder(qs, _Slot(qs[-1], None, 2.0 * _sign_against(e, target), *weight)))
    if len(window) > 1:
        items.append(MS(axis, "backward", window))
    items.extend(inverse(g) for g in reversed(dressing))
    return items


# Each Clifford kind's fields shifted up by k qubits.
_SHIFT = {
    Clifford1: lambda qubit, name, k: (qubit + k, name),
    CNOT: lambda control, target, k: (control + k, target + k),
    MS: lambda axis, direction, qubits, k: (axis, direction, tuple(q + k for q in qubits)),
}

# The one gate object of each template item at each offset, keyed by
# (item, offset).  An item is a plain tuple (kind, *fields), so equal gates of
# different templates share a key; an item shifted up by the offset is keyed
# again at offset 0, so equal gates from different offsets are one object too.
# The table grows with the distinct gate values a process emits, not with fills.
# Two threads that miss on one pair at once each build its gate, and
# setdefault hands both the first object stored.
_SHARED: dict[tuple, Gate] = {}


def _item(gate: Gate) -> tuple:
    """A gate as the plain tuple (kind, *fields)."""
    return (type(gate), *(getattr(gate, f.name) for f in fields(gate)))


def _items(items) -> tuple:
    """A sandwich's items as _fill takes them: each gate as its plain tuple,
    each slot as it is."""
    return tuple(item if type(item) is _Slot else _item(item) for item in items)


def _shared(item: tuple, offset: int) -> Gate:
    """The gate of a Clifford item shifted up by ``offset`` qubits: built and
    checked once per (item, offset), and the first object of its value."""
    kind, *values = item
    gate = kind(*_SHIFT[kind](*values, offset))
    # keyed by the gate's own fields, so an MS window tuple is held once
    gate = _SHARED.setdefault((_item(gate), 0), gate)
    _SHARED[item, offset] = gate
    return gate


def _fill(items, thetas, coefficients, offset: int) -> list[Gate]:
    """Gates of a sandwich or template (see _items), one per item: its Clifford
    items shifted up by ``offset`` qubits, one shared object per value, its
    slots made into Rz / CRz gates with angles from the members' ``thetas``
    and ``coefficients``, zero angles included."""
    gates: list[Gate] = []
    shared = _SHARED
    for item in items:
        if type(item) is not _Slot:
            gate = shared.get((item, offset))
            gates.append(_shared(item, offset) if gate is None else gate)
            continue
        weight = item.zero
        for member, scale in item.terms:
            weight += thetas[member] * (coefficients[member] * scale)
        angle = item.factor * weight
        qubit = item.qubit + offset
        if item.control is None:
            gates.append(Rz(qubit, angle))
        else:
            gates.append(CRz(item.control + offset, qubit, angle))
    return gates


# --- generator pools ------------------------------------------------------------

def _real_strings(t: ExcitationTerm, width: int):
    """(real weight, string) for each generator string of ``t``, in the
    generator's order; a non-real weight is refused."""
    for coeff, s in generator_pauli(t, width).terms:
        if abs(coeff.imag) > 1e-12:
            raise SynthesisError(f"non-real generator weight {coeff} on {s.label()}")
        yield coeff.real, s


def _pool(terms, width: int):
    """Combined string pool of commuting generators.

    Returns (contributions keyed by phase-free string, letter modes, interior
    Z letters); a string's contributions are (member, weight) pairs, the
    weight real, in member order and then string order.
    """
    pool: dict[PauliString, list[tuple[int, float]]] = {}
    modes = None
    interior: dict[int, str] = {}
    for member, term in enumerate(terms):
        t_modes = term.letter_modes
        if modes is None:
            modes = t_modes
        elif modes != t_modes:
            raise SynthesisError(f"terms mix letter modes {modes} and {t_modes}")
        for weight, s in _real_strings(term, width):
            pool.setdefault(s, []).append((member, weight))
            for qb in s.support():
                letter = s.letter(qb)
                if qb not in modes:
                    if interior.setdefault(qb, letter) != letter or letter != "Z":
                        raise SynthesisError("inconsistent parity letters in pool")
    if modes is None:
        raise SynthesisError("empty generator pool")
    return pool, modes, interior


def _star(width: int, pool, modes, interior, center: str) -> list:
    """Requests for the strings one letter away from the all-``center`` word,
    each rotated on the mode whose letter is flipped."""
    flipped = "Y" if center == "X" else "X"
    requests = []
    for o in modes:
        letters = {m: (flipped if m == o else center) for m in modes}
        letters.update(interior)
        s = PauliString(width, letters)
        requests.append((o, _summed(pool.get(s, ())), s, None))
    return requests


def _basis_insert(basis: dict[int, int], v: int) -> bool:
    """Gaussian insert into an F2 basis keyed by leading bit; False if dependent."""
    while v:
        lead = v.bit_length() - 1
        if lead not in basis:
            basis[lead] = v
            return True
        v ^= basis[lead]
    return False


def _pack_words(words: list[int], capacity: int) -> list[list[int]]:
    """First-fit packing into layers of independent words.

    A subset of equal-weight-X strings multiplies to the identity exactly when
    it has even size and its Y-patterns XOR to zero, so appending a parity bit
    to each word makes "no such subset" the same as F2 linear independence.
    """
    layers: list[list[int]] = []
    bases: list[dict[int, int]] = []
    for w in sorted(words):
        for layer, basis in zip(layers, bases):
            if len(layer) < capacity and _basis_insert(basis, (w << 1) | 1):
                layer.append(w)
                break
        else:
            layers.append([w])
            bases.append({})
            _basis_insert(bases[-1], (w << 1) | 1)
    return layers


def _layers(terms, width: int, axis: str) -> list:
    """Star layers plus, where local words cannot pack the pool, CNOT layers;
    controlled singles share one CRz sandwich on the control-free core window.

    The first layer diagonalizes the strings one letter away from the all-X
    (or all-Y) word using purely local dressing; the complementary star covers
    the strings one letter from the opposite center.  Whatever remains (N >= 3
    only) is grouped into independent commuting sets of up to 2N strings, each
    diagonalized jointly with CNOT-assisted dressing around a single MS pair.
    """
    if terms[0].kind == "controlled_single":
        return _sandwich(width, "xx", _core_requests(terms, width))
    pool, modes, interior = _pool(terms, width)
    items: list = []
    covered: set[PauliString] = set()

    for star_axis in (axis, {"xx": "yy", "yy": "xx"}[axis]):
        requests = _star(width, pool, modes, interior, _AXIS_LETTER[star_axis])
        targets = [s for _, _, s, _ in requests]
        if all(s in covered for s in targets):
            continue
        items.extend(_sandwich(width, star_axis, requests))
        covered.update(targets)

    remaining = [s for s in pool if s not in covered]
    if remaining:
        def word_of(s: PauliString) -> int:
            return sum(1 << i for i, m in enumerate(modes) if s.letter(m) == "Y")

        by_word = {word_of(s): s for s in remaining}
        for layer_words in _pack_words(list(by_word), 2 * len(modes)):
            requests = [(modes[i], _summed(pool[by_word[w]]), by_word[w], None)
                        for i, w in enumerate(layer_words)]
            items.extend(_sandwich(width, "xx", requests, _entangled_dressing))
    return items


# --- block templates --------------------------------------------------------------

def _controlled_half(member: int, t: ExcitationTerm, width: int, letter: str,
                     control=None) -> list:
    """Rotation requests for one half of a controlled single's pool, the
    strings with ``letter`` (Z or I) on the control: the string with the Y
    letter at each orbital, rotated on that orbital."""
    strings = list(_real_strings(t, width))
    requests = []
    for o in (t.sub[0], t.sup[0]):
        match = [(w, s) for w, s in strings
                 if s.letter(t.control) == letter and s.letter(o) == "Y"]
        if len(match) != 1:
            raise SynthesisError("controlled pool does not split into Y-labelled halves")
        requests.append((o, _product(member, match[0][0]), match[0][1], control))
    return requests


def _core_requests(terms, width: int) -> list:
    """CRz requests for the control-free core strings of controlled singles."""
    return [r for member, t in enumerate(terms)
            for r in _controlled_half(member, t, width, "I", t.control)]


def _core_strings(terms, width: int, axis: str) -> list:
    """One CRz sandwich per control-free core string."""
    return [g for r in _core_requests(terms, width) for g in _sandwich(width, "xx", [r])]


def _strings(terms, width: int, axis: str) -> list:
    """One MS pair per generator string, each on the string's support."""
    return [g for member, t in enumerate(terms) for w, s in _real_strings(t, width)
            for g in _sandwich(width, "xx", [(s.support()[0], _product(member, w), s, None)])]


def _halves(terms, width: int, axis: str) -> list:
    """Two plain-Rz sandwiches per controlled single: the strings with a Z on
    the control, then those without."""
    return [g for member, t in enumerate(terms) for letter in "ZI"
            for g in _sandwich(width, "xx", _controlled_half(member, t, width, letter))]


def _ladder(terms, width: int, axis: str) -> list:
    """One XX sandwich; the all-Y star via CNOT ladders (compile_mixed_cnot)."""
    pool, modes, interior = _pool(terms, width)
    zz_requests = [(tuple(m for m in modes if m != o), weight, s)
                   for o, weight, s, _ in _star(width, pool, modes, interior, "Y")]
    return _sandwich(width, "xx", _star(width, pool, modes, interior, "X"),
                     zz_requests=zz_requests)


_SCHEMES = {"layers": _layers, "core_strings": _core_strings, "strings": _strings,
            "halves": _halves, "ladder": _ladder}


@functools.lru_cache(maxsize=4096)
def _template(key) -> tuple:
    """The angle-free gates of one group shape at offset 0 (see _lower_group).

    Derived from unit-coefficient terms, with the sign of the symmetrized
    conjugation folded into each member's coefficient, so every slot scale is
    the member's exact string weight per unit of theta * coefficient, and no
    string is lost however small the real coefficient is.
    """
    members, j, scheme, axis = key
    width = 1 + max(m for _, sub, sup, c, _ in members for m in (*sub, *sup, c) if m is not None)
    terms = []
    for kind, sub, sup, control, symmetrized in members:
        t = ExcitationTerm(kind, sub, sup, control, symmetrized and j is None)
        if j is not None:
            image, sign = local_equivalence_conjugate(t, j)
            if not image.symmetrized:
                raise SynthesisError(f"mode {j} does not couple to the generator")
            t = replace(t, coefficient=sign)
        terms.append(t)
    items = _SCHEMES[scheme](terms, width, axis)
    if j is not None:
        items = [Clifford1(j, "S"), *items, Clifford1(j, "SDG")]
    return _items(items)


def _lower_group(pairs, width: int, *, conjugation_mode: int | None = None,
                 scheme: str = "layers", axis: str = "xx") -> list[Gate]:
    """Gates for one fusion group: commuting same-shape (term, angle) pairs,
    spent by ``scheme`` with the first star layer on ``axis``.

    Except under ``strings``, symmetrized terms become their antisymmetrized
    twins wrapped in S_j ... S_j&dagger;; j is the first creation mode, where
    every sign is +1, unless ``conjugation_mode`` names another.  The gates
    come from the template of the group's shape, one per item (see the module
    docstring); only the angles are computed per call.
    """
    lo = min(t.modes[0] for t, _ in pairs)
    hi = max(t.modes[-1] for t, _ in pairs)
    if hi >= width:
        raise SynthesisError(f"register of {width} qubits cannot hold mode {hi}")
    members = tuple(
        (t.kind, tuple(m - lo for m in t.sub), tuple(m - lo for m in t.sup),
         None if t.control is None else t.control - lo, t.symmetrized)
        for t, _ in pairs
    )
    head = pairs[0][0]
    j = None
    if head.symmetrized and scheme != "strings":
        j = (head.sub[0] if conjugation_mode is None else conjugation_mode) - lo
    try:
        template = _template((members, j, scheme, axis))
    except SynthesisError as exc:
        raise SynthesisError(f"{exc} (qubits counted from {lo})") from None
    thetas = [theta for _, theta in pairs]
    coefficients = [t.coefficient for t, _ in pairs]
    return _fill(template, thetas, coefficients, lo)


# --- public compilers -----------------------------------------------------------

def _compiled(op: str, pairs, n_qubits: int | None, **options) -> Circuit:
    """Circuit ``op``: the (term, angle) pairs lowered as one group on
    ``n_qubits`` qubits, or on the smallest register holding their modes."""
    pairs = [(t, _real(theta, "angle", SynthesisError)) for t, theta in pairs]
    width = 1 + max(t.modes[-1] for t, _ in pairs) if n_qubits is None else n_qubits
    return Circuit(width, _lower_group(pairs, width, **options), {"op": op})


def _expect_antisym(t: ExcitationTerm, kind: str) -> None:
    if t.kind != kind:
        raise SynthesisError(f"expected a {kind} term, got {t.kind}")
    if t.symmetrized:
        raise SynthesisError("symmetrized terms go through compile_symmetrized")


def compile_pauli_rotation(p: PauliString, phi: float) -> Circuit:
    """exp(-i phi/2 p) as one dressed MS pair (none when p is one-local)."""
    if p.is_identity():
        raise SynthesisError("identity rotation is a global phase; use GlobalPhase")
    if p.phase not in (1, -1):
        raise SynthesisError(f"rotation about an anti-Hermitian string (phase {p.phase})")
    signed_phi = _real(phi, "angle", SynthesisError) * (1 if p.phase == 1 else -1)
    target = p.with_phase(1)
    requests = [(target.support()[0], _product(0, 0.5), target, None)]
    items = _items(_sandwich(p.width, "xx", requests))
    gates = _fill(items, (signed_phi,), (1.0,), 0)
    return Circuit(p.width, gates, {"op": "pauli_rotation"})


def compile_single_excitation(
    t: ExcitationTerm, theta: float, axis: str = "xx", n_qubits: int | None = None
) -> Circuit:
    """exp(-i theta G) for a single excitation, two MS gates on [p, q]."""
    _expect_antisym(t, "single")
    name = str(axis).lower()
    if name not in ("xx", "yy"):
        raise SynthesisError(f"axis must be 'xx' or 'yy', got {axis!r}")
    return _compiled("single_excitation", [(t, theta)], n_qubits, axis=name)


def compile_double_block(
    p: int, q: int, r: int, s: int, angles, n_qubits: int | None = None
) -> Circuit:
    """Three commuting double-excitation exponentials over one window.

    ``angles`` carries the rotation angle of each orbital pairing, ordered
    ((p,q)(r,s), (p,r)(q,s), (p,s)(q,r)); the shared eight-string pool is
    realized with one XX and one YY MS pair regardless of how many pairings
    are active.
    """
    p, q, r, s = (_index(m, "mode", SynthesisError) for m in (p, q, r, s))
    if not p < q < r < s:
        raise SynthesisError(f"orbitals must be strictly increasing, got {(p, q, r, s)}")
    angles = tuple(angles)
    if len(angles) != 3:
        raise SynthesisError("double block takes three pairing angles")
    pairs = [double(p, q, r, s), double(p, r, q, s), double(p, s, q, r)]
    return _compiled("double_block", list(zip(pairs, angles)), n_qubits)


def compile_coupled_exchange(
    p: int, q: int, r: int, s: int, theta: float, n_qubits: int | None = None
) -> Circuit:
    """exp(-i theta (G_pq^rs + G_ps^rq)); two of the four Rz slots cancel and are dropped."""
    p, q, r, s = (_index(m, "mode", SynthesisError) for m in (p, q, r, s))
    if not p < q < r < s:
        raise SynthesisError(f"orbitals must be strictly increasing, got {(p, q, r, s)}")
    theta = _real(theta, "angle", SynthesisError)
    terms = [(double(p, q, r, s), theta), (double(p, s, r, q), theta)]
    width = 1 + s if n_qubits is None else n_qubits
    gates = [g for g in _lower_group(terms, width) if not (type(g) is Rz and g.angle == 0.0)]
    return Circuit(width, gates, {"op": "coupled_exchange"})


def compile_controlled_single(
    p: int, q: int, j: int, theta: float, variant: str = "a", n_qubits: int | None = None
) -> Circuit:
    """exp(-i theta G_pj^qj): an excitation p -> q gated on occupation of j.

    Variant "a" keeps one MS pair and conditions the rotations with CRz gates
    from the control qubit, which never joins the MS set. Variant "b" spends a
    second MS pair to realize the two commuting halves with plain Rz gates.
    """
    p, q, j = (_index(m, "mode", SynthesisError) for m in (p, q, j))
    if not p < q:
        raise SynthesisError(f"need p < q, got {(p, q)}")
    if j in (p, q):
        raise SynthesisError("control mode coincides with the excitation; that is a density term")
    t = controlled_single(p, q, j)
    scheme = {"a": "layers", "b": "halves"}.get(variant)
    if scheme is None:
        raise SynthesisError(f"variant must be 'a' or 'b', got {variant!r}")
    return _compiled(f"controlled_single_{variant}", [(t, theta)], n_qubits, scheme=scheme)


def higher_order_ms_count(order: int) -> int:
    """MS budget for an order-N excitation: 2 * ceil(2^(2N-2) / N)."""
    if order < 1:
        raise SynthesisError("excitation order must be at least 1")
    return 2 * math.ceil(4 ** (order - 1) / order)


def compile_higher_excitation(
    t: ExcitationTerm, theta: float, n_qubits: int | None = None
) -> Circuit:
    """exp(-i theta G) for an order-N excitation within the MS budget.

    Orders one and two come out as the single- and double-excitation sandwich
    structures; from order three the string pool no longer packs into local
    star layers (six of them cover at most 30 of the 32 third-order strings),
    so the remaining layers carry CNOT-assisted dressing while each still
    spends exactly one MS pair.
    """
    _expect_antisym(t, "higher")
    c = _compiled("higher_excitation", [(t, theta)], n_qubits)
    budget = higher_order_ms_count(len(t.sub))
    spent = sum(isinstance(g, MS) for g in c.gates)
    if spent != budget:
        raise SynthesisError(f"packing used {spent} MS gates, budget is {budget}")
    return c


def compile_symmetrized(
    t: ExcitationTerm,
    theta: float,
    n_qubits: int | None = None,
    conjugation_mode: int | None = None,
) -> Circuit:
    """exp(-i theta G~) by S-conjugating the antisymmetrized circuit.

    The phase gate exp(-i pi/2 n_j) swaps the generator families, so the
    symmetrized exponential is the antisymmetrized one wrapped in S_j / S_j
    dagger with the angle sign set by whether j is a creation or annihilation
    mode (``conjugation_mode`` picks j; default is the first creation mode).
    """
    if not t.symmetrized:
        raise SynthesisError("term is already antisymmetrized; compile it directly")
    return _compiled("symmetrized", [(t, theta)], n_qubits,
                     conjugation_mode=conjugation_mode)


def baseline_string_by_string(
    t: ExcitationTerm, theta: float, n_qubits: int | None = None
) -> Circuit:
    """Reference compiler: every generator string gets its own MS pair."""
    return _compiled("baseline", [(t, theta)], n_qubits, scheme="strings")


def ms_square_phase_exponent(n: int) -> tuple[int, bool]:
    """(k, pauli) with the squared n-qubit forward MS equal to i^k times
    the all-axis-letter word (pauli True) or the identity (pauli False)."""
    m = n // 2
    if n % 2 == 0:
        return (-m) % 4, True
    return m % 4, False


def eliminate_backward_ms(c: Circuit) -> Circuit:
    """Rewrite backward MS gates as forward ones plus local Pauli dressing.

    Uses MS&dagger; = conj(phase) * P * MS from the squared-gate identity, so
    the output reproduces the input unitary exactly once the inserted
    GlobalPhase is counted; MS totals are preserved and the pass is a no-op
    on forward-only circuits.
    """
    gates: list[Gate] = []
    changed = False
    for gate in c.gates:
        if not (isinstance(gate, MS) and gate.direction == "backward"):
            gates.append(gate)
            continue
        changed = True
        n = len(gate.qubits)
        k, pauli = ms_square_phase_exponent(n)
        gates.append(MS(gate.axis, "forward", gate.qubits))
        if pauli:
            letter = _AXIS_LETTER[gate.axis]
            gates.extend(Clifford1(qb, letter) for qb in gate.qubits)
        gamma = ((-k) % 4) * math.pi / 2.0
        if gamma % (2.0 * math.pi) != 0.0:
            gates.append(GlobalPhase(gamma))
    if not changed:
        return c
    return Circuit(c.n_qubits, gates, c.metadata)


def compile_mixed_cnot(t: ExcitationTerm, theta: float, n_qubits: int | None = None) -> Circuit:
    """Double excitation with one MS pair; the second family via CNOT ladders.

    The strings one letter away from the all-X word keep their plain Rz slots;
    each remaining string is the product of three of those, so it is reached
    from the same sandwich by a three-local Z rotation on the orbitals, spent
    as a CNOT ladder around an Rz.
    """
    _expect_antisym(t, "double")
    return _compiled("mixed_cnot", [(t, theta)], n_qubits, scheme="ladder")
