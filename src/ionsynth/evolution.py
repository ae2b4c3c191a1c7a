"""Application circuits: UCCSD ansatz layers and first-order Trotter steps.

A Trotter step factors the Hamiltonian into its exact term exponentials in a
fixed order: the diagonal part first (a global phase plus Rz / Rzz rotations,
which is exact since everything commutes), then the excitation terms, one
fusion group at a time.  Every group goes through the single group lowering
in synth, which wraps symmetrized terms in S_j ... S_j&dagger;, gives
controlled singles one shared CRz sandwich and lowers everything else as star
layers over the group's combined string pool.  The parallelized schedule
groups terms with ``fusion_groups``: doubles on one four-mode window ride one
double-excitation block, controlled singles with the same core and effective
MS window share one sandwich.  The baseline schedule makes every term its own
group and keeps two differences: controlled terms spend one CRz sandwich per
core string, and the complex orbital class goes string by string.  A UCCSD
layer lowers each excitation as a group of one.

First-order Trotter semantics make the term order part of the contract, so
everything here is deterministic: excitation terms keep their canonical
ordering and fused groups sit at the position of their first member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Clifford1, Gate, GlobalPhase, Rz, Rzz
from .fermion import ExcitationTerm, HamiltonianTerms, double, local_pauli, single
from .pauli import _as_index
from .synth import _lower_group
from .verify import circuit_unitary, dense_sum

__all__ = [
    "EvolutionError",
    "AnsatzSpec",
    "TrotterConfig",
    "uccsd_excitations",
    "build_uccsd_layer",
    "prepare_reference",
    "fusion_groups",
    "build_trotter_step",
    "trotter_error_probe",
]


class EvolutionError(ValueError):
    """Raised for invalid ansatz or Trotter configurations."""


# --- domain types ---------------------------------------------------------------


def _mode(m, n_modes: int) -> int:
    """A mode of an n_modes register as an int.  Floats and bools are refused,
    not truncated or read as 0 and 1; numpy integers pass."""
    i = _as_index(m)
    if i is None:
        raise EvolutionError(f"mode {m!r} is not an integer")
    if not 0 <= i < n_modes:
        raise EvolutionError(f"mode {i} outside register of {n_modes}")
    return i


def _mode_count(n_modes) -> int:
    """A register's mode count as an int, refused like a mode when it is a
    float or a bool, or when it is negative."""
    n = _as_index(n_modes)
    if n is None:
        raise EvolutionError(f"mode count {n_modes!r} is not an integer")
    if n < 0:
        raise EvolutionError(f"negative mode count {n}")
    return n


@dataclass(frozen=True)
class AnsatzSpec:
    """UCCSD ansatz over spin orbitals; even indices are alpha, odd beta.

    ``parameters`` carries one angle per generated excitation, ordered
    singles first and doubles second, each block sorted by orbital index.
    """

    n_modes: int
    occupied: tuple[int, ...]
    virtual: tuple[int, ...]
    parameters: tuple[float, ...]

    def __post_init__(self) -> None:
        n_modes = _mode_count(self.n_modes)
        occ = tuple(_mode(m, n_modes) for m in self.occupied)
        vir = tuple(_mode(m, n_modes) for m in self.virtual)
        parameters = tuple(float(x) for x in self.parameters)
        if not all(map(math.isfinite, parameters)):
            raise EvolutionError(f"parameters must be finite, got {parameters}")
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "occupied", occ)
        object.__setattr__(self, "virtual", vir)
        object.__setattr__(self, "parameters", parameters)
        if len(set(occ)) != len(occ) or len(set(vir)) != len(vir):
            raise EvolutionError("repeated mode in occupied or virtual list")
        if set(occ) & set(vir):
            raise EvolutionError("occupied and virtual lists overlap")
        expected = len(_single_pairs(occ, vir)) + len(_double_quads(occ, vir))
        if len(self.parameters) != expected:
            raise EvolutionError(
                f"{len(self.parameters)} parameters for {expected} excitations"
            )


@dataclass(frozen=True)
class TrotterConfig:
    """Time step plus the orbital class and scheduling switches."""

    time_step: float
    orbital_class: str = "real"
    scheduling: str = "parallelized"

    def __post_init__(self) -> None:
        t = float(self.time_step)
        if not np.isfinite(t):
            raise EvolutionError("time step must be finite")
        object.__setattr__(self, "time_step", t)
        if self.orbital_class not in ("real", "complex"):
            raise EvolutionError(f"unknown orbital class {self.orbital_class!r}")
        if self.scheduling not in ("parallelized", "baseline"):
            raise EvolutionError(f"unknown scheduling {self.scheduling!r}")


# --- UCCSD ansatz ---------------------------------------------------------------


def _single_pairs(occupied, virtual) -> list[tuple[int, int]]:
    return [
        (i, a)
        for i in sorted(occupied)
        for a in sorted(virtual)
        if i % 2 == a % 2
    ]


def _double_quads(occupied, virtual) -> list[tuple[int, int, int, int]]:
    occ = sorted(occupied)
    vir = sorted(virtual)
    out = []
    for xi, i in enumerate(occ):
        for j in occ[xi + 1 :]:
            for xa, a in enumerate(vir):
                for b in vir[xa + 1 :]:
                    if (i + j) % 2 == (a + b) % 2 and {i % 2, j % 2} == {a % 2, b % 2}:
                        out.append((i, j, a, b))
    return out


def uccsd_excitations(spec: AnsatzSpec) -> tuple[ExcitationTerm, ...]:
    """The generated excitation terms in parameter order."""
    singles = [single(i, a) for i, a in _single_pairs(spec.occupied, spec.virtual)]
    doubles = [
        double(a, b, i, j) for i, j, a, b in _double_quads(spec.occupied, spec.virtual)
    ]
    return tuple(singles + doubles)


def build_uccsd_layer(spec: AnsatzSpec, scheduling: str = "parallelized") -> Circuit:
    """One first-order product layer exp(-i theta_1 G_1) ... exp(-i theta_k G_k).

    Excitations are every spin-preserving occupied-to-virtual move: singles
    cost two MS gates each and doubles four under the parallelized compilers;
    the baseline schedule lowers each generator string by string instead.
    """
    if scheduling not in ("parallelized", "baseline"):
        raise EvolutionError(f"unknown scheduling {scheduling!r}")
    scheme = "strings" if scheduling == "baseline" else "layers"
    gates: list[Gate] = []
    for t, theta in zip(uccsd_excitations(spec), spec.parameters):
        gates.extend(_lower_group([(t, theta)], spec.n_modes, scheme=scheme))
    return Circuit(spec.n_modes, tuple(gates), {"op": f"uccsd_{scheduling}"})


def prepare_reference(occupied, n_modes: int) -> Circuit:
    """X gates writing the occupation bitstring onto |0...0>."""
    n_modes = _mode_count(n_modes)
    occ = sorted(_mode(m, n_modes) for m in occupied)
    if len(set(occ)) != len(occ):
        raise EvolutionError("repeated mode in occupied list")
    gates = tuple(Clifford1(m, "X") for m in occ)
    return Circuit(n_modes, gates, {"op": "reference_state"})


# --- Trotter step scheduling ------------------------------------------------------


def _controlled_window(t: ExcitationTerm) -> tuple[int, ...]:
    """Support of the control-free core strings: the MS window of variant a."""
    p, q = t.sub[0], t.sup[0]
    return tuple(m for m in range(p, q + 1) if m != t.control)


def fusion_groups(terms) -> tuple[tuple[ExcitationTerm, ...], ...]:
    """Partition excitation terms into shared-block groups, order-preserving.

    Doubles fuse when they occupy the same four-mode window; controlled
    singles fuse when both the excitation core and the effective MS window
    coincide (a control inside the core shrinks the window, so such terms
    never share a sandwich with outside-control partners).  Symmetrized and
    antisymmetrized terms never mix.
    """
    keyed: dict = {}
    order: list = []
    for pos, t in enumerate(terms):
        if t.kind == "double":
            key = ("double", t.modes, t.symmetrized)
        elif t.kind == "controlled_single":
            key = ("controlled", t.sub, t.sup, _controlled_window(t), t.symmetrized)
        else:
            key = ("solo", pos)
        if key not in keyed:
            keyed[key] = []
            order.append(key)
        keyed[key].append(t)
    return tuple(tuple(keyed[k]) for k in order)


def _diagonal_gates(terms: HamiltonianTerms, dt: float, width: int) -> list[Gate]:
    """Exact lowering of the commuting diagonal part: phase, Rz, Rzz."""
    phase = float(terms.constant)
    gates: list[Gate] = []
    for lt in terms.local_terms:
        for coeff, s in local_pauli(lt, width).terms:
            theta = float(coeff.real) * dt
            supp = s.support()
            if not supp:
                phase += float(coeff.real)
            elif len(supp) == 1:
                gates.append(Rz(supp[0], 2.0 * theta))
            else:
                gates.append(Rzz(supp[0], supp[1], 2.0 * theta))
    if phase * dt != 0.0:
        gates.insert(0, GlobalPhase(-phase * dt))
    return gates


def build_trotter_step(terms: HamiltonianTerms, cfg: TrotterConfig) -> Circuit:
    """One first-order Trotter factor of exp(-i dt H), phase-exact.

    The diagonal part comes first, then the excitation blocks in canonical
    term order; the parallelized schedule replaces each fused group with a
    shared block at the position of the group's first member.
    """
    if cfg.orbital_class == "real" and terms.reality != "real":
        raise EvolutionError("real-orbital scheduling needs a real Hamiltonian")
    for t in terms.excitation_terms:
        if t.kind not in ("single", "double", "controlled_single"):
            raise EvolutionError(f"cannot schedule kind {t.kind}")
    width = terms.n_modes
    dt = cfg.time_step
    schemes = {}  # synth's block scheme by kind, "layers" when absent
    if cfg.scheduling == "parallelized":
        groups = fusion_groups(terms.excitation_terms)
    else:
        groups = tuple((t,) for t in terms.excitation_terms)
        plain = "strings" if cfg.orbital_class == "complex" else "layers"
        schemes = {"single": plain, "double": plain, "controlled_single": "core_strings"}
    gates = _diagonal_gates(terms, dt, width)
    for group in groups:
        scheme = schemes.get(group[0].kind, "layers")
        gates.extend(_lower_group([(t, dt) for t in group], width, scheme=scheme))
    return Circuit(width, tuple(gates), {"op": f"trotter_{cfg.scheduling}"})


def trotter_error_probe(terms: HamiltonianTerms, time_steps, scheduling: str = "parallelized"):
    """(dt, spectral distance to the exact propagator) per requested step."""
    if terms.n_modes > 10:
        raise EvolutionError(f"{terms.n_modes} modes exceed the probe cap of 10")
    h = dense_sum(terms.pauli_sum())
    evals, evecs = np.linalg.eigh(h)
    out = []
    for dt in time_steps:
        dt = float(dt)
        cfg = TrotterConfig(dt, orbital_class=terms.reality, scheduling=scheduling)
        u = circuit_unitary(build_trotter_step(terms, cfg)).matrix
        exact = (evecs * np.exp(-1j * dt * evals)) @ evecs.conj().T
        out.append((dt, float(np.linalg.norm(u - exact, 2))))
    return tuple(out)
