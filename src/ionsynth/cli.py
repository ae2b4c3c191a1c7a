"""Command-line front end for compiling, verifying and counting circuits.

Subcommands: compile (lower one operator to a circuit file), verify (recheck
a circuit file against the generator recorded in its metadata), count / cost
(gate and duration reports), uccsd / trotter (application builders), and demo
(rebuild the bundled three-center-cation circuits and compare the computed MS
totals with the published reference numbers).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 input-format
error.  The IONSYNTH_TOL environment variable supplies the default tolerance
for verify and demo.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .circuit import CircuitError, ParseError, SchemaError, cost, count, deserialize, serialize
from .evolution import (
    AnsatzSpec,
    EvolutionError,
    TrotterConfig,
    build_trotter_step,
    build_uccsd_layer,
    fusion_groups,
    uccsd_excitations,
)
from .fermion import (
    ExcitationTerm,
    FermionError,
    HamiltonianTerms,
    controlled_single,
    double,
    generator_pauli,
    higher_excitation,
    single,
)
from .integrals import IntegralError, h3plus_builtin, parse_integrals, term_list
from .pauli import PauliError, from_label
from .synth import (
    SynthesisError,
    compile_controlled_single,
    compile_coupled_exchange,
    compile_double_block,
    compile_higher_excitation,
    compile_mixed_cnot,
    compile_pauli_rotation,
    compile_single_excitation,
    compile_symmetrized,
)
from .verify import VerifyError, circuit_unitary, generator_unitary

# Published totals the demos reproduce for the bundled three-center cation.
REFERENCE_COUNTS = {
    "uccsd": 24,
    "uccsd_baseline": 80,
    "trotter": 26,
    "trotter_string_by_string": 56,
    "trotter_naive": 176,
}

DEMO_PARAMETERS = tuple(0.02 * (i + 1) for i in range(8))


class UsageError(Exception):
    """Bad flag combination or operand; exits 2."""


class InputError(Exception):
    """Unreadable or malformed input file; exits 3."""


def _number(text: str, accept, noun: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and accept(value)):
        raise argparse.ArgumentTypeError(f"expected a {noun} number, got {text!r}")
    return value


def _finite(text: str) -> float:
    """A finite float: the type of every real-valued flag and list entry."""
    return _number(text, lambda v: True, "finite")


def _positive(text: str) -> float:
    """A positive finite float: the type of --tau."""
    return _number(text, lambda v: v > 0, "positive finite")


def _non_negative(text: str) -> float:
    """A non-negative finite float: the type of --tol and IONSYNTH_TOL."""
    return _number(text, lambda v: v >= 0, "non-negative finite")


def _tolerance(args) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    raw = os.environ.get("IONSYNTH_TOL")
    if raw is None:
        return 1e-9
    try:
        return _non_negative(raw)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"IONSYNTH_TOL: {exc}")


# --- op table ---------------------------------------------------------------------
#
# One builder per compile op.  A builder reads the op's operands through
# get(key) -> str, in the metadata form compile records, and returns the
# ordered (generator, angle) factors the circuit realizes together with a
# function that compiles that circuit for a register width (None: the
# smallest that holds the operator).  compile records exactly the operands the
# builder read, so verify can rebuild the factors from the file alone.


class _OperandError(ValueError):
    """Malformed operand; the message starts with its key."""


def _values(get, key: str, kind=_finite, count: int | None = None) -> tuple:
    text = get(key)
    try:
        values = tuple(kind(x) for x in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        noun = "integers" if kind is int else "finite numbers"
        raise _OperandError(f"{key}: expected comma-separated {noun}, got {text!r}")
    if count is not None and len(values) != count:
        raise _OperandError(f"{key}: expected {count} values, got {len(values)}")
    return values


def _theta(get) -> float:
    return _values(get, "theta", _finite, 1)[0]


def _modes(get, size: int) -> tuple[int, ...]:
    modes = _values(get, "orbitals", int, size)
    if list(modes) != sorted(set(modes)):
        listed = ",".join(map(str, modes))
        raise _OperandError(f"orbitals: modes must be strictly increasing, got {listed}")
    return modes


def _symmetrized(term, theta: float):
    return [(term, theta)], lambda n: compile_symmetrized(term, theta, n_qubits=n)


def _rotation(get, sym: bool):
    string, theta = from_label(get("string")), _theta(get)
    return [(string, theta / 2.0)], lambda n: compile_pauli_rotation(string, theta)


def _single(get, sym: bool):
    p, q = _modes(get, 2)
    theta, axis = _theta(get), get("axis")
    term = single(p, q, symmetrized=sym)
    if sym:
        return _symmetrized(term, theta)
    return [(term, theta)], lambda n: compile_single_excitation(term, theta, axis=axis, n_qubits=n)


def _double(get, sym: bool):
    p, q, r, s = _modes(get, 4)
    if sym:
        return _symmetrized(double(p, q, r, s, symmetrized=True), _theta(get))
    angles = _values(get, "angles", _finite, 3)
    factors = list(zip((double(p, q, r, s), double(p, r, q, s), double(p, s, q, r)), angles))
    return factors, lambda n: compile_double_block(p, q, r, s, angles, n_qubits=n)


def _coupled(get, sym: bool):
    p, q, r, s = _modes(get, 4)
    theta = _theta(get)
    factors = [(double(p, q, r, s), theta), (double(p, s, r, q), theta)]
    return factors, lambda n: compile_coupled_exchange(p, q, r, s, theta, n_qubits=n)


def _controlled(get, sym: bool):
    p, q = _modes(get, 2)
    j = _values(get, "control", int, 1)[0]
    theta, variant = _theta(get), get("variant")
    term = controlled_single(p, q, j, symmetrized=sym)
    if sym:
        return _symmetrized(term, theta)
    return [(term, theta)], lambda n: compile_controlled_single(
        p, q, j, theta, variant=variant, n_qubits=n
    )


def _higher(get, sym: bool):
    sub, sup = _values(get, "sub", int), _values(get, "sup", int)
    theta = _theta(get)
    term = higher_excitation(sub, sup, symmetrized=sym)
    if sym:
        return _symmetrized(term, theta)
    return [(term, theta)], lambda n: compile_higher_excitation(term, theta, n_qubits=n)


def _mixed(get, sym: bool):
    p, q, r, s = _modes(get, 4)
    theta = _theta(get)
    term = double(p, q, r, s)
    return [(term, theta)], lambda n: compile_mixed_cnot(term, theta, n_qubits=n)


_OPS = {
    "rotation": _rotation,
    "single": _single,
    "double": _double,
    "coupled": _coupled,
    "controlled": _controlled,
    "higher": _higher,
    "mixed": _mixed,
}


def _product(factors, n_qubits: int) -> np.ndarray:
    """Ordered product of exp(-i angle G) over (G, angle); the first factor acts first."""
    u = None
    for g, angle in factors:
        if isinstance(g, ExcitationTerm):
            g = generator_pauli(g, n_qubits)
        if g.width != n_qubits:
            raise VerifyError(f"generator {g!r} acts on {g.width} qubits, not {n_qubits}")
        factor = generator_unitary(g, angle).matrix
        u = factor if u is None else factor @ u
    return np.eye(1 << n_qubits, dtype=complex) if u is None else u


# --- compile ----------------------------------------------------------------------


def _canonical(text: str, kind) -> str:
    """Comma list as compile records it; unparsable text is left for the builder to reject."""
    try:
        return ",".join(repr(kind(x)) for x in text.split(","))
    except ValueError:
        return text


def _cmd_compile(args) -> int:
    operands = {
        "orbitals": _canonical(args.orbitals, int) if args.orbitals else None,
        "theta": repr(args.theta),
        "angles": _canonical(args.angles or f"{args.theta!r},0.0,0.0", float),
        "control": None if args.control is None else str(args.control),
        "variant": args.variant,
        "axis": args.axis,
        "sub": args.sub or None,
        "sup": args.sup or None,
        "string": args.string,
    }
    used: dict[str, str] = {}

    def get(key: str) -> str:
        if operands[key] is None:
            raise UsageError(f"--{key} is required for --op {args.op}")
        used[key] = operands[key]
        return operands[key]

    try:
        _, build = _OPS[args.op](get, args.symmetrized)
    except _OperandError as exc:
        raise UsageError(f"--{exc}")
    c = build(args.n_qubits).with_metadata(
        cli_op=args.op, symmetrized="yes" if args.symmetrized else "no", **used
    )
    text = serialize(c)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({c.n_qubits} qubits, {len(c.gates)} gates)")
    else:
        sys.stdout.write(text)
    return 0


# --- verify -----------------------------------------------------------------------


def _read_circuit(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    try:
        return deserialize(text)
    except (ParseError, SchemaError) as exc:
        raise InputError(f"{path}: {exc}")


def _cmd_verify(args) -> int:
    c = _read_circuit(args.circuit)
    tol = _tolerance(args)

    def get(key: str) -> str:
        try:
            return c.metadata[key]
        except KeyError:
            raise InputError(
                f"{args.circuit}: circuit metadata lacks {key!r}; was it written by compile?"
            )

    op = get("cli_op")
    if op not in _OPS:
        raise InputError(f"{args.circuit}: circuit metadata declares unknown op {op!r}")
    try:
        factors, _ = _OPS[op](get, c.metadata.get("symmetrized") == "yes")
        target = _product(factors, c.n_qubits)
    except _OperandError as exc:
        raise InputError(f"{args.circuit}: circuit metadata {exc}")
    except (FermionError, PauliError, VerifyError) as exc:
        raise InputError(f"{args.circuit}: {exc}")
    u = circuit_unitary(c).matrix
    distance = float(np.linalg.norm(u - target))
    passed = distance <= tol
    if args.format == "structured":
        print(json.dumps({"distance": distance, "tol": tol, "passed": passed}))
    else:
        state = "PASS" if passed else "FAIL"
        print(f"{state} distance {distance:.3e} (tol {tol:g}, {c.n_qubits} qubits)")
    return 0 if passed else 1


# --- reports ----------------------------------------------------------------------


def _cmd_count(args) -> int:
    rep = count(_read_circuit(args.circuit))
    if args.format == "structured":
        print(json.dumps(rep.as_dict()))
        return 0
    d = rep.as_dict()
    for key in (
        "ms_total",
        "ms_forward",
        "ms_backward",
        "single_qubit",
        "crz",
        "rzz",
        "cnot",
    ):
        print(f"{key}: {d[key]}")
    print(f"ms_by_axis: {d['ms_by_axis']}")
    print(f"ms_locality_histogram: {d['ms_locality_histogram']}")
    return 0


def _cmd_cost(args) -> int:
    rep = cost(_read_circuit(args.circuit), tau=args.tau)
    if args.format == "structured":
        print(json.dumps(rep.as_dict()))
        return 0
    print(f"total_ms_time: {rep.total_ms_time:.6g}")
    print(f"sequential_depth: {rep.sequential_depth}")
    print(f"tau: {rep.tau:g}")
    return 0


# --- application builders -----------------------------------------------------------


def _cmd_uccsd(args) -> int:
    get = vars(args).__getitem__
    try:
        occupied, virtual, parameters = (
            _values(get, key, kind) if get(key) else ()
            for key, kind in (("occupied", int), ("virtual", int), ("parameters", _finite))
        )
    except _OperandError as exc:
        raise UsageError(f"--{exc}")
    spec = AnsatzSpec(args.modes, occupied, virtual, parameters)
    layer = build_uccsd_layer(spec, scheduling=args.scheduling)
    rep = count(layer)
    if args.format == "structured":
        print(
            json.dumps(
                {
                    "excitations": len(uccsd_excitations(spec)),
                    "scheduling": args.scheduling,
                    "counts": rep.as_dict(),
                }
            )
        )
    else:
        terms = uccsd_excitations(spec)
        singles = sum(1 for t in terms if t.kind == "single")
        print(f"excitations: {singles} singles, {len(terms) - singles} doubles")
        print(f"MS: {rep.ms_total} ({args.scheduling})")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(serialize(layer))
        print(f"wrote {args.output}")
    return 0


def _load_terms(args) -> HamiltonianTerms:
    if args.integrals:
        try:
            with open(args.integrals, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"{args.integrals}: {exc.strerror or exc}")
        try:
            return term_list(parse_integrals(text))
        except IntegralError as exc:
            raise InputError(f"{args.integrals}: {exc}")
    return h3plus_builtin()


def _cmd_trotter(args) -> int:
    terms = _load_terms(args)
    orbital_class = args.orbital_class or terms.reality
    cfg = TrotterConfig(args.dt, orbital_class=orbital_class, scheduling=args.scheduling)
    step = build_trotter_step(terms, cfg)
    rep = count(step)
    if args.format == "structured":
        print(
            json.dumps(
                {
                    "modes": terms.n_modes,
                    "dt": cfg.time_step,
                    "orbital_class": orbital_class,
                    "scheduling": args.scheduling,
                    "counts": rep.as_dict(),
                }
            )
        )
    else:
        print(f"modes: {terms.n_modes}, dt: {cfg.time_step:g}, "
              f"class: {orbital_class}, scheduling: {args.scheduling}")
        print(f"MS: {rep.ms_total}  Rz: {rep.single_qubit}  Rzz: {rep.rzz}  CRz: {rep.crz}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(serialize(step))
        print(f"wrote {args.output}")
    return 0


# --- demos ------------------------------------------------------------------------


def _report_oracle(defect: float, tol: float, out: dict | None) -> bool:
    passed = defect <= tol
    if out is not None:
        out["oracle"] = {"defect": defect, "tol": tol, "passed": passed}
    else:
        state = "PASS" if passed else "FAIL"
        print(f"oracle: {state} (defect {defect:.3e}, tol {tol:g})")
    return passed


def _demo_uccsd(tol: float, structured: bool) -> tuple[bool, dict]:
    spec = AnsatzSpec(6, (0, 1), (2, 3, 4, 5), DEMO_PARAMETERS)
    layer = build_uccsd_layer(spec)
    ms = count(layer).ms_total
    baseline = count(build_uccsd_layer(spec, scheduling="baseline")).ms_total
    factor = baseline / ms
    out: dict = {
        "ms": ms,
        "baseline": baseline,
        "factor": round(factor, 2),
        "reference": {
            "ms": REFERENCE_COUNTS["uccsd"],
            "baseline": REFERENCE_COUNTS["uccsd_baseline"],
        },
    }
    if not structured:
        print("H3+ UCCSD ansatz layer (6 qubits, 4 singles + 4 doubles)")
        print(f"MS: {ms} (baseline {baseline}, factor {factor:.1f})")
        print(f"reference: MS {REFERENCE_COUNTS['uccsd']} "
              f"(baseline {REFERENCE_COUNTS['uccsd_baseline']})")
    v = _product(zip(uccsd_excitations(spec), spec.parameters), 6)
    defect = float(np.linalg.norm(circuit_unitary(layer).matrix - v))
    passed = _report_oracle(defect, tol, out if structured else None)
    passed = passed and ms == REFERENCE_COUNTS["uccsd"] and baseline == REFERENCE_COUNTS["uccsd_baseline"]
    return passed, out


def _demo_trotter(dt: float, tol: float, structured: bool) -> tuple[bool, dict]:
    terms = h3plus_builtin()
    part = HamiltonianTerms(terms.n_modes, terms.reality, 0.0, (), terms.excitation_terms)
    ms = count(build_trotter_step(part, TrotterConfig(dt))).ms_total
    sbs = count(
        build_trotter_step(part, TrotterConfig(dt, scheduling="baseline"))
    ).ms_total
    naive = count(
        build_trotter_step(
            part, TrotterConfig(dt, orbital_class="complex", scheduling="baseline")
        )
    ).ms_total
    out: dict = {
        "dt": dt,
        "ms": ms,
        "string_by_string": sbs,
        "naive": naive,
        "reference": {
            "ms": REFERENCE_COUNTS["trotter"],
            "string_by_string": REFERENCE_COUNTS["trotter_string_by_string"],
            "naive": REFERENCE_COUNTS["trotter_naive"],
        },
    }
    if not structured:
        print(f"H3+ Trotter step, non-local part (dt {dt:g})")
        print(f"MS: {ms} (string-by-string {sbs}, naive {naive})")
        print(f"reference: MS {REFERENCE_COUNTS['trotter']} "
              f"(string-by-string {REFERENCE_COUNTS['trotter_string_by_string']}, "
              f"naive {REFERENCE_COUNTS['trotter_naive']})")
    step = build_trotter_step(terms, TrotterConfig(dt))
    n, reality = terms.n_modes, terms.reality
    blocks = [HamiltonianTerms(n, reality, terms.constant, terms.local_terms, ())]
    blocks += [HamiltonianTerms(n, reality, 0.0, (), g) for g in fusion_groups(terms.excitation_terms)]
    v = _product([(b.pauli_sum(), dt) for b in blocks], n)
    defect = float(np.linalg.norm(circuit_unitary(step).matrix - v))
    passed = _report_oracle(defect, tol, out if structured else None)
    passed = passed and (ms, sbs, naive) == (
        REFERENCE_COUNTS["trotter"],
        REFERENCE_COUNTS["trotter_string_by_string"],
        REFERENCE_COUNTS["trotter_naive"],
    )
    return passed, out


def _cmd_demo(args) -> int:
    if args.system != "h3plus":
        raise UsageError(f"unknown demo system {args.system!r}; available: h3plus")
    if not args.uccsd and not args.trotter:
        raise UsageError("choose --uccsd and/or --trotter")
    tol = _tolerance(args)
    structured = args.format == "structured"
    report: dict = {"system": args.system}
    ok = True
    if args.uccsd:
        passed, out = _demo_uccsd(tol, structured)
        report["uccsd"] = out
        ok = ok and passed
    if args.trotter:
        passed, out = _demo_trotter(args.dt, tol, structured)
        report["trotter"] = out
        ok = ok and passed
    if structured:
        print(json.dumps(report))
    return 0 if ok else 1


# --- parser -----------------------------------------------------------------------


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "structured"), default="text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionsynth",
        description="Compile excitation operators to trapped-ion MS circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="lower one operator to a circuit file")
    p.add_argument(
        "--op",
        required=True,
        choices=tuple(_OPS),
    )
    p.add_argument("--orbitals", help="comma-separated mode list, strictly increasing")
    p.add_argument("--theta", type=_finite, default=0.0)
    p.add_argument("--angles", help="three pairing angles for --op double")
    p.add_argument("--axis", choices=("xx", "yy"), default="xx")
    p.add_argument("--variant", choices=("a", "b"), default="a")
    p.add_argument("--control", type=int)
    p.add_argument("--sub", help="creation modes for --op higher")
    p.add_argument("--sup", help="annihilation modes for --op higher")
    p.add_argument("--string", help="Pauli label for --op rotation")
    p.add_argument("--symmetrized", action="store_true")
    p.add_argument("--n-qubits", type=int)
    p.add_argument("--output", "-o")
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("verify", help="recheck a circuit file against its metadata")
    p.add_argument("--circuit", required=True)
    p.add_argument("--tol", type=_non_negative)
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("count", help="gate-count report for a circuit file")
    p.add_argument("--circuit", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("cost", help="duration report for a circuit file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--tau", type=_positive, default=1.0)
    _add_format(p)
    p.set_defaults(handler=_cmd_cost)

    p = sub.add_parser("uccsd", help="build a UCCSD ansatz layer")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--occupied", default="")
    p.add_argument("--virtual", default="")
    p.add_argument("--parameters", default="")
    p.add_argument("--scheduling", choices=("parallelized", "baseline"), default="parallelized")
    p.add_argument("--output", "-o")
    _add_format(p)
    p.set_defaults(handler=_cmd_uccsd)

    p = sub.add_parser("trotter", help="build one Trotter step of a Hamiltonian")
    p.add_argument("--integrals", help="integral table file (default: bundled h3plus)")
    p.add_argument("--dt", type=_finite, required=True)
    p.add_argument("--orbital-class", choices=("real", "complex"))
    p.add_argument("--scheduling", choices=("parallelized", "baseline"), default="parallelized")
    p.add_argument("--output", "-o")
    _add_format(p)
    p.set_defaults(handler=_cmd_trotter)

    p = sub.add_parser("demo", help="rebuild the bundled reproduction circuits")
    p.add_argument("system", choices=("h3plus",))
    p.add_argument("--uccsd", action="store_true")
    p.add_argument("--trotter", action="store_true")
    p.add_argument("--dt", type=_finite, default=0.1)
    p.add_argument("--tol", type=_non_negative)
    _add_format(p)
    p.set_defaults(handler=_cmd_demo)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.handler(args)
    except (UsageError, SynthesisError, FermionError, EvolutionError, PauliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, ParseError, SchemaError, IntegralError, CircuitError, VerifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
