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
from .verify import VerifyError, assert_equivalent, circuit_unitary, ordered_product

# Published totals the demos reproduce for the bundled three-center cation.
REFERENCE_COUNTS = {
    "uccsd": {"ms": 24, "baseline": 80},
    "trotter": {"ms": 26, "string_by_string": 56, "naive": 176},
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
# get(key, applies=False) reads a key that compile records but that the
# circuit does not depend on (the axis or variant of a symmetrized partner),
# so compile refuses that flag when it is given.


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


def _is_symmetrized(get) -> bool:
    return get("symmetrized") == "yes"


def _symmetrized(term, theta: float):
    return [(term, theta)], lambda n: compile_symmetrized(term, theta, n_qubits=n)


def _rotation(get):
    string, theta = from_label(get("string")), _theta(get)
    return [(string, theta / 2.0)], lambda n: compile_pauli_rotation(string, theta)


def _single(get):
    p, q = _modes(get, 2)
    theta = _theta(get)
    if _is_symmetrized(get):
        get("axis", applies=False)
        return _symmetrized(single(p, q, symmetrized=True), theta)
    term, axis = single(p, q), get("axis")
    return [(term, theta)], lambda n: compile_single_excitation(term, theta, axis=axis, n_qubits=n)


def _double(get):
    p, q, r, s = _modes(get, 4)
    if _is_symmetrized(get):
        return _symmetrized(double(p, q, r, s, symmetrized=True), _theta(get))
    angles = _values(get, "angles", _finite, 3)
    factors = list(zip((double(p, q, r, s), double(p, r, q, s), double(p, s, q, r)), angles))
    return factors, lambda n: compile_double_block(p, q, r, s, angles, n_qubits=n)


def _coupled(get):
    p, q, r, s = _modes(get, 4)
    theta = _theta(get)
    factors = [(double(p, q, r, s), theta), (double(p, s, r, q), theta)]
    return factors, lambda n: compile_coupled_exchange(p, q, r, s, theta, n_qubits=n)


def _controlled(get):
    p, q = _modes(get, 2)
    j = _values(get, "control", int, 1)[0]
    theta = _theta(get)
    if _is_symmetrized(get):
        get("variant", applies=False)
        return _symmetrized(controlled_single(p, q, j, symmetrized=True), theta)
    variant = get("variant")
    return [(controlled_single(p, q, j), theta)], lambda n: compile_controlled_single(
        p, q, j, theta, variant=variant, n_qubits=n
    )


def _higher(get):
    sub, sup = _values(get, "sub", int), _values(get, "sup", int)
    theta = _theta(get)
    term = higher_excitation(sub, sup, symmetrized=_is_symmetrized(get))
    if term.symmetrized:
        return _symmetrized(term, theta)
    return [(term, theta)], lambda n: compile_higher_excitation(term, theta, n_qubits=n)


def _mixed(get):
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


def _product(factors, n_qubits: int):
    """ordered_product over (G, angle) factors, an ExcitationTerm G read as its
    generator on n_qubits."""
    return ordered_product(
        [(generator_pauli(g, n_qubits) if isinstance(g, ExcitationTerm) else g, angle)
         for g, angle in factors],
        n_qubits,
    )


# --- files and reports ------------------------------------------------------------


def _read(path: str, parse):
    """parse(text of path); an unreadable file or a parse error exits 3 naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    try:
        return parse(text)
    except (ParseError, IntegralError) as exc:
        raise InputError(f"{path}: {exc}")


def _write(path: str, c, note: str = "") -> str:
    """Write c's text to path and return the line that says so; an
    unwritable path exits 3 naming it.  Builders write before they print
    their report, so a path that fails leaves stdout empty."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize(c))
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    return f"wrote {path}{note}"


def _emit(args, report: dict, *lines: str) -> None:
    """Print a command's report: one JSON line under --format structured, else the text lines."""
    if args.format == "structured":
        print(json.dumps(report))
    else:
        for line in lines:
            print(line)


# --- compile ----------------------------------------------------------------------


def _canonical(text: str, kind) -> str:
    """Comma list as compile records it; unparsable text is left for the builder to reject."""
    try:
        return ",".join(repr(kind(x)) for x in text.split(","))
    except ValueError:
        return text


def _cmd_compile(args) -> int:
    theta = 0.0 if args.theta is None else args.theta
    operands = {  # symmetrized first, so a later key's refusal can name it
        "symmetrized": "yes" if args.symmetrized else "no",
        "orbitals": _canonical(args.orbitals, int) if args.orbitals else None,
        "theta": repr(theta),
        "angles": _canonical(args.angles or f"{theta!r},0.0,0.0", float),
        "control": None if args.control is None else str(args.control),
        "variant": args.variant or "a",
        "axis": args.axis or "xx",
        "sub": args.sub or None,
        "sup": args.sup or None,
        "string": args.string,
    }
    used = {"cli_op": args.op, "symmetrized": operands["symmetrized"]}
    applied: set[str] = set()

    def get(key: str, applies: bool = True) -> str:
        if operands[key] is None:
            raise UsageError(f"--{key} is required for --op {args.op}")
        used[key] = operands[key]
        if applies:
            # a double's angles default to (theta, 0, 0), and then they apply --theta
            applied.add("theta" if key == "angles" and not args.angles else key)
        return operands[key]

    try:
        _, build = _OPS[args.op](get)
    except _OperandError as exc:
        raise UsageError(f"--{exc}")
    for key in operands:
        if key not in applied and getattr(args, key) not in (None, ""):
            mode = " --symmetrized" if args.symmetrized and key != "symmetrized" else ""
            raise UsageError(f"--{key} does not apply to --op {args.op}{mode}")
    c = build(args.n_qubits).with_metadata(**used)
    if args.n_qubits not in (None, c.n_qubits):
        raise UsageError(f"--n-qubits does not apply to --op {args.op}, "
                         f"which compiles {c.n_qubits} qubits")
    if args.output:
        print(_write(args.output, c, f" ({c.n_qubits} qubits, {len(c.gates)} gates)"))
    else:
        sys.stdout.write(serialize(c))
    return 0


# --- verify -----------------------------------------------------------------------


def _cmd_verify(args) -> int:
    c = _read(args.circuit, deserialize)
    tol = _tolerance(args)
    metadata = {"symmetrized": "no", **c.metadata}
    read = set()

    def get(key: str, applies: bool = True) -> str:
        read.add(key)
        try:
            return metadata[key]
        except KeyError:
            raise InputError(
                f"{args.circuit}: circuit metadata lacks {key!r}; was it written by compile?"
            )

    op = get("cli_op")
    if op not in _OPS:
        raise InputError(f"{args.circuit}: circuit metadata declares unknown op {op!r}")
    try:
        factors, _ = _OPS[op](get)
        target = _product(factors, c.n_qubits)
    except _OperandError as exc:
        raise InputError(f"{args.circuit}: circuit metadata {exc}")
    except (FermionError, PauliError, VerifyError) as exc:
        raise InputError(f"{args.circuit}: {exc}")
    if metadata["symmetrized"] != "no" and "symmetrized" not in read:
        raise InputError(f"{args.circuit}: circuit metadata symmetrized: --op {op} "
                         "has no symmetrized form")
    rep = assert_equivalent(circuit_unitary(c), target, tol=tol)
    state = "PASS" if rep.passed else "FAIL"
    _emit(
        args,
        {"distance": rep.distance, "tol": tol, "passed": rep.passed},
        f"{state} distance {rep.distance:.3e} (tol {tol:g}, {c.n_qubits} qubits)",
    )
    return 0 if rep.passed else 1


# --- reports ----------------------------------------------------------------------


def _cmd_count(args) -> int:
    d = count(_read(args.circuit, deserialize)).as_dict()
    keys = ("ms_total", "ms_forward", "ms_backward", "single_qubit", "crz", "rzz", "cnot",
            "ms_by_axis", "ms_locality_histogram")
    _emit(args, d, *(f"{key}: {d[key]}" for key in keys))
    return 0


def _cmd_cost(args) -> int:
    rep = cost(_read(args.circuit, deserialize), tau=args.tau)
    _emit(
        args,
        rep.as_dict(),
        f"total_ms_time: {rep.total_ms_time:.6g}",
        f"sequential_depth: {rep.sequential_depth}",
        f"tau: {rep.tau:g}",
    )
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
    terms = uccsd_excitations(spec)
    singles = sum(1 for t in terms if t.kind == "single")
    wrote = _write(args.output, layer) if args.output else None
    _emit(
        args,
        {"excitations": len(terms), "scheduling": args.scheduling, "counts": rep.as_dict()},
        f"excitations: {singles} singles, {len(terms) - singles} doubles",
        f"MS: {rep.ms_total} ({args.scheduling})",
    )
    if wrote:
        print(wrote)
    return 0


def _cmd_trotter(args) -> int:
    if args.integrals:
        terms = _read(args.integrals, lambda text: term_list(parse_integrals(text)))
    else:
        terms = h3plus_builtin()
    orbital_class = args.orbital_class or terms.reality
    cfg = TrotterConfig(args.dt, orbital_class=orbital_class, scheduling=args.scheduling)
    step = build_trotter_step(terms, cfg)
    rep = count(step)
    wrote = _write(args.output, step) if args.output else None
    _emit(
        args,
        {
            "modes": terms.n_modes,
            "dt": cfg.time_step,
            "orbital_class": orbital_class,
            "scheduling": args.scheduling,
            "counts": rep.as_dict(),
        },
        f"modes: {terms.n_modes}, dt: {cfg.time_step:g}, "
        f"class: {orbital_class}, scheduling: {args.scheduling}",
        f"MS: {rep.ms_total}  Rz: {rep.single_qubit}  Rzz: {rep.rzz}  CRz: {rep.crz}",
    )
    if wrote:
        print(wrote)
    return 0


# --- demos ------------------------------------------------------------------------


def _report_oracle(rep, out: dict, lines: list[str]) -> bool:
    """Record a demo's oracle verdict; the demo passes if the verdict does and every
    count equals its published reference."""
    out["oracle"] = {"defect": rep.distance, "tol": rep.tol, "passed": rep.passed}
    state = "PASS" if rep.passed else "FAIL"
    lines.append(f"oracle: {state} (defect {rep.distance:.3e}, tol {rep.tol:g})")
    return rep.passed and all(out[key] == value for key, value in out["reference"].items())


def _demo_uccsd(tol: float, lines: list[str]) -> tuple[bool, dict]:
    spec = AnsatzSpec(6, (0, 1), (2, 3, 4, 5), DEMO_PARAMETERS)
    layer = build_uccsd_layer(spec)
    ms = count(layer).ms_total
    baseline = count(build_uccsd_layer(spec, scheduling="baseline")).ms_total
    factor = baseline / ms
    ref = REFERENCE_COUNTS["uccsd"]
    out = {"ms": ms, "baseline": baseline, "factor": round(factor, 2), "reference": ref}
    lines += [
        "H3+ UCCSD ansatz layer (6 qubits, 4 singles + 4 doubles)",
        f"MS: {ms} (baseline {baseline}, factor {factor:.1f})",
        f"reference: MS {ref['ms']} (baseline {ref['baseline']})",
    ]
    v = _product(zip(uccsd_excitations(spec), spec.parameters), 6)
    return _report_oracle(assert_equivalent(circuit_unitary(layer), v, tol=tol), out, lines), out


def _demo_trotter(dt: float, tol: float, lines: list[str]) -> tuple[bool, dict]:
    terms = h3plus_builtin()
    part = HamiltonianTerms(terms.n_modes, terms.reality, 0.0, (), terms.excitation_terms)
    ms, sbs, naive = (
        count(build_trotter_step(part, TrotterConfig(dt, orbital_class, scheduling))).ms_total
        for orbital_class, scheduling in (
            ("real", "parallelized"), ("real", "baseline"), ("complex", "baseline")
        )
    )
    ref = REFERENCE_COUNTS["trotter"]
    out = {"dt": dt, "ms": ms, "string_by_string": sbs, "naive": naive, "reference": ref}
    lines += [
        f"H3+ Trotter step, non-local part (dt {dt:g})",
        f"MS: {ms} (string-by-string {sbs}, naive {naive})",
        f"reference: MS {ref['ms']} "
        f"(string-by-string {ref['string_by_string']}, naive {ref['naive']})",
    ]
    step = build_trotter_step(terms, TrotterConfig(dt))
    n, reality = terms.n_modes, terms.reality
    blocks = [HamiltonianTerms(n, reality, terms.constant, terms.local_terms, ())]
    blocks += [HamiltonianTerms(n, reality, 0.0, (), g) for g in fusion_groups(terms.excitation_terms)]
    v = _product([(b.pauli_sum(), dt) for b in blocks], n)
    return _report_oracle(assert_equivalent(circuit_unitary(step), v, tol=tol), out, lines), out


def _cmd_demo(args) -> int:
    if not args.uccsd and not args.trotter:
        raise UsageError("choose --uccsd and/or --trotter")
    tol = _tolerance(args)
    report: dict = {"system": args.system}
    lines: list[str] = []
    ok = True
    if args.uccsd:
        passed, report["uccsd"] = _demo_uccsd(tol, lines)
        ok = ok and passed
    if args.trotter:
        passed, report["trotter"] = _demo_trotter(args.dt, tol, lines)
        ok = ok and passed
    _emit(args, report, *lines)
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
    p.add_argument("--theta", type=_finite)
    p.add_argument("--angles", help="three pairing angles for --op double")
    p.add_argument("--axis", choices=("xx", "yy"))
    p.add_argument("--variant", choices=("a", "b"))
    p.add_argument("--control", type=int)
    p.add_argument("--sub", help="creation modes for --op higher")
    p.add_argument("--sup", help="annihilation modes for --op higher")
    p.add_argument("--string", help="Pauli label for --op rotation")
    p.add_argument("--symmetrized", action="store_true", default=None)
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
    p.add_argument("--integrals", help="integral table file (default: the packaged data/h3plus.ints)")
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
