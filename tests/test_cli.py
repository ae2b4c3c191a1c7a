"""End-to-end runs of the command-line interface through cli.run."""

import errno
import json
import os
import re
import runpy
import sys
import warnings
from importlib import resources

import pytest

from ionsynth.circuit import Circuit, Rz, deserialize, serialize
from ionsynth.cli import run


def test_compile_writes_file_and_reports(tmp_path, capsys):
    path = tmp_path / "single.circ"
    rc = run(["compile", "--op", "single", "--orbitals", "0,2", "--theta", "0.3",
              "-o", str(path)])
    assert rc == 0
    assert f"wrote {path}" in capsys.readouterr().out
    c = deserialize(path.read_text())
    assert c.n_qubits == 3
    assert c.metadata["cli_op"] == "single"
    assert c.metadata["orbitals"] == "0,2"
    assert float(c.metadata["theta"]) == 0.3


def test_compile_without_output_prints_serialized_circuit(capsys):
    rc = run(["compile", "--op", "rotation", "--string", "ZZ", "--theta", "0.5"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("ionsynth-circuit v1")
    assert deserialize(text).n_qubits == 2


def test_compile_rejects_decreasing_orbitals(capsys):
    rc = run(["compile", "--op", "single", "--orbitals", "2,1", "--theta", "0.3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--orbitals" in err and "2,1" in err and "increasing" in err


def test_compile_missing_operand_is_usage_error(capsys):
    assert run(["compile", "--op", "rotation", "--theta", "0.1"]) == 2
    assert "--string" in capsys.readouterr().err
    assert run(["compile", "--op", "controlled", "--orbitals", "0,2",
                "--theta", "0.1"]) == 2
    assert "--control" in capsys.readouterr().err


STRAY_FLAGS = {
    "mixed-symmetrized": (["--op", "mixed", "--orbitals", "0,1,2,3", "--theta", "0.3",
                           "--symmetrized"], "--symmetrized does not apply to --op mixed"),
    "coupled-symmetrized": (["--op", "coupled", "--orbitals", "0,1,2,3", "--theta", "0.3",
                             "--symmetrized"], "--symmetrized does not apply to --op coupled"),
    "rotation-symmetrized": (["--op", "rotation", "--string", "XZ", "--theta", "0.3",
                              "--symmetrized"], "--symmetrized does not apply to --op rotation"),
    "symmetrized-double-angles": (["--op", "double", "--orbitals", "0,1,2,3", "--symmetrized",
                                   "--angles", "0.1,0.2,0.3"],
                                  "--angles does not apply to --op double --symmetrized"),
    "symmetrized-single-axis": (["--op", "single", "--orbitals", "0,1", "--symmetrized",
                                 "--axis", "yy"],
                                "--axis does not apply to --op single --symmetrized"),
    "symmetrized-controlled-variant": (["--op", "controlled", "--orbitals", "0,2", "--control",
                                        "1", "--symmetrized", "--variant", "b"],
                                       "--variant does not apply to --op controlled --symmetrized"),
    "rotation-n-qubits": (["--op", "rotation", "--string", "XZ", "--n-qubits", "5"],
                          "--n-qubits does not apply to --op rotation, which compiles 2 qubits"),
    "single-control": (["--op", "single", "--orbitals", "0,1", "--control", "3"],
                       "--control does not apply to --op single"),
    "single-string": (["--op", "single", "--orbitals", "0,1", "--string", "XX"],
                      "--string does not apply to --op single"),
    "single-sub": (["--op", "single", "--orbitals", "0,1", "--sub", "0"],
                   "--sub does not apply to --op single"),
    "double-theta-and-angles": (["--op", "double", "--orbitals", "0,1,2,3", "--theta", "0.4",
                                 "--angles", "0.1,0.2,0.3"],
                                "--theta does not apply to --op double"),
}


@pytest.mark.parametrize("argv, message", STRAY_FLAGS.values(), ids=STRAY_FLAGS.keys())
def test_compile_refuses_flags_its_op_does_not_read(argv, message, tmp_path, capsys):
    path = tmp_path / "stray.circ"
    assert run(["compile", *argv, "-o", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not path.exists()


def test_symmetrized_partners_still_record_axis_and_variant(capsys):
    assert run(["compile", "--op", "single", "--orbitals", "0,2", "--theta", "0.3",
                "--symmetrized"]) == 0
    assert deserialize(capsys.readouterr().out).metadata == {
        "axis": "xx", "cli_op": "single", "op": "symmetrized", "orbitals": "0,2",
        "symmetrized": "yes", "theta": "0.3",
    }
    assert run(["compile", "--op", "controlled", "--orbitals", "0,2", "--control", "1",
                "--theta", "0.3", "--symmetrized"]) == 0
    assert deserialize(capsys.readouterr().out).metadata["variant"] == "a"


def test_unknown_subcommand_and_bare_invocation_are_usage_errors(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
    capsys.readouterr()


ROUND_TRIPS = [
    ["compile", "--op", "rotation", "--string", "XZY", "--theta", "0.7"],
    ["compile", "--op", "single", "--orbitals", "1,4", "--theta", "-0.42",
     "--axis", "yy"],
    ["compile", "--op", "single", "--orbitals", "0,3", "--theta", "0.2",
     "--symmetrized"],
    ["compile", "--op", "double", "--orbitals", "0,1,2,3",
     "--angles", "0.3,-0.2,0.11"],
    ["compile", "--op", "double", "--orbitals", "0,2,3,5", "--theta", "0.4"],
    ["compile", "--op", "double", "--orbitals", "0,1,2,4", "--theta", "0.25",
     "--symmetrized"],
    ["compile", "--op", "coupled", "--orbitals", "1,2,4,5", "--theta", "0.31"],
    ["compile", "--op", "controlled", "--orbitals", "0,2", "--control", "3",
     "--theta", "0.5"],
    ["compile", "--op", "controlled", "--orbitals", "0,2", "--control", "1",
     "--theta", "0.5", "--variant", "b"],
    ["compile", "--op", "controlled", "--orbitals", "1,3", "--control", "2",
     "--theta", "0.2", "--symmetrized"],
    ["compile", "--op", "higher", "--sub", "0,1", "--sup", "2,4",
     "--theta", "0.15"],
    ["compile", "--op", "higher", "--sub", "3", "--sup", "1", "--theta", "0.3",
     "--symmetrized"],
    ["compile", "--op", "mixed", "--orbitals", "0,1,3,4", "--theta", "0.6"],
]


@pytest.mark.parametrize("argv", ROUND_TRIPS, ids=lambda a: "-".join(a[2:4]))
def test_compile_verify_round_trip(argv, tmp_path, capsys):
    path = tmp_path / "rt.circ"
    assert run(argv + ["-o", str(path)]) == 0
    assert run(["verify", "--circuit", str(path), "--tol", "1e-9"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_fails_under_impossible_tolerance(tmp_path, capsys):
    path = tmp_path / "s.circ"
    run(["compile", "--op", "single", "--orbitals", "0,1", "--theta", "0.4",
         "-o", str(path)])
    capsys.readouterr()
    rc = run(["verify", "--circuit", str(path), "--tol", "1e-20"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "1e-20" in out


def test_verify_structured_output(tmp_path, capsys):
    path = tmp_path / "s.circ"
    run(["compile", "--op", "single", "--orbitals", "0,1", "--theta", "0.4",
         "-o", str(path)])
    capsys.readouterr()
    assert run(["verify", "--circuit", str(path), "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"distance", "tol", "passed"}
    assert report["passed"] is True
    assert report["distance"] < 1e-12


VERIFY_BAD_METADATA = [
    (["--op", "single", "--orbitals", "0,2"], {"orbitals": "0,x"}, "orbitals"),
    (["--op", "single", "--orbitals", "0,2"], {"theta": "abc"}, "theta"),
    (["--op", "double", "--orbitals", "0,1,2,3"], {"angles": "0.3,0.1"}, "angles"),
    (["--op", "single", "--orbitals", "0,2"], {"cli_op": "triple"}, "triple"),
    (["--op", "rotation", "--string", "XZ"], {"string": "XZY"}, "XZY"),
    (["--op", "single", "--orbitals", "0,2"], {"theta": "nan"}, "finite"),
]


@pytest.mark.parametrize("compile_args, edit, named", VERIFY_BAD_METADATA,
                         ids=[case[2] for case in VERIFY_BAD_METADATA])
def test_verify_rejects_bad_metadata(compile_args, edit, named, tmp_path, capsys):
    path = tmp_path / "edited.circ"
    assert run(["compile", *compile_args, "--theta", "0.3", "-o", str(path)]) == 0
    c = deserialize(path.read_text())
    path.write_text(serialize(c.with_metadata(**edit)))
    capsys.readouterr()
    assert run(["verify", "--circuit", str(path)]) == 3
    assert named in capsys.readouterr().err


NO_SYMMETRIZED_FORM = {
    "rotation": ["--op", "rotation", "--string", "XZ"],
    "coupled": ["--op", "coupled", "--orbitals", "0,1,2,3"],
    "mixed": ["--op", "mixed", "--orbitals", "0,1,2,3"],
}


@pytest.mark.parametrize("op, compile_args", NO_SYMMETRIZED_FORM.items(),
                         ids=NO_SYMMETRIZED_FORM.keys())
def test_verify_refuses_symmetrized_metadata_an_op_cannot_carry(op, compile_args, tmp_path,
                                                                 capsys):
    path = tmp_path / "edited.circ"
    assert run(["compile", *compile_args, "--theta", "0.3", "-o", str(path)]) == 0
    assert run(["verify", "--circuit", str(path)]) == 0
    c = deserialize(path.read_text())
    path.write_text(serialize(c.with_metadata(symmetrized="yes")))
    capsys.readouterr()
    assert run(["verify", "--circuit", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"error: {path}: circuit metadata symmetrized: --op {op} has no symmetrized form\n")


NON_FINITE_ARGV = {
    "compile-theta-nan": ["compile", "--op", "single", "--orbitals", "0,2", "--theta", "nan"],
    "compile-theta-minus-inf": ["compile", "--op", "single", "--orbitals", "0,2",
                                "--theta=-inf"],
    "compile-angles-nan": ["compile", "--op", "double", "--orbitals", "0,1,2,3",
                           "--angles", "nan,0,0"],
    "uccsd-parameters-nan": ["uccsd", "--modes", "4", "--occupied", "0,1", "--virtual", "2,3",
                             "--parameters", "nan,0,0"],
    "trotter-dt-nan": ["trotter", "--dt", "nan"],
    "trotter-dt-inf": ["trotter", "--dt", "inf"],
    "demo-dt-nan": ["demo", "h3plus", "--uccsd", "--dt", "nan"],
    "demo-tol-inf": ["demo", "h3plus", "--uccsd", "--tol", "inf"],
    "demo-tol-negative": ["demo", "h3plus", "--uccsd", "--tol", "-1"],
}


@pytest.mark.parametrize("argv", NON_FINITE_ARGV.values(), ids=NON_FINITE_ARGV.keys())
def test_non_finite_argv_is_usage_error(argv, capsys):
    assert run(argv) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, flag",
    [(v, f) for f in ("--tau", "--tol") for v in ("nan", "inf", "-1")] + [("0", "--tau")],
)
def test_non_finite_report_flags_are_usage_errors(flag, value, tmp_path, capsys):
    path = tmp_path / "s.circ"
    run(["compile", "--op", "single", "--orbitals", "0,1", "--theta", "0.4",
         "-o", str(path)])
    command = "cost" if flag == "--tau" else "verify"
    assert run([command, "--circuit", str(path), flag, value]) == 2
    assert "finite" in capsys.readouterr().err


def test_verify_without_metadata_is_input_error(tmp_path, capsys):
    path = tmp_path / "raw.circ"
    path.write_text(serialize(Circuit(1, (Rz(0, 0.3),), {})))
    rc = run(["verify", "--circuit", str(path)])
    assert rc == 3
    assert "cli_op" in capsys.readouterr().err


def test_malformed_circuit_file_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.circ"
    path.write_text("ionsynth-circuit v1\nqubits 2\nbanana 0 1\n")
    rc = run(["verify", "--circuit", str(path)])
    assert rc == 3
    assert "line 3" in capsys.readouterr().err


def test_missing_circuit_file_is_input_error(tmp_path, capsys):
    rc = run(["count", "--circuit", str(tmp_path / "nope.circ")])
    assert rc == 3
    capsys.readouterr()


WRITING_COMMANDS = {
    "compile": ["compile", "--op", "single", "--orbitals", "0,1", "--theta", "0.2"],
    "uccsd": ["uccsd", "--modes", "4", "--occupied", "0,1", "--virtual", "2,3",
              "--parameters", "0.1,0.2,0.3"],
    "trotter": ["trotter", "--dt", "0.1"],
}


@pytest.mark.parametrize("argv", WRITING_COMMANDS.values(), ids=WRITING_COMMANDS.keys())
def test_unwritable_output_is_input_error(argv, tmp_path, capsys):
    path = tmp_path / "nodir" / "x.circ"
    assert run([*argv, "-o", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {path}: {os.strerror(errno.ENOENT)}\n"
    assert not path.parent.exists()


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("command", ["uccsd", "trotter"])
def test_unwritable_output_prints_no_report(command, fmt, tmp_path, capsys):
    """The builders write -o before they report, so a failed write reports nothing."""
    path = tmp_path / "nodir" / "x.circ"
    assert run([*WRITING_COMMANDS[command], "--format", fmt, "-o", str(path)]) == 3
    assert capsys.readouterr().out == ""


def test_count_text_and_structured(tmp_path, capsys):
    path = tmp_path / "s.circ"
    run(["compile", "--op", "single", "--orbitals", "0,1", "--theta", "0.2",
         "-o", str(path)])
    capsys.readouterr()
    assert run(["count", "--circuit", str(path)]) == 0
    assert "ms_total: 2" in capsys.readouterr().out
    assert run(["count", "--circuit", str(path), "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ms_total"] == 2
    assert report["ms_forward"] == 1 and report["ms_backward"] == 1


GOLDEN_CIRCUIT_REPORTS = {
    "count-text": (["count"], (
        "ms_total: 4\nms_forward: 2\nms_backward: 2\nsingle_qubit: 16\ncrz: 0\nrzz: 0\n"
        "cnot: 0\nms_by_axis: {'xx': 2, 'yy': 2}\nms_locality_histogram: {'6': 4}\n"
    )),
    "count-structured": (["count", "--format", "structured"], (
        '{"ms_forward": 2, "ms_backward": 2, "ms_total": 4, "ms_by_axis": {"xx": 2, "yy": 2}, '
        '"single_qubit": 16, "crz": 0, "rzz": 0, "cnot": 0, "ms_locality_histogram": {"6": 4}}\n'
    )),
    "cost-text": (["cost", "--tau", "2"],
                  "total_ms_time: 19.5959\nsequential_depth: 10\ntau: 2\n"),
    "cost-structured": (["cost", "--format", "structured"],
                        '{"total_ms_time": 9.797958971132712, "sequential_depth": 10, '
                        '"tau": 1.0}\n'),
}


@pytest.mark.parametrize("argv, expected", GOLDEN_CIRCUIT_REPORTS.values(),
                         ids=GOLDEN_CIRCUIT_REPORTS.keys())
def test_circuit_reports_are_pinned(argv, expected, tmp_path, capsys):
    path = tmp_path / "double.circ"
    assert run(["compile", "--op", "double", "--orbitals", "0,2,3,5",
                "--angles", "0.3,-0.2,0.7", "-o", str(path)]) == 0
    capsys.readouterr()
    assert run([argv[0], "--circuit", str(path), *argv[1:]]) == 0
    assert capsys.readouterr().out == expected


UCCSD_4 = ["uccsd", "--modes", "4", "--occupied", "0,1", "--virtual", "2,3",
           "--parameters", "0.1,0.2,0.3"]
GOLDEN_BUILDER_REPORTS = {
    "uccsd-text": (UCCSD_4, "excitations: 2 singles, 1 doubles\nMS: 8 (parallelized)\n"),
    "uccsd-structured": (UCCSD_4 + ["--format", "structured"], (
        '{"excitations": 3, "scheduling": "parallelized", "counts": {"ms_forward": 4, '
        '"ms_backward": 4, "ms_total": 8, "ms_by_axis": {"xx": 6, "yy": 2}, '
        '"single_qubit": 24, "crz": 0, "rzz": 0, "cnot": 0, '
        '"ms_locality_histogram": {"3": 4, "4": 4}}}\n'
    )),
    "trotter-text": (["trotter", "--dt", "0.1"], (
        "modes: 6, dt: 0.1, class: real, scheduling: parallelized\n"
        "MS: 26  Rz: 112  Rzz: 15  CRz: 8\n"
    )),
    "trotter-structured": (["trotter", "--dt", "0.1", "--format", "structured"], (
        '{"modes": 6, "dt": 0.1, "orbital_class": "real", "scheduling": "parallelized", '
        '"counts": {"ms_forward": 13, "ms_backward": 13, "ms_total": 26, '
        '"ms_by_axis": {"xx": 16, "yy": 10}, "single_qubit": 112, "crz": 8, "rzz": 15, '
        '"cnot": 0, "ms_locality_histogram": {"2": 2, "3": 4, "4": 16, "6": 4}}}\n'
    )),
}


@pytest.mark.parametrize("argv, expected", GOLDEN_BUILDER_REPORTS.values(),
                         ids=GOLDEN_BUILDER_REPORTS.keys())
def test_builder_reports_are_pinned(argv, expected, tmp_path, capsys):
    path = tmp_path / "built.circ"
    assert run(argv + ["-o", str(path)]) == 0
    assert capsys.readouterr().out == f"{expected}wrote {path}\n"
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


def test_cost_structured_scales_with_tau(tmp_path, capsys):
    path = tmp_path / "s.circ"
    run(["compile", "--op", "single", "--orbitals", "0,1", "--theta", "0.2",
         "-o", str(path)])
    capsys.readouterr()
    assert run(["cost", "--circuit", str(path), "--format", "structured"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert run(["cost", "--circuit", str(path), "--tau", "2.0",
                "--format", "structured"]) == 0
    doubled = json.loads(capsys.readouterr().out)
    assert doubled["total_ms_time"] == pytest.approx(2 * base["total_ms_time"])
    assert doubled["sequential_depth"] == base["sequential_depth"]


def test_uccsd_command_counts_and_writes(tmp_path, capsys):
    path = tmp_path / "layer.circ"
    rc = run(["uccsd", "--modes", "4", "--occupied", "0,1", "--virtual", "2,3",
              "--parameters", "0.1,0.2,0.3", "-o", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 singles, 1 doubles" in out
    assert "MS: 8" in out
    assert deserialize(path.read_text()).n_qubits == 4


def test_uccsd_rejects_overlapping_spaces(capsys):
    rc = run(["uccsd", "--modes", "4", "--occupied", "0,1", "--virtual", "1,2",
              "--parameters", "0.1,0.2"])
    assert rc == 2
    capsys.readouterr()


def test_compile_refuses_orbitals_that_are_not_integers(capsys):
    assert run(["compile", "--op", "single", "--orbitals", "a,1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --orbitals: expected comma-separated integers, got 'a,1'\n"


UCCSD_BAD_ARGV = {
    "modes-negative": (["--modes", "-1"], "negative mode count -1"),
    "occupied-not-integer": (["--modes", "4", "--occupied", "x"],
                             "--occupied: expected comma-separated integers, got 'x'"),
    "parameters-not-finite": (["--modes", "4", "--occupied", "0,1", "--virtual", "2,3",
                               "--parameters", "0.1,x"],
                              "--parameters: expected comma-separated finite numbers, got '0.1,x'"),
}


@pytest.mark.parametrize("argv, message", UCCSD_BAD_ARGV.values(), ids=UCCSD_BAD_ARGV.keys())
def test_uccsd_bad_argv_is_usage_error(argv, message, capsys):
    assert run(["uccsd", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_trotter_builtin_parallelized_count(capsys):
    assert run(["trotter", "--dt", "0.1", "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["modes"] == 6
    assert report["orbital_class"] == "real"
    assert report["counts"]["ms_total"] == 26


def test_trotter_default_compiles_the_packaged_integrals(tmp_path, capsys):
    """Without --integrals, trotter writes the bytes the packaged H3+ file gives.
    At dt 0.25 a second, hand-typed copy of the H3+ terms differed in the last bit."""
    default, packaged = tmp_path / "default.circ", tmp_path / "packaged.circ"
    with resources.as_file(resources.files("ionsynth") / "data/h3plus.ints") as ints:
        assert run(["trotter", "--dt", "0.25", "--integrals", str(ints), "-o", str(packaged)]) == 0
    assert run(["trotter", "--dt", "0.25", "-o", str(default)]) == 0
    capsys.readouterr()
    assert default.read_bytes() == packaged.read_bytes()


def test_trotter_rejects_malformed_integrals(tmp_path, capsys):
    path = tmp_path / "bad.ints"
    path.write_text("modes 4\nreality real\nwat 1 2\n")
    rc = run(["trotter", "--dt", "0.1", "--integrals", str(path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(path) in err


def test_trotter_rejects_non_finite_integrals_with_line(tmp_path, capsys):
    path = tmp_path / "inf.ints"
    path.write_text("norb 2 reality real\n0.5 1 1 0 0\ninf 1 2 0 0\n")
    assert run(["trotter", "--dt", "0.1", "--integrals", str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "line 3" in err


def test_trotter_rejects_comment_only_integrals_at_their_line(tmp_path, capsys):
    path = tmp_path / "empty.ints"
    path.write_text("# nothing\n")
    assert run(["trotter", "--dt", "0.1", "--integrals", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line 1: empty document, missing header line" in err and "line 0" not in err


def test_demo_uccsd_report_line(capsys):
    assert run(["demo", "h3plus", "--uccsd"]) == 0
    out = capsys.readouterr().out
    assert "MS: 24 (baseline 80, factor 3.3)" in out
    assert "PASS" in out


def test_demo_trotter_report_line(capsys):
    assert run(["demo", "h3plus", "--trotter", "--dt", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "MS: 26 (string-by-string 56, naive 176)" in out
    assert "PASS" in out


def test_demo_structured_embeds_oracle(capsys):
    assert run(["demo", "h3plus", "--uccsd", "--trotter",
                "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"system", "uccsd", "trotter"}
    assert set(report["uccsd"]) == {"ms", "baseline", "factor", "reference", "oracle"}
    assert set(report["uccsd"]["reference"]) == {"ms", "baseline"}
    assert set(report["trotter"]) == {"dt", "ms", "string_by_string", "naive", "reference",
                                      "oracle"}
    assert set(report["trotter"]["reference"]) == {"ms", "string_by_string", "naive"}
    for part in ("uccsd", "trotter"):
        assert set(report[part]["oracle"]) == {"defect", "tol", "passed"}
    assert report["uccsd"]["ms"] == 24
    assert report["trotter"]["naive"] == 176
    assert report["uccsd"]["oracle"]["passed"] is True
    assert report["trotter"]["oracle"]["passed"] is True


def test_demo_text_report_order(capsys):
    assert run(["demo", "h3plus", "--uccsd", "--trotter"]) == 0
    out = re.sub(r"defect \S+,", "defect D,", capsys.readouterr().out)
    assert out == (
        "H3+ UCCSD ansatz layer (6 qubits, 4 singles + 4 doubles)\n"
        "MS: 24 (baseline 80, factor 3.3)\n"
        "reference: MS 24 (baseline 80)\n"
        "oracle: PASS (defect D, tol 1e-09)\n"
        "H3+ Trotter step, non-local part (dt 0.1)\n"
        "MS: 26 (string-by-string 56, naive 176)\n"
        "reference: MS 26 (string-by-string 56, naive 176)\n"
        "oracle: PASS (defect D, tol 1e-09)\n"
    )


def test_demo_refuses_an_unknown_system(capsys):
    assert run(["demo", "h2", "--uccsd"]) == 2
    assert "invalid choice: 'h2'" in capsys.readouterr().err


def test_demo_requires_a_mode_flag(capsys):
    assert run(["demo", "h3plus"]) == 2
    assert "--uccsd" in capsys.readouterr().err


def test_env_var_supplies_default_tolerance(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s.circ"
    run(["compile", "--op", "single", "--orbitals", "0,1", "--theta", "0.4",
         "-o", str(path)])
    capsys.readouterr()
    monkeypatch.setenv("IONSYNTH_TOL", "1e-20")
    assert run(["verify", "--circuit", str(path)]) == 1
    capsys.readouterr()
    for bad in ("not-a-number", "nan", "inf", "-1"):
        monkeypatch.setenv("IONSYNTH_TOL", bad)
        rc = run(["verify", "--circuit", str(path)])
        assert rc == 2
        assert "IONSYNTH_TOL" in capsys.readouterr().err


def test_module_entry_point_runs_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ionsynth"])
    with warnings.catch_warnings():
        # the module is already imported by this file; runpy warns on re-execution
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as info:
            runpy.run_module("ionsynth.cli", run_name="__main__")
    assert info.value.code == 2
    capsys.readouterr()
