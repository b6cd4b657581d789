"""End-to-end command-line tests, driven in process through main()."""

from __future__ import annotations

import io
import json
import math
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings

from qtriage import cli
from qtriage.circuit import parse_circuit
from qtriage.encoding import AnglePerFeature, compare_modalities, parse_tensor_spec

from conftest import circuit_texts


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _circuit_file(tmp_path, text: str, name: str = "c.qc") -> str:
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    return str(f)


BELL = "qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n"


# --- ansatz ------------------------------------------------------------------


def test_ansatz_emits_a_parseable_circuit(capsys) -> None:
    code, out, _ = _run(capsys, "ansatz", "strongly-entangling", "-n", "4", "-d", "3")
    assert code == 0
    c = parse_circuit(out)
    assert c.n_qubits == 4
    assert sum(1 for line in out.splitlines() if line.startswith("u3(")) == 12
    assert sum(1 for line in out.splitlines() if line.startswith("cnot ")) == 12


def test_ansatz_seed_determinism(capsys) -> None:
    _, a, _ = _run(capsys, "ansatz", "real-amplitudes", "-n", "3", "--seed", "5")
    _, b, _ = _run(capsys, "ansatz", "real-amplitudes", "-n", "3", "--seed", "5")
    _, c, _ = _run(capsys, "ansatz", "real-amplitudes", "-n", "3", "--seed", "6")
    assert a == b
    assert a != c


def test_ansatz_output_file(capsys, tmp_path) -> None:
    out_path = tmp_path / "a.qc"
    code, out, _ = _run(capsys, "ansatz", "energy-based", "-n", "4", "-o", str(out_path))
    assert code == 0 and out == ""
    # one rotation per qubit plus the ring of CZ couplers
    assert parse_circuit(out_path.read_text(encoding="utf-8")).gate_count == 8


def test_ansatz_rejects_single_qubit(capsys) -> None:
    code, _, err = _run(capsys, "ansatz", "real-amplitudes", "-n", "1")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_kind_is_a_usage_error(capsys) -> None:
    assert _run(capsys, "ansatz", "qaoa", "-n", "3")[0] == 2


# --- transpile / count -------------------------------------------------------


def test_transpile_sequence_text(capsys, tmp_path) -> None:
    f = _circuit_file(tmp_path, "qubits 1\nrz(0.85) 0\n")
    code, out, _ = _run(capsys, "transpile", f)
    assert code == 0
    lowered = parse_circuit(out)
    assert {g.kind.value for g in lowered.gates()} <= {"h", "s", "sdg", "t", "tdg"}
    assert any(g.kind.value in ("t", "tdg") for g in lowered.gates())


def test_transpile_count_machine(capsys, tmp_path) -> None:
    f = _circuit_file(tmp_path, "qubits 1\nh 0\nrz(0.85) 0\nt 0\n")
    code, out, _ = _run(capsys, "transpile", f, "--mode", "count", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["gate_count"] == 2  # the priced rotation is dropped
    assert doc["approx_rotations"] == 1
    assert doc["approx_error"] == pytest.approx(1e-2)
    assert parse_circuit(doc["circuit"]).gate_count == 2


def test_count_text_table(capsys, tmp_path) -> None:
    f = _circuit_file(tmp_path, "qubits 1\nrz(0.85) 0\n")
    code, out, _ = _run(capsys, "count", f)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t-full: 24"
    assert lines[1] == "t-sym: 1"
    assert lines[2] == "epsilon: 0.01"
    assert lines[3] == "clifford-count: 0"
    assert lines[4] == "layer t-full t-sym"
    assert lines[5] == "0 24 1"


def test_count_machine_epsilon_flag(capsys, tmp_path) -> None:
    f = _circuit_file(tmp_path, "qubits 1\nrz(0.85) 0\n")
    _, out, _ = _run(capsys, "count", f, "--epsilon", "1e-10", "--format", "machine")
    doc = json.loads(out)
    assert doc["t_full"] == 104
    assert doc["breakdown"] == [{"layer": 0, "t_full": 104, "t_sym": 1}]


# --- simulate ----------------------------------------------------------------


def test_simulate_clifford_text(capsys, tmp_path) -> None:
    f = _circuit_file(tmp_path, BELL)
    code, out, err = _run(capsys, "simulate", f, "--shots", "400", "--seed", "1")
    assert code == 0
    assert err == ""  # no lowering note for Clifford input
    hist = {line.split()[0]: int(line.split()[1]) for line in out.splitlines()}
    assert set(hist) <= {"00", "11"}
    assert sum(hist.values()) == 400


def test_simulate_machine_is_reproducible(capsys, tmp_path) -> None:
    f = _circuit_file(tmp_path, BELL)
    _, a, _ = _run(capsys, "simulate", f, "--shots", "100", "--seed", "3", "--format", "machine")
    _, b, _ = _run(capsys, "simulate", f, "--shots", "100", "--seed", "3", "--format", "machine")
    assert a == b
    doc = json.loads(a)
    assert doc["shots"] == 100 and doc["seed"] == 3
    assert sum(doc["histogram"].values()) == 100


def test_simulate_machine_keys_and_histogram_are_sorted(capsys, tmp_path) -> None:
    # three qubits in uniform superposition: up to eight outcomes
    body = "h 0\nh 1\nh 2\nmeasure 2\nmeasure 0\nmeasure 1\n"
    f = _circuit_file(tmp_path, "qubits 3\n" + body)
    code, out, _ = _run(capsys, "simulate", f, "--shots", "200", "--format", "machine")
    assert code == 0
    assert len(json.loads(out)["histogram"]) >= 3
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_simulate_lowers_grid_rotations_with_a_note(capsys, tmp_path) -> None:
    # rz(pi/4) lowers to a single T, so the extended engine stays in budget
    f = _circuit_file(tmp_path, f"qubits 1\nh 0\nrz({math.pi / 4!r}) 0\nh 0\nmeasure 0\n")
    code, out, err = _run(capsys, "simulate", f, "--shots", "2000", "--seed", "0")
    assert code == 0
    assert "note: lowering" in err
    hist = {line.split()[0]: int(line.split()[1]) for line in out.splitlines()}
    assert sum(hist.values()) == 2000
    assert abs(hist["0"] / 2000 - math.cos(math.pi / 8) ** 2) < 0.05


def test_simulate_off_grid_rotation_blows_the_budget(capsys, tmp_path) -> None:
    # a generic angle lowers to a long T word; the branch wall must refuse it
    f = _circuit_file(tmp_path, "qubits 1\nrz(0.85) 0\nmeasure 0\n")
    code, _, err = _run(capsys, "simulate", f, "--shots", "50", "--seed", "0")
    assert code == 2
    assert "note: lowering" in err
    assert "exceeds t_max" in err


def test_simulate_budget_exceeded(capsys, tmp_path) -> None:
    body = "".join(f"t {i % 2}\n" for i in range(5))
    f = _circuit_file(tmp_path, "qubits 2\n" + body + "measure 0\n")
    code, _, err = _run(capsys, "simulate", f, "--t-max", "3")
    assert code == 2
    assert err.startswith("error:") and "exceeds t_max=3" in err


# --- estimate / encode -------------------------------------------------------


def test_estimate_reference_rows_machine(capsys) -> None:
    code, out, _ = _run(capsys, "estimate", "-q", "5", "-t", "1", "3", "1e8", "--format", "machine")
    assert code == 0
    rows = json.loads(out)
    assert [r["t"] for r in rows] == [1, 3, 100000000]
    assert [r["distance"] for r in rows] == [7, 11, 25]
    assert [r["total_physical_qubits"] for r in rows] == [15135, 50700, 158431]
    assert rows[0]["source"] == "model"
    assert rows[1]["source"] == "paper-table"
    assert rows[2]["hours_per_shot"] == pytest.approx(4.936, rel=1e-3)


def test_estimate_text_table(capsys) -> None:
    code, out, _ = _run(capsys, "estimate", "-q", "5", "-t", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t distance data distillation total hours-per-shot source"
    assert lines[1].startswith("3 11 36300 14400 50700 ")
    assert lines[1].endswith(" paper-table")


def test_estimate_infeasible_exit_code(capsys, tmp_path) -> None:
    conf = tmp_path / "q.conf"
    conf.write_text("p 0.009\n", encoding="utf-8")
    code, _, err = _run(capsys, "--config", str(conf), "estimate", "-q", "1", "-t", "1")
    assert code == 11
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
def test_estimate_rejects_non_finite_t(capsys, value) -> None:
    code, out, err = _run(capsys, "estimate", "-q", "5", "-t", "3", value)
    assert code == 2 and out == ""
    assert err == f"error: T value {value!r} is not finite\n"


def test_estimate_keeps_t_exact_past_float_precision(capsys) -> None:
    code, out, _ = _run(capsys, "estimate", "-q", "10", "-t", "9007199254740993", "--format", "machine")
    assert code == 0
    assert json.loads(out)[0]["t"] == 2**53 + 1


@pytest.mark.parametrize("value, why", [("3.7", "is not a whole number"), ("-3", "is negative")])
def test_estimate_rejects_fractional_and_negative_t(capsys, value, why) -> None:
    code, out, err = _run(capsys, "estimate", "-q", "5", "-t", "3", value)
    assert code == 2 and out == ""
    assert err == f"error: T value {value!r} {why}\n"


def test_encode_matches_library_rows(capsys) -> None:
    specs = ["610x340x103:hyperspectral", "5x5x3:polarimetric:symmetric"]
    code, out, _ = _run(capsys, "encode", *specs, "--format", "machine")
    assert code == 0
    expected = compare_modalities([parse_tensor_spec(s) for s in specs], AnglePerFeature())
    assert json.loads(out) == expected


def test_encode_text_table(capsys) -> None:
    code, out, _ = _run(capsys, "encode", "610x340x103:hyperspectral")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "label", "data-points", "features", "per-pixel-qubits", "per-pixel-gates",
        "whole-image-qubits", "whole-image-gates",
    ]
    assert lines[1].split()[:3] == ["610x340x103:hyperspectral", "207400", "103"]


def test_encode_hybrid_needs_target(capsys) -> None:
    code, _, err = _run(capsys, "encode", "4x4x3:multispectral", "--scheme", "hybrid")
    assert code == 2
    assert "target-features" in err


def test_encode_bad_spec(capsys) -> None:
    assert _run(capsys, "encode", "4x4:multispectral")[0] == 2


# --- advise ------------------------------------------------------------------


def test_advise_small_circuit_routes_to_hpc(capsys, tmp_path) -> None:
    f = _circuit_file(tmp_path, BELL)
    code, out, _ = _run(capsys, "advise", f)
    assert code == 0
    assert out.splitlines()[0] == "decision: HPC"


def test_advise_override_routes_to_qc(capsys) -> None:
    code, out, _ = _run(
        capsys, "advise", "--t-override", "100000000", "--logical-qubits", "5",
        "--format", "machine",
    )
    assert code == 10
    doc = json.loads(out)
    assert doc["decision"] == "QC"
    assert doc["distance"] == 25
    assert doc["classical_steps"] is None


def test_advise_infeasible_exit_code(capsys, tmp_path) -> None:
    conf = tmp_path / "q.conf"
    conf.write_text("p 0.009\n", encoding="utf-8")
    code, out, _ = _run(
        capsys, "--config", str(conf), "advise",
        "--t-override", "400", "--logical-qubits", "5",
    )
    assert code == 11
    assert out.splitlines()[0] == "decision: Infeasible"


def test_advise_policy_flag(capsys, tmp_path) -> None:
    # depth-1 ansatz piped through a file: symmetry sees one rotation run
    code, out, _ = _run(capsys, "ansatz", "strongly-entangling", "-n", "4")
    f = _circuit_file(tmp_path, out)
    code, out, _ = _run(capsys, "advise", f, "--policy", "symmetry", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["policy"] == "symmetry"
    assert doc["t_sym"] == 1


def test_advise_threshold_flag_flips_decision(capsys, tmp_path) -> None:
    f = _circuit_file(tmp_path, "qubits 1\nrz(0.85) 0\n")
    assert _run(capsys, "advise", f)[0] == 0  # 24 <= 300
    assert _run(capsys, "advise", f, "--t-threshold", "10")[0] == 10


def test_advise_usage_errors(capsys) -> None:
    code, _, err = _run(capsys, "advise")
    assert code == 2 and "circuit" in err
    code, _, err = _run(capsys, "advise", "--t-override", "40")
    assert code == 2 and "--logical-qubits" in err


BIG_T = "1" + "0" * 400  # past float range


@pytest.mark.parametrize(
    "argv, why",
    [
        (("advise", "--t-override", "-5", "--logical-qubits", "5"), "'-5' is negative"),
        (
            ("advise", "--t-override", BIG_T, "--logical-qubits", "5"),
            f"{BIG_T!r} is past float range",
        ),
        (("estimate", "-q", "5", "-t", BIG_T), f"{BIG_T!r} is past float range"),
    ],
)
def test_out_of_range_t_values_exit_2_on_both_flags(capsys, argv, why) -> None:
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: T value {why}\n")


@pytest.mark.parametrize(
    "text", [BELL, "qubits 2\nh 0\nt 0\ncnot 0 1\nmeasure 0\nmeasure 1\n"]
)
def test_unsampleable_shot_counts_exit_2(capsys, tmp_path, text) -> None:
    path = _circuit_file(tmp_path, text)
    code, out, err = _run(capsys, "simulate", path, "--shots", str(2**63))
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{2**63} shots" in err


# --- diagnostics and configuration ------------------------------------------


def test_parse_error_diagnostics(capsys, tmp_path) -> None:
    f = _circuit_file(tmp_path, "qubits 2\nfrob 0\n")
    code, _, err = _run(capsys, "simulate", f)
    assert code == 2
    assert err.startswith("error: line 2, col 1:")


@pytest.mark.parametrize(
    "text, error",
    [
        # superscript two and Arabic-Indic three pass str.isdigit; neither is
        # a count or a qubit index
        ("qubits \u00b2\n", "line 1, col 1: expected `qubits <positive int>`"),
        ("qubits 2\nh \u00b2\n", "line 2, col 3: bad qubit index '\u00b2'"),
        ("qubits 5\nh \u0663\n", "line 2, col 3: bad qubit index '\u0663'"),
    ],
)
def test_non_ascii_digits_are_parse_errors(capsys, tmp_path, text, error) -> None:
    code, out, err = _run(capsys, "count", _circuit_file(tmp_path, text))
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("angle_line", ["rz(nan) 0", "rz(inf) 0", "u3(0,-inf,0) 0"])
@pytest.mark.parametrize("command", ["count", "advise", "simulate"])
def test_non_finite_angle_names_its_position(capsys, tmp_path, command, angle_line) -> None:
    f = _circuit_file(tmp_path, f"qubits 1\n{angle_line}\nmeasure 0\n")
    code, out, err = _run(capsys, command, f)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2, col 1:")
    assert "angle must be finite" in err


def test_oversized_tableau_is_refused_before_allocation(capsys, tmp_path) -> None:
    f = _circuit_file(tmp_path, "qubits 3000000\nh 0\nmeasure 0\n")
    start = time.perf_counter()
    code, out, err = _run(capsys, "simulate", f, "--shots", "10")
    elapsed = time.perf_counter() - start
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "3000000 qubits" in err and "bytes" in err
    assert "Traceback" not in err
    assert elapsed < 1.0


def test_oversized_sampling_is_refused_before_allocation(capsys, tmp_path) -> None:
    # one random event at 10^8 shots: the draws alone would take 900 MB
    f = _circuit_file(tmp_path, "qubits 1\nh 0\nmeasure 0\n")
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "simulate", f, "--shots", "100000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "100000000 shots" in err
    assert "1800000009 bytes" in err
    assert "Traceback" not in err
    assert peak < 16 << 20


def test_oversized_branch_state_is_refused_before_allocation(capsys, tmp_path) -> None:
    # 25 dense qubits: one branch state alone would take 512 MiB
    f = _circuit_file(tmp_path, "qubits 25\nh 0\nt 0\nmeasure 0\n")
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "simulate", f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "536870912 bytes" in err and "268435456-byte budget" in err
    assert "Traceback" not in err
    assert peak < 16 << 20


def test_missing_file(capsys) -> None:
    code, _, err = _run(capsys, "count", "/nonexistent/c.qc")
    assert code == 2
    assert err.startswith("error:")


def test_config_file_sets_seed_and_flag_wins(capsys, tmp_path) -> None:
    conf = tmp_path / "q.conf"
    conf.write_text("seed 5\n", encoding="utf-8")
    _, by_conf, _ = _run(capsys, "--config", str(conf), "ansatz", "real-amplitudes", "-n", "3")
    _, by_flag, _ = _run(capsys, "ansatz", "real-amplitudes", "-n", "3", "--seed", "5")
    assert by_conf == by_flag
    _, overridden, _ = _run(
        capsys, "--config", str(conf), "ansatz", "real-amplitudes", "-n", "3", "--seed", "6"
    )
    assert overridden != by_conf


def test_config_from_environment(capsys, tmp_path, monkeypatch) -> None:
    conf = tmp_path / "q.conf"
    conf.write_text("seed 9\n", encoding="utf-8")
    monkeypatch.setenv("QTRIAGE_CONFIG", str(conf))
    _, via_env, _ = _run(capsys, "ansatz", "real-amplitudes", "-n", "3")
    monkeypatch.delenv("QTRIAGE_CONFIG")
    _, via_flag, _ = _run(capsys, "ansatz", "real-amplitudes", "-n", "3", "--seed", "9")
    assert via_env == via_flag


def test_cached_parser_matches_a_fresh_one(capsys, tmp_path, monkeypatch) -> None:
    # untimed bench rows are comparable between the two runs
    monkeypatch.setattr(cli, "_best_of", lambda fn, repeats=3: 0.0)
    bell = _circuit_file(tmp_path, BELL)
    rz = _circuit_file(tmp_path, "qubits 1\nrz(0.85) 0\n", "rz.qc")
    frob = _circuit_file(tmp_path, "qubits 2\nfrob 0\n", "frob.qc")
    calls = [
        ["ansatz", "real-amplitudes", "-n", "3", "--seed", "4"],
        ["advise"],
        ["transpile", rz, "--format", "machine"],
        ["estimate", "--help"],
        ["count", rz, "--epsilon", "1e-3"],
        ["advise", "--t-override", "40"],
        ["simulate", bell, "--shots", "64", "--format", "machine"],
        ["ansatz", "--help"],
        ["estimate", "-q", "5", "-t", "3", "1e8"],
        ["count", frob],
        ["encode", "4x4x3:multispectral", "--format", "machine"],
        ["transpile", "--help"],
        ["advise", bell, "--policy", "symmetry", "--format", "machine"],
        ["count", "/nonexistent/c.qc"],
        ["bench", "clifford", "--seed", "2"],
        ["bench", "extended"],
        ["simulate", "--help"],
        ["advise", "--t-override", "400", "--logical-qubits", "5", "--t-threshold", "10"],
        ["count", "--help"],
        ["transpile", rz, "--mode", "count"],
        ["encode", "--help"],
        ["advise", rz, "--policy", "full"],
        ["bench", "--help"],
        ["advise", "--help"],
        ["--help"],
        [],
        ["ansatz", "qaoa", "-n", "3"],
    ]
    fresh = cli._build_parser.__wrapped__
    assert cli._build_parser() is cli._build_parser()
    for argv in calls + calls[::-1]:
        cached = _run(capsys, *argv)
        with mock.patch.object(cli, "_build_parser", fresh):
            assert _run(capsys, *argv) == cached, argv


def test_bench_suites_emit_timing_rows(capsys, monkeypatch) -> None:
    monkeypatch.setattr(cli, "BENCH_CLIFFORD_SIZES", (4, 8))
    monkeypatch.setattr(cli, "BENCH_EXTENDED_T", (2, 3))
    code, out, _ = _run(capsys, "bench", "clifford")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n m seconds"
    assert [line.split()[:2] for line in lines[1:]] == [["4", "40"], ["8", "80"]]
    code, out, _ = _run(capsys, "bench", "extended")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t branches seconds"
    assert [line.split()[:2] for line in lines[1:]] == [["2", "4"], ["3", "8"]]


@settings(max_examples=150, deadline=None)
@given(circuit_texts())
def test_any_circuit_text_exits_with_a_documented_code(text: str) -> None:
    for argv in (
        ["count", "-"],
        ["advise", "-", "--policy", "full"],
        ["advise", "-", "--policy", "symmetry", "--format", "machine"],
        ["transpile", "-", "--mode", "count"],
    ):
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 2, 10, 11)
