"""Tests of the benchmark's own code: seeded inputs and output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import re
import subprocess
import sys

import numpy as np
import pytest

import inputs
import startup

startup.use_source_tree()

from qtriage.ansatz import AnsatzKind, build_ansatz  # noqa: E402
from qtriage.circuit import parse_circuit  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("advise-20k", "simulate-mix", "lower-sequence")
_ANGLES = re.compile(r"\(([^)]*)\)")


def _generate(out, workload, seed):
    """Run the generator's command line; returns {file name: bytes}."""
    subprocess.run(
        [sys.executable, inputs.__file__, workload, "--seed", str(seed), "--cycles", "2", "--out", str(out)],
        check=True, capture_output=True, timeout=120,
    )
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_writes_byte_identical_files(tmp_path, workload):
    first = _generate(tmp_path / "a", workload, 5)
    assert first and first == _generate(tmp_path / "b", workload, 5)
    assert first != _generate(tmp_path / "c", workload, 6)


@pytest.mark.parametrize("workload", ("advise-20k", "lower-sequence"))
def test_different_seed_gives_different_angles(workload):
    def angles(seed):
        _, inst = inputs.cycle_instances(workload, seed, 0)[0]
        return _ANGLES.findall(inst.text)

    assert angles(1) != angles(2)
    assert len(angles(1)) == len(angles(2)) > 0


def test_different_seed_gives_different_simulate_circuits():
    def texts(seed):
        return [inst.text for _, inst in inputs.cycle_instances("simulate-mix", seed, 0)]

    assert all(a != b for a, b in zip(texts(1), texts(2)))


def test_instances_within_a_run_differ():
    a = inputs.cycle_instances("advise-20k", 3, 0)
    b = inputs.cycle_instances("advise-20k", 3, 1)
    assert [i.text for _, i in a] != [i.text for _, i in b]


@pytest.mark.parametrize(
    "family, kind, n, depth",
    [
        ("strongly-entangling", AnsatzKind.STRONGLY_ENTANGLING, 5, 3),
        ("hardware-efficient", AnsatzKind.HARDWARE_EFFICIENT, 5, 3),
        ("real-amplitudes", AnsatzKind.REAL_AMPLITUDES, 4, 2),
    ],
)
def test_ansatz_text_is_the_package_ansatz(family, kind, n, depth):
    inst = inputs.ansatz_instance(family, n, depth, inputs.rng_for(0, "t"))
    params = [float(a) for group in _ANGLES.findall(inst.text) for a in group.split(",")]
    assert len(params) == inst.params
    assert parse_circuit(inst.text) == build_ansatz(kind, n, depth, params)


def test_generated_shapes_match_the_workload_definitions():
    heavy = parse_circuit(inputs.advise_instance(0, 0, "heavy").text)
    light = parse_circuit(inputs.advise_instance(0, 0, "light").text)
    assert (heavy.n_qubits, heavy.gate_count) == (500, 20_000)
    assert (light.n_qubits, light.gate_count) == (500, 29_980)
    branch = inputs.simulate_instance(0, 0, "control")
    assert branch.text.count("\nt ") == 10 and branch.readout == 10


def test_histogram_check_rejects_impossible_and_skewed_samples():
    probs = np.array([0.5, 0.0, 0.0, 0.5])  # Bell pair: 00 or 11
    assert workloads.histogram_agrees({"00": 500, "11": 500}, probs, 2, 1000) is None
    assert workloads.histogram_agrees({"00": 499, "01": 1, "11": 500}, probs, 2, 1000)
    assert workloads.histogram_agrees({"00": 800, "11": 200}, probs, 2, 1000)


def test_phase_free_distance_matches_the_su2_formula():
    theta = 0.3
    rz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    assert workloads.phase_free_distance(rz, np.eye(2)) == pytest.approx(2 * math.sin(theta / 4))
    assert workloads.phase_free_distance(rz, np.exp(0.7j) * rz) == pytest.approx(0.0, abs=1e-12)


def test_simulate_check_passes_a_real_op_and_fails_a_truncated_one(tmp_path):
    inst = inputs.clifford_instance(6, 60, 6, inputs.rng_for(0, "check"))
    path = inst.write(tmp_path / "c.qc")
    code, out, _ = workloads.call_cli(["simulate", str(path), "--shots", "256", "--format", "machine"])
    check = workloads.check_simulate(inst, 256, oracle=True)
    assert check(code, out)[0] is None
    short = out.replace(b'"shots": 256', b'"shots": 255')
    assert check(code, short)[0] is not None


def test_advise_check_requires_the_policy_exit_code(tmp_path):
    inst = inputs.ansatz_instance("hardware-efficient", 4, 2, inputs.rng_for(0, "adv"))
    path = inst.write(tmp_path / "a.qc")
    argv = ["advise", str(path), "--policy", "symmetry", "--format", "machine"]
    code, out, _ = workloads.call_cli(argv)
    from qtriage.transpiler import count_mode_t_cost

    check = workloads.check_advise("symmetry", inst.params * count_mode_t_cost(1e-2), 2)
    assert check(code, out)[0] is None
    assert check(10, out)[0] is not None
