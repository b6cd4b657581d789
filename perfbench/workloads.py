"""The three workloads: which CLI calls each op makes and how its output is checked.

Each op is one in-process ``qtriage.cli.main([...])`` call on a generated
file, with stdout captured. Every output is checked after the op returns,
outside the timed region; a wrong output counts as a failed op.

Op classes per workload (the end-to-end metric slot they fill):

    workload        heavy               light               control
    advise-20k      u3 ansatz           single-axis ansatz  --t-override
    simulate-mix    clifford-full       clifford-narrow     branch
    lower-sequence  sequence, eps 1e-3  sequence, eps 1e-2  count mode

"heavy" and "light" load the mechanism the workload targets at two sizes;
"control" is the same command family with that mechanism bypassed.
"""

from __future__ import annotations

import io
import json
import math
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from host import at_nominal_speed, host_ref
from tracing import Tracer

EPSILON = 1e-2  # advise and simulate accuracy, passed explicitly
CONTROL_REPEATS = 5  # control ops are milliseconds; take more samples per cycle
MIN_CYCLES = 3  # deterministic counts are read from the first three cycles
SIGMAS = 6.0  # statistical checks: a correct engine fails one with p < 1e-8

Check = Callable[[int, bytes], "tuple[str | None, dict]"]


@dataclass
class Op:
    cls: str  # heavy / light / control
    label: str  # op class name in the per-layer metrics
    argv: list[str]
    check: Check
    instance: inputs.Instance


@dataclass
class OpResult:
    cls: str
    label: str
    cycle: int
    seconds: float  # wall time of the CLI call
    scaled: float  # the same at nominal host speed, see host.py
    problem: str | None
    facts: dict = field(default_factory=dict)


def call_cli(argv: list[str], tracer: Tracer | None = None) -> tuple[int, bytes, float]:
    """Run one CLI call in this process; returns (exit code, stdout, seconds)."""
    from qtriage.cli import main

    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8")
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        with tracer.span("op") if tracer else nullcontext():
            start = time.perf_counter()
            code = main(argv)
            seconds = time.perf_counter() - start
        out.flush()
    data = raw.getvalue()
    out.detach()
    return code, data, seconds


# --- output checks ---------------------------------------------------------


def check_advise(policy: str, t_full: int, t_sym: int) -> Check:
    from qtriage.advisor import parse_machine_report

    def check(code: int, out: bytes) -> tuple[str | None, dict]:
        report = parse_machine_report(out)
        want = 10 if policy == "full" else 0
        if (code, report.policy) != (want, policy):
            return f"exit {code} policy {report.policy}, want {want} {policy}", {}
        if (report.t_full, report.t_sym) != (t_full, t_sym):
            return f"t_full {report.t_full} t_sym {report.t_sym}, want {t_full} {t_sym}", {}
        return None, {}

    return check


def bit_table(width: int) -> np.ndarray:
    """(2^width, width) bits of every outcome index; qubit 0 is the leftmost."""
    idx = np.arange(1 << width)
    return ((idx[:, None] >> (width - 1 - np.arange(width))) & 1).astype(np.int8)


def histogram_agrees(hist: dict[str, int], probs: np.ndarray, width: int, shots: int) -> str | None:
    """Compare sampled counts with exact outcome probabilities.

    No outcome of probability zero may appear, and every single-qubit
    marginal and every pairwise parity must lie within SIGMAS binomial
    standard deviations at this shot count (plus half a shot).
    """
    counts = np.zeros(1 << width)
    for key, value in hist.items():
        counts[int(key, 2)] = value
    if np.any((counts > 0) & (probs < 1e-12)):
        return "sampled an outcome of probability zero"
    bits = bit_table(width)
    pairs = [bits[:, i] ^ bits[:, j] for i in range(width) for j in range(i + 1, width)]
    events = np.column_stack([bits, *pairs]) if pairs else bits
    exact = events.T @ probs
    seen = events.T @ counts / shots
    tol = SIGMAS * np.sqrt(exact * (1.0 - exact) / shots) + 0.5 / shots
    worst = int(np.argmax(np.abs(seen - exact) - tol))
    if abs(seen[worst] - exact[worst]) > tol[worst]:
        return f"event {worst}: frequency {seen[worst]:.4f} vs probability {exact[worst]:.4f}"
    return None


def exact_probs(text: str, readout: int) -> np.ndarray:
    """Outcome probabilities of measuring qubits 0..readout-1 at the end."""
    from qtriage.circuit import Circuit, parse_circuit
    from qtriage.dense import statevector

    circuit = parse_circuit(text)
    unitary = Circuit.from_gates(
        circuit.n_qubits, [g for g in circuit.gates() if not g.is_measure]
    )
    n = circuit.n_qubits
    probs = (np.abs(statevector(unitary)) ** 2).reshape((2,) * n)
    return probs.sum(axis=tuple(range(readout, n))).reshape(-1)


def check_simulate(inst: inputs.Instance, shots: int, oracle: bool) -> Check:
    def check(code: int, out: bytes) -> tuple[str | None, dict]:
        if code != 0:
            return f"exit {code}", {}
        doc = json.loads(out)
        hist = doc["histogram"]
        if doc["shots"] != shots or sum(hist.values()) != shots:
            return f"histogram totals {sum(hist.values())}, want {shots}", {}
        if any(len(k) != inst.readout or set(k) - {"0", "1"} for k in hist):
            return f"bitstring width differs from readout {inst.readout}", {}
        if oracle:
            probs = exact_probs(inst.text, inst.readout)
            problem = histogram_agrees(hist, probs, inst.readout, shots)
            if problem:
                return problem, {}
        return None, {"histogram": hist}

    return check


def phase_free_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over phi of ||u - e^{i phi} v||, from the eigenphases of v^dag u."""
    phases = np.sort(np.angle(np.linalg.eigvals(v.conj().T @ u)))
    gaps = np.diff(np.concatenate([phases, phases[:1] + 2.0 * math.pi]))
    spread = 2.0 * math.pi - float(gaps.max())
    return 2.0 * math.sin(spread / 4.0)


_CLIFFORD_T = {"h", "s", "sdg", "t", "tdg", "cnot"}


def check_lower(inst: inputs.Instance, epsilon: float, sequence: bool) -> Check:
    from qtriage.circuit import parse_circuit
    from qtriage.dense import unitary_of

    def check(code: int, out: bytes) -> tuple[str | None, dict]:
        if code != 0:
            return f"exit {code}", {}
        doc = json.loads(out)
        rotations = doc["approx_rotations"]
        if rotations != inst.params:
            return f"{rotations} rotations approximated, want {inst.params}", {}
        if not doc["approx_error"] <= rotations * epsilon * (1.0 + 1e-12):
            return f"approx_error {doc['approx_error']} above {rotations} x {epsilon}", {}
        lowered = parse_circuit(doc["circuit"])
        kinds = {g.kind.value for g in lowered.gates()}
        if kinds - _CLIFFORD_T:
            return f"emitted kinds {sorted(kinds - _CLIFFORD_T)}", {}
        t = sum(1 for g in lowered.gates() if g.kind.value in ("t", "tdg"))
        if sequence:
            dist = phase_free_distance(
                unitary_of(lowered), unitary_of(parse_circuit(inst.text))
            )
            if dist > doc["approx_error"] + 1e-9:
                return f"unitary distance {dist:.3e} above bound {doc['approx_error']:.3e}", {}
        return None, {"t": t, "rotations": rotations, "gates": lowered.gate_count}

    return check


# --- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    labels: dict[str, str] = {}  # op class -> label

    def ops(self, seed: int, cycle: int, work: Path) -> list[Op]:
        raise NotImplementedError

    def prepare(self, seed: int, work: Path) -> str | None:
        """Checks made once before timing starts; returns a problem or None."""
        return None

    def observe(self, tracer: Tracer, op: Op, result: OpResult) -> None:
        """Calls made beside a traced op, outside its span."""


class Advise(Workload):
    name = "advise-20k"
    labels = {"heavy": "u3", "light": "axis", "control": "override"}

    def ops(self, seed: int, cycle: int, work: Path) -> list[Op]:
        from qtriage.transpiler import count_mode_t_cost

        ops = []
        for cls, inst in inputs.cycle_instances(self.name, seed, cycle):
            path = inst.write(work / f"{cls}.qc")
            policy = "full" if (cycle + (cls == "light")) % 2 == 0 else "symmetry"
            t_full = inst.params * count_mode_t_cost(EPSILON)
            argv = ["advise", str(path), "--policy", policy, "--epsilon", repr(EPSILON), "--format", "machine"]
            ops.append(Op(cls, self.labels[cls], argv, check_advise(policy, t_full, inst.meta["depth"]), inst))
        # control: the what-if route for the heavy instance's count, no file read
        heavy = ops[0]
        t_full = heavy.instance.params * count_mode_t_cost(EPSILON)
        argv = [
            "advise", "--t-override", str(t_full), "--logical-qubits", str(heavy.instance.n_qubits),
            "--policy", "full", "--epsilon", repr(EPSILON), "--format", "machine",
        ]
        check = check_advise("full", t_full, t_full)
        ops += [Op("control", "override", argv, check, heavy.instance)] * CONTROL_REPEATS
        return ops


class Simulate(Workload):
    name = "simulate-mix"
    labels = {"heavy": "clifford-full", "light": "clifford-narrow", "control": "branch"}
    ORACLE_QUBITS = 12

    def shots(self, cls: str) -> int:
        return inputs.BRANCH_SHAPE[3] if cls == "control" else inputs.CLIFFORD_SHAPES[cls][3]

    def ops(self, seed: int, cycle: int, work: Path) -> list[Op]:
        ops = []
        for k, (cls, inst) in enumerate(inputs.cycle_instances(self.name, seed, cycle)):
            path = inst.write(work / f"{k}.qc")
            shots = self.shots(cls)
            argv = ["simulate", str(path), "--shots", str(shots), "--seed", str(cycle), "--format", "machine"]
            check = check_simulate(inst, shots, oracle=cls == "control")
            ops.append(Op(cls, self.labels[cls], argv, check, inst))
        return ops

    def prepare(self, seed: int, work: Path) -> str | None:
        # the Clifford classes at dense-checkable width, same generator
        n = self.ORACLE_QUBITS
        for cls, (_, _, readout, shots) in inputs.CLIFFORD_SHAPES.items():
            for k in range(3):
                rng = inputs.rng_for(seed, self.name, "oracle", cls, k)
                inst = inputs.clifford_instance(n, 10 * n, min(readout, n), rng)
                path = inst.write(work / "oracle.qc")
                argv = ["simulate", str(path), "--shots", str(4 * shots), "--seed", str(k), "--format", "machine"]
                op = Op(cls, self.labels[cls], argv, check_simulate(inst, 4 * shots, oracle=True), inst)
                code, out, _ = _guarded(argv)
                problem, _ = _checked(op, code, out)
                if problem:
                    return f"{self.labels[cls]} oracle circuit {k}: {problem}"
        return None

    def observe(self, tracer: Tracer, op: Op, result: OpResult) -> None:
        from qtriage.circuit import parse_circuit
        from qtriage.simulate import render_histogram, sim_cost

        circuit = parse_circuit(op.instance.text)
        t = op.instance.meta.get("t", 0)
        engine = "simulate.run_extended" if t else "simulate.run_clifford"
        spans = [s for s in tracer.select(engine) if s.op == tracer.op]
        if spans:
            steps = sim_cost(circuit.n_qubits, circuit.gate_count, t, EPSILON).step_bound
            result.facts["steps_per_s"] = steps / spans[0].seconds
        if not t:
            with tracer.span("tableau.pass"):
                result.facts["random_events"] = tableau_pass(circuit)
        if "histogram" in result.facts:
            with tracer.span("simulate.render_histogram"):
                render_histogram(result.facts["histogram"])


def tableau_pass(circuit) -> int:
    """One tableau pass over the circuit; returns the random events met."""
    from qtriage.tableau import Tableau, apply_clifford, measure_with_source

    tab = Tableau(circuit.n_qubits)
    events = 0
    for g in circuit.gates():
        if g.is_measure:
            events += measure_with_source(tab, g.qubits[0], lambda: 0)[1]
        else:
            apply_clifford(tab, g)
    return events


class Lower(Workload):
    name = "lower-sequence"
    labels = {"heavy": "eps-1e-3", "light": "eps-1e-2", "control": "count"}
    EPSILONS = {"heavy": 1e-3, "light": 1e-2, "control": 1e-2}

    def ops(self, seed: int, cycle: int, work: Path) -> list[Op]:
        ops = []
        for k, (_, inst) in enumerate(inputs.cycle_instances(self.name, seed, cycle)):
            path = str(inst.write(work / f"{k}.qc"))
            for cls, eps in self.EPSILONS.items():
                mode = "count" if cls == "control" else "sequence"
                argv = ["transpile", path, "--mode", mode, "--epsilon", repr(eps), "--format", "machine"]
                op = Op(cls, self.labels[cls], argv, check_lower(inst, eps, mode == "sequence"), inst)
                ops += [op] * (CONTROL_REPEATS if cls == "control" else 1)
        return ops


WORKLOADS = {w.name: w for w in (Advise(), Simulate(), Lower())}


def run_ops(
    workload: Workload, seed: int, seconds: float, work: Path, tracer: Tracer | None
) -> tuple[list[OpResult], list[float]]:
    """Whole cycles of ops until the timed ops add up to `seconds`.

    The host reference is timed before the first op and after every op.
    With a tracer each op runs twice on the same file: untraced, then traced
    with a span per layer call; the traced output must match byte for byte.
    Returns the op results and the reference timings.
    """
    results: list[OpResult] = []
    refs = [host_ref()]
    spent = 0.0
    cycle = 0
    while spent < seconds or cycle < MIN_CYCLES:
        for op in workload.ops(seed, cycle, work):
            code, out, dt = _guarded(op.argv)
            refs.append(host_ref())
            scaled = at_nominal_speed(dt, refs[-2], refs[-1])
            problem, facts = _checked(op, code, out)
            spent += dt
            result = OpResult(op.cls, op.label, cycle, dt, scaled, problem, facts)
            results.append(result)
            if tracer is None:
                result.facts.pop("histogram", None)
                continue
            tracer.op, tracer.label = len(results) - 1, op.label
            with tracer.patched():
                code2, out2, dt2 = _guarded(op.argv, tracer)
            spent += dt2
            if (code2, out2) != (code, out):
                result.problem = result.problem or "traced output differs"
            workload.observe(tracer, op, result)
            result.facts.pop("histogram", None)
        cycle += 1
    return results, refs


def _guarded(argv: list[str], tracer: Tracer | None = None) -> tuple[int, bytes, float]:
    # an op that raises is a failed op, not a failed benchmark
    start = time.perf_counter()
    try:
        return call_cli(argv, tracer)
    except Exception:
        return -1, traceback.format_exc().encode(), time.perf_counter() - start


def _checked(op: Op, code: int, out: bytes) -> tuple[str | None, dict]:
    if code == -1:
        return "raised: " + out.decode(errors="replace").strip().splitlines()[-1], {}
    try:
        return op.check(code, out)
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable output: {err!r}", {}
