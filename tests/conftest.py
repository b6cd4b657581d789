"""Shared fixtures: the reference distribution oracle and circuit generators.

The oracle here follows every measurement branch with its exact Born weight,
so the sampling engines can be judged by total-variation distance against a
ground truth that never samples. It is exponential in the number of measure
gates; generators keep that small.

``reference_run_clifford`` is the probe sampler the one-pass engine replaced:
it re-runs the tableau once per random event and reads only concrete
outcomes, never the sign forms the engine is checked on.

``matrix_product_apply``, ``reference_statevector`` and ``reference_unitary``
are the per-gate tensordot oracle that ``dense`` replaced with in-place
Clifford kernels and a fused pass: one matrix product per gate, nothing fused.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from qtriage.circuit import Circuit, GateKind, GateOp, gate
from qtriage.dense import apply_gate, gate_matrix
from qtriage.synthesis import ApproxTable, default_table
from qtriage.tableau import Tableau, apply_clifford, measure_with_source


@pytest.fixture(scope="session")
def approx_table() -> ApproxTable:
    # Building the table is the expensive part; share one per run.
    return default_table()


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact outcome distribution, readout bits in measure-gate order.

    Branches on every measure gate (mid-circuit included), renormalizing the
    projected state so later gates act on the post-measurement state.
    """
    n = circuit.n_qubits
    start = np.zeros((2,) * n, dtype=complex)
    start[(0,) * n] = 1.0
    branches: list[tuple[float, np.ndarray, str]] = [(1.0, start, "")]
    for g in circuit.gates():
        if g.is_measure:
            q = g.qubits[0]
            split = []
            for w, psi, bits in branches:
                for bit in (0, 1):
                    idx = [slice(None)] * n
                    idx[q] = 1 - bit
                    proj = psi.copy()
                    proj[tuple(idx)] = 0.0
                    p = float(np.vdot(proj, proj).real)
                    if p > 1e-12:
                        split.append((w * p, proj / math.sqrt(p), bits + str(bit)))
            branches = split
        else:
            branches = [(w, apply_gate(psi, g), bits) for w, psi, bits in branches]
    out: dict[str, float] = {}
    for w, _, bits in branches:
        out[bits] = out.get(bits, 0.0) + w
    return out


def matrix_product_apply(tensor: np.ndarray, g: GateOp, first: int = 0) -> np.ndarray:
    """One gate as the product of its matrix with the qubit axes (from `first`)."""
    nq = len(g.qubits)
    mat = gate_matrix(g).reshape((2,) * (2 * nq))
    axes = [first + q for q in g.qubits]
    moved = np.tensordot(mat, tensor, axes=(list(range(nq, 2 * nq)), axes))
    return np.moveaxis(moved, range(nq), axes)


def reference_statevector(circuit: Circuit) -> np.ndarray:
    n = circuit.n_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for g in circuit.gates():
        psi = matrix_product_apply(psi, g)
    return psi.reshape(-1)


def reference_unitary(circuit: Circuit) -> np.ndarray:
    dim = 2**circuit.n_qubits
    u = np.eye(dim, dtype=complex).reshape((2,) * circuit.n_qubits + (dim,))
    for g in circuit.gates():
        u = matrix_product_apply(u, g)
    return u.reshape(dim, dim)


def _probe_outcomes(circuit: Circuit, forced_bits: np.ndarray) -> tuple[np.ndarray, int]:
    """One tableau pass; the j-th random event consumes forced_bits[j] (0 beyond)."""
    tab = Tableau(circuit.n_qubits)
    outcomes: list[int] = []
    counter = 0

    def source() -> int:
        nonlocal counter
        bit = int(forced_bits[counter]) if counter < len(forced_bits) else 0
        counter += 1
        return bit

    for g in circuit.gates():
        if g.is_measure:
            out, _ = measure_with_source(tab, g.qubits[0], source)
            outcomes.append(out)
        else:
            apply_clifford(tab, g)
    return np.array(outcomes, dtype=np.uint8), counter


def reference_run_clifford(circuit: Circuit, shots: int, seed: int) -> dict[str, int]:
    """run_clifford by k+1 tableau passes: a base pass, then one one-hot probe
    per random event recovers each outcome's column of the affine map. Same
    draws from the same seed, so histograms must match the engine exactly."""
    base, n_random = _probe_outcomes(circuit, np.zeros(0, dtype=np.uint8))
    n_meas = len(base)
    if n_meas == 0:
        return {"": shots}

    columns = np.zeros((n_meas, n_random), dtype=np.uint8)
    for k in range(n_random):
        probe = np.zeros(n_random, dtype=np.uint8)
        probe[k] = 1
        outcomes, n_again = _probe_outcomes(circuit, probe)
        assert n_again == n_random, "random-event schedule must be input-independent"
        columns[:, k] = outcomes ^ base

    rng = np.random.default_rng(seed)
    if n_random > 0:
        draws = rng.integers(0, 2, size=(shots, n_random), dtype=np.uint8)
        bits = (draws.astype(np.int64) @ columns.T.astype(np.int64) + base) % 2
        bits = bits.astype(np.uint8)
    else:
        bits = np.broadcast_to(base, (shots, n_meas))

    rows, counts = np.unique(bits, axis=0, return_counts=True)
    return {
        "".join("1" if b else "0" for b in row): int(c)
        for row, c in zip(rows, counts)
    }


def tv_distance(exact: dict[str, float], hist: dict[str, int], shots: int) -> float:
    keys = set(exact) | set(hist)
    return 0.5 * sum(abs(exact.get(k, 0.0) - hist.get(k, 0) / shots) for k in keys)


_CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z")


def random_clifford_circuit(
    rng: random.Random,
    n: int,
    m: int,
    measured: int | None = None,
    mid_measures: int = 0,
) -> Circuit:
    """m Clifford gates on n qubits, optional mid-circuit measures, terminal readout."""
    ops: list[GateOp] = []
    for _ in range(m):
        if n >= 2 and rng.random() < 0.35:
            c, t = rng.sample(range(n), 2)
            ops.append(gate(rng.choice(("cnot", "cz")), c, t))
        else:
            ops.append(gate(rng.choice(_CLIFFORD_1Q), rng.randrange(n)))
    for _ in range(mid_measures):
        ops.insert(rng.randrange(1, len(ops)), gate("measure", rng.randrange(n)))
    k = min(n, 5) if measured is None else measured
    for q in sorted(rng.sample(range(n), k)):
        ops.append(gate("measure", q))
    return Circuit.from_gates(n, ops)


def random_low_t_circuit(
    rng: random.Random,
    n: int,
    m: int,
    t: int,
    measured: int | None = None,
    mid_measures: int = 0,
) -> Circuit:
    """Clifford body of m gates (and any mid-circuit measures) with exactly t
    T/Tdg gates mixed in."""
    body = random_clifford_circuit(rng, n, m, measured=0, mid_measures=mid_measures)
    ops = [g for g in body.gates()]
    for _ in range(t):
        ops.insert(rng.randrange(len(ops) + 1), gate(rng.choice(("t", "tdg")), rng.randrange(n)))
    k = min(n, 5) if measured is None else measured
    for q in sorted(rng.sample(range(n), k)):
        ops.append(gate("measure", q))
    return Circuit.from_gates(n, ops)


def random_mixed_circuit(rng: random.Random, n: int, m: int) -> Circuit:
    """Measure-free circuit over the full gate alphabet; some angles land on
    the pi/4 grid so exact-synthesis paths get exercised alongside approximation."""

    def angle() -> float:
        if rng.random() < 0.3:
            return rng.randrange(8) * math.pi / 4.0
        return rng.uniform(0.0, 2.0 * math.pi)

    ops: list[GateOp] = []
    for _ in range(m):
        r = rng.random()
        if n >= 2 and r < 0.2:
            c, t = rng.sample(range(n), 2)
            ops.append(gate(rng.choice(("cnot", "cz")), c, t))
        elif r < 0.45:
            ops.append(gate(rng.choice(_CLIFFORD_1Q + ("t", "tdg")), rng.randrange(n)))
        elif r < 0.8:
            kind = rng.choice(("u1", "rx", "ry", "rz"))
            ops.append(gate(kind, rng.randrange(n), angles=(angle(),)))
        elif r < 0.9:
            ops.append(gate("u2", rng.randrange(n), angles=(angle(), angle())))
        else:
            ops.append(gate("u3", rng.randrange(n), angles=(angle(), angle(), angle())))
    return Circuit.from_gates(n, ops)
