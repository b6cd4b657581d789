"""Simulation engines and their closed-form cost models.

run_clifford: polynomial tableau simulation. Measurement outcomes of a
stabilizer run are affine over GF(2) in the random branch bits (the X/Z
structure never depends on drawn bits, and sign bits accumulate linearly).
The tableau carries each sign as such an affine form, so one pass with all
draws zero yields the whole map, and any number of shots is then one binary
matrix product.

run_extended: exact dense expansion of each T gate into two Clifford branches
(T = a*I + b*Z), evolving all 2^t branch statevectors and sampling from the
recombined amplitudes. Deliberately the naive expansion; the 2^t growth is
the point. Branches are evolved in sub-blocks of 512 KiB that run every
gate before the next sub-block starts, so each sub-block stays in cache while
`dense.apply_gate` updates its Clifford gates in place. Inside a sub-block the
branch axis comes last, so every slice a gate touches is a run of whole rows
of branches, and a T gate's Z term is a +-1 vector over that axis.

Shots and branches are embarrassingly parallel; a Tableau instance itself
must never be shared between concurrent workers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import CLIFFORD_KINDS, MEASURE_KINDS, T_KINDS, Circuit, GateKind, GateOp
from .dense import apply_gate
from .tableau import (
    MAX_TABLEAU_BYTES,
    RegimeError,
    Tableau,
    apply_clifford,
    check_tableau_budget,
    measure_affine,
)

DEFAULT_T_MAX = 16

# branch-chunk memory budget for the extended engine, in bytes
_CHUNK_BUDGET = 1 << 28
# bytes of branch states evolved together inside a chunk: each sub-block runs
# every gate before the next starts, so it stays in a core's L2 cache. Of
# 0.5, 1, 2 and 4 MiB, 0.5 MiB ran the n = 10, t = 10 and t = 11 bench
# circuits fastest on a 2-core host with 2 MiB of L2 per core.
_SUB_BLOCK_BYTES = 1 << 19

# kinds each engine runs: the tableau's Cliffords, and those plus T/Tdg
TABLEAU_KINDS = CLIFFORD_KINDS | MEASURE_KINDS
BRANCH_KINDS = TABLEAU_KINDS | T_KINDS
_MAX_SAMPLED_SHOTS = int(np.iinfo(np.int64).max)  # numpy's multinomial takes int64

_T_COEFFS = {
    # T = a*I + b*Z and likewise for Tdg, from diag(1, e^{+-i pi/4})
    GateKind.T: (
        (1.0 + cmath.exp(0.25j * math.pi)) / 2.0,
        (1.0 - cmath.exp(0.25j * math.pi)) / 2.0,
    ),
    GateKind.TDG: (
        (1.0 + cmath.exp(-0.25j * math.pi)) / 2.0,
        (1.0 - cmath.exp(-0.25j * math.pi)) / 2.0,
    ),
}


class BudgetError(ValueError):
    """T-count exceeds the extended engine's configured wall (t_max)."""


class Regime(Enum):
    CLIFFORD_POLY = "CliffordPoly"
    EXTENDED_EXP = "ExtendedExp"


@dataclass(frozen=True)
class ClassicalCostEstimate:
    """Abstract step-count model for classical simulation of one circuit."""

    regime: Regime
    step_bound: float
    kappa: float
    t: int
    epsilon: float


def sim_cost(n: int, m: int, t: int, epsilon: float, c: float = 1.0) -> ClassicalCostEstimate:
    """Closed-form cost: c*n^2*m when t = 0, else c*2^t*t^3/epsilon^2.

    kappa is the stabilizer branch count, 2^t (1 for pure Clifford). Values
    overflow to inf rather than raising; callers rendering reports handle
    non-finite bounds explicitly.
    """
    if n < 1 or m < 0 or t < 0:
        raise ValueError("n >= 1, m >= 0, t >= 0 required")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if t == 0:
        return ClassicalCostEstimate(
            Regime.CLIFFORD_POLY, c * float(n) ** 2 * m, 1.0, 0, epsilon
        )
    try:
        kappa = float(2.0**t)
    except OverflowError:
        kappa = math.inf
    step = c * kappa * float(t) ** 3 / (epsilon * epsilon)
    return ClassicalCostEstimate(Regime.EXTENDED_EXP, step, kappa, t, epsilon)


def run_clifford(circuit: Circuit, shots: int, seed: int) -> dict[str, int]:
    """Histogram over measured bitstrings (measure-gate order), total = shots.

    One tableau pass with every random draw zero gives the base outcomes and
    each outcome's coefficients over the k random events; each shot then
    draws k bits and reads its outcomes off that affine map.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    bad = circuit.first_kind_outside(TABLEAU_KINDS)
    if bad is not None:
        raise RegimeError(
            f"{bad.value} is not a tableau Clifford; use run_extended for "
            f"T gates, or transpile generic rotations first"
        )
    n_meas = circuit.count_kinds(MEASURE_KINDS)
    check_tableau_budget(circuit.n_qubits, n_meas)
    if n_meas == 0:
        return {"": shots}

    tab = Tableau(circuit.n_qubits)
    outcomes: list[int] = []
    forms: list[np.ndarray] = []
    for g in circuit.gates():
        if g.is_measure:
            out, _, form = measure_affine(tab, g.qubits[0], lambda: 0)
            outcomes.append(out)
            forms.append(form)
        else:
            apply_clifford(tab, g)
    base = np.array(outcomes, dtype=np.uint8)
    n_random = tab.random_events
    # draws (shots x k), columns (n_meas x k) and parity (shots x n_meas),
    # each once as uint8 and once as float64
    need = 9 * (n_random * (shots + n_meas) + shots * n_meas)
    if need > MAX_TABLEAU_BYTES:
        raise ValueError(
            f"sampling {shots} shots of {n_meas} measurements over {n_random} "
            f"random events needs {need} bytes, past the "
            f"{MAX_TABLEAU_BYTES}-byte budget"
        )
    columns = np.zeros((n_meas, n_random), dtype=np.uint8)
    for row, form in zip(columns, forms):
        row[: len(form)] = form

    rng = np.random.default_rng(seed)
    if n_random > 0:
        draws = rng.integers(0, 2, size=(shots, n_random), dtype=np.uint8)
        # float64 sums of 0/1 products are exact integers, and BLAS is fast
        parity = draws.astype(np.float64) @ columns.T.astype(np.float64)
        bits = (parity % 2).astype(np.uint8) ^ base
    else:
        bits = np.broadcast_to(base, (shots, n_meas))

    rows, counts = np.unique(bits, axis=0, return_counts=True)
    text = (rows + ord("0")).tobytes().decode("ascii")
    return {
        text[i * n_meas : (i + 1) * n_meas]: int(c) for i, c in enumerate(counts)
    }


def _defer_measures(
    circuit: Circuit,
) -> tuple[int, list[GateOp], list[int]]:
    """Rewrite mid-circuit measures for the unitary branch engine.

    Any measured qubit that is touched again later is routed through a fresh
    ancilla via CNOT (exact: the IR has no classical control). Returns the
    effective qubit count, the unitary gate stream, and the qubits to read out
    at the end, in original measure order.
    """
    gates = list(circuit.gates())
    last_use = {}
    for pos, g in enumerate(gates):
        for q in g.qubits:
            last_use[q] = pos

    n_eff = circuit.n_qubits
    stream: list[GateOp] = []
    readout: list[int] = []
    for pos, g in enumerate(gates):
        if not g.is_measure:
            stream.append(g)
            continue
        q = g.qubits[0]
        if last_use[q] > pos:
            anc = n_eff
            n_eff += 1
            stream.append(GateOp(GateKind.CNOT, (q, anc)))
            readout.append(anc)
        else:
            readout.append(q)
    return n_eff, stream, readout


def _evolve_branches(ids: np.ndarray, stream: list[GateOp], n_eff: int) -> np.ndarray:
    """Final states of the branches numbered `ids`, shape (len(ids), 2**n_eff).

    Bit j of a branch's number picks the Z term of the stream's j-th T gate,
    so `ids` must be the global numbers, not positions in a sub-block.
    """
    # qubit q is axis q; the branch axis is last
    states = np.zeros((2,) * n_eff + (len(ids),), dtype=complex)
    states[(0,) * n_eff] = 1.0
    t_seen = 0
    for g in stream:
        if g.kind in _T_COEFFS:
            branch_bit = (ids >> t_seen) & 1
            t_seen += 1
            if branch_bit.any():
                # the Z branch flips the sign of the |1> half of the T qubit:
                # real and imaginary parts times +-1 per branch
                parts = states.view(np.float64).reshape(1 << g.qubits[0], 2, -1, len(ids), 2)
                parts[:, 1] *= (1.0 - 2.0 * branch_bit)[:, None]
        else:
            states = apply_gate(states, g)
    return states.reshape(-1, len(ids)).T


def run_extended(
    circuit: Circuit,
    shots: int,
    seed: int,
    t_max: int = DEFAULT_T_MAX,
    return_info: bool = False,
) -> dict[str, int] | tuple[dict[str, int], dict[str, int]]:
    """Exact low-T simulation by 2^t Clifford-branch expansion.

    Every T/Tdg splits the state into an identity branch and a Z branch;
    branches evolve as dense vectors and recombine before sampling. Each
    chunk of branches (up to _CHUNK_BUDGET bytes) is one block that is
    recombined with one weights @ block product; inside it, sub-blocks of
    _SUB_BLOCK_BYTES run every gate in turn and write their final states into
    the block. Measures are deferred exactly; see _defer_measures.

    Raises:
        BudgetError: more than t_max T gates.
        RegimeError: a gate outside Clifford + T/Tdg + Measure.
        ValueError: more measured shots than numpy can sample.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    bad = circuit.first_kind_outside(BRANCH_KINDS)
    if bad is not None:
        raise RegimeError(f"{bad.value} is outside Clifford+T; transpile first")
    t = circuit.count_kinds(T_KINDS)
    if t > t_max:
        raise BudgetError(
            f"t={t} exceeds t_max={t_max}: extended simulation cost doubles "
            f"per T gate (2^t branches)"
        )
    if t == 0:
        hist = run_clifford(circuit, shots, seed)
        if return_info:
            return hist, {"branches": 1, "n_effective": circuit.n_qubits, "t": 0}
        return hist

    n_eff, stream, readout = _defer_measures(circuit)
    dim = 1 << n_eff
    if 16 * dim > _CHUNK_BUDGET:
        raise ValueError(
            f"extended engine needs {n_eff} dense qubits (with deferred "
            f"measures): one branch state takes {16 * dim} bytes, past the "
            f"{_CHUNK_BUDGET}-byte budget"
        )
    if readout and shots > _MAX_SAMPLED_SHOTS:
        raise ValueError(
            f"sampling {shots} shots is past numpy's {_MAX_SAMPLED_SHOTS}-shot limit"
        )
    branches = 1 << t
    chunk = max(1, min(branches, _CHUNK_BUDGET // (16 * dim)))
    sub = max(1, _SUB_BLOCK_BYTES // (16 * dim))
    t_gates = [g for g in stream if g.kind in _T_COEFFS]

    psi = np.zeros(dim, dtype=complex)
    processed = 0
    for start in range(0, branches, chunk):
        ids = np.arange(start, min(start + chunk, branches), dtype=np.int64)
        weights = np.ones(len(ids), dtype=complex)
        for j, g in enumerate(t_gates):
            a_coef, b_coef = _T_COEFFS[g.kind]
            branch_bit = ((ids >> j) & 1).astype(bool)
            weights = np.where(branch_bit, weights * b_coef, weights * a_coef)
        block = np.empty((len(ids), dim), dtype=complex)
        for s in range(0, len(ids), sub):
            block[s : s + sub] = _evolve_branches(ids[s : s + sub], stream, n_eff)
        psi += weights @ block
        processed += len(ids)
    assert processed == branches, "branch count must be exactly 2^t"

    probs = np.abs(psi) ** 2
    total = probs.sum()
    assert abs(total - 1.0) < 1e-9, f"branch recombination lost norm: {total}"
    probs /= total

    if not readout:
        hist: dict[str, int] = {"": shots}
    else:
        tensor = probs.reshape((2,) * n_eff)
        keep = sorted(set(readout))
        drop = tuple(ax for ax in range(n_eff) if ax not in keep)
        marginal = tensor.sum(axis=drop) if drop else tensor
        order = [keep.index(q) for q in readout]
        marginal = np.transpose(marginal, order)
        p = marginal.reshape(-1)
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(shots, p / p.sum())
        width = len(readout)
        hist = {
            format(i, f"0{width}b"): int(c)
            for i, c in enumerate(counts)
            if c > 0
        }

    if return_info:
        return hist, {"branches": branches, "n_effective": n_eff, "t": t}
    return hist


def render_histogram(hist: dict[str, int]) -> str:
    """Serialize as `bitstring count` lines sorted by bitstring."""
    return "".join(f"{k} {hist[k]}\n" for k in sorted(hist))
