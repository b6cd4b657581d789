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

``reference_parse_circuit`` and ``reference_t_count`` are the per-line parser
and the per-gate T-count loop that the columnar parser and the array pricing
replaced: one ``GateOp`` per line, layered by ``Circuit.from_gates``, and one
scalar factor decomposition per gate.
"""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from qtriage.circuit import (
    ANGLE_TOL,
    AXIS_KINDS,
    RESTRICTED_KINDS,
    T_KINDS,
    TWO_PI,
    Circuit,
    GateKind,
    GateOp,
    ParseError,
    gate,
    normalize_angle,
)
from qtriage.dense import apply_gate, gate_matrix
from qtriage.synthesis import ApproxTable, default_table
from qtriage.tableau import Tableau, apply_clifford, measure_with_source
from qtriage.transpiler import (
    DEFAULT_COUNT_OFFSET,
    DEFAULT_COUNT_SLOPE,
    LayerTally,
    TCountReport,
    count_mode_t_cost,
)


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


_KIND_BY_TOKEN = {k.value: k for k in GateKind}
_GATE_RE = re.compile(
    r"^(?P<kind>[a-z][a-z0-9]*)"
    r"(?:\((?P<angles>[^)]*)\))?"
    r"(?P<rest>(?:\s+\S+)*)\s*$"
)


def reference_parse_circuit(text: str) -> Circuit:
    """The per-line parser: one GateOp per gate line, then greedy layering.

    It reads a header count or qubit index with ``str.isdigit``, so non-ASCII
    digits get through to ``int`` (which fails on superscripts and reads
    Arabic-Indic digits as numbers).
    """
    n_qubits: int | None = None
    metadata: str | None = None
    gates_out: list[GateOp] = []
    barriers: set[int] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col0 = line.index(stripped[0]) + 1

        head = stripped.split(None, 1)[0]
        if head == "qubits":
            if n_qubits is not None:
                raise ParseError(lineno, col0, "duplicate qubits header")
            if gates_out:
                raise ParseError(lineno, col0, "qubits header must come first")
            parts = stripped.split()
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise ParseError(lineno, col0, "expected `qubits <positive int>`")
            n_qubits = int(parts[1])
            continue
        if n_qubits is None:
            raise ParseError(lineno, col0, "missing `qubits <n>` header")
        if head == "layer":
            if stripped != "layer":
                raise ParseError(lineno, col0, "`layer` takes no arguments")
            barriers.add(len(gates_out))
            continue
        if head == "name":
            metadata = stripped.split(None, 1)[1] if " " in stripped else ""
            continue

        m = _GATE_RE.match(stripped)
        if m is None:
            raise ParseError(lineno, col0, f"cannot parse gate line: {stripped!r}")
        kind_tok = m.group("kind")
        kind = _KIND_BY_TOKEN.get(kind_tok)
        if kind is None:
            raise ParseError(lineno, col0, f"unknown gate kind {kind_tok!r}")

        angles: tuple[float, ...] = ()
        if m.group("angles") is not None:
            acol = col0 + len(kind_tok)
            toks = [t.strip() for t in m.group("angles").split(",")]
            if toks == [""]:
                toks = []
            try:
                angles = tuple(float(t) for t in toks)
            except ValueError:
                raise ParseError(lineno, acol, f"bad angle list {m.group('angles')!r}")

        rest = m.group("rest").split()
        qcol = col0 + len(stripped) - len(m.group("rest").lstrip() or "")
        qubits: list[int] = []
        for tok in rest:
            if not tok.isdigit():
                raise ParseError(lineno, qcol, f"bad qubit index {tok!r}")
            qubits.append(int(tok))

        try:
            g = GateOp(kind, tuple(qubits), angles)
        except ValueError as exc:
            raise ParseError(lineno, col0, str(exc))
        for q in qubits:
            if q >= n_qubits:
                raise ParseError(
                    lineno, qcol, f"qubit {q} out of range (n_qubits={n_qubits})"
                )
        gates_out.append(g)

    if n_qubits is None:
        raise ParseError(1, 1, "missing `qubits <n>` header")
    return Circuit.from_gates(
        n_qubits, gates_out, barriers=barriers, metadata=metadata
    )


def _reference_grid(theta: float, step: float = math.pi / 4.0) -> int | None:
    k = round(theta / step)
    if abs(theta - k * step) <= ANGLE_TOL:
        return k % round(TWO_PI / step)
    return None


def _reference_factors(g: GateOp) -> list[tuple[GateKind, float, int | None]]:
    """Single-axis factors of one gate, as the per-gate pricing split it."""
    z, x = (GateKind.RZ, math.pi, 4), (GateKind.RX, math.pi, 4)
    paulis = {GateKind.X: [x], GateKind.Y: [z, x], GateKind.Z: [z]}

    def factor(axis: GateKind, theta: float) -> tuple[GateKind, float, int | None]:
        return (axis, theta, _reference_grid(theta))

    if g.kind in paulis:
        return paulis[g.kind]
    if g.kind in AXIS_KINDS:
        return [factor(GateKind.RZ if g.kind is GateKind.U1 else g.kind, g.angles[0])]
    if g.kind is GateKind.U2:
        lam, phi = g.angles
        theta, late, early = math.pi / 2.0, lam, phi
    else:
        theta, late, early = g.angles
        half_turns = _reference_grid(theta, step=math.pi)
        if half_turns == 0:
            merged = factor(GateKind.RZ, normalize_angle(early + late))
            return [] if merged[2] == 0 else [merged]
        if half_turns == 1:
            merged = factor(GateKind.RZ, normalize_angle(early - late + math.pi))
            return [x] if merged[2] == 0 else [merged, x]
    return [
        factor(GateKind.RZ, early),
        factor(GateKind.RY, theta),
        factor(GateKind.RZ, late),
    ]


def reference_gate_price(g: GateOp, epsilon: float, slope: float, offset: int) -> tuple[bool, int]:
    """(Clifford?, COUNT-mode T price) of one non-measure gate."""
    if g.kind in RESTRICTED_KINDS or g.kind is GateKind.CZ:
        return g.kind not in T_KINDS, int(g.kind in T_KINDS)
    ks = [k for _, _, k in _reference_factors(g)]
    if None not in ks and not any(k % 2 for k in ks):
        return True, 0
    return False, sum(
        count_mode_t_cost(epsilon, slope, offset) if k is None else k % 2 for k in ks
    )


def reference_t_count(
    circuit: Circuit,
    epsilon: float,
    count_slope: float = DEFAULT_COUNT_SLOPE,
    count_offset: int = DEFAULT_COUNT_OFFSET,
) -> TCountReport:
    """The per-gate T-count loop over the circuit's GateOp layers."""
    tallies: list[LayerTally] = []
    t_full = t_sym = clifford_count = 0
    prev_hot = False
    for li, layer in enumerate(circuit.layers):
        layer_t, hot = 0, False
        for g in layer:
            if g.is_measure:
                continue
            clifford, t_used = reference_gate_price(g, epsilon, count_slope, count_offset)
            if clifford:
                clifford_count += 1
                continue
            hot = True
            layer_t += t_used
        charge = 1 if hot and not prev_hot else 0
        t_sym += charge
        t_full += layer_t
        tallies.append(LayerTally(li, layer_t, charge))
        prev_hot = hot
    return TCountReport(t_full, t_sym, epsilon, clifford_count, tuple(tallies))


# --- circuit texts for the parser fuzz tests -------------------------------

_SPACES = st.sampled_from([" ", "  ", "\t", " ", "\x1f"])
_QUBIT_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "07", "12", "99999999999999999999999", "-1", "q0", "0,1", "(", "²", "٣"]
)
_ANGLE_TOKENS = st.sampled_from(
    ["0.5", " 1.25 ", "-3.75", "1e3", "6.283185307179586", "nan", "inf", "-inf", "a", "", " ", "1_0", "\x1f1.5"]
)
_KIND_TOKENS = st.sampled_from(
    ["h", "cnot", "cz", "u1", "u2", "u3", "rx", "ry", "rz", "t", "tdg", "x", "y", "measure",
     "frob", "H", "h0", "qubits", "layer", "name", "1h", "é"]
)


@st.composite
def _gate_lines(draw) -> str:
    line = draw(_KIND_TOKENS)
    if draw(st.booleans()):
        angles = draw(st.lists(_ANGLE_TOKENS, max_size=4))
        line += "(" + draw(st.sampled_from([",", ", "])).join(angles) + draw(st.sampled_from([")", "", ")x"]))
    for tok in draw(st.lists(_QUBIT_TOKENS, max_size=3)):
        line += draw(_SPACES) + tok
    return line


_OTHER_LINES = st.sampled_from(
    ["qubits 1", "qubits 2", "qubits 4", "qubits 99999999999999999999999999", "qubits 0", "qubits x",
     "qubits 2 3", "qubits", "qubits(2)", "qubits ²", "layer", "layer now", "layer(1)", "name",
     "name foo bar", "name\tfoo", "name\tfoo bar", "# comment", "", "   "]
)


@st.composite
def circuit_texts(draw) -> str:
    """Circuit texts mixing valid and broken lines, comments, odd spacing and
    line ends, huge counts and indices, and non-ASCII digits."""
    lines = [draw(st.sampled_from(["qubits 4", "qubits 99999999999999999999999999", ""]))]
    for _ in range(draw(st.integers(0, 12))):
        line = draw(st.one_of(_gate_lines(), _OTHER_LINES))
        line = draw(st.sampled_from(["", " ", "\t"])) + line
        line += draw(st.sampled_from(["", " ", "\t", "# c", "  #x"]))
        lines.append(line)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r", "\n\n"])) for _ in lines]
    return "".join(a + b for a, b in zip(lines, ends))[: None if draw(st.booleans()) else -1]
