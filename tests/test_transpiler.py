"""Lowering and T-counting tests.

Exact synthesis is judged by dense unitary fidelity; COUNT-mode prices are
judged against the closed-form ceil(slope * log2(1/eps)) + offset, evaluated
here independently.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtriage.ansatz import AnsatzKind, build_ansatz, param_count
from qtriage import circuit as circuit_module, transpiler
from qtriage.circuit import (
    ANGLE_TOL,
    KIND_CODE,
    Circuit,
    GateKind,
    GateOp,
    gate,
    parse_circuit,
    render_circuit,
)
from qtriage.dense import gate_matrix, phase_insensitive_fidelity, su2_distance, unitary_of
from qtriage.synthesis import ApproxTable, SynthesisError
from qtriage.transpiler import (
    RESTRICTED_KINDS,
    GateClass,
    SynthesisMode,
    TCountReport,
    TranspiledCircuit,
    classify_gate,
    count_mode_t_cost,
    synthesize_approx,
    synthesize_exact,
    t_count,
    transpile,
)

from conftest import random_mixed_circuit, reference_t_count

PI = math.pi
GRID = [k * PI / 4.0 for k in range(8)]


def _fid(seq: list[GateOp], g: GateOp, n: int = 1) -> float:
    a = unitary_of(Circuit.from_gates(n, seq)) if seq else unitary_of(Circuit(n))
    b = unitary_of(Circuit.from_gates(n, [g]))
    return phase_insensitive_fidelity(a, b)


# --- classification ---------------------------------------------------------


@pytest.mark.parametrize("kind", ["h", "s", "sdg", "x", "y", "z"])
def test_fixed_cliffords(kind: str) -> None:
    assert classify_gate(gate(kind, 0)) is GateClass.CLIFFORD


def test_two_qubit_cliffords() -> None:
    assert classify_gate(gate("cnot", 0, 1)) is GateClass.CLIFFORD
    assert classify_gate(gate("cz", 0, 1)) is GateClass.CLIFFORD


def test_t_gates_classify_t_exact() -> None:
    assert classify_gate(gate("t", 0)) is GateClass.T_EXACT
    assert classify_gate(gate("tdg", 0)) is GateClass.T_EXACT


@pytest.mark.parametrize("kind", ["u1", "rz", "rx", "ry"])
def test_axis_rotation_grid_classes(kind: str) -> None:
    for k, theta in enumerate(GRID):
        want = GateClass.CLIFFORD if k % 2 == 0 else GateClass.T_EXACT
        assert classify_gate(gate(kind, 0, angles=[theta])) is want
    assert classify_gate(gate(kind, 0, angles=[0.3])) is GateClass.NON_CLIFFORD_ROTATION


def test_composite_classification() -> None:
    assert classify_gate(gate("u2", 0, angles=[0.0, PI])) is GateClass.CLIFFORD
    assert classify_gate(gate("u2", 0, angles=[PI / 4, 0.0])) is GateClass.T_EXACT
    assert classify_gate(gate("u2", 0, angles=[0.3, 0.0])) is GateClass.NON_CLIFFORD_ROTATION
    assert classify_gate(gate("u3", 0, angles=[0.3, 0.0, 0.0])) is GateClass.NON_CLIFFORD_ROTATION


def test_degenerate_u3_folds_before_classifying() -> None:
    # RY angle 0: the two diagonal angles merge, so pi/4 + 7pi/4 = 2pi is Clifford
    assert classify_gate(gate("u3", 0, angles=[0.0, PI / 4, 7 * PI / 4])) is GateClass.CLIFFORD
    assert classify_gate(gate("u3", 0, angles=[0.0, PI / 4, 0.0])) is GateClass.T_EXACT
    # RY angle pi: generic diagonal angles can still cancel
    assert classify_gate(gate("u3", 0, angles=[PI, 0.3, 0.3])) is GateClass.CLIFFORD
    assert classify_gate(gate("u3", 0, angles=[PI, 0.3, 0.4])) is GateClass.NON_CLIFFORD_ROTATION


def test_measure_has_no_class() -> None:
    with pytest.raises(ValueError):
        classify_gate(gate("measure", 0))


# --- exact synthesis ---------------------------------------------------------


def test_named_grid_points_lower_to_single_gates() -> None:
    assert [g.kind for g in synthesize_exact(gate("u1", 0, angles=[PI / 4]))] == [GateKind.T]
    assert [g.kind for g in synthesize_exact(gate("u1", 0, angles=[PI / 2]))] == [GateKind.S]
    assert [g.kind for g in synthesize_exact(gate("u1", 0, angles=[3 * PI / 2]))] == [GateKind.SDG]
    assert [g.kind for g in synthesize_exact(gate("u1", 0, angles=[7 * PI / 4]))] == [GateKind.TDG]
    assert [g.kind for g in synthesize_exact(gate("u2", 0, angles=[0.0, PI]))] == [GateKind.H]


def test_restricted_gates_pass_through() -> None:
    for kind in ("h", "s", "sdg", "t", "tdg"):
        assert synthesize_exact(gate(kind, 0)) == [gate(kind, 0)]
    assert synthesize_exact(gate("cnot", 1, 0)) == [gate("cnot", 1, 0)]


def test_cz_lowering() -> None:
    seq = synthesize_exact(gate("cz", 0, 1))
    assert [g.kind for g in seq] == [GateKind.H, GateKind.CNOT, GateKind.H]
    assert seq[0].qubits == (1,) and seq[2].qubits == (1,)
    assert _fid(seq, gate("cz", 0, 1), n=2) == pytest.approx(1.0)


def test_single_diagonal_rotation_uses_at_most_one_t() -> None:
    for k, theta in enumerate(GRID):
        seq = synthesize_exact(gate("rz", 0, angles=[theta]))
        n_t = sum(1 for g in seq if g.kind in (GateKind.T, GateKind.TDG))
        assert n_t == (1 if k % 2 == 1 else 0)


@pytest.mark.parametrize("kind", ["u1", "rz", "rx", "ry"])
def test_exact_axis_rotations_match_unitary(kind: str) -> None:
    for theta in GRID:
        g = gate(kind, 0, angles=[theta])
        seq = synthesize_exact(g)
        assert all(s.kind in RESTRICTED_KINDS for s in seq)
        assert _fid(seq, g) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["x", "y", "z"])
def test_exact_paulis_match_unitary(kind: str) -> None:
    seq = synthesize_exact(gate(kind, 0))
    assert all(s.kind in RESTRICTED_KINDS for s in seq)
    assert _fid(seq, gate(kind, 0)) == pytest.approx(1.0, abs=1e-12)


def test_exact_u2_u3_sweep() -> None:
    for lam in GRID:
        for phi in GRID:
            g = gate("u2", 0, angles=[lam, phi])
            assert _fid(synthesize_exact(g), g) == pytest.approx(1.0, abs=1e-12)
    for theta in (0.0, PI / 4, PI, 3 * PI / 2):
        for phi in GRID:
            for gam in (0.0, PI / 4, PI, 7 * PI / 4):
                g = gate("u3", 0, angles=[theta, phi, gam])
                assert _fid(synthesize_exact(g), g) == pytest.approx(1.0, abs=1e-12)


def test_folded_u3_with_generic_angles_synthesizes() -> None:
    g = gate("u3", 0, angles=[PI, 0.3, 0.3])
    seq = synthesize_exact(g)
    assert _fid(seq, g) == pytest.approx(1.0, abs=1e-12)


def test_generic_angle_refuses_exact_path() -> None:
    with pytest.raises(SynthesisError):
        synthesize_exact(gate("rz", 0, angles=[0.3]))
    with pytest.raises(SynthesisError):
        synthesize_exact(gate("u3", 0, angles=[0.5, 0.6, 0.7]))


# --- COUNT pricing -----------------------------------------------------------


def test_count_formula_reference_points() -> None:
    assert count_mode_t_cost(1e-10) == 104
    assert count_mode_t_cost(1e-2) == 24
    assert count_mode_t_cost(1e-1) == math.ceil(3.0 * math.log2(10.0)) + 4


def test_count_formula_overrides() -> None:
    assert count_mode_t_cost(1e-2, slope=0.0, offset=7) == 7
    assert count_mode_t_cost(0.5, slope=2.0, offset=0) == 2


def test_count_formula_rejects_bad_epsilon() -> None:
    for eps in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            count_mode_t_cost(eps)


@given(st.floats(1e-12, 0.5), st.floats(1e-12, 0.5))
def test_count_formula_monotone(e1: float, e2: float) -> None:
    lo, hi = min(e1, e2), max(e1, e2)
    assert count_mode_t_cost(lo) >= count_mode_t_cost(hi)


# --- per-gate approximation ---------------------------------------------------


def test_synthesize_approx_count_mode_emits_nothing() -> None:
    seq, t_used, err = synthesize_approx(gate("rz", 0, angles=[0.3]), 1e-2)
    assert seq == []
    assert t_used == 24
    assert err == 1e-2


def test_synthesize_approx_grid_fallback_ignores_epsilon() -> None:
    # exact path: zero error even when epsilon is below the sequence floor
    for mode in SynthesisMode:
        seq, t_used, err = synthesize_approx(gate("rz", 0, angles=[PI / 4]), 1e-9, mode)
        assert [g.kind for g in seq] == [GateKind.T]
        assert (t_used, err) == (1, 0.0)


@pytest.mark.parametrize("kind", ["u1", "rz", "rx", "ry"])
def test_synthesize_approx_sequence_mode(kind: str, approx_table: ApproxTable) -> None:
    g = gate(kind, 0, angles=[0.85])
    seq, t_used, err = synthesize_approx(
        g, 1e-2, SynthesisMode.SEQUENCE, table=approx_table
    )
    assert err <= 1e-2
    assert t_used == sum(1 for s in seq if s.kind in (GateKind.T, GateKind.TDG))
    mat = unitary_of(Circuit.from_gates(1, seq))
    assert su2_distance(mat, gate_matrix(g)) == pytest.approx(err, abs=1e-9)


def test_synthesize_approx_rejects_non_axis_kinds() -> None:
    with pytest.raises(SynthesisError):
        synthesize_approx(gate("h", 0), 1e-2)
    with pytest.raises(SynthesisError):
        synthesize_approx(gate("u3", 0, angles=[0.1, 0.2, 0.3]), 1e-2)


# --- whole-circuit lowering ----------------------------------------------------


def test_transpile_clifford_t_circuit_is_untouched() -> None:
    c = parse_circuit("qubits 2\nh 0\ncnot 0 1\nt 1\nmeasure 0\nmeasure 1\n")
    for mode in SynthesisMode:
        out = transpile(c, 1e-2, mode)
        assert list(out.circuit.gates()) == list(c.gates())
        assert out.approx_rotations == 0
        assert out.approx_error == 0.0
        assert out.source_map == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))


def test_transpile_count_mode_drops_priced_rotations() -> None:
    c = parse_circuit("qubits 1\nh 0\nrz(0.3) 0\nt 0\n")
    out = transpile(c, 1e-2, SynthesisMode.COUNT)
    assert [g.kind for g in out.circuit.gates()] == [GateKind.H, GateKind.T]
    assert out.source_map == ((0, 1), (1, 1), (1, 2))
    assert out.approx_rotations == 1
    assert out.approx_error == 1e-2


def test_transpile_preserves_metadata_and_qubits() -> None:
    c = Circuit.from_gates(3, [gate("u1", 2, angles=[PI / 4])], metadata="tag")
    out = transpile(c, 1e-2, SynthesisMode.COUNT)
    assert out.circuit.metadata == "tag"
    assert list(out.circuit.gates()) == [gate("t", 2)]


@settings(deadline=None, max_examples=12)
@given(seed=st.integers(0, 2**32 - 1))
def test_transpile_sequence_mode_is_faithful(seed: int, approx_table: ApproxTable) -> None:
    rng = random.Random(seed)
    c = random_mixed_circuit(rng, rng.randint(1, 3), rng.randint(1, 6))
    out = transpile(c, 1e-2, SynthesisMode.SEQUENCE, table=approx_table)

    assert all(g.kind in RESTRICTED_KINDS for g in out.circuit.gates())
    assert out.approx_error <= out.approx_rotations * 1e-2 + 1e-15

    # source_map is a partition of the emitted stream, in order
    emitted = list(out.circuit.gates())
    pos = 0
    for start, end in out.source_map:
        assert start == pos and end >= start
        pos = end
    assert pos == len(emitted)

    fid = phase_insensitive_fidelity(unitary_of(c), unitary_of(out.circuit))
    assert fid >= 1.0 - out.approx_error - 1e-9


def test_transpiled_circuit_rejects_foreign_kinds() -> None:
    bad = Circuit.from_gates(1, [gate("rz", 0, angles=[0.3])])
    with pytest.raises(ValueError):
        TranspiledCircuit(bad, ((0, 1),), 0.0, 0)


# --- T counting ----------------------------------------------------------------


def test_t_count_clifford_circuit() -> None:
    rep = t_count(parse_circuit("qubits 2\nh 0\ncnot 0 1\n"), 1e-2)
    assert (rep.t_full, rep.t_sym) == (0, 0)
    assert rep.clifford_count == 2
    assert all(t.t_full == 0 and t.t_sym == 0 for t in rep.breakdown)


def test_t_count_single_rotation_prices_by_formula() -> None:
    c = parse_circuit("qubits 1\nrz(0.3) 0\n")
    assert t_count(c, 1e-2).t_full == 24
    assert t_count(c, 1e-10).t_full == 104
    assert t_count(c, 1e-2).t_sym == 1
    assert t_count(c, 1e-2, count_slope=0.0, count_offset=1).t_full == 1


def test_t_count_exact_t_gates_cost_one() -> None:
    rep = t_count(parse_circuit("qubits 1\nt 0\nh 0\ntdg 0\n"), 1e-2)
    assert rep.t_full == 2
    assert rep.t_sym == 2  # the Clifford layer splits the run
    assert rep.clifford_count == 1


def test_t_sym_counts_maximal_runs() -> None:
    text = "qubits 1\nrz(0.3) 0\nlayer\nrz(0.4) 0\nlayer\nh 0\nlayer\nrz(0.5) 0\n"
    rep = t_count(parse_circuit(text), 1e-2)
    assert rep.t_full == 72
    assert rep.t_sym == 2
    assert [t.t_sym for t in rep.breakdown] == [1, 0, 0, 1]  # charge on run heads
    assert sum(t.t_full for t in rep.breakdown) == rep.t_full


def test_t_count_skips_measures() -> None:
    rep = t_count(parse_circuit("qubits 1\nmeasure 0\n"), 1e-2)
    assert (rep.t_full, rep.t_sym, rep.clifford_count) == (0, 0, 0)


def test_strongly_entangling_full_price() -> None:
    # depth 3 on 4 qubits: 12 generic U3 gates, three rotations each
    params = [0.1 + 0.01 * i for i in range(param_count(AnsatzKind.STRONGLY_ENTANGLING, 4, 3))]
    c = build_ansatz(AnsatzKind.STRONGLY_ENTANGLING, 4, 3, params)
    rep = t_count(c, 1e-2)
    assert rep.t_full == 36 * 24
    assert rep.t_sym == 3


@pytest.mark.parametrize("kind", list(AnsatzKind))
@pytest.mark.parametrize("depth", [1, 2, 5])
def test_t_sym_equals_ansatz_depth(kind: AnsatzKind, depth: int) -> None:
    rng = random.Random(depth)
    params = [rng.uniform(0.1, 1.0) for _ in range(param_count(kind, 5, depth))]
    assert t_count(build_ansatz(kind, 5, depth, params), 1e-2).t_sym == depth


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_t_count_invariants(seed: int) -> None:
    rng = random.Random(seed)
    c = random_mixed_circuit(rng, rng.randint(1, 4), rng.randint(0, 15))
    coarse, fine = t_count(c, 1e-2), t_count(c, 1e-4)
    assert coarse.t_sym == fine.t_sym  # policy charge is epsilon-free
    assert coarse.t_full <= fine.t_full
    assert coarse.t_sym <= coarse.t_full
    assert len(coarse.breakdown) == c.depth
    assert sum(t.t_full for t in coarse.breakdown) == coarse.t_full
    assert sum(t.t_sym for t in coarse.breakdown) == coarse.t_sym


def test_synthetic_report_without_breakdown_is_allowed() -> None:
    rep = TCountReport(100, 3, 1e-2, 0, ())
    assert rep.t_sym == 3


# --- one pass per gate -----------------------------------------------------------


def _grid_adjacent_gates(seed: int, count: int) -> list[GateOp]:
    """Rotations whose angles sit on the pi/4 grid, within ANGLE_TOL of it,
    or just outside it."""
    rng = random.Random(seed)
    offsets = (0.0, 0.5 * ANGLE_TOL, -0.5 * ANGLE_TOL, 3 * ANGLE_TOL, -3 * ANGLE_TOL)

    def angle() -> float:
        return rng.randrange(8) * PI / 4 + rng.choice(offsets)

    arity = {"u1": 1, "rz": 1, "rx": 1, "ry": 1, "u2": 2, "u3": 3}
    kinds = rng.choices(list(arity), k=count)
    return [gate(k, 0, angles=[angle() for _ in range(arity[k])]) for k in kinds]


def test_exact_path_agrees_with_class_and_count_on_grid_edges() -> None:
    gates = _grid_adjacent_gates(2026, 600)
    classes = Counter(classify_gate(g) for g in gates)
    assert all(classes[c] > 50 for c in GateClass)  # every branch is exercised
    for g in gates:
        exact = classify_gate(g) is not GateClass.NON_CLIFFORD_ROTATION
        try:
            seq = synthesize_exact(g)
        except SynthesisError:
            assert not exact, g
            continue
        assert exact, g
        c = Circuit.from_gates(1, [g])
        lowered = transpile(c, 1e-2, SynthesisMode.SEQUENCE).circuit
        emitted_t = sum(
            1 for s in lowered.gates() if s.kind in (GateKind.T, GateKind.TDG)
        )
        assert t_count(c, 1e-2).t_full == emitted_t, g
        assert list(lowered.gates()) == seq


def test_t_count_decomposes_each_composite_once(monkeypatch) -> None:
    rng = random.Random(5)
    c = parse_circuit(render_circuit(random_mixed_circuit(rng, 4, 300)))
    kinds = c.columns.kinds.copy()
    composites = np.isin(kinds, [KIND_CODE[GateKind.U2], KIND_CODE[GateKind.U3]])
    assert np.count_nonzero(composites) > 30
    passes: list[np.ndarray] = []
    built: list[object] = []
    plan, post_init, layers_of = transpiler._factor_plan, GateOp.__post_init__, circuit_module._layers_of_columns

    def counting_plan(kinds: np.ndarray, angles: np.ndarray):
        passes.append(kinds.copy())
        return plan(kinds, angles)

    def counting_post_init(self: GateOp) -> None:
        built.append(self)
        post_init(self)

    def counting_layers(cols):
        built.append(cols)
        return layers_of(cols)

    monkeypatch.setattr(transpiler, "_factor_plan", counting_plan)
    monkeypatch.setattr(GateOp, "__post_init__", counting_post_init)
    monkeypatch.setattr(circuit_module, "_layers_of_columns", counting_layers)
    t_count(c, 1e-2)
    # the array passes decompose every gate, each composite once
    assert np.array_equal(np.concatenate(passes), kinds)
    assert built == []  # COUNT pricing builds no GateOp, not even the layers
    assert len(c.layers) == c.depth and built  # the layers come on demand


def _edge_angle(rng: random.Random) -> float:
    """On the pi/4 grid, within ANGLE_TOL of it, 3 ANGLE_TOL off it, or generic."""
    k = rng.randrange(-8, 17) * PI / 4.0
    return rng.choice(
        (k, k + 0.5 * ANGLE_TOL, k - 0.9 * ANGLE_TOL, k + 3 * ANGLE_TOL, k - 3 * ANGLE_TOL, rng.uniform(-7.0, 13.0))
    )


def _edge_circuit(rng: random.Random) -> Circuit:
    n = rng.randint(1, 5)
    ops: list[GateOp] = []
    for _ in range(rng.randint(0, 40)):
        kind = rng.choice(list(GateKind))
        if kind in (GateKind.CNOT, GateKind.CZ):
            if n < 2:
                continue
            ops.append(gate(kind, *rng.sample(range(n), 2)))
            continue
        q = rng.randrange(n)
        if kind is GateKind.U3 and rng.random() < 0.4:
            # theta on the pi grid folds the two diagonal factors
            theta = rng.randrange(-2, 5) * PI + rng.choice((0.0, 0.5 * ANGLE_TOL, 3 * ANGLE_TOL))
            ops.append(gate(kind, q, angles=(theta, _edge_angle(rng), _edge_angle(rng))))
        elif kind is GateKind.U2 and rng.random() < 0.3:
            ops.append(gate(kind, q, angles=(0.0, PI)))  # the Hadamard
        else:
            arity = {GateKind.U1: 1, GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1, GateKind.U2: 2, GateKind.U3: 3}
            ops.append(gate(kind, q, angles=[_edge_angle(rng) for _ in range(arity.get(kind, 0))]))
    barriers = rng.sample(range(len(ops) + 1), min(3, len(ops) + 1))
    return Circuit.from_gates(n, ops, barriers=barriers)


@pytest.mark.parametrize("block", [transpiler._PRICE_BLOCK, 7])
def test_t_count_matches_the_per_gate_reference_on_seeded_circuits(block: int, monkeypatch) -> None:
    # a small block prices every circuit over several passes
    monkeypatch.setattr(transpiler, "_PRICE_BLOCK", block)
    kinds_seen: set[GateKind] = set()
    for seed in range(300):
        rng = random.Random(seed)
        c = _edge_circuit(rng)
        kinds_seen |= {g.kind for g in c.gates()}
        epsilon = rng.choice((1e-1, 1e-2, 1e-3))
        slope, offset = rng.choice(((3.0, 4), (1.5, 0), (7.25, 11)))
        want = reference_t_count(c, epsilon, slope, offset)
        assert t_count(c, epsilon, count_slope=slope, count_offset=offset) == want, seed
        # the same circuit parsed from text prices from its parsed columns
        parsed = parse_circuit(render_circuit(c))
        assert t_count(parsed, epsilon, count_slope=slope, count_offset=offset) == want, seed
    assert kinds_seen == set(GateKind)


def test_t_count_without_generic_rotations_never_reads_epsilon() -> None:
    c = Circuit.from_gates(2, [gate("t", 0), gate("cnot", 0, 1), gate("rz", 1, angles=[PI / 4.0])])
    assert t_count(c, 0.0).t_full == reference_t_count(c, 0.0).t_full == 2
    with pytest.raises(ValueError):
        t_count(Circuit.from_gates(1, [gate("rz", 0, angles=[0.3])]), 0.0)
