"""Engine tests: histograms against the exact branching oracle, plus cost model."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from qtriage import dense, simulate
from qtriage.cli import _low_t_circuit
from qtriage.circuit import T_KINDS, Circuit, GateKind, GateOp, gate, parse_circuit
from qtriage.dense import statevector
from qtriage.simulate import (
    BRANCH_KINDS,
    BudgetError,
    Regime,
    RegimeError,
    render_histogram,
    run_clifford,
    run_extended,
    sim_cost,
)
from qtriage.transpiler import TranspiledCircuit

from conftest import (
    exact_distribution,
    random_clifford_circuit,
    random_low_t_circuit,
    reference_run_clifford,
    tv_distance,
)

GHZ = "qubits 3\nh 0\ncnot 0 1\ncnot 1 2\nmeasure 0\nmeasure 1\nmeasure 2\n"


def test_ghz_splits_evenly() -> None:
    hist = run_clifford(parse_circuit(GHZ), 8000, seed=7)
    assert set(hist) == {"000", "111"}
    assert sum(hist.values()) == 8000
    # binomial 3 sigma around 4000 is about 134
    assert abs(hist["000"] - 4000) < 140


def test_deterministic_outcome_is_exact() -> None:
    hist = run_clifford(parse_circuit("qubits 2\nx 0\nmeasure 0\nmeasure 1\n"), 500, seed=0)
    assert hist == {"10": 500}


def test_no_measures_gives_empty_key() -> None:
    assert run_clifford(parse_circuit("qubits 1\nh 0\n"), 100, seed=0) == {"": 100}


def test_same_seed_same_histogram() -> None:
    c = parse_circuit(GHZ)
    assert run_clifford(c, 1000, seed=42) == run_clifford(c, 1000, seed=42)


def test_shots_must_be_positive() -> None:
    with pytest.raises(ValueError):
        run_clifford(parse_circuit(GHZ), 0, seed=0)


def test_clifford_engine_rejects_t_gpointing_to_extended() -> None:
    with pytest.raises(RegimeError) as exc:
        run_clifford(parse_circuit("qubits 1\nt 0\nmeasure 0\n"), 10, seed=0)
    assert "run_extended" in str(exc.value)
    with pytest.raises(RegimeError) as exc:
        run_clifford(parse_circuit("qubits 1\nrz(0.3) 0\nmeasure 0\n"), 10, seed=0)
    assert "transpile" in str(exc.value)


@pytest.mark.parametrize("seed", range(8))
def test_clifford_histograms_track_exact_distribution(seed: int) -> None:
    rng = random.Random(seed)
    c = random_clifford_circuit(rng, rng.randint(2, 6), rng.randint(5, 60))
    exact = exact_distribution(c)
    shots = 50_000
    hist = run_clifford(c, shots, seed=seed + 100)
    assert sum(hist.values()) == shots
    assert set(hist) <= set(exact)  # never sample an impossible outcome
    assert tv_distance(exact, hist, shots) <= 0.02


@pytest.mark.parametrize("seed", range(3))
def test_clifford_mid_circuit_measures(seed: int) -> None:
    rng = random.Random(1000 + seed)
    c = random_clifford_circuit(rng, 4, 30, measured=3, mid_measures=2)
    exact = exact_distribution(c)
    hist = run_clifford(c, 50_000, seed=seed)
    assert set(hist) <= set(exact)
    assert tv_distance(exact, hist, 50_000) <= 0.02


def _equivalence_circuit(seed: int) -> Circuit:
    """Seeded Clifford circuit over the whole gate set; every fifth is free of
    H (so fully deterministic), some add repeated measures or measure nothing."""
    rng = random.Random(5000 + seed)
    n = rng.randint(1, 8)
    no_measures = seed % 7 == 3
    c = random_clifford_circuit(
        rng,
        n,
        rng.randint(2, 8 * n),
        measured=0 if no_measures else rng.randint(1, n),
        mid_measures=0 if no_measures else rng.randint(0, 3),
    )
    ops = list(c.gates())
    if seed % 5 == 0:
        ops = [g for g in ops if g.kind is not GateKind.H]
    if seed % 4 == 1 and not no_measures:
        ops += [gate("measure", rng.randrange(n)) for _ in range(rng.randint(1, 3))]
    return Circuit.from_gates(n, ops)


def test_one_pass_sampler_matches_probe_reference() -> None:
    kinds: set[GateKind] = set()
    shapes = {"no measures": 0, "no h": 0, "with h": 0}
    for seed in range(240):
        c = _equivalence_circuit(seed)
        kinds |= {g.kind for g in c.gates()}
        shots = (1, 17, 300)[seed % 3]
        hist = run_clifford(c, shots, seed)
        assert hist == reference_run_clifford(c, shots, seed), f"circuit seed {seed}"
        assert list(hist) == sorted(hist)
        if seed % 7 == 3:
            assert hist == {"": shots}
            shapes["no measures"] += 1
        elif seed % 5 == 0:
            assert len(hist) == 1  # no H: every outcome is fixed
            shapes["no h"] += 1
        else:
            shapes["with h"] += 1
    assert {"sdg", "x", "y", "z", "cz", "cnot", "h", "s", "measure"} <= {k.value for k in kinds}
    assert min(shapes.values()) >= 25


def test_run_clifford_applies_each_gate_once(monkeypatch) -> None:
    real = simulate.apply_clifford
    calls = []

    def counting(tab, g):
        calls.append(g)
        return real(tab, g)

    monkeypatch.setattr(simulate, "apply_clifford", counting)
    rng = random.Random(11)
    c = random_clifford_circuit(rng, 6, 60, measured=6, mid_measures=3)
    ops = [gate("h", q) for q in range(6)] + list(c.gates())  # many random events
    c = Circuit.from_gates(6, ops)
    assert len(run_clifford(c, 200, seed=0)) > 1
    assert calls == [g for g in c.gates() if not g.is_measure]


def test_extended_single_t_interference() -> None:
    # H T H maps |0> to cos(pi/8)-weighted |0>
    c = parse_circuit("qubits 1\nh 0\nt 0\nh 0\nmeasure 0\n")
    shots = 20_000
    hist, info = run_extended(c, shots, seed=5, return_info=True)
    assert info == {"branches": 2, "n_effective": 1, "t": 1}
    p0 = math.cos(math.pi / 8.0) ** 2
    assert hist["0"] / shots == pytest.approx(p0, abs=0.012)


def test_extended_without_t_delegates_to_clifford() -> None:
    c = parse_circuit(GHZ)
    hist, info = run_extended(c, 3000, seed=9, return_info=True)
    assert hist == run_clifford(c, 3000, seed=9)
    assert info == {"branches": 1, "n_effective": 3, "t": 0}


def test_extended_branch_count_is_two_to_the_t() -> None:
    ops = [gate("h", 0)] + [gate("t", 0)] * 5 + [gate("measure", 0)]
    _, info = run_extended(Circuit.from_gates(1, ops), 50, seed=0, return_info=True)
    assert info["branches"] == 32
    assert info["t"] == 5


def test_extended_budget_wall() -> None:
    ops = [gate("h", 0)] + [gate("t", 0)] * 4 + [gate("measure", 0)]
    c = Circuit.from_gates(1, ops)
    with pytest.raises(BudgetError) as exc:
        run_extended(c, 10, seed=0, t_max=3)
    assert "t=4" in str(exc.value)
    assert run_extended(c, 10, seed=0, t_max=4)  # at the wall is fine


def test_extended_rejects_generic_rotations() -> None:
    with pytest.raises(RegimeError):
        run_extended(parse_circuit("qubits 1\nrz(0.3) 0\nmeasure 0\n"), 10, seed=0)


def test_extended_mid_circuit_measure_is_exact() -> None:
    # the measured qubit is reused afterwards, forcing the ancilla deferral path
    text = "qubits 2\nh 0\nt 0\nmeasure 0\nx 0\ncnot 0 1\nmeasure 0\nmeasure 1\n"
    c = parse_circuit(text)
    exact = exact_distribution(c)
    hist, info = run_extended(c, 50_000, seed=3, return_info=True)
    assert info["n_effective"] == 3  # one ancilla for the reused qubit
    assert set(hist) <= set(exact)
    assert tv_distance(exact, hist, 50_000) <= 0.02


@pytest.mark.parametrize("seed", range(6))
def test_extended_histograms_track_exact_distribution(seed: int) -> None:
    rng = random.Random(50 + seed)
    n = rng.randint(2, 5)
    c = random_low_t_circuit(rng, n, rng.randint(5, 40), rng.randint(1, 6), measured=rng.randint(1, min(4, n)))
    exact = exact_distribution(c)
    shots = 50_000
    hist = run_extended(c, shots, seed=seed)
    assert sum(hist.values()) == shots
    assert tv_distance(exact, hist, shots) <= 0.02


def _histograms_by_sub_block(monkeypatch, c: Circuit, seed: int) -> list[dict[str, int]]:
    """run_extended's histograms with sub-blocks of 1 branch, 3 branches and the default."""
    n_eff = simulate._defer_measures(c)[0]
    sizes = (16 << n_eff, 3 * (16 << n_eff), simulate._SUB_BLOCK_BYTES)
    out = []
    for size in sizes:
        monkeypatch.setattr(simulate, "_SUB_BLOCK_BYTES", size)
        out.append(run_extended(c, 2000, seed=seed))
    return out


def test_sub_block_size_does_not_change_histograms(monkeypatch) -> None:
    rng = random.Random(404)
    for i in range(100):
        n = rng.randint(2, 6)
        # a third get two mid-circuit measures, whose ancillas widen n_eff
        c = random_low_t_circuit(
            rng, n, rng.randint(5, 40), rng.randint(1, 7), mid_measures=2 if i % 3 == 0 else 0
        )
        one, three, default = _histograms_by_sub_block(monkeypatch, c, seed=i)
        assert one == three == default, i


def test_sub_block_size_does_not_change_bench_histograms(monkeypatch) -> None:
    # the criterion-6 bench circuits, where sub-blocks split 256 to 1024 branches
    for t in (8, 9, 10):
        one, three, default = _histograms_by_sub_block(monkeypatch, _low_t_circuit(10, t, t), 0)
        assert one == three == default, t


def _oracle_rows(stream: list[GateOp], n_eff: int, t: int) -> np.ndarray:
    """Row b: the statevector of `stream` with its j-th T gate made I or Z by
    bit j of b."""
    rows = []
    for b in range(1 << t):
        ops, j = [], 0
        for g in stream:
            if g.kind in T_KINDS:
                if (b >> j) & 1:
                    ops.append(GateOp(GateKind.Z, g.qubits))
                j += 1
            else:
                ops.append(g)
        rows.append(statevector(Circuit.from_gates(n_eff, ops)))
    return np.array(rows)


def _assert_branch_rows_match_oracle(c: Circuit) -> None:
    n_eff, stream, _ = simulate._defer_measures(c)
    t = c.count_kinds(T_KINDS)
    want = _oracle_rows(stream, n_eff, t)
    ids = np.arange(1 << t, dtype=np.int64)
    default = max(1, simulate._SUB_BLOCK_BYTES // (16 << n_eff))
    for sub in (1, 3, default):
        got = np.concatenate(
            [simulate._evolve_branches(ids[s : s + sub], stream, n_eff) for s in range(0, len(ids), sub)]
        )
        assert got.shape == want.shape, sub
        assert np.abs(got - want).max() <= 1e-12, sub


@pytest.mark.parametrize("t", range(4, 9))
def test_branch_rows_equal_the_dense_oracle_on_bench_circuits(t: int) -> None:
    _assert_branch_rows_match_oracle(_low_t_circuit(10, t, t))


def test_branch_rows_equal_the_dense_oracle_with_mid_circuit_measures() -> None:
    rng = random.Random(808)
    for _ in range(12):
        # two mid-circuit measures, whose ancillas widen n_eff
        c = random_low_t_circuit(rng, rng.randint(2, 6), rng.randint(5, 40), rng.randint(1, 6), mid_measures=2)
        _assert_branch_rows_match_oracle(c)


def test_branch_engine_runs_without_blas(monkeypatch) -> None:
    # every kind the branch engine takes, with a mid-circuit measure on a
    # qubit used again; the oracle runs before the matrix paths are cut off
    ops = [gate("h", 0), gate("t", 0), gate("cnot", 0, 1), gate("h", 2), gate("tdg", 2)]
    ops += [gate("cz", 2, 1), gate("s", 1), gate("sdg", 2), gate("x", 0), gate("y", 1)]
    ops += [gate("z", 2), gate("measure", 0), gate("h", 0), gate("t", 1), gate("cnot", 1, 0)]
    ops += [gate("measure", q) for q in range(3)]
    c = Circuit.from_gates(3, ops)
    assert {g.kind for g in c.gates()} == BRANCH_KINDS
    exact = exact_distribution(c)

    def refuse(*args, **kwargs):
        raise AssertionError("matrix product in the branch engine")

    monkeypatch.setattr(np, "tensordot", refuse)
    monkeypatch.setattr(dense, "_apply_matrix", refuse)
    shots = 50_000
    hist = run_extended(c, shots, seed=4)
    assert tv_distance(exact, hist, shots) <= 0.02


def test_extended_deterministic_per_seed() -> None:
    rng = random.Random(13)
    c = random_low_t_circuit(rng, 4, 25, 4)
    assert run_extended(c, 5000, seed=2) == run_extended(c, 5000, seed=2)


def test_sim_cost_clifford_regime() -> None:
    est = sim_cost(100, 1000, 0, 0.1)
    assert est.regime is Regime.CLIFFORD_POLY
    assert est.step_bound == 1e7
    assert est.kappa == 1.0


def test_sim_cost_extended_regime() -> None:
    est = sim_cost(10, 100, 3, 0.1)
    assert est.regime is Regime.EXTENDED_EXP
    assert est.kappa == 8.0
    assert est.step_bound == pytest.approx(8 * 27 / 0.01)
    # the prefactor scales linearly
    assert sim_cost(10, 100, 3, 0.1, c=2.0).step_bound == pytest.approx(2 * est.step_bound)


def test_sim_cost_doubles_per_t_gate() -> None:
    lo = sim_cost(10, 100, 10, 0.1).step_bound
    hi = sim_cost(10, 100, 11, 0.1).step_bound
    assert hi / lo == pytest.approx(2.0 * (11 / 10) ** 3)


def test_sim_cost_overflows_to_inf() -> None:
    est = sim_cost(5, 10, 5000, 0.1)
    assert math.isinf(est.step_bound)
    assert math.isinf(est.kappa)


def test_sim_cost_validation() -> None:
    with pytest.raises(ValueError):
        sim_cost(0, 10, 0, 0.1)
    with pytest.raises(ValueError):
        sim_cost(1, -1, 0, 0.1)
    with pytest.raises(ValueError):
        sim_cost(1, 1, -1, 0.1)
    with pytest.raises(ValueError):
        sim_cost(1, 1, 0, 1.0)


def test_render_histogram_sorted() -> None:
    assert render_histogram({"11": 5, "00": 3}) == "00 3\n11 5\n"
    assert render_histogram({}) == ""


@pytest.mark.parametrize(
    "first, second",
    [("rz(0.3)", "t"), ("t", "rz(0.3)"), ("ry(0.3)", "rz(0.3)"), ("rz(0.3)", "ry(0.3)")],
)
def test_regime_errors_name_the_first_offending_gate(first: str, second: str) -> None:
    c = parse_circuit(f"qubits 2\nh 0\n{first} 1\nlayer\ncnot 0 1\n{second} 0\nmeasure 0\n")
    names = [first.split("(")[0], second.split("(")[0]]
    with pytest.raises(RegimeError, match=f"^{names[0]} is not a tableau Clifford;"):
        run_clifford(c, 10, seed=0)
    rotation = next(name for name in names if name != "t")
    with pytest.raises(RegimeError, match=f"^{rotation} is outside Clifford\\+T;"):
        run_extended(c, 10, seed=0)
    with pytest.raises(ValueError, match=f"^unexpected kind {rotation} after lowering$"):
        TranspiledCircuit(c, (), 0.0, 0)


def test_unsampleable_shot_counts_are_refused(monkeypatch) -> None:
    t_circuit = parse_circuit("qubits 2\nh 0\nt 0\ncnot 0 1\nmeasure 0\nmeasure 1\n")
    assert sum(run_extended(t_circuit, 2**63 - 1, seed=0).values()) == 2**63 - 1
    with pytest.raises(ValueError, match="^sampling 9223372036854775808 shots"):
        run_clifford(parse_circuit(GHZ), 2**63, seed=0)

    def evolved(*args: object) -> None:
        raise AssertionError("the branch engine evolved a state")

    monkeypatch.setattr(simulate, "_evolve_branches", evolved)
    with pytest.raises(ValueError, match="^sampling 9223372036854775808 shots is past"):
        run_extended(t_circuit, 2**63, seed=0)
