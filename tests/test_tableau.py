"""Stabilizer tableau tests, cross-checked against dense Born probabilities."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtriage.circuit import Circuit, gate
from qtriage.dense import statevector
from qtriage.tableau import (
    MAX_TABLEAU_BYTES,
    RegimeError,
    Tableau,
    apply_clifford,
    check_tableau_budget,
    measure,
    measure_affine,
    measure_with_source,
)

from conftest import random_clifford_circuit


def _apply_all(tab: Tableau, ops) -> Tableau:
    for g in ops:
        apply_clifford(tab, g)
    return tab


def test_initial_state_stabilizers() -> None:
    assert Tableau(1).stabilizer_strings() == ["+Z"]
    assert Tableau(3).stabilizer_strings() == ["+ZII", "+IZI", "+IIZ"]


def test_hadamard_and_phase() -> None:
    tab = apply_clifford(Tableau(1), gate("h", 0))
    assert tab.stabilizer_strings() == ["+X"]
    apply_clifford(tab, gate("s", 0))
    assert tab.stabilizer_strings() == ["+Y"]
    apply_clifford(tab, gate("s", 0))
    assert tab.stabilizer_strings() == ["-X"]  # S S = Z on |+>


def test_z_on_plus_matches_s_squared() -> None:
    a = _apply_all(Tableau(1), [gate("h", 0), gate("z", 0)])
    b = _apply_all(Tableau(1), [gate("h", 0), gate("s", 0), gate("s", 0)])
    assert a.stabilizer_strings() == b.stabilizer_strings()


def _random_prefix(seed: int) -> Tableau:
    """Tableau after a seeded random Clifford circuit with two measurements."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    c = random_clifford_circuit(rng, n, rng.randint(5, 40), measured=0)
    tab = _apply_all(Tableau(n), c.gates())
    for _ in range(2):
        measure_with_source(tab, rng.randrange(n), lambda: rng.randint(0, 1))
    return tab


def _assert_same_tableau(a: Tableau, b: Tableau) -> None:
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.r, b.r)


def test_sdg_is_s_cubed() -> None:
    for seed in range(20):
        a = _random_prefix(seed)
        b = a.copy()
        for q in range(a.n):
            apply_clifford(a, gate("sdg", q))
            _apply_all(b, [gate("s", q)] * 3)
            _assert_same_tableau(a, b)


def test_y_is_s_x_sdg() -> None:
    for seed in range(20):
        a = _random_prefix(seed)
        b = a.copy()
        for q in range(a.n):
            apply_clifford(a, gate("y", q))
            # Sdg written as S^3, so the reference shares no code with Y or Sdg
            _apply_all(b, [gate("s", q)] * 3 + [gate("x", q), gate("s", q)])
            _assert_same_tableau(a, b)


def test_cz_matches_conjugated_cnot() -> None:
    ops = [gate("h", 0), gate("h", 1)]
    a = _apply_all(Tableau(2), ops + [gate("cz", 0, 1)])
    b = _apply_all(Tableau(2), ops + [gate("h", 1), gate("cnot", 0, 1), gate("h", 1)])
    assert a.stabilizer_strings() == b.stabilizer_strings()


def test_bell_stabilizers() -> None:
    tab = _apply_all(Tableau(2), [gate("h", 0), gate("cnot", 0, 1)])
    assert tab.stabilizer_strings() == ["+XX", "+ZZ"]


def test_non_clifford_gate_is_rejected() -> None:
    with pytest.raises(RegimeError) as exc:
        apply_clifford(Tableau(1), gate("t", 0))
    assert "run_extended" in str(exc.value)
    with pytest.raises(RegimeError):
        apply_clifford(Tableau(1), gate("rz", 0, angles=[0.3]))


def test_measure_deterministic_zero_state() -> None:
    tab = Tableau(2)
    outcome, was_random = measure_with_source(tab, 0, lambda: 1)
    assert (outcome, was_random) == (0, False)  # the forced bit is never consulted


def test_measure_after_x_is_one() -> None:
    tab = apply_clifford(Tableau(1), gate("x", 0))
    outcome, was_random = measure_with_source(tab, 0, lambda: 0)
    assert (outcome, was_random) == (1, False)


@pytest.mark.parametrize("forced", [0, 1])
def test_random_measure_takes_source_bit(forced: int) -> None:
    tab = apply_clifford(Tableau(1), gate("h", 0))
    outcome, was_random = measure_with_source(tab, 0, lambda: forced)
    assert (outcome, was_random) == (forced, True)
    # collapsed: repeating the measurement is deterministic with the same result
    again, was_random = measure_with_source(tab, 0, lambda: 1 - forced)
    assert (again, was_random) == (forced, False)


@pytest.mark.parametrize("forced", [0, 1])
def test_bell_measurements_agree(forced: int) -> None:
    tab = _apply_all(Tableau(2), [gate("h", 0), gate("cnot", 0, 1)])
    first, was_random = measure_with_source(tab, 0, lambda: forced)
    assert was_random
    second, was_random = measure_with_source(tab, 1, lambda: 1 - forced)
    assert not was_random
    assert second == first == forced


def test_measure_rng_wrapper() -> None:
    tab = apply_clifford(Tableau(1), gate("h", 0))
    outcome, same = measure(tab, 0, np.random.default_rng(3))
    assert same is tab
    assert outcome in (0, 1)


def test_measure_rejects_bad_qubit() -> None:
    with pytest.raises(ValueError):
        measure_with_source(Tableau(2), 2, lambda: 0)


def test_copy_is_independent() -> None:
    tab = apply_clifford(Tableau(1), gate("h", 0))
    snap = tab.copy()
    apply_clifford(tab, gate("s", 0))
    assert snap.stabilizer_strings() == ["+X"]
    assert tab.stabilizer_strings() == ["+Y"]


def _symplectic_ok(tab: Tableau) -> bool:
    n = tab.n
    x, z = tab.x.astype(int), tab.z.astype(int)

    def commutes(i: int, j: int) -> bool:
        return (x[i] @ z[j] + z[i] @ x[j]) % 2 == 0

    for i in range(n, 2 * n):
        for j in range(n, 2 * n):
            if not commutes(i, j):
                return False
    for i in range(n):
        if commutes(i, i + n):  # destabilizer i must anticommute with stabilizer i
            return False
        for j in range(n, 2 * n):
            if j != i + n and not commutes(i, j):
                return False
    return True


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_symplectic_invariants_survive_gates_and_measures(seed: int) -> None:
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    c = random_clifford_circuit(rng, n, rng.randint(0, 30), measured=0)
    tab = Tableau(n)
    for g in c.gates():
        apply_clifford(tab, g)
    for _ in range(3):
        measure_with_source(tab, rng.randrange(n), lambda: rng.randint(0, 1))
        assert _symplectic_ok(tab)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_random_or_deterministic_matches_born_rule(seed: int) -> None:
    # stabilizer states only ever give 0/1 or 50/50 Z outcomes; the tableau's
    # deterministic/random verdict must match the dense probability
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    c = random_clifford_circuit(rng, n, rng.randint(1, 25), measured=0)
    psi = statevector(c)
    probs = np.abs(psi.reshape((2,) * n)) ** 2

    tab = Tableau(n)
    for g in c.gates():
        apply_clifford(tab, g)
    for q in range(n):
        p_one = float(probs.sum(axis=tuple(i for i in range(n) if i != q))[1])
        outcome, was_random = measure_with_source(tab.copy(), q, lambda: 0)
        if was_random:
            assert p_one == pytest.approx(0.5, abs=1e-9)
        else:
            assert p_one == pytest.approx(float(outcome), abs=1e-9)


def _measured_run(c: Circuit, source) -> tuple[list[int], list[np.ndarray], int]:
    tab = Tableau(c.n_qubits)
    outcomes, forms = [], []
    for g in c.gates():
        if g.is_measure:
            outcome, _, form = measure_affine(tab, g.qubits[0], source)
            outcomes.append(outcome)
            forms.append(form)
        else:
            apply_clifford(tab, g)
    return outcomes, forms, tab.random_events


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_sign_forms_predict_outcomes_under_any_draws(seed: int) -> None:
    # one zero-draw pass gives outcome = base ^ form @ draws for every draw vector
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    c = random_clifford_circuit(rng, n, rng.randint(2, 40), measured=n, mid_measures=3)
    base, forms, events = _measured_run(c, lambda: 0)
    draws = [rng.randint(0, 1) for _ in range(events)]
    it = iter(draws)
    outcomes, _, again = _measured_run(c, lambda: next(it))
    assert again == events
    predicted = [(b + int(f @ np.array(draws[: len(f)], dtype=np.int64))) % 2 for b, f in zip(base, forms)]
    assert outcomes == predicted


def test_random_event_gets_a_fresh_unit_column() -> None:
    tab = _apply_all(Tableau(2), [gate("h", 0), gate("h", 1)])
    assert measure_affine(tab, 0, lambda: 0)[1:2] == (True,)
    outcome, was_random, form = measure_affine(tab, 1, lambda: 1)
    assert (outcome, was_random, form.tolist()) == (1, True, [0, 1])
    assert tab.random_events == 2
    # the repeat is deterministic and its form is the earlier event's column
    assert measure_affine(tab, 1, lambda: 0)[2].tolist() == [0, 1]
    snap = tab.copy()
    measure_affine(tab, 0, lambda: 0)
    assert snap.random_events == 2 and snap.coef is not tab.coef


def test_tableau_budget_is_checked_before_allocation() -> None:
    with pytest.raises(ValueError, match=r"3000000 qubits .* bytes"):
        Tableau(3_000_000)
    # the coefficient columns count against the same budget
    n = 1024
    fits = MAX_TABLEAU_BYTES // (2 * n) - 2 * n
    check_tableau_budget(n, fits)
    with pytest.raises(ValueError, match="1024 qubits"):
        check_tableau_budget(n, fits + 1)
