"""Dense reference semantics against hand-typed matrix literals.

Everything else in the suite leans on this module as ground truth, so the
expected values here are written out longhand rather than computed.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtriage.circuit import Circuit, GateKind, gate, parse_circuit
from qtriage.dense import (
    apply_gate,
    gate_matrix,
    phase_insensitive_fidelity,
    statevector,
    su2_distance,
    unitary_of,
)

from qtriage.synthesis import ApproxTable
from qtriage.transpiler import SynthesisMode, transpile

from conftest import (
    matrix_product_apply,
    random_mixed_circuit,
    reference_statevector,
    reference_unitary,
)

_SQ2 = 1.0 / math.sqrt(2.0)
_E = cmath.exp


def test_fixed_gate_matrices() -> None:
    assert np.allclose(gate_matrix(gate("h", 0)), _SQ2 * np.array([[1, 1], [1, -1]]))
    assert np.allclose(gate_matrix(gate("x", 0)), [[0, 1], [1, 0]])
    assert np.allclose(gate_matrix(gate("y", 0)), [[0, -1j], [1j, 0]])
    assert np.allclose(gate_matrix(gate("z", 0)), [[1, 0], [0, -1]])
    assert np.allclose(gate_matrix(gate("s", 0)), [[1, 0], [0, 1j]])
    assert np.allclose(gate_matrix(gate("sdg", 0)), [[1, 0], [0, -1j]])
    assert np.allclose(gate_matrix(gate("t", 0)), [[1, 0], [0, _SQ2 + _SQ2 * 1j]])
    assert np.allclose(gate_matrix(gate("tdg", 0)), [[1, 0], [0, _SQ2 - _SQ2 * 1j]])


def test_two_qubit_matrices() -> None:
    cnot = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert np.array_equal(gate_matrix(gate("cnot", 0, 1)), cnot)
    assert np.array_equal(gate_matrix(gate("cz", 0, 1)), np.diag([1, 1, 1, -1]))


def test_u1_diagonal_phase() -> None:
    lam = 0.7
    assert np.allclose(gate_matrix(gate("u1", 0, angles=[lam])), [[1, 0], [0, _E(1j * lam)]])
    assert np.allclose(gate_matrix(gate("u1", 0, angles=[math.pi / 4])), gate_matrix(gate("t", 0)))
    assert np.allclose(gate_matrix(gate("u1", 0, angles=[math.pi / 2])), gate_matrix(gate("s", 0)))


def test_u2_matches_formula_and_hadamard_point() -> None:
    lam, phi = 0.4, 1.1
    want = _SQ2 * np.array(
        [[1.0, -_E(1j * phi)], [_E(1j * lam), _E(1j * (lam + phi))]]
    )
    assert np.allclose(gate_matrix(gate("u2", 0, angles=[lam, phi])), want)
    assert np.allclose(
        gate_matrix(gate("u2", 0, angles=[0.0, math.pi])), gate_matrix(gate("h", 0))
    )


def test_u3_factorization_and_u2_embedding() -> None:
    lam, phi, gam = 0.9, 2.2, 5.1
    u3 = gate_matrix(gate("u3", 0, angles=[lam, phi, gam]))
    u1_phi = gate_matrix(gate("u1", 0, angles=[phi]))
    ry = gate_matrix(gate("ry", 0, angles=[lam]))
    u1_gam = gate_matrix(gate("u1", 0, angles=[gam]))
    assert np.allclose(u3, u1_phi @ ry @ u1_gam)
    u2 = gate_matrix(gate("u2", 0, angles=[lam, phi]))
    assert np.allclose(u2, gate_matrix(gate("u3", 0, angles=[math.pi / 2, lam, phi])))


@given(
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 2.0 * math.pi),
)
def test_u3_is_unitary(lam: float, phi: float, gam: float) -> None:
    u = gate_matrix(gate("u3", 0, angles=[lam, phi, gam]))
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


def test_rotation_gates() -> None:
    th = 1.3
    c, s = math.cos(th / 2), math.sin(th / 2)
    assert np.allclose(gate_matrix(gate("rx", 0, angles=[th])), [[c, -1j * s], [-1j * s, c]])
    assert np.allclose(gate_matrix(gate("ry", 0, angles=[th])), [[c, -s], [s, c]])
    assert np.allclose(
        gate_matrix(gate("rz", 0, angles=[th])),
        [[_E(-0.5j * th), 0], [0, _E(0.5j * th)]],
    )
    # RZ and U1 agree up to global phase only
    assert su2_distance(
        gate_matrix(gate("rz", 0, angles=[th])), gate_matrix(gate("u1", 0, angles=[th]))
    ) < 1e-12


def test_measure_has_no_matrix() -> None:
    with pytest.raises(ValueError):
        gate_matrix(gate("measure", 0))
    with pytest.raises(ValueError):
        statevector(parse_circuit("qubits 1\nh 0\nmeasure 0\n"))
    with pytest.raises(ValueError):
        unitary_of(parse_circuit("qubits 1\nmeasure 0\n"))


def test_statevector_bell() -> None:
    psi = statevector(parse_circuit("qubits 2\nh 0\ncnot 0 1\n"))
    assert np.allclose(psi, [_SQ2, 0.0, 0.0, _SQ2])


def test_statevector_qubit_order() -> None:
    # qubit 0 is the leftmost printed bit, i.e. the most significant index bit
    psi = statevector(Circuit.from_gates(2, [gate("x", 0)]))
    assert np.allclose(psi, [0.0, 0.0, 1.0, 0.0])


def test_empty_circuit_unitary_is_identity() -> None:
    assert np.array_equal(unitary_of(Circuit(2)), np.eye(4))


def test_unitary_respects_gate_order() -> None:
    c = parse_circuit("qubits 1\nh 0\ns 0\n")
    want = gate_matrix(gate("s", 0)) @ gate_matrix(gate("h", 0))
    assert np.allclose(unitary_of(c), want)


def test_size_cap() -> None:
    with pytest.raises(ValueError):
        unitary_of(Circuit(13))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_random_circuit_unitarity(seed: int) -> None:
    rng = random.Random(seed)
    c = random_mixed_circuit(rng, rng.randint(1, 5), rng.randint(1, 20))
    u = unitary_of(c)
    dim = 2**c.n_qubits
    assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-10)


def test_phase_insensitive_fidelity() -> None:
    u = gate_matrix(gate("h", 0))
    assert phase_insensitive_fidelity(u, u) == pytest.approx(1.0)
    assert phase_insensitive_fidelity(u, _E(0.3j) * u) == pytest.approx(1.0)
    assert phase_insensitive_fidelity(u, gate_matrix(gate("s", 0))) < 1.0


def test_su2_distance_small_angle() -> None:
    # distance for RZ(theta) vs identity is 2 sin(theta/4)
    th = 0.2
    d = su2_distance(gate_matrix(gate("rz", 0, angles=[th])), np.eye(2))
    assert d == pytest.approx(2.0 * math.sin(th / 4.0), abs=1e-12)


_ANGLES = {"u1": 1, "u2": 2, "u3": 3, "rx": 1, "ry": 1, "rz": 1}  # the rest take none


@pytest.mark.parametrize("n", [2, 3, 4])
def test_apply_gate_on_a_branch_block_matches_each_row(n: int) -> None:
    # the branch engine's (branch, 2, ..., 2) block, first=1, against one row
    # at a time: exact from n = 3; at n = 2 a row is a 1- or 2-column product
    # that BLAS rounds by another kernel (up to 4.5e-16 apart), so only close
    rng = np.random.default_rng(n)
    block = rng.normal(size=(5,) + (2,) * n) + 1j * rng.normal(size=(5,) + (2,) * n)
    for kind in GateKind:
        if kind is GateKind.MEASURE:
            continue
        angles = tuple(rng.uniform(0.0, 2.0 * math.pi, _ANGLES.get(kind.value, 0)))
        # every qubit, and every ordered pair for CNOT and CZ
        arity = 2 if kind in (GateKind.CNOT, GateKind.CZ) else 1
        for qubits in itertools.permutations(range(n), arity):
            g = gate(kind, *qubits, angles=angles)
            # apply_gate may overwrite its input, so each call gets a copy
            got = apply_gate(block.copy(), g, first=1)
            want = np.stack([apply_gate(row.copy(), g) for row in block])
            if n >= 3:
                assert np.array_equal(got, want), (kind, qubits)
            else:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("first", [0, 1])
def test_in_place_kinds_equal_the_matrix_product_bit_for_bit(first: int) -> None:
    # a leading branch axis when first = 1 and a trailing axis as unitary_of has
    n = 4
    shape = (3,) * first + (2,) * n + (5,)
    rng = np.random.default_rng(first)
    block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    block.real[rng.random(shape) < 0.2] = 0.0
    block.imag[rng.random(shape) < 0.2] = 0.0
    block[rng.random(shape) < 0.1] = 0.0
    for kind in ("x", "y", "z", "s", "sdg", "cnot", "cz"):
        arity = 2 if kind in ("cnot", "cz") else 1
        for qubits in itertools.permutations(range(n), arity):
            g = gate(kind, *qubits)
            got = apply_gate(block.copy(), g, first=first)
            want = np.ascontiguousarray(matrix_product_apply(block, g, first=first))
            assert np.array_equal(got, want), (kind, qubits)


@pytest.mark.parametrize("first", [0, 1])
def test_in_place_h_matches_the_matrix_product(first: int) -> None:
    # elementwise sums and scalings round differently from the product, so
    # close rather than equal; amplitudes in the unit square keep the
    # rounding of both well under 1e-15
    n = 4
    shape = (3,) * first + (2,) * n + (5,)
    rng = np.random.default_rng(10 + first)
    block = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    for q in range(n):
        g = gate("h", q)
        got = apply_gate(block.copy(), g, first=first)
        want = matrix_product_apply(block, g, first=first)
        assert np.abs(got - want).max() <= 1e-15, q


def test_apply_gate_returns_contiguous_arrays() -> None:
    tensor = np.ones((3, 2, 2, 2), dtype=complex)
    for g in (gate("h", 1), gate("ry", 2, angles=[0.3]), gate("x", 0), gate("cnot", 2, 0)):
        tensor = apply_gate(tensor, g, first=1)
        assert tensor.flags.c_contiguous, g.kind


def test_fused_oracle_matches_the_per_gate_product() -> None:
    rng = random.Random(2718)
    for _ in range(200):
        c = random_mixed_circuit(rng, rng.randint(1, 5), rng.randint(1, 40))
        assert np.abs(unitary_of(c) - reference_unitary(c)).max() <= 1e-12
        assert np.abs(statevector(c) - reference_statevector(c)).max() <= 1e-12


def test_fused_oracle_on_sequence_lowered_circuits(approx_table: ApproxTable) -> None:
    # thousands of H/S/T gates between CNOTs: long runs to fuse
    rng = random.Random(3141)
    for _ in range(3):
        c = random_mixed_circuit(rng, rng.randint(2, 4), 10)
        lowered = transpile(c, 1e-3, SynthesisMode.SEQUENCE, table=approx_table).circuit
        assert np.abs(unitary_of(lowered) - reference_unitary(lowered)).max() <= 1e-12
        assert np.abs(statevector(lowered) - reference_statevector(lowered)).max() <= 1e-12
