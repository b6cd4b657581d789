"""Dense matrix oracle: exact gate matrices, statevector and full-unitary builds.

This is the reference semantics the simulators and the transpiler are tested
against. Sizes are capped (n <= 12 for unitary_of) since the build is dense.
`apply_gate` is the one tensordot gate-apply kernel: the branch engine in
`simulate` applies its Clifford gates with it too, on a leading branch axis.

The parameterized single-qubit family:

    U1(lam) = diag(1, e^{i lam})
    U2(lam, phi) = (1/sqrt(2)) [[1, -e^{i phi}], [e^{i lam}, e^{i(lam+phi)}]]
    U3(lam, phi, gam) = [[cos(lam/2),            -e^{i gam} sin(lam/2)],
                         [e^{i phi} sin(lam/2),  e^{i(phi+gam)} cos(lam/2)]]

so U1(pi/4) = T, U1(pi/2) = S, U2(0, pi) = H, and the identities
U2(lam, phi) = U3(pi/2, lam, phi) and U3 = U1(phi) RY(lam) U1(gam) hold
entrywise. (A common typo writes the lower-left U3 entry with a minus sign;
that matrix is not unitary, so the sign here is the positive one.)
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .circuit import Circuit, GateKind, GateOp

MAX_DENSE_QUBITS = 12

_SQRT1_2 = 1.0 / math.sqrt(2.0)


def gate_matrix(g: GateOp) -> np.ndarray:
    """Exact matrix for one gate: 2x2, or 4x4 for CNOT/CZ. Measure is rejected."""
    k = g.kind
    if k is GateKind.MEASURE:
        raise ValueError("Measure has no unitary matrix")
    if k is GateKind.U1:
        (lam,) = g.angles
        return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * lam)]], dtype=complex)
    if k is GateKind.U2:
        lam, phi = g.angles
        return _SQRT1_2 * np.array(
            [
                [1.0, -cmath.exp(1j * phi)],
                [cmath.exp(1j * lam), cmath.exp(1j * (lam + phi))],
            ],
            dtype=complex,
        )
    if k is GateKind.U3:
        lam, phi, gam = g.angles
        c, s = math.cos(lam / 2.0), math.sin(lam / 2.0)
        return np.array(
            [
                [c, -cmath.exp(1j * gam) * s],
                [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + gam)) * c],
            ],
            dtype=complex,
        )
    if k is GateKind.H:
        return _SQRT1_2 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    if k is GateKind.S:
        return np.array([[1.0, 0.0], [0.0, 1j]], dtype=complex)
    if k is GateKind.SDG:
        return np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex)
    if k is GateKind.T:
        return np.array([[1.0, 0.0], [0.0, cmath.exp(0.25j * math.pi)]], dtype=complex)
    if k is GateKind.TDG:
        return np.array([[1.0, 0.0], [0.0, cmath.exp(-0.25j * math.pi)]], dtype=complex)
    if k is GateKind.X:
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if k is GateKind.Y:
        return np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
    if k is GateKind.Z:
        return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    if k is GateKind.RX:
        (th,) = g.angles
        c, s = math.cos(th / 2.0), math.sin(th / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if k is GateKind.RY:
        (th,) = g.angles
        c, s = math.cos(th / 2.0), math.sin(th / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if k is GateKind.RZ:
        (th,) = g.angles
        return np.array(
            [[cmath.exp(-0.5j * th), 0.0], [0.0, cmath.exp(0.5j * th)]], dtype=complex
        )
    if k is GateKind.CNOT:
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if k is GateKind.CZ:
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    raise ValueError(f"no matrix for {k}")


def apply_gate(tensor: np.ndarray, g: GateOp, first: int = 0) -> np.ndarray:
    """Apply one gate to an array whose qubit axes start at axis `first`.

    Qubit 0 is axis `first` (the leftmost bit of a printed bitstring). Axes
    before `first` (a batch of branches) and after the qubit axes (the flat
    input of a unitary) are carried through unchanged.
    """
    mat = gate_matrix(g)
    nq = len(g.qubits)
    mat = mat.reshape((2,) * (2 * nq))
    axes = [first + q for q in g.qubits]
    moved = np.tensordot(mat, tensor, axes=(list(range(nq, 2 * nq)), axes))
    return np.moveaxis(moved, range(nq), axes)


def statevector(circuit: Circuit) -> np.ndarray:
    """Final state from |0...0>, shape (2**n,). Measure gates are rejected."""
    n = circuit.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense statevector capped at n={MAX_DENSE_QUBITS}")
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for g in circuit.gates():
        if g.is_measure:
            raise ValueError("Measure present; statevector is pre-measurement only")
        psi = apply_gate(psi, g)
    return psi.reshape(-1)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense 2**n x 2**n unitary, product of gate matrices in layer order.

    Raises:
        ValueError: n_qubits > 12, or a Measure gate is present.
    """
    n = circuit.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"unitary_of capped at n={MAX_DENSE_QUBITS}")
    dim = 2**n
    u = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for g in circuit.gates():
        if g.is_measure:
            raise ValueError("Measure present; circuit has no single unitary")
        u = apply_gate(u, g)
    return u.reshape(dim, dim)


def phase_insensitive_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|tr(a^dag b)| / dim; equals 1 iff a = e^{i phase} b."""
    dim = a.shape[0]
    return abs(np.trace(a.conj().T @ b)) / dim


def su2_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator-norm distance between 2x2 unitaries, minimized over global phase.

    With f = |tr(a^dag b)|/2 = cos(theta/2), the optimal-phase spectral norm is
    2 sin(theta/4) = sqrt(2 (1 - f)) exactly.
    """
    f = abs(np.trace(a.conj().T @ b)) / 2.0
    return math.sqrt(max(0.0, 2.0 * (1.0 - min(f, 1.0))))
