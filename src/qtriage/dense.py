"""Dense matrix oracle: exact gate matrices, statevector and full-unitary builds.

This is the reference semantics the simulators and the transpiler are tested
against. Sizes are capped (n <= 12 for unitary_of) since the build is dense.

`apply_gate` is the one gate-apply kernel; the branch engine in `simulate`
applies its Clifford gates with it too, on a trailing branch axis. X, Y, Z, S,
SDG, CNOT and CZ are slice swaps and +-1 or +-1j multiplies, done in place on
a contiguous array: every product is exact, so the result is bit-identical to
the matrix product (up to the sign of a zero). H is done in place too, as a
sum and a difference of the qubit's two halves, each scaled by 1/sqrt(2).
That rounds differently from the matrix product (by up to a few ulps), but
every element is computed alike whatever the array's shape, with no BLAS
call. Every other kind is one tensordot with its matrix, whose result is
made contiguous again.

`statevector` and `unitary_of` share one pass, `_evolve`, which multiplies
each run of single-qubit gates on a qubit into one 2x2 and applies it when a
two-qubit gate touches that qubit or the pass ends.

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

from .circuit import MEASURE_KINDS, Circuit, GateKind, GateOp

MAX_DENSE_QUBITS = 12

_SQRT1_2 = 1.0 / math.sqrt(2.0)

# matrices of the kinds without angles, built once
_FIXED_MATRICES: dict[GateKind, np.ndarray] = {
    GateKind.H: _SQRT1_2 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex),
    GateKind.S: np.array([[1.0, 0.0], [0.0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex),
    GateKind.T: np.array([[1.0, 0.0], [0.0, cmath.exp(0.25j * math.pi)]], dtype=complex),
    GateKind.TDG: np.array(
        [[1.0, 0.0], [0.0, cmath.exp(-0.25j * math.pi)]], dtype=complex
    ),
    GateKind.X: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    GateKind.Y: np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    GateKind.Z: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    GateKind.CNOT: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    GateKind.CZ: np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
}
for _m in _FIXED_MATRICES.values():
    _m.flags.writeable = False

_FIXED_ENTRIES = {
    k: tuple(m.ravel().tolist()) for k, m in _FIXED_MATRICES.items() if m.shape == (2, 2)
}

# single-qubit kinds diag(1, phase): apply_gate multiplies the |1> half in place
_PHASES = {GateKind.Z: -1.0, GateKind.S: 1j, GateKind.SDG: -1j}


def gate_matrix(g: GateOp) -> np.ndarray:
    """Exact matrix for one gate: 2x2, or 4x4 for CNOT/CZ. Measure is rejected.

    Kinds without angles return one shared read-only array.
    """
    k = g.kind
    if k is GateKind.MEASURE:
        raise ValueError("Measure has no unitary matrix")
    fixed = _FIXED_MATRICES.get(k)
    if fixed is not None:
        return fixed
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
    raise ValueError(f"no matrix for {k}")


def _split(tensor: np.ndarray, *axes: int) -> np.ndarray:
    """View of a contiguous array with each of the sorted `axes` kept as a
    length-2 axis and the runs of axes before, between and after them merged."""
    dims: list[int] = []
    prev = 0
    for a in axes:
        dims += [math.prod(tensor.shape[prev:a]), 2]
        prev = a + 1
    dims.append(math.prod(tensor.shape[prev:]))
    return tensor.reshape(dims)


def _swap(a: np.ndarray, b: np.ndarray) -> None:
    held = a.copy()
    a[...] = b
    b[...] = held


def _apply_matrix(tensor: np.ndarray, mat: np.ndarray, axes: list[int]) -> np.ndarray:
    """Contract a 2^k x 2^k matrix into the k qubit `axes`; contiguous result."""
    nq = len(axes)
    mat = mat.reshape((2,) * (2 * nq))
    moved = np.tensordot(mat, tensor, axes=(list(range(nq, 2 * nq)), axes))
    return np.ascontiguousarray(np.moveaxis(moved, range(nq), axes))


def apply_gate(tensor: np.ndarray, g: GateOp, first: int = 0) -> np.ndarray:
    """Apply one gate to an array whose qubit axes start at axis `first`.

    Qubit 0 is axis `first` (the leftmost bit of a printed bitstring). Axes
    before `first` and after the qubit axes (the branch engine's branches, or
    the flat input of a unitary) are carried through unchanged.

    A contiguous complex input may be overwritten: use the returned array,
    not the argument, after the call.
    """
    tensor = np.ascontiguousarray(tensor, dtype=complex)
    k = g.kind
    axes = [first + q for q in g.qubits]
    if k in _PHASES:
        _split(tensor, axes[0])[:, 1] *= _PHASES[k]
    elif k is GateKind.X:
        v = _split(tensor, axes[0])
        _swap(v[:, 0], v[:, 1])
    elif k is GateKind.Y:
        # Y|0> = i|1>, Y|1> = -i|0>
        v = _split(tensor, axes[0])
        held = v[:, 0] * 1j
        np.multiply(v[:, 1], -1j, out=v[:, 0])
        v[:, 1] = held
    elif k is GateKind.CZ:
        _split(tensor, *sorted(axes))[:, 1, :, 1] *= -1.0
    elif k is GateKind.CNOT:
        control, target = axes
        v = _split(tensor, *sorted(axes))
        if control < target:
            _swap(v[:, 1, :, 0], v[:, 1, :, 1])
        else:
            _swap(v[:, 0, :, 1], v[:, 1, :, 1])
    elif k is GateKind.H:
        # on the real and imaginary parts, so each element is rounded alike
        # whatever the array's shape: a = (a + b)/sqrt2, b = (a - b)/sqrt2
        v = _split(tensor, axes[0]).view(np.float64)
        a, b = v[:, 0], v[:, 1]
        held = np.add(a, b)
        np.subtract(a, b, out=b)
        np.multiply(held, _SQRT1_2, out=a)
        b *= _SQRT1_2
    else:
        tensor = _apply_matrix(tensor, gate_matrix(g), axes)
    return tensor


def _evolve(tensor: np.ndarray, circuit: Circuit, what: str) -> np.ndarray:
    """Apply every gate of `circuit` to `tensor` (qubit 0 on axis 0).

    Each run of single-qubit gates on one qubit is multiplied into one 2x2,
    which is applied when a two-qubit gate touches the qubit or at the end.
    Measure gates are rejected with a message that ends in `what`.
    """
    if circuit.count_kinds(MEASURE_KINDS):
        raise ValueError(f"Measure present; {what}")
    # qubit -> its pending 2x2 as a row-major 4-tuple of Python complex,
    # which multiplies faster than a numpy 2x2
    pending: dict[int, tuple[complex, ...]] = {}
    for g in circuit.gates():
        if len(g.qubits) == 1:
            q = g.qubits[0]
            a = _FIXED_ENTRIES.get(g.kind) or tuple(gate_matrix(g).ravel().tolist())
            if q in pending:
                a0, a1, a2, a3 = a
                b0, b1, b2, b3 = pending[q]
                a = (
                    a0 * b0 + a1 * b2, a0 * b1 + a1 * b3,
                    a2 * b0 + a3 * b2, a2 * b1 + a3 * b3,
                )
            pending[q] = a
            continue
        for q in g.qubits:
            if q in pending:
                tensor = _apply_matrix(tensor, np.reshape(pending.pop(q), (2, 2)), [q])
        tensor = apply_gate(tensor, g)
    for q in sorted(pending):
        tensor = _apply_matrix(tensor, np.reshape(pending[q], (2, 2)), [q])
    return tensor


def statevector(circuit: Circuit) -> np.ndarray:
    """Final state from |0...0>, shape (2**n,). Measure gates are rejected."""
    n = circuit.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense statevector capped at n={MAX_DENSE_QUBITS}")
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    return _evolve(psi, circuit, "statevector is pre-measurement only").reshape(-1)


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
    return _evolve(u, circuit, "circuit has no single unitary").reshape(dim, dim)


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
