"""Binary symplectic (stabilizer) tableau with the standard update rules.

Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers; each row is a Pauli
string as X-bit and Z-bit vectors plus a sign bit. Gate updates are O(n) row
operations; measurement is O(n^2) worst case.

Sign forms. Next to the sign vector ``r`` the tableau keeps a GF(2)
coefficient matrix ``coef``: one row per tableau row, one column per random
measurement event met so far. Had the random events drawn bits ``b ^ d``
instead of the bits ``d`` they did draw, every stabilizer sign would read
``r ^ (coef @ b) mod 2``: the X/Z structure, and so every phase correction a
gate or rowsum adds, never depends on the drawn bits. Gates add constants
only and leave ``coef`` alone; a rowsum XORs the source row's coefficients
into its targets (stabilizer products have even phase, so this is exact); a
random event gives its row a fresh unit column; a deterministic outcome's
form is the XOR of the coefficient rows of the stabilizers it multiplies.
Destabilizer signs never flow into stabilizer signs, so their forms are kept
but carry no meaning. One pass with all-zero draws therefore yields every
outcome as an affine function of the random bits (the reference-sample idea
of Gidney's Stim, over the Aaronson-Gottesman tableau).

Storage is one byte per bit: 2n x 2n bytes for X and Z plus 2n bytes per
``coef`` column (columns are added by doubling as random events arrive),
checked against MAX_TABLEAU_BYTES before anything is allocated.

A Tableau is exclusively owned: concurrent mutation of one instance is
forbidden. Workers should each hold their own copy (see ``Tableau.copy``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .circuit import CLIFFORD_KINDS, GateKind, GateOp

# Largest X/Z tableau plus coefficient matrix one Tableau may hold, in bytes.
MAX_TABLEAU_BYTES = 1 << 30


class RegimeError(ValueError):
    """Gate outside this engine's regime (caller should use run_extended)."""


def check_tableau_budget(n: int, random_events: int = 0) -> None:
    """Raise ValueError if n qubits and that many random events overflow the budget."""
    need = 2 * n * (2 * n + random_events)
    if need > MAX_TABLEAU_BYTES:
        raise ValueError(
            f"a stabilizer tableau of {n} qubits with {random_events} random-event "
            f"columns needs {need} bytes, past the {MAX_TABLEAU_BYTES}-byte budget"
        )


class Tableau:
    """Stabilizer state of n qubits, initialized to |0...0>."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be positive")
        check_tableau_budget(n)
        self.n = n
        # destabilizers X_i then stabilizers Z_i
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        self.x[np.arange(n), np.arange(n)] = 1
        self.z[np.arange(n, 2 * n), np.arange(n)] = 1
        # sign forms (see module docstring); columns past random_events are zero
        self.coef = np.zeros((2 * n, 0), dtype=np.uint8)
        self.random_events = 0

    def copy(self) -> "Tableau":
        out = Tableau.__new__(Tableau)
        out.n = self.n
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.r = self.r.copy()
        out.coef = self.coef.copy()
        out.random_events = self.random_events
        return out

    def _new_event(self) -> int:
        """Column index for the next random event, widening coef as needed."""
        k = self.random_events
        if k == self.coef.shape[1]:
            check_tableau_budget(self.n, k + 1)
            fits = MAX_TABLEAU_BYTES // (2 * self.n) - 2 * self.n
            width = min(max(2 * k, 8), fits)
            grown = np.zeros((2 * self.n, width), dtype=np.uint8)
            grown[:, :k] = self.coef
            self.coef = grown
        self.random_events = k + 1
        return k

    def stabilizer_strings(self) -> list[str]:
        """Human-readable stabilizer generators, for tests and debugging."""
        names = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
        out = []
        for i in range(self.n, 2 * self.n):
            sign = "-" if self.r[i] else "+"
            body = "".join(
                names[(int(self.x[i, j]), int(self.z[i, j]))] for j in range(self.n)
            )
            out.append(sign + body)
        return out

    # -- gate updates --------------------------------------------------

    def _h(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.x[:, a], self.z[:, a] = self.z[:, a].copy(), self.x[:, a].copy()

    def _s(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.z[:, a] ^= self.x[:, a]

    def _cnot(self, c: int, t: int) -> None:
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ 1)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]


def apply_clifford(tab: Tableau, gate: GateOp) -> Tableau:
    """Conjugate the tableau by one Clifford gate; mutates and returns tab."""
    k = gate.kind
    if k not in CLIFFORD_KINDS:
        raise RegimeError(
            f"{k.value} is outside the tableau gate set; transpile first or "
            f"use run_extended for T gates"
        )
    q = gate.qubits
    if k is GateKind.H:
        tab._h(q[0])
    elif k is GateKind.S:
        tab._s(q[0])
    elif k is GateKind.SDG:
        # Sdg = S then Z
        tab._s(q[0])
        tab.r ^= tab.x[:, q[0]]
    elif k is GateKind.Z:
        tab.r ^= tab.x[:, q[0]]
    elif k is GateKind.X:
        tab.r ^= tab.z[:, q[0]]
    elif k is GateKind.Y:
        # Y flips the sign of X and Z on its qubit, not of Y
        tab.r ^= tab.x[:, q[0]] ^ tab.z[:, q[0]]
    elif k is GateKind.CNOT:
        tab._cnot(q[0], q[1])
    elif k is GateKind.CZ:
        tab._h(q[1])
        tab._cnot(q[0], q[1])
        tab._h(q[1])
    return tab


# -- Pauli-product phase bookkeeping ----------------------------------------


def _g_terms(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Exponent-of-i contribution per column when multiplying row1 * row2."""
    x1i = x1.astype(np.int8)
    z1i = z1.astype(np.int8)
    x2i = x2.astype(np.int8)
    z2i = z2.astype(np.int8)
    return (
        (x1i & z1i) * (z2i - x2i)
        + (x1i & (1 - z1i)) * (z2i * (2 * x2i - 1))
        + ((1 - x1i) & z1i) * (x2i * (1 - 2 * z2i))
    )


def _rowsum_into(tab: Tableau, targets: np.ndarray, src: int) -> None:
    """rowsum(h, src) for every h in targets at once (src row is fixed)."""
    phase = (
        2 * tab.r[targets].astype(np.int64)
        + 2 * int(tab.r[src])
        + _g_terms(tab.x[src], tab.z[src], tab.x[targets], tab.z[targets]).sum(axis=1)
    ) % 4
    tab.r[targets] = (phase == 2).astype(np.uint8)
    tab.x[targets] ^= tab.x[src]
    tab.z[targets] ^= tab.z[src]
    tab.coef[targets] ^= tab.coef[src]


def _product_sign(tab: Tableau, rows: np.ndarray) -> int:
    """Sign bit of the product of the given (commuting) stabilizer rows.

    Pairwise tree reduction keeps the column work vectorized; the phase
    accumulates exactly as sequential rowsums would.
    """
    x = tab.x[rows].astype(np.uint8)
    z = tab.z[rows].astype(np.uint8)
    ph = (2 * tab.r[rows].astype(np.int64)) % 4
    while len(x) > 1:
        odd = None
        if len(x) % 2 == 1:
            odd = (x[-1], z[-1], ph[-1])
            x, z, ph = x[:-1], z[:-1], ph[:-1]
        a, b = slice(0, None, 2), slice(1, None, 2)
        ph = (ph[a] + ph[b] + _g_terms(x[a], z[a], x[b], z[b]).sum(axis=1)) % 4
        x = x[a] ^ x[b]
        z = z[a] ^ z[b]
        if odd is not None:
            x = np.concatenate([x, odd[0][None]])
            z = np.concatenate([z, odd[1][None]])
            ph = np.concatenate([ph, odd[2][None]])
    assert ph[0] % 2 == 0
    return int(ph[0] // 2) % 2


def measure_affine(
    tab: Tableau, qubit: int, bit_source: Callable[[], int]
) -> tuple[int, bool, np.ndarray]:
    """Measure Z_qubit; random branches draw their bit from bit_source.

    Returns (outcome, was_random, form): form holds the outcome's GF(2)
    coefficients over the random events so far (length tab.random_events),
    so flipping the drawn bits by b flips the outcome by form @ b mod 2. The
    random/deterministic split and the whole X/Z structure update are
    independent of the drawn bits.
    """
    n = tab.n
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range")
    stab_hits = np.nonzero(tab.x[n:, qubit])[0]
    if len(stab_hits) > 0:
        p = int(stab_hits[0]) + n  # smallest anticommuting stabilizer
        others = np.nonzero(tab.x[:, qubit])[0]
        others = others[others != p]
        if len(others) > 0:
            _rowsum_into(tab, others, p)
        tab.x[p - n] = tab.x[p]
        tab.z[p - n] = tab.z[p]
        tab.r[p - n] = tab.r[p]
        tab.coef[p - n] = tab.coef[p]
        tab.x[p] = 0
        tab.z[p] = 0
        tab.z[p, qubit] = 1
        outcome = int(bit_source()) & 1
        tab.r[p] = outcome
        event = tab._new_event()
        tab.coef[p] = 0
        tab.coef[p, event] = 1
        return outcome, True, tab.coef[p, : event + 1].copy()
    # deterministic: product of stabilizers indexed by destabilizer hits
    destab_hits = np.nonzero(tab.x[:n, qubit])[0]
    rows = destab_hits + n
    outcome = _product_sign(tab, rows)
    form = np.bitwise_xor.reduce(tab.coef[rows, : tab.random_events], axis=0)
    return outcome, False, form


def measure_with_source(
    tab: Tableau, qubit: int, bit_source: Callable[[], int]
) -> tuple[int, bool]:
    """Measure Z_qubit; returns (outcome, was_random). See measure_affine."""
    outcome, was_random, _ = measure_affine(tab, qubit, bit_source)
    return outcome, was_random


def measure(
    tab: Tableau, qubit: int, rng: np.random.Generator
) -> tuple[int, Tableau]:
    """Standard Z measurement; deterministic outcome when Z_qubit is implied."""
    outcome, _ = measure_with_source(
        tab, qubit, lambda: int(rng.integers(0, 2))
    )
    return outcome, tab
