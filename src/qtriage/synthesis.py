"""Single-qubit Clifford+T approximation.

Strategy: a breadth-first table of Clifford+T words over {H, S, T}, stored as
unit quaternions (SU(2) elements up to global phase), queried by inner
product; when the table's covering radius is not enough for the requested
accuracy, a balanced group-commutator refinement tightens the result, with
the achieved distance measured directly at every level.

Distance metric everywhere: dist(U, V) = sqrt(2 (1 - |<p, q>|)) for the unit
quaternions p, q, which equals the global-phase-minimized spectral norm
||U - e^{i phi} V||.

The refinement multiplies single quaternions as tuples of Python floats
(``_qmul``), with the same operation order as the broadcasting ``quat_mul``
the table build uses, so both give bit-identical floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import GateKind

# Search floor: below this accuracy the word lengths explode past what the
# table + bounded refinement can certify at desk scale.
MIN_SEQUENCE_EPSILON = 1e-3

# Soft cap on table entries; the build stops after the first round that
# crosses it (2,268,220 entries, about 2.5 s to build on a 2-core host). The
# raw covering radius measures ~0.04, and bounded refinement reaches the 1e-3
# floor.
DEFAULT_TABLE_SIZE = 2_000_000

_MAX_SK_LEVEL = 4

# Parent rows per block when the table build expands a round.
_BUILD_BLOCK = 1 << 14

# The table's rows are sorted by this quaternion coordinate. Most queries are
# the refinement's near-identity factors, whose coordinate 0 sits near 1,
# where few rows do.
_BAND_AXIS = 0
# A query's first band half-width, about the table's covering radius; it
# doubles until the bands hold the nearest row or half the table.
_BAND_START = 0.03
# Rounding slack between a row's computed distance and its true distance.
_BAND_SLACK = 1e-6


class SynthesisError(ValueError):
    """Requested accuracy is outside the search budget."""


# --- quaternion helpers ---------------------------------------------------
# Convention: U = q0*I - i*(q1*X + q2*Y + q3*Z), so quat(A @ B) = quat(A)*quat(B).

Quat = tuple[float, float, float, float]


def quat_from_u2(mat: np.ndarray) -> np.ndarray:
    """Unit quaternion of a 2x2 unitary's SU(2) representative."""
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    su = mat / np.sqrt(det)
    q = np.array(
        [
            su[0, 0].real + su[1, 1].real,
            -(su[0, 1].imag + su[1, 0].imag),
            su[1, 0].real - su[0, 1].real,
            su[1, 1].imag - su[0, 0].imag,
        ]
    ) / 2.0
    return q / np.linalg.norm(q)


def quat_to_u2(q: np.ndarray) -> np.ndarray:
    q0, q1, q2, q3 = q
    return np.array(
        [
            [q0 - 1j * q3, -q2 - 1j * q1],
            [q2 - 1j * q1, q0 + 1j * q3],
        ],
        dtype=complex,
    )


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    a0, a1, a2, a3 = np.moveaxis(a, -1, 0)
    b0, b1, b2, b3 = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ],
        axis=-1,
    )


def _qmul(a: Quat, b: Quat) -> Quat:
    """``quat_mul`` of two single quaternions, term for term."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _qconj(q: Quat) -> Quat:
    return (q[0], -q[1], -q[2], -q[3])


def _as_quat(q: np.ndarray) -> Quat:
    return tuple(float(x) for x in q)  # type: ignore[return-value]


def quat_conj(q: np.ndarray) -> np.ndarray:
    out = np.array(q, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def quat_dist(a: np.ndarray, b: np.ndarray) -> float:
    f = min(abs(float(np.dot(a, b))), 1.0)
    return math.sqrt(2.0 * (1.0 - f))


def _axis_rotation_quat(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[math.cos(angle / 2.0)], math.sin(angle / 2.0) * axis])


def rz_quat(theta: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0), 0.0, 0.0, math.sin(theta / 2.0)])


# --- gate alphabet ---------------------------------------------------------

_H_Q = np.array([0.0, 1.0, 0.0, 1.0]) / math.sqrt(2.0)
_S_Q = np.array([math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)])
_T_Q = np.array([math.cos(math.pi / 8), 0.0, 0.0, math.sin(math.pi / 8)])

_ALPHABET = (GateKind.H, GateKind.S, GateKind.T)
_ALPHABET_QUATS = np.stack([_H_Q, _S_Q, _T_Q])

_INVERSE_KIND = {
    GateKind.H: GateKind.H,
    GateKind.S: GateKind.SDG,
    GateKind.T: GateKind.TDG,
    GateKind.SDG: GateKind.S,
    GateKind.TDG: GateKind.T,
}

_KIND_QUAT = {
    kind: _as_quat(q)
    for kind, q in (
        (GateKind.H, _H_Q),
        (GateKind.S, _S_Q),
        (GateKind.T, _T_Q),
        (GateKind.SDG, quat_conj(_S_Q)),
        (GateKind.TDG, quat_conj(_T_Q)),
    )
}


def _word_quat(word: list[GateKind]) -> Quat:
    q: Quat = (1.0, 0.0, 0.0, 0.0)
    for kind in word:
        q = _qmul(_KIND_QUAT[kind], q)
    return q


def quat_of_word(word: list[GateKind]) -> np.ndarray:
    """SU(2) quaternion of a gate word in application order."""
    return np.array(_word_quat(word))


def invert_word(word: list[GateKind]) -> list[GateKind]:
    return [_INVERSE_KIND[k] for k in reversed(word)]


# --- breadth-first table ---------------------------------------------------


def _canonicalize(quats: np.ndarray) -> None:
    """Fix the q ~ -q ambiguity in place: largest-magnitude component made positive."""
    idx = np.argmax(np.abs(quats), axis=1)
    quats *= np.sign(quats[np.arange(len(quats)), idx])[:, None]


def _hash_keys(quats: np.ndarray) -> np.ndarray:
    mix = np.uint64(0)
    for col, mult in zip(range(4), (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5)):
        ints = np.round(quats[:, col] * 1e10).astype(np.int64).astype(np.uint64)
        mix = mix ^ ((ints + np.uint64(col + 1)) * np.uint64(mult))
    return mix


@dataclass
class ApproxTable:
    """Deduplicated Clifford+T words reachable by breadth-first expansion.

    Rows are sorted by quaternion coordinate ``_BAND_AXIS`` so that a query
    scans only the rows whose coordinate is near the target's.
    """

    quats: np.ndarray  # (N, 4) canonical unit quaternions
    parents: np.ndarray  # (N,) int32 row of the word minus its last gate, -1 at the root
    gates: np.ndarray  # (N,) int8 alphabet index appended last, -1 at root
    t_counts: np.ndarray  # (N,) int16 T gates per word
    bfs_index: np.ndarray  # (N,) int32 position in breadth-first order
    band_key: np.ndarray  # (N,) contiguous copy of quats[:, _BAND_AXIS], ascending

    def __len__(self) -> int:
        return len(self.quats)

    def word(self, index: int) -> list[GateKind]:
        out: list[GateKind] = []
        i = int(index)
        while i >= 0 and self.gates[i] >= 0:
            out.append(_ALPHABET[self.gates[i]])
            i = int(self.parents[i])
        out.reverse()
        return out

    def query(self, target: np.ndarray | Quat) -> tuple[int, float]:
        """Index and distance of the nearest table element.

        Equal to a full scan's argmax of |<row, target>|, ties going to the
        lowest breadth-first index. A row at distance d has
        |p_j - s t_j| <= d for the sign s that aligns it with the target, so
        once the best row inside the bands |p_j -+ t_j| <= r is nearer than
        r, no row outside them can beat or tie it.
        """
        target = np.asarray(target, dtype=float)
        tj = abs(float(target[_BAND_AXIS]))
        r = _BAND_START
        while True:
            lo_m, hi_m, lo_p, hi_p = (
                int(i) for i in np.searchsorted(self.band_key, (-tj - r, -tj + r, tj - r, tj + r))
            )
            if hi_m >= lo_p:  # the bands touch: scan their union once
                slices = [slice(lo_m, hi_p)]
            else:
                slices = [slice(lo_m, hi_m), slice(lo_p, hi_p)]
            if 2 * sum(sl.stop - sl.start for sl in slices) > len(self):
                break  # about as costly as the full scan
            best, f = self._best_of(target, slices)
            dist = math.sqrt(2.0 * (1.0 - min(f, 1.0)))
            if dist + _BAND_SLACK <= r:
                return best, dist
            r *= 2.0
        best, f = self._best_of(target, [slice(0, len(self))])
        return best, math.sqrt(2.0 * (1.0 - min(f, 1.0)))

    def _best_of(self, target: np.ndarray, slices: list[slice]) -> tuple[int, float]:
        """Row of the largest |dot| over the slices (lowest BFS index on ties)."""
        best, best_f = -1, -1.0
        for sl in slices:
            if sl.stop <= sl.start:
                continue
            dots = np.abs(self.quats[sl] @ target)
            f = float(dots.max())
            if f < best_f:
                continue
            rows = np.flatnonzero(dots == f) + sl.start
            row = int(rows[np.argmin(self.bfs_index[rows])])
            if f > best_f or self.bfs_index[row] < self.bfs_index[best]:
                best, best_f = row, f
        return best, best_f


def _new_rows(keys: np.ndarray, keys_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the round's new candidates in order, and the table's sorted
    keys with theirs merged in.

    A candidate is new if its key is new to the table and the first of its
    key in the round. Freshness is tested on the round's sorted unique keys,
    which then merge into the table's keys without a re-sort.
    """
    perm = np.argsort(keys)  # unstable: a key's first occurrence is its least index
    keys = keys[perm]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    uniq, first_idx = keys[starts], np.minimum.reduceat(perm, starts)
    pos = np.searchsorted(keys_sorted, uniq)
    fresh = keys_sorted[np.minimum(pos, len(keys_sorted) - 1)] != uniq
    return np.sort(first_idx[fresh]), np.insert(keys_sorted, pos[fresh], uniq[fresh])


def _children(quats: np.ndarray, alphabet: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Canonical quaternions of the words alphabet[i] . parents[i]."""
    out = quat_mul(alphabet, quats[parents])
    _canonicalize(out)
    return out


def build_table(max_elements: int = DEFAULT_TABLE_SIZE) -> ApproxTable:
    """Breadth-first expansion over {H, S, T} with quaternion deduplication.

    Word length is minimal per stored element (BFS level order). Hash
    collisions at the 1e-10 rounding only ever drop candidate entries, which
    costs coverage, never correctness; emitted sequences are re-checked
    against their targets at query time.

    A round's candidates are hashed in blocks of _BUILD_BLOCK parent rows, and
    only its keys are kept; the new rows are then computed again, block by
    block, straight into the table. So the build's peak is the table and one
    round's keys, not a round's candidate quaternions.
    """
    capacity = max(max_elements, 1)
    quats = np.empty((capacity, 4))
    parents = np.empty(capacity, dtype=np.int32)
    gates = np.empty(capacity, dtype=np.int8)
    t_counts = np.empty(capacity, dtype=np.int16)
    quats[0] = (1.0, 0.0, 0.0, 0.0)
    parents[0], gates[0], t_counts[0] = -1, -1, 0
    keys_sorted = _hash_keys(quats[:1])

    size, start = 1, 0  # rows [start, size) are the frontier
    while size < max_elements and size > start:
        # candidate gi * width + j is alphabet[gi] . row start + j
        width = size - start
        keys = np.empty(len(_ALPHABET) * width, dtype=np.uint64)
        for lo in range(0, width, _BUILD_BLOCK):
            rows = np.arange(start + lo, min(start + lo + _BUILD_BLOCK, size))
            for gi, g in enumerate(_ALPHABET_QUATS):
                at = gi * width + lo
                keys[at : at + len(rows)] = _hash_keys(_children(quats, g[None, :], rows))
        take, keys_sorted = _new_rows(keys, keys_sorted)
        del keys
        if len(take) == 0:
            break

        end = size + len(take)
        if end > capacity:
            # the round that crosses max_elements is the last: grow it exactly
            capacity = end if end >= max_elements else max(end, capacity + capacity // 2)
            for arr in (quats, parents, gates, t_counts):
                arr.resize((capacity,) + arr.shape[1:], refcheck=False)
        parents[size:end] = take % width + start
        gates[size:end] = take // width
        for lo in range(size, end, _BUILD_BLOCK):
            hi = min(lo + _BUILD_BLOCK, end)
            quats[lo:hi] = _children(quats, _ALPHABET_QUATS[gates[lo:hi]], parents[lo:hi])
        t_counts[size:end] = t_counts[parents[size:end]] + (gates[size:end] == 2)
        start, size = size, end
        del take
    return _band_sorted(quats, parents, gates, t_counts, size)


def _band_sorted(
    quats: np.ndarray, parents: np.ndarray, gates: np.ndarray, t_counts: np.ndarray, size: int
) -> ApproxTable:
    """The first ``size`` rows as a table sorted by coordinate ``_BAND_AXIS``.

    Permutes the arrays in place, one quaternion column at a time, so no
    second full copy of the quaternions is ever held.
    """
    for arr in (quats, parents, gates, t_counts):
        arr.resize((size,) + arr.shape[1:], refcheck=False)
    order = np.argsort(quats[:, _BAND_AXIS])
    for col in range(4):
        quats[:, col] = quats[order, col]
    rank = np.empty(size, dtype=np.int32)
    rank[order] = np.arange(size, dtype=np.int32)
    parents = parents[order]
    has_parent = parents >= 0
    parents[has_parent] = rank[parents[has_parent]]
    return ApproxTable(
        quats,
        parents,
        gates[order],
        t_counts[order],
        order.astype(np.int32),
        np.ascontiguousarray(quats[:, _BAND_AXIS]),
    )


_TABLE: ApproxTable | None = None


def default_table() -> ApproxTable:
    """Lazily built process-wide table (a few seconds on first use)."""
    global _TABLE
    if _TABLE is None:
        _TABLE = build_table()
    return _TABLE


# --- group-commutator refinement -------------------------------------------


def _rotation_axis_angle(q: np.ndarray) -> tuple[np.ndarray, float]:
    q = q if q[0] >= 0 else -q
    angle = 2.0 * math.acos(min(q[0], 1.0))
    vec = q[1:]
    norm = np.linalg.norm(vec)
    if norm < 1e-14:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return vec / norm, angle


def _commutator(a: Quat, b: Quat) -> Quat:
    return _qmul(_qmul(a, b), _qmul(_qconj(a), _qconj(b)))


def _xy_pair(phi: float) -> tuple[Quat, Quat]:
    """Rotations by phi about X and about Y."""
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return (c, s, 0.0, 0.0), (c, 0.0, s, 0.0)


def _commutator_angle(phi: float) -> float:
    """Rotation angle of the X/Y commutator at phi, as ``_rotation_axis_angle``
    measures it."""
    q0, q1, q2, q3 = _commutator(*_xy_pair(phi))
    # the axis norm only guards the zero rotation; BLAS's norm settles values
    # near the cut
    if math.sqrt(q1 * q1 + q2 * q2 + q3 * q3) < 2e-14 and np.linalg.norm((q1, q2, q3)) < 1e-14:
        return 0.0
    return 2.0 * math.acos(min(abs(q0), 1.0))


def _balanced_factors(delta: Quat) -> tuple[Quat, Quat]:
    """A, B with [A, B] = delta exactly, both rotations by the same angle.

    Starts from the closed-form phi for orthogonal-axis commutators, then
    bisects on the measured commutator angle to absorb rounding, and finally
    conjugates the axis onto delta's.
    """
    axis, theta = _rotation_axis_angle(np.array(delta))
    if theta < 1e-14:
        ident = (1.0, 0.0, 0.0, 0.0)
        return ident, ident

    s = math.sin(theta / 2.0)
    v = (1.0 - math.sqrt(max(0.0, 1.0 - s * s))) / 2.0
    phi = 2.0 * math.asin(math.sqrt(v))
    # monotone in phi up to the commutator's peak angle; bracket and bisect
    lo, hi = 0.0, 2.0 * math.asin(2.0 ** -0.25)
    if _commutator_angle(phi) < theta:
        lo = phi
    else:
        hi = phi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _commutator_angle(mid) < theta:
            lo = mid
        else:
            hi = mid
    phi = 0.5 * (lo + hi)

    a0, b0 = _xy_pair(phi)
    m_axis, _ = _rotation_axis_angle(np.array(_commutator(a0, b0)))

    dot = float(np.clip(np.dot(m_axis, axis), -1.0, 1.0))
    if dot > 1.0 - 1e-14:
        p: Quat = (1.0, 0.0, 0.0, 0.0)
    else:
        if dot < -1.0 + 1e-14:
            # antiparallel: rotate pi about any axis orthogonal to m_axis
            helper = np.array([1.0, 0.0, 0.0])
            if abs(m_axis[0]) > 0.9:
                helper = np.array([0.0, 1.0, 0.0])
            cross = np.cross(m_axis, helper)
        else:
            cross = np.cross(m_axis, axis)
        p = _as_quat(_axis_rotation_quat(cross, math.acos(dot)))
    a = _qmul(_qmul(p, a0), _qconj(p))
    b = _qmul(_qmul(p, b0), _qconj(p))
    return a, b


def _approximate(
    target: Quat, level: int, table: ApproxTable, word: list[GateKind] | None = None
) -> list[GateKind]:
    """Level-``level`` word for the target; ``word`` is its level-(level-1)
    word when the caller already has it."""
    if level == 0:
        idx, _ = table.query(target)
        return table.word(idx)
    w = word if word is not None else _approximate(target, level - 1, table)
    delta = _qmul(target, _qconj(_word_quat(w)))
    a, b = _balanced_factors(delta)
    wa = _approximate(a, level - 1, table)
    wb = _approximate(b, level - 1, table)
    # operator A' B' A'^-1 B'^-1 W, rightmost applied first
    return w + invert_word(wb) + invert_word(wa) + wb + wa


def approximate_quat(
    target: np.ndarray, epsilon: float, table: ApproxTable | None = None
) -> tuple[list[GateKind], float]:
    """Best word within epsilon of the target SU(2) element.

    Returns:
        (word, achieved distance). The distance is measured, not estimated.

    Raises:
        SynthesisError: epsilon below the search floor, or refinement stalls.
    """
    if not (0.0 < epsilon < 1.0):
        raise SynthesisError(f"epsilon must be in (0, 1), got {epsilon}")
    if epsilon < MIN_SEQUENCE_EPSILON:
        raise SynthesisError(
            f"sequence search supports epsilon >= {MIN_SEQUENCE_EPSILON}; "
            f"got {epsilon}"
        )
    table = table if table is not None else default_table()
    target_q = _as_quat(target)
    best_word: list[GateKind] | None = None
    best_dist = math.inf
    word: list[GateKind] | None = None
    for level in range(_MAX_SK_LEVEL + 1):
        word = _approximate(target_q, level, table, word)
        dist = quat_dist(quat_of_word(word), target)
        if dist < best_dist:
            best_word, best_dist = word, dist
        if best_dist <= epsilon:
            return best_word, best_dist  # type: ignore[return-value]
    raise SynthesisError(
        f"refinement stalled at distance {best_dist:.2e} for epsilon {epsilon}"
    )


def approximate_rz(
    theta: float, epsilon: float, table: ApproxTable | None = None
) -> tuple[list[GateKind], float]:
    """Clifford+T word within epsilon of RZ(theta), up to global phase."""
    return approximate_quat(rz_quat(theta), epsilon, table)
