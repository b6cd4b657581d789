"""Quaternion algebra and Clifford+T approximation tests.

The matrix-level checks go through qtriage.dense, which test_dense pins to
hand-typed literals, keeping the two representations mutually accountable.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qtriage import synthesis
from qtriage.circuit import GateKind, gate
from qtriage.dense import gate_matrix, su2_distance
from qtriage.synthesis import (
    MIN_SEQUENCE_EPSILON,
    ApproxTable,
    SynthesisError,
    approximate_rz,
    build_table,
    default_table,
    invert_word,
    quat_conj,
    quat_dist,
    quat_from_u2,
    quat_mul,
    quat_of_word,
    quat_to_u2,
    rz_quat,
)

_WORD_KINDS = {GateKind.H, GateKind.S, GateKind.T, GateKind.SDG, GateKind.TDG}


@pytest.fixture(scope="module")
def small_table() -> ApproxTable:
    return build_table(50_000)


def _unit_quats() -> st.SearchStrategy[np.ndarray]:
    comp = st.floats(-1.0, 1.0)
    return st.tuples(comp, comp, comp, comp).map(np.array)


def _matrix_of_word(word: list[GateKind]) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for k in word:
        u = gate_matrix(gate(k.value, 0)) @ u
    return u


@given(_unit_quats())
def test_quat_u2_round_trip(q: np.ndarray) -> None:
    assume(np.linalg.norm(q) > 0.1)
    q = q / np.linalg.norm(q)
    back = quat_from_u2(quat_to_u2(q))
    assert min(np.linalg.norm(back - q), np.linalg.norm(back + q)) < 1e-12


@given(_unit_quats(), _unit_quats())
def test_quat_mul_tracks_matrix_product(qa: np.ndarray, qb: np.ndarray) -> None:
    assume(np.linalg.norm(qa) > 0.1 and np.linalg.norm(qb) > 0.1)
    qa, qb = qa / np.linalg.norm(qa), qb / np.linalg.norm(qb)
    prod = quat_from_u2(quat_to_u2(qa) @ quat_to_u2(qb))
    want = quat_mul(qa, qb)
    assert min(np.linalg.norm(prod - want), np.linalg.norm(prod + want)) < 1e-10


@given(_unit_quats(), _unit_quats())
def test_quat_dist_equals_su2_distance(qa: np.ndarray, qb: np.ndarray) -> None:
    assume(np.linalg.norm(qa) > 0.1 and np.linalg.norm(qb) > 0.1)
    qa, qb = qa / np.linalg.norm(qa), qb / np.linalg.norm(qb)
    assert quat_dist(qa, qb) == pytest.approx(
        su2_distance(quat_to_u2(qa), quat_to_u2(qb)), abs=1e-6
    )


def test_quat_dist_is_phase_blind() -> None:
    q = rz_quat(1.1)
    assert quat_dist(q, -q) == 0.0
    # rotation by theta sits 2 sin(theta/4) from the identity
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    assert quat_dist(rz_quat(0.6), ident) == pytest.approx(2.0 * math.sin(0.15), abs=1e-12)


def test_rz_quat_matches_matrix() -> None:
    for th in (0.0, 0.3, math.pi / 4, 2.0, 5.5):
        q = quat_from_u2(gate_matrix(gate("rz", 0, angles=[th])))
        assert quat_dist(q, rz_quat(th)) < 1e-12


def test_conj_inverts() -> None:
    # near zero the metric's sqrt turns 1e-16 dot-product roundoff into ~1e-8,
    # so "exactly equal" checks use 1e-6, far below any table spacing
    q = quat_of_word([GateKind.H, GateKind.T, GateKind.S])
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    assert quat_dist(quat_mul(q, quat_conj(q)), ident) < 1e-6


def test_quat_of_word_matches_matrix_product() -> None:
    word = [GateKind.H, GateKind.T, GateKind.S, GateKind.H, GateKind.TDG, GateKind.SDG]
    got = quat_of_word(word)
    want = quat_from_u2(_matrix_of_word(word))
    assert min(np.linalg.norm(got - want), np.linalg.norm(got + want)) < 1e-12


def test_invert_word() -> None:
    word = [GateKind.H, GateKind.S, GateKind.T, GateKind.T]
    assert invert_word(word) == [GateKind.TDG, GateKind.TDG, GateKind.SDG, GateKind.H]
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    assert quat_dist(quat_of_word(word + invert_word(word)), ident) < 1e-6


def test_table_words_reconstruct_their_quats(small_table: ApproxTable) -> None:
    idxs = np.linspace(0, len(small_table) - 1, 50).astype(int)
    for i in idxs:
        word = small_table.word(int(i))
        assert set(word) <= {GateKind.H, GateKind.S, GateKind.T}
        assert quat_dist(quat_of_word(word), small_table.quats[i]) < 1e-6
        assert small_table.t_counts[i] == word.count(GateKind.T)


def test_table_query_finds_members_exactly(small_table: ApproxTable) -> None:
    for i in (0, 17, len(small_table) // 2):
        idx, dist = small_table.query(small_table.quats[i])
        assert dist < 1e-6
        assert quat_dist(small_table.quats[idx], small_table.quats[i]) < 1e-6


def _bfs_quats(table: ApproxTable) -> np.ndarray:
    """The table's quaternions in breadth-first order."""
    out = np.empty_like(table.quats)
    out[table.bfs_index] = table.quats
    return out


def _assert_query_is_full_scan(table: ApproxTable, targets: np.ndarray) -> None:
    """query() picks the row a full scan in breadth-first order picks."""
    bfs_quats = _bfs_quats(table)
    for t in targets:
        idx, dist = table.query(t)
        dots = np.abs(bfs_quats @ t)
        want = int(np.argmax(dots))
        assert int(table.bfs_index[idx]) == want
        assert dist == math.sqrt(2.0 * (1.0 - min(float(dots[want]), 1.0)))


def _random_unit_quats(rng: np.random.Generator, count: int) -> np.ndarray:
    q = rng.normal(size=(count, 4))
    return q / np.linalg.norm(q, axis=1)[:, None]


def test_table_rows_are_sorted_by_band_key(small_table: ApproxTable) -> None:
    assert np.array_equal(small_table.band_key, small_table.quats[:, synthesis._BAND_AXIS])
    assert np.all(np.diff(small_table.band_key) >= 0.0)
    assert np.array_equal(np.sort(small_table.bfs_index), np.arange(len(small_table)))
    # breadth-first order survives the sort: a parent precedes its child
    has_parent = small_table.parents >= 0
    parents_bfs = small_table.bfs_index[small_table.parents[has_parent]]
    assert np.all(parents_bfs < small_table.bfs_index[has_parent])


def test_band_query_matches_full_scan_on_random_targets(small_table: ApproxTable) -> None:
    _assert_query_is_full_scan(small_table, _random_unit_quats(np.random.default_rng(11), 2000))


def test_band_query_matches_full_scan_on_the_default_table(approx_table: ApproxTable) -> None:
    rng = np.random.default_rng(12)
    # the refinement's factors are rotations by small angles
    axes = _random_unit_quats(rng, 150)[:, 1:]
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = rng.uniform(0.005, 0.6, size=150)
    near_identity = np.column_stack(
        [np.cos(angles / 2.0), np.sin(angles / 2.0)[:, None] * axes]
    )
    targets = np.concatenate([_random_unit_quats(rng, 150), near_identity])
    _assert_query_is_full_scan(approx_table, targets)


def test_band_query_finds_members_and_their_negatives(small_table: ApproxTable) -> None:
    rows = np.random.default_rng(13).choice(len(small_table), size=200, replace=False)
    members = small_table.quats[rows]
    _assert_query_is_full_scan(small_table, np.concatenate([members, -members]))
    for q in np.concatenate([members, -members]):
        assert small_table.query(q)[1] < 1e-6


def test_band_query_breaks_ties_by_breadth_first_index(small_table: ApproxTable) -> None:
    # an RZ target's dot product sees coordinates 0 and 3 only, so rows that
    # differ in coordinates 1 and 2 alone tie exactly
    targets = np.array([rz_quat(k * math.pi / 64.0) for k in range(128)])
    _assert_query_is_full_scan(small_table, targets)
    out_of_order = 0
    for t in targets:
        dots = np.abs(small_table.quats @ t)
        rows = np.flatnonzero(dots == dots.max())
        if len(rows) > 1:
            idx, _ = small_table.query(t)
            assert idx in rows
            out_of_order += int(small_table.bfs_index[rows[0]] > small_table.bfs_index[idx])
    # some tie is not resolved by the sorted position alone
    assert out_of_order > 0


def test_band_query_widens_to_a_full_scan_on_a_small_table(monkeypatch) -> None:
    table = build_table(2_000)
    scans: list[int] = []
    best_of = ApproxTable._best_of

    def counting(self, target, slices):
        scans.append(sum(sl.stop - sl.start for sl in slices))
        return best_of(self, target, slices)

    monkeypatch.setattr(ApproxTable, "_best_of", counting)
    _assert_query_is_full_scan(table, _random_unit_quats(np.random.default_rng(14), 300))
    assert len(table) in scans


# sha256 of every array of build_table(50_000), taken before the build
# streamed its rounds in blocks
_TABLE_50K_DIGESTS = {
    "quats": "96024ca8a91f72e1f35d10ab55e49977eded5c465a52bc57bbbd4224e8ea555f",
    "parents": "649a8be67de78cde46ce00cfc0beb3cfaabf8c8af57b1a8e15fdc8cbf604881e",
    "gates": "6e49a1dc4ca7ed9fc929ee59d1d6748fd0fe18397583171a71a346c17b1460e4",
    "t_counts": "0cac381415794e898458de0c9fd38a239f60ebbc3e0823d085f4047568c8a111",
    "bfs_index": "f0d2e54a1fe5aa7054fa2c91ecc92e9a7adb51902c7146ba67c092158770b2c3",
    "band_key": "d5705ec11d19d749fd9a432ee6998c8070fad7cdfbfca8149cec656cf7c99b8f",
}


@pytest.mark.parametrize("block", [synthesis._BUILD_BLOCK, 1_000, 7])
def test_streamed_build_matches_the_recorded_table(block: int, monkeypatch) -> None:
    # small blocks split every round, and the rows it keeps, across many blocks
    monkeypatch.setattr(synthesis, "_BUILD_BLOCK", block)
    table = build_table(50_000)
    assert len(table) == 66_956
    digests = {
        name: hashlib.sha256(getattr(table, name).tobytes()).hexdigest()
        for name in _TABLE_50K_DIGESTS
    }
    assert digests == _TABLE_50K_DIGESTS


def test_table_growth_is_monotone() -> None:
    small, larger = build_table(2_000), build_table(20_000)
    assert len(larger) > len(small)
    # a bigger table can only get closer to any fixed target
    target = rz_quat(0.77)
    _, d_small = small.query(target)
    _, d_large = larger.query(target)
    assert d_large <= d_small + 1e-15


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 5.9])
@pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
def test_approximate_rz_hits_accuracy(
    theta: float, epsilon: float, approx_table: ApproxTable
) -> None:
    word, dist = approximate_rz(theta, epsilon, approx_table)
    assert dist <= epsilon
    assert set(word) <= _WORD_KINDS
    # the reported distance is the measured one, at both representations
    assert quat_dist(quat_of_word(word), rz_quat(theta)) == pytest.approx(dist, abs=1e-12)
    mat_dist = su2_distance(_matrix_of_word(word), gate_matrix(gate("rz", 0, angles=[theta])))
    assert mat_dist == pytest.approx(dist, abs=1e-9)


def test_approximate_rz_near_grid_angle(approx_table: ApproxTable) -> None:
    word, dist = approximate_rz(math.pi / 2.0, 1e-3, approx_table)
    assert dist < 1e-6  # S is in the table
    word, dist = approximate_rz(math.pi / 4.0 + 1e-3, 1e-3, approx_table)
    assert dist <= 1e-3


def test_approximate_rz_deterministic(approx_table: ApproxTable) -> None:
    a = approximate_rz(1.234, 1e-2, approx_table)
    b = approximate_rz(1.234, 1e-2, approx_table)
    assert a == b


def test_epsilon_floor_and_range(approx_table: ApproxTable) -> None:
    with pytest.raises(SynthesisError):
        approximate_rz(0.3, MIN_SEQUENCE_EPSILON / 10.0, approx_table)
    with pytest.raises(SynthesisError):
        approximate_rz(0.3, 0.0, approx_table)
    with pytest.raises(SynthesisError):
        approximate_rz(0.3, 1.0, approx_table)


def test_default_table_is_cached() -> None:
    assert default_table() is default_table()


# sha256 digests taken before the band-indexed query and the float-tuple
# refinement replaced the full scan and the numpy 4-vectors: one of the words
# and distances approximate_rz returned for these angles, one of the set of
# targets the refinement handed to the table. A changed tie-break moves a
# word; a reordered float product moves a target's last bits, which the
# words alone may not show.
_GOLDEN_ANGLES = [0.05 + 0.26 * i for i in range(24)]
_GOLDEN_WORDS = "4c6ed6fa33f9972b6e0e3120078853c163fc86ff6e1573558deb98a93732d511"
_GOLDEN_TARGETS = "13118d999ebcfe7039eceb297292f8c4cc32a3ad40559e0443268772bb347984"


def test_approximate_rz_matches_the_golden_digests(approx_table: ApproxTable, monkeypatch) -> None:
    targets: set[str] = set()
    query = ApproxTable.query

    def recording(self, target):
        targets.add(repr(tuple(float(x) for x in target)))
        return query(self, target)

    monkeypatch.setattr(ApproxTable, "query", recording)
    words = hashlib.sha256()
    for eps in (1e-2, 1e-3):
        for theta in _GOLDEN_ANGLES:
            word, dist = approximate_rz(theta, eps, approx_table)
            words.update(f"{eps!r} {theta!r} {' '.join(k.value for k in word)} {dist!r}\n".encode())
    assert words.hexdigest() == _GOLDEN_WORDS
    assert hashlib.sha256("\n".join(sorted(targets)).encode()).hexdigest() == _GOLDEN_TARGETS
