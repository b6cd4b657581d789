"""Lowering to the Clifford+T alphabet and T-gate counting.

Every gate is rewritten over {H, S, Sdg, T, Tdg, CNOT} (measures pass
through). Rotations on the pi/4 grid lower exactly; generic rotations are
either priced by a closed-form T-cost formula (COUNT mode) or replaced by a
searched approximation word (SEQUENCE mode). All unitary comparisons are
global-phase insensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .circuit import (
    AXIS_KINDS,
    KIND_CODE,
    KINDS,
    MEASURE_KINDS,
    RESTRICTED_KINDS,
    T_KINDS,
    Circuit,
    GateKind,
    GateOp,
    grid_indices,
    normalize_angles,
)
from .synthesis import ApproxTable, SynthesisError, approximate_rz

# Per-rotation COUNT-mode cost is ceil(slope * log2(1/eps)) + offset.
DEFAULT_COUNT_SLOPE = 3.0
DEFAULT_COUNT_OFFSET = 4


class GateClass(Enum):
    CLIFFORD = "clifford"
    T_EXACT = "t-exact"
    NON_CLIFFORD_ROTATION = "non-clifford-rotation"


class SynthesisMode(Enum):
    COUNT = "count"
    SEQUENCE = "sequence"


# A single-axis factor: (axis RZ/RX/RY, angle, pi/4 grid index or None).
_Factor = tuple[GateKind, float, "int | None"]

_CLASSES = (GateClass.CLIFFORD, GateClass.T_EXACT, GateClass.NON_CLIFFORD_ROTATION)


class _FactorPlan(NamedTuple):
    """Every gate's single-axis factors, in gate order, and their T price."""

    axes: np.ndarray  # (m, 3) kind code of each factor's axis, -1 for no factor
    thetas: np.ndarray  # (m, 3) factor angles
    grid: np.ndarray  # (m, 3) pi/4 grid index of each factor, -1 off the grid
    exact_t: np.ndarray  # (m,) T of the odd grid factors, and 1 for T/Tdg
    generic: np.ndarray  # (m,) factors off the grid, which need approximation

    def classes(self) -> np.ndarray:
        """Index into _CLASSES: approximation needed, else T, else Clifford."""
        return np.where(self.generic > 0, 2, np.where(self.exact_t > 0, 1, 0))


# Each kind's factors in gate order, as (axis, angle source). A source below 3
# is the gate's angle column (lam, phi, gam); 3 and 4 are the constants pi and
# pi/2, and a slot without a factor reads 5, the constant 0. Paulis are
# half-turn rotations (equal up to global phase), and Y is X . Z, so Z comes
# first. U3(lam, phi, gam) acts as U1(phi) . RY(lam) . U1(gam) applied right
# to left, so the gate order is RZ(gam), RY(lam), RZ(phi); U2(lam, phi) is
# U3(pi/2, lam, phi).
_PI, _HALF_PI, _NONE = 3, 4, 5
_RECIPES: dict[GateKind, tuple[tuple[GateKind, int], ...]] = {
    GateKind.X: ((GateKind.RX, _PI),),
    GateKind.Y: ((GateKind.RZ, _PI), (GateKind.RX, _PI)),
    GateKind.Z: ((GateKind.RZ, _PI),),
    GateKind.U1: ((GateKind.RZ, 0),),
    GateKind.RZ: ((GateKind.RZ, 0),),
    GateKind.RX: ((GateKind.RX, 0),),
    GateKind.RY: ((GateKind.RY, 0),),
    GateKind.U2: ((GateKind.RZ, 1), (GateKind.RY, _HALF_PI), (GateKind.RZ, 0)),
    GateKind.U3: ((GateKind.RZ, 2), (GateKind.RY, 0), (GateKind.RZ, 1)),
}
_AXES = np.full((len(KINDS), 3), -1, dtype=np.int8)
_SOURCES = np.full((len(KINDS), 3), _NONE, dtype=np.int64)
for _kind, _recipe in _RECIPES.items():
    for _slot, (_axis, _source) in enumerate(_recipe):
        _AXES[KIND_CODE[_kind], _slot] = KIND_CODE[_axis]
        _SOURCES[KIND_CODE[_kind], _slot] = _source
_T_GATE = np.zeros(len(KINDS), dtype=np.int64)
_T_GATE[[KIND_CODE[k] for k in T_KINDS]] = 1
# T of a factor by its grid index 0..7; index -1 (off the grid) reads the last
_ODD_T = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0])
_U3 = KIND_CODE[GateKind.U3]
_RZ, _RX = KIND_CODE[GateKind.RZ], KIND_CODE[GateKind.RX]
# Gates t_count prices per pass, which bounds its temporary arrays.
_PRICE_BLOCK = 1 << 12


def _factor_plan(kinds: np.ndarray, angles: np.ndarray) -> _FactorPlan:
    """Single-axis factors of Paulis, axis rotations and U2/U3, from columns.

    Other kinds have none. Degenerate U3 rotation angles (lam = 0 or pi) fold
    the two diagonal factors into one so that the class of the factor list
    matches the class of the product.
    """
    m = len(kinds)
    axes = _AXES[kinds]
    sources = np.zeros((m, 6))
    sources[:, :3] = angles
    sources[:, 3:5] = (math.pi, math.pi / 2.0)
    thetas = sources.reshape(-1)[_SOURCES[kinds] + 6 * np.arange(m)[:, None]]
    u3 = (kinds == _U3).nonzero()[0]
    if len(u3):
        lam, phi, gam = angles[u3].T
        half_turns = grid_indices(lam, step=math.pi)
        # lam = 0: RZ(gam + phi); lam = pi: phase . X . RZ(gam - phi + pi)
        for turns, merged, rest in (
            (0, gam + phi, -1),
            (1, gam - phi + math.pi, _RX),
        ):
            on = half_turns == turns
            rows = u3[on]
            axes[rows] = (_RZ, rest, -1)
            thetas[rows] = (0.0, math.pi * turns, 0.0)
            thetas[rows, 0] = normalize_angles(merged[on])
    grid = grid_indices(thetas)
    if len(u3):
        folded = u3[(half_turns >= 0) & (grid[u3, 0] == 0)]
        axes[folded, 0] = -1  # the merged diagonal factor is the identity
    # a slot without a factor holds angle 0: grid point 0, no T
    return _FactorPlan(
        axes,
        thetas,
        grid,
        _ODD_T[grid].sum(axis=1) + _T_GATE[kinds],
        (grid < 0).sum(axis=1),
    )


def _factor_lists(plan: _FactorPlan) -> list[tuple[_Factor, ...]]:
    return [
        tuple(
            (KINDS[axis], theta, None if k < 0 else k)
            for axis, theta, k in zip(axes, thetas, grid)
            if axis >= 0
        )
        if max(axes) >= 0
        else ()
        for axes, thetas, grid in zip(
            plan.axes.tolist(), plan.thetas.tolist(), plan.grid.tolist()
        )
    ]


def _plan_of(g: GateOp) -> tuple[tuple[_Factor, ...], GateClass]:
    """One gate's factors and class, by the same rule as a whole circuit's."""
    if g.is_measure:
        raise ValueError("measure has no gate class")
    angles = np.zeros((1, 3))
    angles[0, : len(g.angles)] = g.angles
    plan = _factor_plan(np.array([KIND_CODE[g.kind]], dtype=np.uint8), angles)
    return _factor_lists(plan)[0], _CLASSES[int(plan.classes()[0])]


def classify_gate(g: GateOp) -> GateClass:
    """Clifford, exactly-one-T, or approximation-needed.

    Fixed Paulis/Cliffords and CNOT/CZ are Clifford; T/Tdg cost one T; axis
    rotations classify by their angle's position on the pi/4 grid; U2/U3
    classify by the worst of their single-axis factors.
    """
    return _plan_of(g)[1]


# RZ/U1 on the pi/4 grid, keyed by grid index; diagonal so order is free.
_RZ_GRID_WORDS: dict[int, tuple[GateKind, ...]] = {
    0: (),
    1: (GateKind.T,),
    2: (GateKind.S,),
    3: (GateKind.S, GateKind.T),
    4: (GateKind.S, GateKind.S),
    5: (GateKind.S, GateKind.S, GateKind.T),
    6: (GateKind.SDG,),
    7: (GateKind.TDG,),
}

# Clifford words (before, after) that turn an RZ word into the axis's
# rotation; conjugation moves the axis without changing the distance.
_AXIS_FRAMES: dict[GateKind, tuple[tuple[GateKind, ...], tuple[GateKind, ...]]] = {
    GateKind.RZ: ((), ()),
    GateKind.RX: ((GateKind.H,), (GateKind.H,)),
    GateKind.RY: ((GateKind.SDG, GateKind.H), (GateKind.H, GateKind.S)),
}

# Factor grid indices of U2(0, pi), which lowers to a single H.
_U2_HADAMARD = [4, 2, 0]


def _lower(
    g: GateOp,
    factors: tuple[_Factor, ...],
    cls: GateClass,
    epsilon: float | None,
    mode: SynthesisMode,
    count_slope: float,
    count_offset: int,
    table: ApproxTable | None,
    out: list[GateOp] | None,
) -> tuple[GateClass, int, float, int]:
    """Price and (when out is a list) lower one non-measure gate.

    factors and cls are the gate's row of _factor_plan. Returns (class, T
    used, error bound, rotations approximated) and appends the
    restricted-alphabet lowering to out. Grid factors lower exactly with zero
    error; a generic factor is priced by the COUNT formula (error epsilon,
    nothing emitted for the whole gate) or replaced by a searched word (its
    measured distance) in SEQUENCE mode. Error bounds add up in factor order.
    epsilon None asks for the exact path only.

    Raises:
        SynthesisError: epsilon is None and the gate needs approximation.
    """
    kind = g.kind
    if kind in RESTRICTED_KINDS:
        if out is not None:
            out.append(g)
        return cls, int(kind in T_KINDS), 0.0, 0
    if kind is GateKind.CZ:
        if out is not None:
            ctrl, tgt = g.qubits
            h = GateOp(GateKind.H, (tgt,))
            out += [h, GateOp(GateKind.CNOT, (ctrl, tgt)), h]
        return cls, 0, 0.0, 0

    if cls is GateClass.NON_CLIFFORD_ROTATION:
        if epsilon is None:
            raise SynthesisError(
                f"{kind.value} with generic angle needs approximation"
            )
        if mode is SynthesisMode.COUNT:
            out = None  # priced, not emitted
    q = g.qubits[0]
    if kind is GateKind.U2 and [k for _, _, k in factors] == _U2_HADAMARD:
        if out is not None:
            out.append(GateOp(GateKind.H, (q,)))
        return cls, 0, 0.0, 0
    t_used, err, n_approx = 0, 0.0, 0
    for axis, theta, k in factors:
        if k is not None:
            word = _RZ_GRID_WORDS[k]
            t_used += k % 2
        elif mode is SynthesisMode.COUNT:
            t_used += count_mode_t_cost(epsilon, count_slope, count_offset)
            err += epsilon
            n_approx += 1
            continue
        else:
            word, dist = approximate_rz(theta, epsilon, table)
            t_used += sum(1 for w in word if w in T_KINDS)
            err += dist
            n_approx += 1
        if out is not None:
            before, after = _AXIS_FRAMES[axis]
            out += [GateOp(w, (q,)) for w in (*before, *word, *after)]
    return cls, t_used, err, n_approx


def synthesize_exact(g: GateOp) -> list[GateOp]:
    """Rewrite a grid-angle gate over the restricted alphabet.

    The result equals the input up to global phase. Single diagonal
    rotations on an odd pi/4 grid point use exactly one T or Tdg.

    Raises:
        SynthesisError: the gate needs approximation (generic angle).
    """
    out: list[GateOp] = []
    _lower(
        g, *_plan_of(g), None, SynthesisMode.SEQUENCE, DEFAULT_COUNT_SLOPE,
        DEFAULT_COUNT_OFFSET, None, out,
    )
    return out


def count_mode_t_cost(
    epsilon: float,
    slope: float = DEFAULT_COUNT_SLOPE,
    offset: int = DEFAULT_COUNT_OFFSET,
) -> int:
    """Deterministic per-rotation T price at accuracy epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return math.ceil(slope * math.log2(1.0 / epsilon)) + offset


def synthesize_approx(
    g: GateOp,
    epsilon: float,
    mode: SynthesisMode = SynthesisMode.COUNT,
    *,
    count_slope: float = DEFAULT_COUNT_SLOPE,
    count_offset: int = DEFAULT_COUNT_OFFSET,
    table: ApproxTable | None = None,
) -> tuple[list[GateOp], int, float]:
    """Approximate a single-axis rotation; returns (gates, t_used, err_bound).

    COUNT mode prices the rotation without emitting gates (err_bound is the
    requested epsilon). SEQUENCE mode searches for an explicit word within
    operator distance epsilon and reports the measured distance; it refuses
    epsilon below the search floor. Grid angles fall back to the exact path
    with zero error regardless of epsilon.
    """
    if g.kind not in AXIS_KINDS:
        raise SynthesisError(f"expected a single-axis rotation, got {g.kind.value}")
    seq: list[GateOp] = []
    _, t_used, err, _ = _lower(
        g, *_plan_of(g), epsilon, mode, count_slope, count_offset, table, seq
    )
    return seq, t_used, err


@dataclass(frozen=True)
class TranspiledCircuit:
    """Result of lowering: restricted-alphabet circuit plus provenance.

    source_map holds one half-open index range per original gate (in
    layer-major order) into the emitted gate stream. approx_error is the sum
    of per-rotation error bounds, at most approx_rotations * epsilon. In
    COUNT mode approximated rotations are priced but not emitted, so their
    ranges are empty and the circuit is not unitarily equivalent.
    """

    circuit: Circuit
    source_map: tuple[tuple[int, int], ...]
    approx_error: float
    approx_rotations: int

    def __post_init__(self) -> None:
        bad = self.circuit.first_kind_outside(RESTRICTED_KINDS)
        if bad is not None:
            raise ValueError(f"unexpected kind {bad.value} after lowering")


def transpile(
    circuit: Circuit,
    epsilon: float,
    mode: SynthesisMode = SynthesisMode.SEQUENCE,
    *,
    count_slope: float = DEFAULT_COUNT_SLOPE,
    count_offset: int = DEFAULT_COUNT_OFFSET,
    table: ApproxTable | None = None,
) -> TranspiledCircuit:
    """Lower every gate in layer-major order, preserving gate order."""
    plan = _factor_plan(circuit.columns.kinds, circuit.columns.angles)
    classes = [_CLASSES[c] for c in plan.classes().tolist()]
    emitted: list[GateOp] = []
    spans: list[tuple[int, int]] = []
    total_err = 0.0
    n_approx = 0
    for g, factors, cls in zip(circuit.gates(), _factor_lists(plan), classes):
        start = len(emitted)
        if g.is_measure:
            emitted.append(g)
        else:
            _, _, err, k = _lower(
                g, factors, cls, epsilon, mode, count_slope, count_offset, table,
                emitted,
            )
            total_err += err
            n_approx += k
        spans.append((start, len(emitted)))
    out = Circuit.from_gates(circuit.n_qubits, emitted, metadata=circuit.metadata)
    return TranspiledCircuit(out, tuple(spans), total_err, n_approx)


@dataclass(frozen=True)
class LayerTally:
    """Per-layer slice of a count report: index, T price, symmetry charge."""

    layer: int
    t_full: int
    t_sym: int


@dataclass(frozen=True)
class TCountReport:
    """T-gate tallies under both policies at a fixed accuracy.

    t_full prices every rotation individually (COUNT-mode transpilation).
    t_sym charges one T per maximal run of consecutive layers that contain a
    non-Clifford gate: adjacent rotation layers inside one variational block
    share a single symmetry-breaking T, and the charge appears on the first
    layer of the run in the breakdown.
    """

    t_full: int
    t_sym: int
    epsilon: float
    clifford_count: int
    breakdown: tuple[LayerTally, ...]

    def __post_init__(self) -> None:
        assert self.t_full >= 0 and self.t_sym >= 0
        # circuit-derived reports bound t_sym by depth; synthetic reports
        # (externally supplied counts) carry no breakdown
        if self.breakdown:
            assert self.t_sym <= len(self.breakdown)


def t_count(
    circuit: Circuit,
    epsilon: float,
    *,
    count_slope: float = DEFAULT_COUNT_SLOPE,
    count_offset: int = DEFAULT_COUNT_OFFSET,
) -> TCountReport:
    """Count T-gates under the full and symmetry-breaking policies.

    Prices the gates from the circuit's columns, _PRICE_BLOCK rows per array
    pass, and sums the prices per layer; no GateOp is built.
    """
    cols = circuit.columns
    exact_t = np.empty(len(cols.kinds), dtype=np.int64)
    generic = np.empty(len(cols.kinds), dtype=np.int64)
    for lo in range(0, len(cols.kinds), _PRICE_BLOCK):
        rows = slice(lo, lo + _PRICE_BLOCK)
        plan = _factor_plan(cols.kinds[rows], cols.angles[rows])
        exact_t[rows], generic[rows] = plan.exact_t, plan.generic
    hot = exact_t + generic > 0
    clifford_count = int(np.count_nonzero(~hot)) - circuit.count_kinds(MEASURE_KINDS)
    # the price of a generic factor; the epsilon check only runs when one is priced
    cost = 0
    if generic.any():
        cost = count_mode_t_cost(epsilon, count_slope, count_offset)
    tallies: list[LayerTally] = []
    starts = cols.offsets[:-1]
    if len(starts):
        layer_hot = np.logical_or.reduceat(hot, starts)
        charges = layer_hot & ~np.concatenate(([False], layer_hot[:-1]))
        for li, (layer_exact, layer_generic, charge) in enumerate(
            zip(
                np.add.reduceat(exact_t, starts).tolist(),
                np.add.reduceat(generic, starts).tolist(),
                charges.astype(int).tolist(),
            )
        ):
            tallies.append(LayerTally(li, layer_exact + layer_generic * cost, charge))
    t_full = sum(row.t_full for row in tallies)
    t_sym = sum(row.t_sym for row in tallies)
    return TCountReport(t_full, t_sym, epsilon, clifford_count, tuple(tallies))
