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

from .circuit import (
    AXIS_KINDS,
    CLIFFORD_KINDS,
    RESTRICTED_KINDS,
    T_KINDS,
    Circuit,
    GateKind,
    GateOp,
    angle_grid_index,
    normalize_angle,
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

# Paulis as half-turn rotations (equal up to global phase), in gate order;
# Y is X . Z, so Z comes first.
_Z_FACTOR: _Factor = (GateKind.RZ, math.pi, 4)
_X_FACTOR: _Factor = (GateKind.RX, math.pi, 4)
_PAULI_FACTORS: dict[GateKind, tuple[_Factor, ...]] = {
    GateKind.X: (_X_FACTOR,),
    GateKind.Y: (_Z_FACTOR, _X_FACTOR),
    GateKind.Z: (_Z_FACTOR,),
}


def _factor(axis: GateKind, theta: float) -> _Factor:
    return (axis, theta, angle_grid_index(theta))


def _factors(g: GateOp) -> tuple[_Factor, ...]:
    """Single-axis factors of a Pauli, axis rotation or U2/U3, in gate order.

    U3(lam, phi, gam) acts as U1(phi) . RY(lam) . U1(gam) applied right to
    left, so the gate order is RZ(gam), RY(lam), RZ(phi); U2(lam, phi) is
    U3(pi/2, lam, phi). Degenerate rotation angles (lam = 0 or pi) fold the
    two diagonal factors into one so that the class of the factor list
    matches the class of the product.
    """
    kind = g.kind
    if kind in _PAULI_FACTORS:
        return _PAULI_FACTORS[kind]
    if kind in AXIS_KINDS:
        return (_factor(GateKind.RZ if kind is GateKind.U1 else kind, g.angles[0]),)
    if kind is GateKind.U2:
        lam, phi = g.angles
        theta, late, early = math.pi / 2.0, lam, phi
    else:
        theta, late, early = g.angles
        half_turns = angle_grid_index(theta, step=math.pi)
        if half_turns == 0:
            merged = _factor(GateKind.RZ, normalize_angle(early + late))
            return () if merged[2] == 0 else (merged,)
        if half_turns == 1:
            # U1(phi) RY(pi) U1(gam) = phase . X . U1(gam - phi + pi)
            merged = _factor(GateKind.RZ, normalize_angle(early - late + math.pi))
            return (_X_FACTOR,) if merged[2] == 0 else (merged, _X_FACTOR)
    return (
        _factor(GateKind.RZ, early),
        _factor(GateKind.RY, theta),
        _factor(GateKind.RZ, late),
    )


def _factor_class(factors: tuple[_Factor, ...]) -> GateClass:
    # pi/2 grid -> Clifford, odd pi/4 grid -> one exact T, else approximate
    ks = [k for _, _, k in factors]
    if None in ks:
        return GateClass.NON_CLIFFORD_ROTATION
    if any(k % 2 for k in ks):
        return GateClass.T_EXACT
    return GateClass.CLIFFORD


def classify_gate(g: GateOp) -> GateClass:
    """Clifford, exactly-one-T, or approximation-needed.

    Fixed Paulis/Cliffords and CNOT/CZ are Clifford; T/Tdg cost one T; axis
    rotations classify by their angle's position on the pi/4 grid; U2/U3
    classify by the worst of their single-axis factors.
    """
    if g.is_measure:
        raise ValueError("measure has no gate class")
    if g.kind in CLIFFORD_KINDS:
        return GateClass.CLIFFORD
    if g.kind in T_KINDS:
        return GateClass.T_EXACT
    return _factor_class(_factors(g))


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
    epsilon: float | None,
    mode: SynthesisMode,
    count_slope: float,
    count_offset: int,
    table: ApproxTable | None,
    out: list[GateOp] | None,
) -> tuple[GateClass, int, float, int]:
    """Classify, price and (when out is a list) lower one non-measure gate.

    Returns (class, T used, error bound, rotations approximated) and appends
    the restricted-alphabet lowering to out. Grid factors lower exactly with
    zero error; a generic factor is priced by the COUNT formula (error
    epsilon, nothing emitted for the whole gate) or replaced by a searched
    word (its measured distance) in SEQUENCE mode. Error bounds add up in
    factor order. epsilon None asks for the exact path only.

    Raises:
        SynthesisError: epsilon is None and the gate needs approximation.
    """
    if g.is_measure:
        raise ValueError("measure has no gate class")
    kind = g.kind
    if kind in RESTRICTED_KINDS:
        if out is not None:
            out.append(g)
        if kind in T_KINDS:
            return GateClass.T_EXACT, 1, 0.0, 0
        return GateClass.CLIFFORD, 0, 0.0, 0
    if kind is GateKind.CZ:
        if out is not None:
            ctrl, tgt = g.qubits
            h = GateOp(GateKind.H, (tgt,))
            out += [h, GateOp(GateKind.CNOT, (ctrl, tgt)), h]
        return GateClass.CLIFFORD, 0, 0.0, 0

    factors = _factors(g)
    cls = _factor_class(factors)
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
        g, None, SynthesisMode.SEQUENCE, DEFAULT_COUNT_SLOPE, DEFAULT_COUNT_OFFSET,
        None, out,
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
    _, t_used, err, _ = _lower(g, epsilon, mode, count_slope, count_offset, table, seq)
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
        for g in self.circuit.gates():
            if g.kind not in RESTRICTED_KINDS:
                raise ValueError(f"unexpected kind {g.kind.value} after lowering")


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
    emitted: list[GateOp] = []
    spans: list[tuple[int, int]] = []
    total_err = 0.0
    n_approx = 0
    for g in circuit.gates():
        start = len(emitted)
        if g.is_measure:
            emitted.append(g)
        else:
            _, _, err, k = _lower(
                g, epsilon, mode, count_slope, count_offset, table, emitted
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
    """Count T-gates under the full and symmetry-breaking policies."""
    tallies: list[LayerTally] = []
    t_full = 0
    t_sym = 0
    clifford_count = 0
    prev_hot = False
    for li, layer in enumerate(circuit.layers):
        layer_t = 0
        hot = False
        for g in layer:
            if g.is_measure:
                continue
            cls, t_used, _, _ = _lower(
                g, epsilon, SynthesisMode.COUNT, count_slope, count_offset, None, None
            )
            if cls is GateClass.CLIFFORD:
                clifford_count += 1
                continue
            hot = True
            layer_t += t_used
        charge = 1 if hot and not prev_hot else 0
        t_sym += charge
        t_full += layer_t
        tallies.append(LayerTally(li, layer_t, charge))
        prev_hot = hot
    return TCountReport(t_full, t_sym, epsilon, clifford_count, tuple(tallies))
