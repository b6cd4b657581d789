"""Circuit intermediate representation, text format, and ansatz-friendly layering.

A circuit is an ordered list of layers; a layer is an ordered list of gates
whose qubit sets are disjoint (a parallel time slice). Values are immutable
after construction and safe to share between workers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

TWO_PI = 2.0 * math.pi
PI_4 = math.pi / 4.0

# Absolute tolerance for angle grid tests (multiple-of-pi/4 classification).
ANGLE_TOL = 1e-12


class GateKind(Enum):
    U1 = "u1"
    U2 = "u2"
    U3 = "u3"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    X = "x"
    Y = "y"
    Z = "z"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CNOT = "cnot"
    CZ = "cz"
    MEASURE = "measure"


# Gate-kind taxonomy: every non-measure kind is a fixed Clifford, a T gate, a
# single-axis rotation, or a U2/U3 composite of single-axis rotations.

# Fixed Clifford kinds; the stabilizer tableau applies exactly these.
CLIFFORD_KINDS = frozenset(
    {
        GateKind.H,
        GateKind.S,
        GateKind.SDG,
        GateKind.X,
        GateKind.Y,
        GateKind.Z,
        GateKind.CNOT,
        GateKind.CZ,
    }
)
T_KINDS = frozenset({GateKind.T, GateKind.TDG})
AXIS_KINDS = frozenset({GateKind.U1, GateKind.RZ, GateKind.RX, GateKind.RY})
# Kinds a transpiled circuit may contain: the Clifford+T alphabet and measures.
RESTRICTED_KINDS = (
    CLIFFORD_KINDS - {GateKind.X, GateKind.Y, GateKind.Z, GateKind.CZ}
) | T_KINDS | {GateKind.MEASURE}


# kind -> (number of qubits, number of angles)
_ARITY: dict[GateKind, tuple[int, int]] = {
    GateKind.U1: (1, 1),
    GateKind.U2: (1, 2),
    GateKind.U3: (1, 3),
    GateKind.H: (1, 0),
    GateKind.S: (1, 0),
    GateKind.SDG: (1, 0),
    GateKind.T: (1, 0),
    GateKind.TDG: (1, 0),
    GateKind.X: (1, 0),
    GateKind.Y: (1, 0),
    GateKind.Z: (1, 0),
    GateKind.RX: (1, 1),
    GateKind.RY: (1, 1),
    GateKind.RZ: (1, 1),
    GateKind.CNOT: (2, 0),
    GateKind.CZ: (2, 0),
    GateKind.MEASURE: (1, 0),
}

_KIND_BY_TOKEN = {k.value: k for k in GateKind}


def normalize_angle(theta: float) -> float:
    """Map an angle into [0, 2*pi). Idempotent and exact for in-range inputs.

    Raises ValueError for NaN and infinite angles.
    """
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    out = math.fmod(theta, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    if out >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        out = 0.0
    return out


def angle_grid_index(theta: float, step: float = PI_4) -> int | None:
    """Return k if theta is within ANGLE_TOL of k*step (mod 2*pi), else None."""
    k = round(theta / step)
    if abs(theta - k * step) <= ANGLE_TOL:
        steps_per_turn = round(TWO_PI / step)
        return k % steps_per_turn
    return None


@dataclass(frozen=True)
class GateOp:
    """One gate application. Angles are normalized to [0, 2*pi) on construction."""

    kind: GateKind
    qubits: tuple[int, ...]
    angles: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        nq, na = _ARITY[self.kind]
        if len(self.qubits) != nq:
            raise ValueError(
                f"{self.kind.value} takes {nq} qubit(s), got {len(self.qubits)}"
            )
        if len(self.angles) != na:
            raise ValueError(
                f"{self.kind.value} takes {na} angle(s), got {len(self.angles)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind.value} qubit indices must be distinct")
        if any(q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative")
        object.__setattr__(self, "angles", tuple(map(normalize_angle, self.angles)))

    @property
    def is_measure(self) -> bool:
        return self.kind is GateKind.MEASURE


def gate(kind: GateKind | str, *qubits: int, angles: Iterable[float] = ()) -> GateOp:
    """Shorthand constructor: gate("h", 0), gate("u1", 2, angles=[0.3])."""
    if isinstance(kind, str):
        kind = _KIND_BY_TOKEN[kind]
    return GateOp(kind, tuple(qubits), tuple(angles))


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list with explicit layer structure.

    Invariants enforced here: n_qubits >= 1, every index in range, and no
    qubit repeated within a layer. ``metadata`` (a free-form name tag) is
    excluded from equality so that rebuilt circuits compare structurally.
    """

    n_qubits: int
    layers: tuple[tuple[GateOp, ...], ...] = ()
    metadata: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        object.__setattr__(
            self, "layers", tuple(tuple(layer) for layer in self.layers)
        )
        for li, layer in enumerate(self.layers):
            if not layer:
                raise ValueError(f"layer {li} is empty")
            seen: set[int] = set()
            for g in layer:
                for q in g.qubits:
                    if q >= self.n_qubits:
                        raise ValueError(
                            f"qubit {q} out of range for n_qubits={self.n_qubits}"
                        )
                    if q in seen:
                        raise ValueError(f"qubit {q} used twice in layer {li}")
                    seen.add(q)

    @staticmethod
    def from_gates(
        n_qubits: int,
        gates: Iterable[GateOp],
        *,
        barriers: Iterable[int] = (),
        metadata: str | None = None,
    ) -> "Circuit":
        """Build with greedy layering.

        A gate starts a new layer iff it shares a qubit with a gate already in
        the current layer. ``barriers`` holds gate positions (indices into the
        gate stream) before which a layer boundary is forced.
        """
        barrier_set = set(barriers)
        layers: list[list[GateOp]] = []
        busy: set[int] = set()
        current: list[GateOp] = []
        for pos, g in enumerate(gates):
            if pos in barrier_set or any(q in busy for q in g.qubits):
                if current:
                    layers.append(current)
                current = []
                busy = set()
            current.append(g)
            busy.update(g.qubits)
        if current:
            layers.append(current)
        return Circuit(n_qubits, tuple(tuple(l) for l in layers), metadata)

    def gates(self) -> Iterator[GateOp]:
        """Iterate gates in layer-major order."""
        for layer in self.layers:
            yield from layer

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def gate_count(self) -> int:
        """Gate count m; Measure ops do not count."""
        return sum(1 for g in self.gates() if not g.is_measure)


def circuit_stats(circuit: Circuit) -> dict[str, int]:
    """Report {n_qubits, gate_count, depth}; measures excluded from gate_count."""
    return {
        "n_qubits": circuit.n_qubits,
        "gate_count": circuit.gate_count,
        "depth": circuit.depth,
    }


class ParseError(ValueError):
    """Syntax or validation failure with 1-based line/column position."""

    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


_GATE_RE = re.compile(
    r"^(?P<kind>[a-z][a-z0-9]*)"
    r"(?:\((?P<angles>[^)]*)\))?"
    r"(?P<rest>(?:\s+\S+)*)\s*$"
)


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit text format.

    Grammar: a `qubits <n>` header; one gate per line (lowercase kind, angles
    in parentheses, qubit indices space-separated); `layer` forces a layer
    boundary; an optional `name <tag>` line sets metadata; `#` starts a
    comment; blank lines are ignored.
    """
    n_qubits: int | None = None
    metadata: str | None = None
    gates_out: list[GateOp] = []
    barriers: set[int] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col0 = line.index(stripped[0]) + 1

        head = stripped.split(None, 1)[0]
        if head == "qubits":
            if n_qubits is not None:
                raise ParseError(lineno, col0, "duplicate qubits header")
            if gates_out:
                raise ParseError(lineno, col0, "qubits header must come first")
            parts = stripped.split()
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise ParseError(lineno, col0, "expected `qubits <positive int>`")
            n_qubits = int(parts[1])
            continue
        if n_qubits is None:
            raise ParseError(lineno, col0, "missing `qubits <n>` header")
        if head == "layer":
            if stripped != "layer":
                raise ParseError(lineno, col0, "`layer` takes no arguments")
            barriers.add(len(gates_out))
            continue
        if head == "name":
            metadata = stripped.split(None, 1)[1] if " " in stripped else ""
            continue

        m = _GATE_RE.match(stripped)
        if m is None:
            raise ParseError(lineno, col0, f"cannot parse gate line: {stripped!r}")
        kind_tok = m.group("kind")
        kind = _KIND_BY_TOKEN.get(kind_tok)
        if kind is None:
            raise ParseError(lineno, col0, f"unknown gate kind {kind_tok!r}")

        angles: tuple[float, ...] = ()
        if m.group("angles") is not None:
            acol = col0 + len(kind_tok)
            toks = [t.strip() for t in m.group("angles").split(",")]
            if toks == [""]:
                toks = []
            try:
                angles = tuple(float(t) for t in toks)
            except ValueError:
                raise ParseError(lineno, acol, f"bad angle list {m.group('angles')!r}")

        rest = m.group("rest").split()
        qcol = col0 + len(stripped) - len(m.group("rest").lstrip() or "")
        qubits: list[int] = []
        for tok in rest:
            if not tok.isdigit():
                raise ParseError(lineno, qcol, f"bad qubit index {tok!r}")
            qubits.append(int(tok))

        try:
            g = GateOp(kind, tuple(qubits), angles)
        except ValueError as exc:
            raise ParseError(lineno, col0, str(exc))
        for q in qubits:
            if q >= n_qubits:
                raise ParseError(
                    lineno, qcol, f"qubit {q} out of range (n_qubits={n_qubits})"
                )
        gates_out.append(g)

    if n_qubits is None:
        raise ParseError(1, 1, "missing `qubits <n>` header")
    return Circuit.from_gates(
        n_qubits, gates_out, barriers=barriers, metadata=metadata
    )


def _format_gate(g: GateOp) -> str:
    tok = g.kind.value
    if g.angles:
        tok += "(" + ",".join(repr(a) for a in g.angles) + ")"
    return tok + " " + " ".join(str(q) for q in g.qubits)


def render_circuit(circuit: Circuit) -> str:
    """Inverse of parse_circuit.

    Layer boundaries are rendered explicitly, so parsing the output rebuilds
    the identical layer structure (greedy inference never merges across an
    explicit `layer` line).
    """
    lines = [f"qubits {circuit.n_qubits}"]
    if circuit.metadata:
        lines.append(f"name {circuit.metadata}")
    for li, layer in enumerate(circuit.layers):
        if li > 0:
            lines.append("layer")
        lines.extend(_format_gate(g) for g in layer)
    return "\n".join(lines) + "\n"
