"""Circuit intermediate representation, text format, and ansatz-friendly layering.

A circuit is an ordered list of layers; a layer is an ordered list of gates
whose qubit sets are disjoint (a parallel time slice). Values are immutable
after construction and safe to share between workers.

Every circuit stores its gates as read-only columns (``GateColumns``: kind
codes, qubit pairs, angles and layer offsets), and depth, gate counts and
gate-kind questions read them without building a ``GateOp``. ``GateOp`` layers
are a view, built on first use and cached; ``Circuit(n, layers)`` and
``Circuit.from_gates`` keep the layers they were handed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cache, reduce
from itertools import compress, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

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
MEASURE_KINDS = frozenset({GateKind.MEASURE})
# Kinds a transpiled circuit may contain: the Clifford+T alphabet and measures.
RESTRICTED_KINDS = (
    CLIFFORD_KINDS - {GateKind.X, GateKind.Y, GateKind.Z, GateKind.CZ}
) | T_KINDS | MEASURE_KINDS


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

# Column kind codes: a gate's code is its kind's position in GateKind.
KINDS: tuple[GateKind, ...] = tuple(GateKind)
KIND_CODE = {k: code for code, k in enumerate(KINDS)}
_QUBITS_OF = np.array([_ARITY[k][0] for k in KINDS], dtype=np.int8)
_ANGLES_OF = np.array([_ARITY[k][1] for k in KINDS], dtype=np.int8)
_ANGLE_SLOTS = np.arange(3) < _ANGLES_OF[:, None]  # each kind's used angle slots


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


def normalize_angles(theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """normalize_angle over an array of finite angles, bit for bit."""
    out = np.fmod(theta, TWO_PI, out=out)
    out[out < 0.0] += TWO_PI
    out[out >= TWO_PI] = 0.0
    return out


def grid_indices(theta: np.ndarray, step: float = PI_4) -> np.ndarray:
    """k (int64) where finite theta is within ANGLE_TOL of k*step (mod 2*pi),
    else -1. Rounds half to even, as Python's round does."""
    k = np.round(theta / step)
    off = np.abs(theta - k * step) > ANGLE_TOL
    np.remainder(k, round(TWO_PI / step), out=k)
    k[off] = -1
    return k.astype(np.int64)


def angle_grid_index(theta: float, step: float = PI_4) -> int | None:
    """Return k if theta is within ANGLE_TOL of k*step (mod 2*pi), else None."""
    if not math.isfinite(theta):
        return None
    k = int(grid_indices(np.array([theta]), step)[0])
    return None if k < 0 else k


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


class GateColumns(NamedTuple):
    """A circuit as arrays, one row per gate in layer-major order."""

    kinds: np.ndarray  # (m,) uint8 kind code, an index into KINDS
    qubits: np.ndarray  # (m, 2) int64, -1 past the kind's arity (object past int64)
    angles: np.ndarray  # (m, 3) float64 in [0, 2*pi), 0.0 past the kind's arity
    offsets: np.ndarray  # (depth + 1,) int64 first row of each layer, then m


def _qubit_pairs(ops: Sequence[GateOp]) -> np.ndarray:
    """(m, 2) qubit column of gates, -1 padded; object dtype only for indices
    past int64."""
    pairs = [g.qubits if len(g.qubits) == 2 else (g.qubits[0], -1) for g in ops]
    try:
        return np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    except OverflowError:
        return np.array(pairs, dtype=object).reshape(len(pairs), 2)


def _layer_offsets(qubits: np.ndarray, barriers: Iterable[int]) -> np.ndarray:
    """Greedy layering of an (m, 2) qubit column, -1 padded.

    A gate starts a new layer iff it shares a qubit with a gate already in the
    current layer, or a barrier (a gate position) stands before it. Returns
    the first row of each layer, then m.
    """
    m = len(qubits)
    if m == 0:
        return np.zeros(1, dtype=np.int64)
    flat = qubits.reshape(-1)
    order = flat.argsort(kind="stable")
    ordered = flat[order]
    # the previous gate on the same qubit, for every qubit use
    same = ordered[1:] == ordered[:-1]
    same &= ordered[1:] >= 0
    prev = np.full(2 * m, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same] // 2
    last = prev.reshape(m, 2).max(axis=1).tolist()
    for b in barriers:
        if 0 < b < m:
            last[b] = m
    starts = [0]
    for i, seen in enumerate(last):
        if seen >= starts[-1]:
            starts.append(i)
    return np.array(starts + [m], dtype=np.int64)


def _columns_of_gates(
    ops: Sequence[GateOp], qubits: np.ndarray, offsets: np.ndarray
) -> GateColumns:
    """Columns of gates in layer-major order, given their qubit column."""
    kinds = np.array([KIND_CODE[g.kind] for g in ops], np.uint8)
    angles = np.zeros((len(ops), 3))
    angles[_ANGLE_SLOTS[kinds]] = [a for g in ops for a in g.angles]
    return GateColumns(kinds, qubits, angles, offsets)


def _layers_of_columns(cols: GateColumns) -> tuple[tuple[GateOp, ...], ...]:
    """GateOp layers of columns the parser has already checked and normalised;
    the gates skip GateOp's own checks."""
    ops = []
    for code, q, a, nq, na in zip(
        cols.kinds.tolist(),
        cols.qubits.tolist(),
        cols.angles.tolist(),
        _QUBITS_OF[cols.kinds].tolist(),
        _ANGLES_OF[cols.kinds].tolist(),
    ):
        g = object.__new__(GateOp)
        g.__dict__.update(kind=KINDS[code], qubits=tuple(q[:nq]), angles=tuple(a[:na]))
        ops.append(g)
    bounds = cols.offsets.tolist()
    return tuple(tuple(ops[a:b]) for a, b in zip(bounds, bounds[1:]))


@cache
def _kind_table(kinds: frozenset[GateKind]) -> np.ndarray:
    """Boolean table over kind codes: True at each code of a kind in kinds."""
    return np.array([k in kinds for k in KINDS])


class Circuit:
    """Immutable gate list with explicit layer structure, stored once as
    read-only ``columns``; ``layers`` is a cached ``GateOp`` view of them.

    Invariants: n_qubits >= 1, every index in range, and no qubit repeated
    within a layer. ``Circuit(n, layers)`` checks them; the parser and
    ``from_gates`` establish them while they build. ``metadata`` (a free-form
    name tag) is excluded from equality so that rebuilt circuits compare
    structurally.
    """

    __slots__ = ("n_qubits", "metadata", "columns", "_layers")

    def __init__(
        self,
        n_qubits: int,
        layers: Iterable[Iterable[GateOp]] = (),
        metadata: str | None = None,
    ) -> None:
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        layers = tuple(tuple(layer) for layer in layers)
        for li, layer in enumerate(layers):
            if not layer:
                raise ValueError(f"layer {li} is empty")
            seen: set[int] = set()
            for g in layer:
                for q in g.qubits:
                    if q >= n_qubits:
                        raise ValueError(
                            f"qubit {q} out of range for n_qubits={n_qubits}"
                        )
                    if q in seen:
                        raise ValueError(f"qubit {q} used twice in layer {li}")
                    seen.add(q)
        ops = [g for layer in layers for g in layer]
        offsets = np.cumsum([0] + [len(layer) for layer in layers], dtype=np.int64)
        columns = _columns_of_gates(ops, _qubit_pairs(ops), offsets)
        self._init(n_qubits, metadata, columns, layers)

    def _init(
        self,
        n_qubits: int,
        metadata: str | None,
        columns: GateColumns,
        layers: tuple[tuple[GateOp, ...], ...] | None,
    ) -> "Circuit":
        """Set every slot, with the column arrays made read-only."""
        for array in columns:
            array.setflags(write=False)
        for name, value in zip(self.__slots__, (n_qubits, metadata, columns, layers)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Circuit is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (Circuit, (self.n_qubits, self.layers, self.metadata))

    @property
    def layers(self) -> tuple[tuple[GateOp, ...], ...]:
        """The gates as GateOp layers, built from the columns on first use."""
        if self._layers is None:
            object.__setattr__(self, "_layers", _layers_of_columns(self.columns))
        return self._layers

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.layers == other.layers

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.layers))

    def __repr__(self) -> str:
        return (
            f"Circuit(n_qubits={self.n_qubits!r}, layers={self.layers!r}, "
            f"metadata={self.metadata!r})"
        )

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
        ops = list(gates)
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        qubits = _qubit_pairs(ops)
        if len(ops) and qubits.max() >= n_qubits:
            q = next(q for g in ops for q in g.qubits if q >= n_qubits)
            raise ValueError(f"qubit {q} out of range for n_qubits={n_qubits}")
        offsets = _layer_offsets(qubits, barriers)
        bounds = offsets.tolist()
        layers = tuple(tuple(ops[a:b]) for a, b in zip(bounds, bounds[1:]))
        columns = _columns_of_gates(ops, qubits, offsets)
        return object.__new__(Circuit)._init(n_qubits, metadata, columns, layers)

    def gates(self) -> Iterator[GateOp]:
        """Iterate gates in layer-major order."""
        for layer in self.layers:
            yield from layer

    def first_kind_outside(self, kinds: frozenset[GateKind]) -> GateKind | None:
        """The kind of the first gate, in layer-major order, whose kind is not
        in kinds; None if there is none."""
        codes = self.columns.kinds
        inside = _kind_table(kinds)[codes]
        if inside.all():
            return None
        return KINDS[codes[inside.argmin()]]

    def count_kinds(self, kinds: frozenset[GateKind]) -> int:
        """The number of gates whose kind is in kinds."""
        return int(np.count_nonzero(_kind_table(kinds)[self.columns.kinds]))

    @property
    def depth(self) -> int:
        return len(self.columns.offsets) - 1

    @property
    def gate_count(self) -> int:
        """Gate count m; Measure ops do not count."""
        return len(self.columns.kinds) - self.count_kinds(MEASURE_KINDS)


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


# One match per line of a block of lines joined with "\n". Groups: kind,
# angle list, first qubit token, second, the other tokens; a line whose head
# is not a kind (or whose angle list is not closed before a qubit token) fills
# only the sixth group, and a blank line none. A comment ends a line.
_LINE_RE = re.compile(
    r"^[^\S\n]*(?:"
    r"([a-z][a-z0-9]*)(?:\(([^)#\n]*)\))?"
    r"(?:[^\S\n]+([^\s#]+))?(?:[^\S\n]+([^\s#]+))?((?:[^\S\n]+[^\s#]+)*)"
    r"|([^\s#][^#\n]*?)|)"
    r"[^\S\n]*(?:#[^\n]*)?$",
    re.M,
)
_UINT = re.compile(r"[0-9]+")  # header and qubit tokens: ASCII digits only
_UINTS = re.compile(r"[0-9]+(?: [0-9]+)*")

# Line classes beyond the gate kind codes.
_HEADER, _LAYER, _NAME, _UNKNOWN, _OTHER, _BLANK = range(len(KINDS), len(KINDS) + 6)
_LINE_CLASS = {
    **{k.value: code for k, code in KIND_CODE.items()},
    "qubits": _HEADER,
    "layer": _LAYER,
    "name": _NAME,
    "": _BLANK,
}


def _class_table(*classes: int) -> np.ndarray:
    table = np.zeros(_BLANK + 1, dtype=bool)
    table[list(classes)] = True
    return table


_HEAD_WORDS = _class_table(_HEADER, _LAYER, _NAME)
_FAILING = _class_table(_HEADER, _UNKNOWN, _OTHER)  # except the first header
_MISSING_HEADER = "missing `qubits <n>` header"
_EMPTY_COLUMNS = (np.zeros(0, np.uint8), np.zeros((0, 2), np.int64), np.zeros((0, 3)))


def _pick(column: tuple[str, ...], rows: list[int]) -> list[str]:
    return [column[r] for r in rows]


def _flags(column: Iterable[object], size: int) -> np.ndarray:
    return np.fromiter(map(bool, column), bool, size)


def _floats(tokens: list[str]) -> tuple[np.ndarray, np.ndarray | None]:
    """The angle tokens as floats, and which failed to parse (None if none)."""
    try:
        return np.fromiter(map(float, tokens), float, len(tokens)), None
    except ValueError:
        pass
    # float() alone also rejects a "\x1f" that str.strip() removes
    values, bad = np.full(len(tokens), math.nan), np.zeros(len(tokens), bool)
    for i, tok in enumerate(tokens):
        try:
            values[i] = float(tok.strip())
        except ValueError:
            bad[i] = True
    return values, bad


def _line_error(raw: str, line: int, message: str) -> ParseError:
    """ParseError at the first non-blank column of a line."""
    body = raw.split("#", 1)[0]
    return ParseError(line, len(body) - len(body.lstrip()) + 1, message)


# Lines matched per block. A block's strings are dropped once its gates are
# columns, so a parse holds the text's lines and one block's fields at a time.
_PARSE_BLOCK = 1 << 11


class _Block(NamedTuple):
    n_qubits: int | None  # from the header, once it has been read
    kinds: np.ndarray
    qubits: np.ndarray
    angles: np.ndarray
    barriers: list[int]  # gate positions within the block
    metadata: str | None  # the block's last `name` tag


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit text format.

    Grammar: a `qubits <n>` header; one gate per line (lowercase kind, angles
    in parentheses, qubit indices space-separated); `layer` forces a layer
    boundary; an optional `name <tag>` line sets metadata; `#` starts a
    comment; blank lines are ignored. The header's count and the qubit
    indices are ASCII digits.

    One regex pass splits every line into fields, block by block, and the
    gate lines' checks run over their columns. The first failing line raises
    ParseError with its position and the message of the first check it fails.
    """
    lines = text.splitlines()
    n_qubits: int | None = None
    metadata: str | None = None
    blocks: list[_Block] = []
    barriers: list[int] = []
    gates = 0
    for first in range(0, len(lines), _PARSE_BLOCK):
        block = _parse_block(lines[first : first + _PARSE_BLOCK], first, n_qubits)
        n_qubits = block.n_qubits
        metadata = block.metadata if block.metadata is not None else metadata
        barriers += [gates + b for b in block.barriers]
        gates += len(block.kinds)
        blocks.append(block)
    if n_qubits is None:
        raise ParseError(1, 1, _MISSING_HEADER)
    kinds, qubits, angles = (np.concatenate(col) for col in zip(*(b[1:4] for b in blocks)))
    columns = GateColumns(kinds, qubits, angles, _layer_offsets(qubits, barriers))
    return object.__new__(Circuit)._init(n_qubits, metadata, columns, None)


def _parse_block(lines: list[str], first: int, n_qubits: int | None) -> _Block:
    """The gate columns, barriers and name tag of lines first, first + 1, ...

    n_qubits is None until the header has been read; the block then looks for
    it first.
    """
    rows = _LINE_RE.findall("\n".join(lines))
    size = len(rows)
    fields = tuple(zip(*rows))
    del rows
    kind, _, tok0, tok1, more, other = fields
    cls = np.fromiter(map(_LINE_CLASS.get, kind, repeat(_UNKNOWN)), np.int64, size)
    cls[_flags(other, size)] = _OTHER
    for r in _HEAD_WORDS[cls].nonzero()[0].tolist():
        if lines[r].lstrip()[len(kind[r]) :].startswith("("):
            cls[r] = _UNKNOWN  # `qubits(...)` is a gate line of unknown kind

    failing = _FAILING[cls]
    if n_qubits is None:
        # the header: every earlier line is blank, and it names a positive count
        if (cls == _BLANK).all():
            return _Block(None, *_EMPTY_COLUMNS, [], None)
        head = int((cls != _BLANK).argmax())
        if cls[head] != _HEADER:
            raise _line_error(lines[head], first + head + 1, _MISSING_HEADER)
        count = tok0[head]
        if tok1[head] or more[head] or not _UINT.fullmatch(count) or int(count) < 1:
            raise _line_error(lines[head], first + head + 1, "expected `qubits <positive int>`")
        n_qubits = int(count)
        failing[head] = False

    layer_rows = (cls == _LAYER).nonzero()[0]
    for r in layer_rows.tolist():
        failing[r] = bool(tok0[r])  # `layer` takes no arguments
    first_bad = int(failing.argmax()) if failing.any() else size
    gate_rows, kinds, qubits, angles = _gate_columns(lines, first, cls, fields, n_qubits, first_bad)
    if first_bad < size:
        raw = lines[first_bad]
        message = {
            _HEADER: "duplicate qubits header",
            _LAYER: "`layer` takes no arguments",
            _UNKNOWN: f"unknown gate kind {kind[first_bad]!r}",
            _OTHER: f"cannot parse gate line: {raw.split('#', 1)[0].strip()!r}",
        }[int(cls[first_bad])]
        raise _line_error(raw, first + first_bad + 1, message)

    names = (cls == _NAME).nonzero()[0]
    metadata = None
    if len(names):
        tag = lines[names[-1]].split("#", 1)[0].strip()
        metadata = tag.split(None, 1)[1] if " " in tag else ""
    barriers = gate_rows.searchsorted(layer_rows).tolist()
    return _Block(n_qubits, kinds, qubits, angles, barriers, metadata)


def _gate_columns(
    lines: list[str], line0: int, cls: np.ndarray, fields: tuple, n_qubits: int, before: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Line indices, kind codes, qubit pairs and normalised angles of the gate
    lines of a block that starts at line index line0.

    Raises ParseError for the first gate line that fails a check if it comes
    before the block's line index ``before``.
    """
    _, inner, tok0, tok1, more, _ = fields
    gate_rows = (cls < len(KINDS)).nonzero()[0]
    rows = gate_rows.tolist()
    m = len(rows)
    kinds = cls[gate_rows].astype(np.uint8)
    # one failure mask per check, in the order the checks apply to a line;
    # None where no line fails it
    checks: list[np.ndarray | None] = []

    # angles: a blank list holds none, any other one more than its commas
    lists = _pick(inner, rows)
    listed = _flags(map(str.strip, lists), m)
    angle_counts = np.fromiter(map(str.count, lists, repeat(",")), np.int64, m) + listed
    tokens = ",".join(compress(lists, listed)).split(",") if listed.any() else []
    values, unparsed = _floats(tokens)
    finite = np.isfinite(values)
    kept = values if finite.all() else np.where(finite, values, 0.0)
    if len(kept) and (kept.min() < 0.0 or kept.max() >= TWO_PI):
        kept = normalize_angles(kept)
    value_rows = np.arange(m).repeat(angle_counts)
    slot = np.arange(len(tokens)) - (angle_counts.cumsum() - angle_counts)[value_rows]
    angles = np.zeros((m, 3))
    # a row with more than three angles fails its angle count check
    angles.reshape(-1)[3 * value_rows + np.minimum(slot, 2)] = kept
    checks.append(None if unparsed is None else np.isin(np.arange(m), value_rows[unparsed]))

    # qubits: the first two tokens fill the column; a third is a count error
    first, second = _pick(tok0, rows), _pick(tok1, rows)
    has0, has1, extra = _flags(first, m), _flags(second, m), _flags(_pick(more, rows), m)

    def row_tokens(j: int) -> list[str]:
        r = rows[j]
        return [t for t in (tok0[r], tok1[r]) if t] + more[r].split()

    def any_bad(j: int) -> bool:
        return not all(map(_UINT.fullmatch, row_tokens(j)))

    present = list(compress(first, has0)) + list(compress(second, has1))
    if present and not _UINTS.fullmatch(" ".join(present)):
        checks.append(np.array([any_bad(j) for j in range(m)], dtype=bool))
        first = [t if _UINT.fullmatch(t) else "0" for t in first]
        second = [t if _UINT.fullmatch(t) else "0" for t in second]
    elif extra.any():
        checks.append(np.array([extra[j] and any_bad(j) for j in range(m)], dtype=bool))
    else:
        checks.append(None)
    firsts = list(map(int, compress(first, has0)))
    seconds = list(map(int, compress(second, has1)))
    wide = max(max(firsts, default=0), max(seconds, default=0)) >= 2**63
    qubits = np.full((m, 2), -1, dtype=object if wide else np.int64)
    qubits[has0, 0] = firsts
    qubits[has1, 1] = seconds

    token_counts = has0.view(np.int8) + has1.view(np.int8)
    token_counts[extra] = 3
    checks.append(token_counts != _QUBITS_OF[kinds])
    checks.append(angle_counts != _ANGLES_OF[kinds])
    checks.append(has1 & (qubits[:, 0] == qubits[:, 1]))
    checks.append(None if finite.all() else np.isin(np.arange(m), value_rows[~finite]))
    in_range = m == 0 or qubits.max() < n_qubits
    checks.append(None if in_range else qubits.max(axis=1) >= n_qubits)
    failing = reduce(np.logical_or, [mask for mask in checks if mask is not None])
    if not failing.any():
        return gate_rows, kinds, qubits, angles
    j = int(failing.argmax())
    if rows[j] > before:
        return gate_rows, kinds, qubits, angles

    check = next(c for c, mask in enumerate(checks) if mask is not None and mask[j])
    raw, line = lines[rows[j]], line0 + rows[j] + 1
    match = _LINE_RE.match(raw)
    name, col0 = match.group(1), match.start(1) + 1
    toks = row_tokens(j)
    if toks:
        qcol = match.start(3) + 1
    else:
        qcol = col0 + len(raw.split("#", 1)[0].strip())
    if check == 0:
        raise ParseError(line, match.end(1) + 1, f"bad angle list {lists[j]!r}")
    if check == 1:
        bad = next(t for t in toks if not _UINT.fullmatch(t))
        raise ParseError(line, qcol, f"bad qubit index {bad!r}")
    if check == 2:
        nq = _QUBITS_OF[kinds[j]]
        raise ParseError(line, col0, f"{name} takes {nq} qubit(s), got {len(toks)}")
    if check == 3:
        na = _ANGLES_OF[kinds[j]]
        raise ParseError(line, col0, f"{name} takes {na} angle(s), got {angle_counts[j]}")
    if check == 4:
        raise ParseError(line, col0, f"{name} qubit indices must be distinct")
    if check == 5:
        theta = next(v for v in values[value_rows == j].tolist() if not math.isfinite(v))
        raise ParseError(line, col0, f"angle must be finite, got {theta!r}")
    q = next(q for q in map(int, toks) if q >= n_qubits)
    raise ParseError(line, qcol, f"qubit {q} out of range (n_qubits={n_qubits})")


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
