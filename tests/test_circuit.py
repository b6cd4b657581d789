"""Circuit IR, text format, and layering tests."""

from __future__ import annotations

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtriage import circuit as circuit_module
from qtriage.circuit import (
    CLIFFORD_KINDS,
    KIND_CODE,
    MEASURE_KINDS,
    RESTRICTED_KINDS,
    T_KINDS,
    Circuit,
    GateKind,
    GateOp,
    ParseError,
    angle_grid_index,
    circuit_stats,
    gate,
    normalize_angle,
    parse_circuit,
    render_circuit,
)

from conftest import (
    circuit_texts,
    random_clifford_circuit,
    random_low_t_circuit,
    random_mixed_circuit,
    reference_parse_circuit,
)


def test_parse_basic() -> None:
    text = """
# bell pair
qubits 2
name bell
h 0
cnot 0 1
measure 0   # readout
measure 1
"""
    c = parse_circuit(text)
    assert c.n_qubits == 2
    assert c.metadata == "bell"
    kinds = [g.kind for g in c.gates()]
    assert kinds == [GateKind.H, GateKind.CNOT, GateKind.MEASURE, GateKind.MEASURE]
    assert circuit_stats(c) == {"n_qubits": 2, "gate_count": 2, "depth": 3}


def test_parse_angles() -> None:
    c = parse_circuit("qubits 1\nu3(0.1, 0.2, 0.3) 0\nrz(-1.5) 0\n")
    g0, g1 = list(c.gates())
    assert g0.angles == (0.1, 0.2, 0.3)
    # normalized into [0, 2*pi) on construction
    assert g1.angles == (normalize_angle(-1.5),)
    assert 0.0 <= g1.angles[0] < 2.0 * math.pi


def test_greedy_layering() -> None:
    mk = lambda text: parse_circuit(text).depth
    assert mk("qubits 2\nh 0\nh 1\n") == 1
    assert mk("qubits 2\nh 0\nh 1\ncnot 0 1\n") == 2
    assert mk("qubits 2\nh 0\ncnot 0 1\nh 1\n") == 3


def test_layer_keyword_forces_boundary() -> None:
    c = parse_circuit("qubits 2\nh 0\nlayer\nh 1\n")
    assert c.depth == 2
    assert [g.qubits for g in c.layers[0]] == [(0,)]
    assert [g.qubits for g in c.layers[1]] == [(1,)]


def test_empty_circuit_stats() -> None:
    c = parse_circuit("qubits 3\n")
    assert circuit_stats(c) == {"n_qubits": 3, "gate_count": 0, "depth": 0}


def test_measures_excluded_from_gate_count() -> None:
    c = parse_circuit("qubits 1\nh 0\nmeasure 0\n")
    assert c.gate_count == 1
    assert c.depth == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("h 0\n", 1),
        ("qubits 2\nqubits 2\n", 2),
        ("qubits 0\n", 1),
        ("qubits 2\nfrob 0\n", 2),
        ("qubits 2\nh 5\n", 2),
        ("qubits 2\nu1 0\n", 2),
        ("qubits 2\nu1(a) 0\n", 2),
        ("qubits 2\ncnot 0 0\n", 2),
        ("qubits 2\nlayer now\n", 2),
        ("qubits 2\nh q0\n", 2),
    ],
)
def test_parse_errors_carry_position(text: str, line: int) -> None:
    with pytest.raises(ParseError) as exc:
        parse_circuit(text)
    assert exc.value.line == line
    assert exc.value.col >= 1
    assert f"line {line}," in str(exc.value)


def test_out_of_range_column_points_at_qubits() -> None:
    with pytest.raises(ParseError) as exc:
        parse_circuit("qubits 2\ncnot 0 2\n")
    assert exc.value.line == 2
    assert exc.value.col > 1


def test_gateop_validation() -> None:
    with pytest.raises(ValueError):
        gate("cnot", 1, 1)
    with pytest.raises(ValueError):
        gate("h", -1)
    with pytest.raises(ValueError):
        gate("u2", 0, angles=(0.1,))
    with pytest.raises(ValueError):
        gate("h", 0, 1)


def test_circuit_validation() -> None:
    with pytest.raises(ValueError):
        Circuit(0)
    with pytest.raises(ValueError):
        Circuit(1, ((gate("h", 3),),))
    with pytest.raises(ValueError):
        Circuit(2, ((gate("h", 0), gate("s", 0)),))
    with pytest.raises(ValueError):
        Circuit(2, ((),))


def test_from_gates_preserves_order_and_barriers() -> None:
    ops = [gate("h", 0), gate("h", 1), gate("cnot", 0, 1)]
    c = Circuit.from_gates(2, ops, barriers=[1])
    assert c.depth == 3  # barrier splits the parallel pair
    assert list(c.gates()) == ops


def test_metadata_not_part_of_equality() -> None:
    a = Circuit.from_gates(1, [gate("h", 0)], metadata="a")
    b = Circuit.from_gates(1, [gate("h", 0)], metadata="b")
    assert a == b
    assert a.metadata != b.metadata


def test_normalize_angle() -> None:
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(2.0 * math.pi) == 0.0
    assert normalize_angle(-math.pi / 2.0) == pytest.approx(1.5 * math.pi)
    assert normalize_angle(7.0) == pytest.approx(7.0 - 2.0 * math.pi)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="angle must be finite"):
            normalize_angle(bad)
        with pytest.raises(ValueError, match="angle must be finite"):
            gate("u3", 0, angles=[0.0, bad, 0.0])


@given(st.floats(-100.0, 100.0))
def test_normalize_angle_range_and_idempotence(theta: float) -> None:
    out = normalize_angle(theta)
    assert 0.0 <= out < 2.0 * math.pi
    assert normalize_angle(out) == out


def test_angle_grid_index() -> None:
    for k in range(8):
        assert angle_grid_index(k * math.pi / 4.0) == k
    assert angle_grid_index(2.0 * math.pi) == 0
    assert angle_grid_index(-math.pi / 4.0) == 7
    assert angle_grid_index(0.3) is None
    # tolerance is tight: 1e-13 off-grid passes, 1e-9 does not
    assert angle_grid_index(math.pi / 4.0 + 1e-13) == 1
    assert angle_grid_index(math.pi / 4.0 + 1e-9) is None


@given(st.integers(0, 2**32 - 1))
def test_render_parse_round_trip(seed: int) -> None:
    rng = random.Random(seed)
    c = random_mixed_circuit(rng, rng.randint(1, 5), rng.randint(0, 15))
    rendered = render_circuit(c)
    back = parse_circuit(rendered)
    assert back == c
    assert back.layers == c.layers
    assert render_circuit(back) == rendered


@given(st.integers(0, 2**32 - 1))
def test_greedy_layers_are_disjoint(seed: int) -> None:
    rng = random.Random(seed)
    c = random_mixed_circuit(rng, rng.randint(1, 5), rng.randint(0, 20))
    for layer in c.layers:
        used: list[int] = []
        for g in layer:
            used.extend(g.qubits)
        assert len(used) == len(set(used))
    assert list(Circuit.from_gates(c.n_qubits, c.gates()).gates()) == list(c.gates())


# --- the columnar parser against the per-line reference -----------------------


def _has_non_ascii_digit(text: str) -> bool:
    return any(ch.isdigit() and not ch.isascii() for ch in text)


@settings(max_examples=400, deadline=None)
@given(circuit_texts(), st.sampled_from([circuit_module._PARSE_BLOCK, 1, 3]))
def test_parser_matches_the_per_line_reference(text: str, block: int) -> None:
    # small blocks put the header, errors and layers on block boundaries
    with mock.patch.object(circuit_module, "_PARSE_BLOCK", block):
        _assert_parser_matches_the_reference(text)


def _assert_parser_matches_the_reference(text: str) -> None:
    try:
        want = reference_parse_circuit(text)
    except ParseError as err:
        if _has_non_ascii_digit(text):
            with pytest.raises(ParseError):
                parse_circuit(text)
            return
        with pytest.raises(ParseError) as got:
            parse_circuit(text)
        assert (got.value.line, got.value.col, got.value.message) == (err.line, err.col, err.message)
        return
    except ValueError:
        # the reference's int() fails on a non-ASCII digit that isdigit passed
        assert _has_non_ascii_digit(text)
        with pytest.raises(ParseError):
            parse_circuit(text)
        return
    if _has_non_ascii_digit(text):
        # the reference reads Arabic-Indic digits as numbers; these are errors now
        try:
            parse_circuit(text)
        except ParseError:
            return
    got = parse_circuit(text)
    assert got == want
    assert got.layers == want.layers
    assert (got.metadata, got.depth, got.gate_count) == (want.metadata, want.depth, want.gate_count)


def test_parser_keeps_qubit_indices_past_int64() -> None:
    text = "qubits 99999999999999999999999\nh 99999999999999999999998\ncnot 0 99999999999999999999998\n"
    c = parse_circuit(text)
    assert c == reference_parse_circuit(text)
    assert [g.qubits for g in c.gates()] == [(99999999999999999999998,), (0, 99999999999999999999998)]
    assert c.depth == 2


def test_parsed_circuit_builds_gates_on_demand() -> None:
    c = parse_circuit("qubits 3\nname tag\nu3(1,2,3) 0\ncnot 1 2\nlayer\nh 0\nmeasure 2\n")
    cols = c.columns
    assert cols.kinds.tolist() == [KIND_CODE[k] for k in (GateKind.U3, GateKind.CNOT, GateKind.H, GateKind.MEASURE)]
    assert cols.qubits.tolist() == [[0, -1], [1, 2], [0, -1], [2, -1]]
    assert cols.offsets.tolist() == [0, 2, 4]
    assert (c.gate_count, c.depth) == (3, 2)
    rebuilt = Circuit(3, c.layers, "tag")
    assert rebuilt == c and hash(rebuilt) == hash(c)
    assert rebuilt.columns.kinds.tolist() == cols.kinds.tolist()
    assert np.array_equal(rebuilt.columns.angles, cols.angles)
    with pytest.raises(AttributeError):
        c.n_qubits = 4


WIDE = 99999999999999999999999  # a qubit count past int64


def test_kind_questions_match_a_gate_walk() -> None:
    rng = random.Random(22)
    wide = parse_circuit(
        f"qubits {WIDE}\nh {WIDE - 1}\nt 0\nmeasure {WIDE - 1}\ncnot 0 {WIDE - 1}\n"
    )
    circuits = [
        Circuit(1),
        Circuit.from_gates(2, []),
        parse_circuit("qubits 1\n"),
        wide,
        Circuit(WIDE, wide.layers),
        Circuit.from_gates(
            WIDE, [gate("s", WIDE - 1), gate("measure", 0), gate("rz", WIDE - 1, angles=[0.3])]
        ),
    ]
    for _ in range(15):
        n = rng.randint(1, 5)
        for c in (
            random_mixed_circuit(rng, n, rng.randint(1, 30)),
            random_clifford_circuit(rng, n, rng.randint(2, 30), mid_measures=rng.randint(0, 3)),
            random_low_t_circuit(rng, n, rng.randint(2, 30), rng.randint(0, 5), mid_measures=1),
        ):
            circuits += [c, parse_circuit(render_circuit(c)), Circuit(n, c.layers)]
    kind_sets = [CLIFFORD_KINDS, T_KINDS, MEASURE_KINDS, RESTRICTED_KINDS]
    kind_sets += [frozenset(), frozenset(GateKind)]
    kind_sets += [frozenset(rng.sample(list(GateKind), rng.randint(1, 16))) for _ in range(10)]
    for c in circuits:
        walk = [g.kind for g in c.gates()]
        for kinds in kind_sets:
            assert c.first_kind_outside(kinds) == next((k for k in walk if k not in kinds), None)
            assert c.count_kinds(kinds) == sum(k in kinds for k in walk)


def test_columns_are_read_only() -> None:
    parsed = parse_circuit("qubits 2\nh 0\nmeasure 1\n")
    for c in (parsed, Circuit.from_gates(2, parsed.gates()), Circuit(2, parsed.layers)):
        for array in c.columns:
            with pytest.raises(ValueError):
                array[0] = array[0]
        with pytest.raises(ValueError):
            c.columns.kinds[1] = KIND_CODE[GateKind.H]
        assert c.gate_count == 1


def test_handed_layers_are_kept_and_parsed_layers_built_once(monkeypatch) -> None:
    built: list[object] = []
    layers_of = circuit_module._layers_of_columns
    monkeypatch.setattr(
        circuit_module, "_layers_of_columns", lambda cols: built.append(cols) or layers_of(cols)
    )
    ops = [gate("h", 0), gate("cnot", 0, 1), gate("measure", 1)]
    c = Circuit.from_gates(2, ops)
    assert list(c.gates()) == ops
    assert Circuit(2, c.layers).layers == c.layers
    assert built == []
    parsed = parse_circuit(render_circuit(c))
    assert parsed.layers is parsed.layers and parsed == c
    assert len(built) == 1
