"""Surface-code estimator tests.

The formula rows are checked against a from-scratch reimplementation of the
calibrated failure model (constants retyped here, not imported); the three
reference rows are frozen as literals.
"""

from __future__ import annotations

import math

import pytest

from qtriage.surface import (
    CalibrationModel,
    HardwareProfile,
    InfeasibleError,
    SurfaceCodeEstimate,
    default_calibration,
    estimate_surface_code,
    load_calibration,
    parse_calibration,
    parse_kv_lines,
    required_distance,
    scan,
)

# calibration constants, retyped from the shipped file
A = 0.1
B = 100.0
PATCHES = 3
ROUNDS_PER_T = 5.732307692307692
D_OFFSET = 6
FACTORY = 4 * 16 * 15 * 15  # 14400
MAX_D = 99

DEFAULT = HardwareProfile()


def _rounds(t: int, d: int) -> float:
    return float(d) if t == 0 else ROUNDS_PER_T * t * (d + D_OFFSET)


def _formula_d(t: int, q: int, p: float, target: float) -> int:
    for d in range(3, MAX_D + 1, 2):
        if PATCHES * q * _rounds(t, d) * A * (B * p) ** ((d + 1) // 2) <= target:
            return d
    raise AssertionError("reference scan found no distance")


def test_reference_row_t1() -> None:
    est = estimate_surface_code(DEFAULT, 5, 1)
    assert (est.d, est.data_qubits, est.distillation_qubits, est.total_physical) == (
        7,
        735,
        14400,
        15135,
    )
    assert est.hours_per_shot == pytest.approx(2.07e-8, rel=1e-3)
    assert est.assumptions["source"] == "model"


def test_reference_row_t3() -> None:
    est = estimate_surface_code(DEFAULT, 5, 3)
    assert (est.d, est.data_qubits, est.distillation_qubits, est.total_physical) == (
        11,
        36300,
        14400,
        50700,
    )
    assert est.hours_per_shot == pytest.approx(8.12e-8, rel=1e-3)
    assert est.assumptions["source"] == "paper-table"


def test_reference_row_t_1e8() -> None:
    est = estimate_surface_code(DEFAULT, 5, 10**8)
    assert (est.d, est.data_qubits, est.distillation_qubits, est.total_physical) == (
        25,
        149056,
        9375,
        158431,
    )
    assert est.hours_per_shot == pytest.approx(4.94, rel=1e-2)
    assert est.assumptions["source"] == "paper-table"


def test_anchor_hours_follow_the_rounds_schedule() -> None:
    # anchors override qubit columns but never the wall-clock model
    est = estimate_surface_code(DEFAULT, 5, 3)
    assert est.hours_per_shot == pytest.approx(_rounds(3, 11) * 1e-6 / 3600.0, rel=1e-12)


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("q", [1, 5])
@pytest.mark.parametrize("p", [1e-3, 5e-4])
def test_distance_matches_reference_scan_below_anchors(t: int, q: int, p: float) -> None:
    prof = HardwareProfile(p=p)
    assert required_distance(prof, q, t) == _formula_d(t, q, p, prof.target_logical_error)


@pytest.mark.parametrize("t", [4, 1000, 10**6])
def test_anchor_floors_keep_distance_monotone(t: int) -> None:
    want = max(_formula_d(t, 5, 1e-3, 0.02), 11)
    assert required_distance(DEFAULT, 5, t) == want


def test_floor_pads_totals_between_anchors() -> None:
    est = estimate_surface_code(DEFAULT, 5, 4)
    assert est.d == 11
    assert est.total_physical == 50700  # lifted to the t=3 anchor row
    assert est.assumptions["source"] == "model+floor"
    assert est.data_qubits + est.distillation_qubits == est.total_physical


def test_floor_past_largest_anchor() -> None:
    est = estimate_surface_code(DEFAULT, 5, 110_000_000)
    assert est.d == 25
    assert est.total_physical == 158431
    assert est.distillation_qubits == 14400  # model factory, not the anchor's
    assert est.assumptions["source"] == "model+floor"
    assert est.hours_per_shot == pytest.approx(
        _rounds(110_000_000, 25) * 1e-6 / 3600.0, rel=1e-12
    )


def test_zero_t_row_has_no_factory() -> None:
    est = estimate_surface_code(DEFAULT, 5, 0)
    assert est.distillation_qubits == 0
    assert est.data_qubits == 3 * 5 * est.d * est.d
    assert est.hours_per_shot == pytest.approx(est.d * 1e-6 / 3600.0, rel=1e-12)


def test_estimates_monotone_in_t() -> None:
    ts = [0, 1, 2, 3, 4, 100, 10**6, 10**7, 10**8, 110_000_000, 10**9]
    rows = scan(DEFAULT, 5, ts)
    for prev, cur in zip(rows, rows[1:]):
        assert cur.d >= prev.d
        assert cur.total_physical >= prev.total_physical
        assert cur.hours_per_shot >= prev.hours_per_shot
    for row in rows:
        assert row.d % 2 == 1
        assert row.total_physical == row.data_qubits + row.distillation_qubits


def test_formula_distance_monotone_in_p() -> None:
    # q=1 keeps anchors out of play; noisier hardware needs more distance
    ds = [required_distance(HardwareProfile(p=p), 1, 10) for p in (2e-4, 5e-4, 1e-3, 2e-3)]
    assert ds == sorted(ds)
    assert ds[0] < ds[-1]


def test_anchors_require_exact_profile() -> None:
    est = estimate_surface_code(HardwareProfile(target_logical_error=0.01), 5, 3)
    assert est.assumptions["source"] == "model"
    est = estimate_surface_code(DEFAULT, 4, 3)
    assert est.assumptions["source"] == "model"


def test_infeasible_when_physical_error_too_high() -> None:
    with pytest.raises(InfeasibleError):
        estimate_surface_code(HardwareProfile(p=9e-3), 1, 1)


def test_assumptions_echo_inputs() -> None:
    est = estimate_surface_code(DEFAULT, 2, 7)
    a = est.assumptions
    assert a["p"] == 1e-3
    assert a["cycle_time"] == 1e-6
    assert a["target_logical_error"] == 0.02
    assert (a["logical_qubits"], a["t"]) == (2, 7)
    assert a["calibration_version"] == 1


def test_scan_validates_input() -> None:
    with pytest.raises(ValueError):
        scan(DEFAULT, 5, [])
    with pytest.raises(ValueError):
        scan(DEFAULT, 5, [3, 1])


def test_required_distance_validates_input() -> None:
    with pytest.raises(ValueError):
        required_distance(DEFAULT, 0, 1)
    with pytest.raises(ValueError):
        required_distance(DEFAULT, 1, -1)


def test_profile_validation() -> None:
    with pytest.raises(ValueError):
        HardwareProfile(p=0.02)
    with pytest.raises(ValueError):
        HardwareProfile(p=0.0)
    with pytest.raises(ValueError):
        HardwareProfile(cycle_time=0.0)
    with pytest.raises(ValueError):
        HardwareProfile(target_logical_error=1.0)


def test_estimate_partition_assert() -> None:
    with pytest.raises(AssertionError):
        SurfaceCodeEstimate(3, 10, 10, 21, 1.0, {})
    with pytest.raises(AssertionError):
        SurfaceCodeEstimate(4, 10, 10, 20, 1.0, {})


def test_parse_kv_lines() -> None:
    rows = parse_kv_lines("# comment\n\na 1\n b 2 3  # trailing\n")
    assert rows == [["a", "1"], ["b", "2", "3"]]


_MINIMAL = """
version 2
prefactor_a 0.2
error_scale_b 50
patches_per_logical 2
rounds_per_t 4.0
rounds_d_offset 5
factory_units 1
factory_patches_per_unit 10
factory_distance 9
max_distance 51
anchor 7 3 0.002 0.05 13 1014 810 1824
"""


def test_parse_calibration_round_trip(tmp_path) -> None:
    model = parse_calibration(_MINIMAL)
    assert model.version == 2
    assert model.rounds_per_t == 4.0
    assert model.distillation_qubits(1) == 810
    assert len(model.anchors) == 1
    assert model.anchors[0].t == 7 and model.anchors[0].d == 13

    path = tmp_path / "cal.txt"
    path.write_text(_MINIMAL)
    assert load_calibration(path) == model


def test_custom_model_drives_estimates() -> None:
    model = parse_calibration(_MINIMAL)
    prof = HardwareProfile(p=2e-3, target_logical_error=0.05)
    est = estimate_surface_code(prof, 3, 7, model)
    assert est.assumptions["source"] == "paper-table"
    assert (est.d, est.total_physical) == (13, 1824)


def test_parse_calibration_errors() -> None:
    with pytest.raises(ValueError):
        parse_calibration("version 1\nanchor 1 2 3\n")
    with pytest.raises(ValueError):
        parse_calibration("version 1\nstray token here\n")
    with pytest.raises(ValueError):
        parse_calibration("version 1\n")  # missing scalars
    bad = _MINIMAL.replace("version 2", "version two")
    with pytest.raises(ValueError):
        parse_calibration(bad)


def test_packaged_calibration_is_parsed_once() -> None:
    assert load_calibration() is load_calibration()
    assert load_calibration() is default_calibration()


def test_calibration_file_is_read_on_every_call(tmp_path) -> None:
    path = tmp_path / "cal.txt"
    path.write_text(_MINIMAL)
    assert load_calibration(path).max_distance == 51
    path.write_text(_MINIMAL.replace("max_distance 51", "max_distance 41"))
    assert load_calibration(path).max_distance == 41


def test_default_calibration_cached_and_versioned() -> None:
    assert default_calibration() is default_calibration()
    assert default_calibration().version == 1
