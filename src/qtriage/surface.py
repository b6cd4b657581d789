"""Surface-code resource model: code distance, qubit partition, time per shot.

The model is parametric (see calibration/surface_v1.txt for the form and the
fitted constants) with a literal anchor overlay for reference profiles the
formula provably cannot reproduce. Every estimate echoes its inputs and
constants and says whether it came from the formula or an anchor row.

All functions are pure; scanning over t values parallelizes trivially.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

DEFAULT_CALIBRATION_RESOURCE = "surface_v1.txt"


class InfeasibleError(ValueError):
    """No code distance within the model's range meets the error budget."""


@dataclass(frozen=True)
class HardwareProfile:
    """Physical machine assumptions: gate error, round time, error budget."""

    p: float = 1e-3
    cycle_time: float = 1e-6
    target_logical_error: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 0.01:
            raise ValueError("p must be in (0, 0.01)")
        if self.cycle_time <= 0.0:
            raise ValueError("cycle_time must be positive")
        if not 0.0 < self.target_logical_error < 1.0:
            raise ValueError("target_logical_error must be in (0, 1)")


@dataclass(frozen=True)
class _Anchor:
    t: int
    logical_qubits: int
    p: float
    target: float
    d: int
    data_qubits: int
    distillation_qubits: int
    total_physical: int


@dataclass(frozen=True)
class CalibrationModel:
    version: int
    prefactor_a: float
    error_scale_b: float
    patches_per_logical: int
    rounds_per_t: float
    rounds_d_offset: int
    factory_units: int
    factory_patches_per_unit: int
    factory_distance: int
    max_distance: int
    anchors: tuple[_Anchor, ...] = ()

    def rounds(self, t: int, d: int) -> float:
        if t == 0:
            return float(d)
        return self.rounds_per_t * t * (d + self.rounds_d_offset)

    def failure(self, t: int, d: int, logical_qubits: int, p: float) -> float:
        volume = self.patches_per_logical * logical_qubits * self.rounds(t, d)
        per_round = self.prefactor_a * (self.error_scale_b * p) ** ((d + 1) // 2)
        return volume * per_round

    def data_qubits(self, logical_qubits: int, d: int) -> int:
        return self.patches_per_logical * logical_qubits * d * d

    def distillation_qubits(self, t: int) -> int:
        if t == 0:
            return 0
        return (
            self.factory_units
            * self.factory_patches_per_unit
            * self.factory_distance**2
        )


@dataclass(frozen=True)
class SurfaceCodeEstimate:
    """One resource row. total_physical = data_qubits + distillation_qubits."""

    d: int
    data_qubits: int
    distillation_qubits: int
    total_physical: int
    hours_per_shot: float
    assumptions: dict = field(compare=False)

    def __post_init__(self) -> None:
        assert self.total_physical == self.data_qubits + self.distillation_qubits
        assert self.d % 2 == 1 and self.d > 0


def parse_kv_lines(text: str) -> list[list[str]]:
    """Tokenized non-comment lines of a whitespace-separated key-value file.

    The same format serves calibration data and the optional config file:
    `#` comments, blank lines ignored, fields split on whitespace.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def parse_calibration(text: str) -> CalibrationModel:
    """Read the versioned key-value calibration format."""
    scalars: dict[str, str] = {}
    anchors: list[_Anchor] = []
    for row in parse_kv_lines(text):
        if row[0] == "anchor":
            if len(row) != 9:
                raise ValueError(f"anchor row needs 8 fields: {' '.join(row)}")
            t, q = int(float(row[1])), int(row[2])
            p, target = float(row[3]), float(row[4])
            d, data, distill, total = (int(v) for v in row[5:9])
            anchors.append(_Anchor(t, q, p, target, d, data, distill, total))
        elif len(row) == 2:
            scalars[row[0]] = row[1]
        else:
            raise ValueError(f"bad calibration line: {' '.join(row)}")
    try:
        return CalibrationModel(
            version=int(scalars["version"]),
            prefactor_a=float(scalars["prefactor_a"]),
            error_scale_b=float(scalars["error_scale_b"]),
            patches_per_logical=int(scalars["patches_per_logical"]),
            rounds_per_t=float(scalars["rounds_per_t"]),
            rounds_d_offset=int(scalars["rounds_d_offset"]),
            factory_units=int(scalars["factory_units"]),
            factory_patches_per_unit=int(scalars["factory_patches_per_unit"]),
            factory_distance=int(scalars["factory_distance"]),
            max_distance=int(scalars["max_distance"]),
            anchors=tuple(anchors),
        )
    except KeyError as missing:
        raise ValueError(f"calibration file missing constant {missing}")


def load_calibration(path: str | Path | None = None) -> CalibrationModel:
    """Load a calibration file, or the packaged default when path is None.

    A file at path is read on every call; the packaged default is the one
    shared `default_calibration()` model.
    """
    if path is None:
        return default_calibration()
    return parse_calibration(Path(path).read_text(encoding="utf-8"))


@functools.cache
def default_calibration() -> CalibrationModel:
    """The packaged model, parsed once per process; frozen, so safe to share."""
    return parse_calibration(
        resources.files("qtriage.calibration")
        .joinpath(DEFAULT_CALIBRATION_RESOURCE)
        .read_text(encoding="utf-8")
    )


def _matching_anchors(
    model: CalibrationModel, profile: HardwareProfile, logical_qubits: int
) -> list[_Anchor]:
    return [
        a
        for a in model.anchors
        if a.logical_qubits == logical_qubits
        and a.p == profile.p
        and a.target == profile.target_logical_error
    ]


def _formula_distance(
    model: CalibrationModel, profile: HardwareProfile, logical_qubits: int, t: int
) -> int:
    for d in range(3, model.max_distance + 1, 2):
        if model.failure(t, d, logical_qubits, profile.p) <= profile.target_logical_error:
            return d
    raise InfeasibleError(
        f"no distance <= {model.max_distance} meets target "
        f"{profile.target_logical_error} at p={profile.p}, t={t}, "
        f"Q={logical_qubits}"
    )


def required_distance(
    profile: HardwareProfile,
    logical_qubits: int,
    t: int,
    model: CalibrationModel | None = None,
) -> int:
    """Smallest odd code distance meeting the per-shot error budget.

    Anchor rows override the formula at their exact profile and act as
    floors for larger t there, keeping the distance monotone in t.
    """
    if logical_qubits < 1 or t < 0:
        raise ValueError("logical_qubits >= 1 and t >= 0 required")
    model = model if model is not None else default_calibration()
    anchors = _matching_anchors(model, profile, logical_qubits)
    for a in anchors:
        if a.t == t:
            return a.d
    d = _formula_distance(model, profile, logical_qubits, t)
    floors = [a.d for a in anchors if a.t <= t]
    return max([d, *floors])


def estimate_surface_code(
    profile: HardwareProfile,
    logical_qubits: int,
    t: int,
    model: CalibrationModel | None = None,
) -> SurfaceCodeEstimate:
    """Full resource row for (profile, Q, t); see required_distance for errors."""
    model = model if model is not None else default_calibration()
    anchors = _matching_anchors(model, profile, logical_qubits)
    exact = next((a for a in anchors if a.t == t), None)

    d = required_distance(profile, logical_qubits, t, model)
    if exact is not None:
        source = "paper-table"
        data = exact.data_qubits
        distill = exact.distillation_qubits
        total = exact.total_physical
    else:
        data = model.data_qubits(logical_qubits, d)
        distill = model.distillation_qubits(t)
        total = data + distill
        source = "model"
        # keep totals monotone across anchor rows for larger t
        floor_total = max([a.total_physical for a in anchors if a.t <= t], default=0)
        if total < floor_total:
            data += floor_total - total
            total = floor_total
            source = "model+floor"

    hours = model.rounds(t, d) * profile.cycle_time / 3600.0
    return SurfaceCodeEstimate(
        d=d,
        data_qubits=data,
        distillation_qubits=distill,
        total_physical=total,
        hours_per_shot=hours,
        assumptions={
            "p": profile.p,
            "cycle_time": profile.cycle_time,
            "target_logical_error": profile.target_logical_error,
            "logical_qubits": logical_qubits,
            "t": t,
            "source": source,
            "calibration_version": model.version,
        },
    )


def scan(
    profile: HardwareProfile,
    logical_qubits: int,
    t_values: list[int],
    model: CalibrationModel | None = None,
) -> list[SurfaceCodeEstimate]:
    """One estimate per t. t_values must be non-empty and sorted ascending."""
    if not t_values:
        raise ValueError("t_values must be non-empty")
    if any(b < a for a, b in zip(t_values, t_values[1:])):
        raise ValueError("t_values must be sorted ascending")
    return [estimate_surface_code(profile, logical_qubits, t, model) for t in t_values]
