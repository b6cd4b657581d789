"""Routing circuits between classical simulation and quantum execution.

The T-gate tally is the dispatch signal: at or below the threshold the
workload stays on the classical side with a polynomial or 2^t cost bound
attached; above it, a surface-code estimate prices the quantum side. Both
cost models ride along in every report so the caller can audit the call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import Enum

from .circuit import Circuit
from .simulate import ClassicalCostEstimate, sim_cost
from .surface import (
    CalibrationModel,
    HardwareProfile,
    InfeasibleError,
    SurfaceCodeEstimate,
    estimate_surface_code,
)
from .transpiler import (
    DEFAULT_COUNT_OFFSET,
    DEFAULT_COUNT_SLOPE,
    TCountReport,
    t_count,
)

# "A few hundred" T-gates is the classical-simulability rule of thumb.
DEFAULT_T_THRESHOLD = 300

# Projected T-counts where quantum execution starts to pay off. Published
# figures disagree by orders of magnitude; both endpoints are exposed and the
# band in between is labeled contested rather than decided.
T_ADVANTAGE_INTRO = 10**12
T_ADVANTAGE_CONCLUSION = 10**8


class Policy(Enum):
    FULL_SYNTHESIS = "full"
    SYMMETRY_BREAKING = "symmetry"


class Decision(Enum):
    HPC = "HPC"
    QC = "QC"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class DispatchReport:
    """Routing decision with both cost models and their inputs attached."""

    decision: Decision
    policy: Policy
    t_report: TCountReport
    classical_cost: ClassicalCostEstimate
    quantum_cost: SurfaceCodeEstimate | None
    threshold_used: int
    rationale: str

    @property
    def t_active(self) -> int:
        """The tally the active policy dispatches on."""
        if self.policy is Policy.FULL_SYNTHESIS:
            return self.t_report.t_full
        return self.t_report.t_sym

    def __post_init__(self) -> None:
        if self.decision is Decision.QC:
            assert self.quantum_cost is not None
        if self.decision is Decision.HPC:
            assert self.t_active <= self.threshold_used


def _rationale(
    decision: Decision,
    policy: Policy,
    t_active: int,
    threshold: int,
    quantum: SurfaceCodeEstimate | None,
    qc_error: str | None,
) -> str:
    name = "full-synthesis" if policy is Policy.FULL_SYNTHESIS else "symmetry-breaking"
    parts = [f"t={t_active} under the {name} policy against threshold {threshold}"]
    if decision is Decision.HPC:
        parts.append("within classical simulation reach")
    elif decision is Decision.QC:
        assert quantum is not None
        parts.append(
            f"exceeds the threshold; surface-code execution at d={quantum.d}, "
            f"{quantum.hours_per_shot:.6g} hours/shot"
        )
    else:
        parts.append(f"exceeds the threshold and no code distance fits: {qc_error}")
    if threshold < t_active < T_ADVANTAGE_CONCLUSION:
        parts.append(
            "contested band: too many T-gates for easy simulation, below the "
            f"~{T_ADVANTAGE_CONCLUSION:.0e} usually quoted for quantum advantage"
        )
    return "; ".join(parts)


def advise_counts(
    t_full: int,
    t_sym: int,
    *,
    epsilon: float,
    policy: Policy,
    n_qubits: int,
    gate_count: int,
    t_threshold: int = DEFAULT_T_THRESHOLD,
    profile: HardwareProfile | None = None,
    logical_qubits: int | None = None,
    model: CalibrationModel | None = None,
    t_report: TCountReport | None = None,
) -> DispatchReport:
    """Dispatch from precomputed tallies (the what-if / override path).

    logical_qubits defaults to n_qubits; the surface-code side is attached
    best-effort even when the decision is HPC, so reports always show what
    the quantum alternative would cost.
    """
    if t_threshold < 0:
        raise ValueError("t_threshold must be >= 0")
    profile = profile if profile is not None else HardwareProfile()
    report = (
        t_report
        if t_report is not None
        else TCountReport(t_full, t_sym, epsilon, 0, ())
    )
    t_active = t_full if policy is Policy.FULL_SYNTHESIS else t_sym
    classical = sim_cost(n_qubits, gate_count, t_active, epsilon)
    q = logical_qubits if logical_qubits is not None else n_qubits
    quantum: SurfaceCodeEstimate | None = None
    qc_error: str | None = None
    try:
        quantum = estimate_surface_code(profile, q, t_active, model)
    except InfeasibleError as err:
        qc_error = str(err)
    if t_active <= t_threshold:
        decision = Decision.HPC
    elif quantum is not None:
        decision = Decision.QC
    else:
        decision = Decision.INFEASIBLE
    rationale = _rationale(decision, policy, t_active, t_threshold, quantum, qc_error)
    return DispatchReport(
        decision, policy, report, classical, quantum, t_threshold, rationale
    )


def advise(
    circuit: Circuit,
    epsilon: float,
    policy: Policy,
    t_threshold: int = DEFAULT_T_THRESHOLD,
    profile: HardwareProfile | None = None,
    *,
    logical_qubits: int | None = None,
    model: CalibrationModel | None = None,
    count_slope: float = DEFAULT_COUNT_SLOPE,
    count_offset: int = DEFAULT_COUNT_OFFSET,
) -> DispatchReport:
    """Count T-gates in the circuit, then route it."""
    report = t_count(
        circuit, epsilon, count_slope=count_slope, count_offset=count_offset
    )
    return advise_counts(
        report.t_full,
        report.t_sym,
        epsilon=epsilon,
        policy=policy,
        n_qubits=circuit.n_qubits,
        gate_count=circuit.gate_count,
        t_threshold=t_threshold,
        profile=profile,
        logical_qubits=logical_qubits,
        model=model,
        t_report=report,
    )


@dataclass(frozen=True)
class MachineReport:
    """Flat serialization schema: exactly these fields, in this order."""

    decision: str
    policy: str
    t_full: int
    t_sym: int
    epsilon: float
    threshold: int
    classical_steps: float | None
    distance: int | None
    data_qubits: int | None
    distillation_qubits: int | None
    total_physical_qubits: int | None
    hours_per_shot: float | None
    rationale: str


_SCHEMA_FIELDS = tuple(f.name for f in fields(MachineReport))


def to_machine(report: DispatchReport) -> MachineReport:
    steps = report.classical_cost.step_bound
    q = report.quantum_cost
    return MachineReport(
        decision=report.decision.value,
        policy=report.policy.value,
        t_full=report.t_report.t_full,
        t_sym=report.t_report.t_sym,
        epsilon=report.t_report.epsilon,
        threshold=report.threshold_used,
        classical_steps=steps if math.isfinite(steps) else None,
        distance=q.d if q else None,
        data_qubits=q.data_qubits if q else None,
        distillation_qubits=q.distillation_qubits if q else None,
        total_physical_qubits=q.total_physical if q else None,
        hours_per_shot=q.hours_per_shot if q else None,
        rationale=report.rationale,
    )


def _text_lines(report: DispatchReport) -> list[str]:
    r = report.t_report
    c = report.classical_cost
    lines = [
        f"decision: {report.decision.value}",
        f"policy: {report.policy.value}",
        f"t-count: full={r.t_full} sym={r.t_sym} (epsilon={r.epsilon:g})",
        f"threshold: {report.threshold_used}",
        f"classical: {c.regime.value}, steps<={c.step_bound:.6g}",
    ]
    q = report.quantum_cost
    if q is None:
        lines.append("quantum: unavailable")
    else:
        lines.append(
            f"quantum: d={q.d}, data={q.data_qubits}, "
            f"distillation={q.distillation_qubits}, total={q.total_physical}, "
            f"hours/shot={q.hours_per_shot:.6g}"
        )
    lines.append(f"rationale: {report.rationale}")
    return lines


def render_report(report: DispatchReport, format: str = "text") -> bytes:
    """Stable text for humans, or one JSON document for machines."""
    if format == "text":
        return ("\n".join(_text_lines(report)) + "\n").encode("utf-8")
    if format == "machine":
        # the schema is flat: its __dict__ is the document, in field order
        return (json.dumps(vars(to_machine(report))) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {format!r}")


def parse_machine_report(data: bytes | str) -> MachineReport:
    """Inverse of machine-format rendering; validates the exact field set."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    obj = json.loads(data)
    if tuple(obj) != _SCHEMA_FIELDS:
        raise ValueError(f"machine report fields must be {_SCHEMA_FIELDS}")
    return MachineReport(**obj)
