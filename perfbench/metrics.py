"""Metrics of one run, from op results (end to end) or spans (per layer).

Every workload reports every metric. End-to-end op metrics fill three slots,
heavy, light and control, whose op classes each workload names (see
workloads.py). End-to-end timings are at nominal host speed (host.py);
per-layer timings are wall seconds. A per-layer metric of a layer the
workload bypasses reads 0.
"""

from __future__ import annotations

import statistics

from tracing import Tracer
from workloads import MIN_CYCLES, OpResult, Workload

CLASSES = ("heavy", "light", "control")

# the per-class figures as the workloads' users name them
REPORT_NAMES = {
    "u3": "advise_u3_p50_s",
    "axis": "advise_axis_p50_s",
    "override": "advise_override_p50_s",
    "clifford-full": "clifford_full_p50_s",
    "clifford-narrow": "clifford_narrow_p50_s",
    "branch": "branch_p50_s",
    "eps-1e-3": "rotation_ms.eps-1e-3",
    "eps-1e-2": "rotation_ms.eps-1e-2",
    "count": "count_mode_p50_s",
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _times(results: list[OpResult], cls: str, scaled: bool = True) -> list[float]:
    return [r.scaled if scaled else r.seconds for r in results if r.cls == cls]


def end_to_end(
    results: list[OpResult], setups: list[dict], peak_mb: float
) -> dict[str, tuple[float, str]]:
    metrics = {
        "setup_s": (_median([s["scaled_setup_s"] for s in setups]), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    for cls in CLASSES:
        metrics[f"{cls}_op_p50_s"] = (_median(_times(results, cls)), "s")
    return metrics


def emitted_t_per_rotation(results: list[OpResult], label: str) -> float:
    """T gates per approximated rotation over the first MIN_CYCLES ops.

    Fixed ops, so the figure repeats exactly for a seed.
    """
    chosen = [r.facts for r in results if r.label == label and r.cycle < MIN_CYCLES]
    rotations = sum(f.get("rotations", 0) for f in chosen)
    return sum(f.get("t", 0) for f in chosen) / rotations if rotations else 0.0


def _tail(values: list[float]) -> str:
    """The highest listed percentile with at least 10 samples beyond it."""
    n = len(values)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return f"p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6f} s"
    return "no percentile has 10 samples beyond"


def report_lines(
    workload: Workload,
    results: list[OpResult],
    setups: list[dict],
    peak_mb: float,
    failed_share: float,
) -> list[str]:
    """Human-readable figures: median, tail percentile and sample count.

    Timings are at nominal host speed, with the wall-clock median after them.
    """
    setup = [s["scaled_setup_s"] for s in setups]
    wall = _median([s["setup_s"] for s in setups])
    lines = [
        f"# {workload.name}",
        f"setup_s {_median(setup):.6f} s (median of {len(setup)}; wall {wall:.6f} s)",
        f"peak_rss_mb {peak_mb:.1f} MB",
        f"failed_share {failed_share:.6f} of {len(results)} ops",
    ]
    for cls in CLASSES:
        label = workload.labels[cls]
        times = _times(results, cls)
        wall = _median(_times(results, cls, scaled=False))
        name = REPORT_NAMES[label]
        if name.startswith("rotation_ms"):
            per_rotation = 1000.0 / (results[0].facts.get("rotations") or 1)
            lines.append(
                f"{name} {_median(times) * per_rotation:.3f} ms "
                f"({cls}; n={len(times)}; wall {wall * per_rotation:.3f} ms)"
            )
            t_rot = emitted_t_per_rotation(results, label)
            lines.append(f"emitted_t_per_rotation.{label} {t_rot:.6f} count")
        else:
            lines.append(
                f"{name} {_median(times):.6f} s "
                f"({cls}; {_tail(times)}; n={len(times)}; wall {wall:.6f} s)"
            )
    return lines


def per_layer(
    tracer: Tracer,
    results: list[OpResult],
    setups: list[dict],
    refs: list[float],
) -> dict[str, tuple[float, str]]:
    from qtriage.transpiler import count_mode_t_cost

    mean = tracer.mean_seconds
    ops = [i for i, s in enumerate(tracer.spans) if s.name == "op"]
    traced = [tracer.spans[i] for i in ops]
    m: dict[str, tuple[float, str]] = {
        "cli.import_s": (_median([s["import_s"] for s in setups]), "s"),
        "surface.load_calibration_s": (_median([s["load_calibration_s"] for s in setups]), "s"),
        "cli.overhead_s": (_mean([tracer.self_seconds(i) for i in ops]), "s"),
        "trace.overhead_s": (
            _mean([s.seconds - results[s.op].seconds for s in traced]), "s"
        ),
        "host.ref_loop_s": (_median(refs), "s"),  # the host reference kernel
        "circuit.parse_s": (mean("circuit.parse"), "s"),
        "circuit.gates": (
            _mean([s.info["gates"] for s in tracer.select("circuit.parse") if "gates" in s.info]),
            "count",
        ),
        "circuit.render_s": (mean("circuit.render"), "s"),
        "transpiler.t_count_s.u3": (mean("transpiler.t_count", "u3"), "s"),
        "transpiler.t_count_s.axis": (mean("transpiler.t_count", "axis"), "s"),
        "surface.estimate_s": (mean("surface.estimate"), "s"),
        "advisor.advise_counts_s": (mean("advisor.advise_counts"), "s"),
        "advisor.render_report_s": (mean("advisor.render_report"), "s"),
    }

    # lowering
    for label, eps in (("eps-1e-2", 1e-2), ("eps-1e-3", 1e-3)):
        t_rot = emitted_t_per_rotation(results, label)
        m[f"transpiler.transpile_s.{label}"] = (mean("transpiler.transpile", label), "s")
        m[f"transpiler.emitted_t_per_rotation.{label}"] = (t_rot, "count")
        m[f"transpiler.emitted_over_priced_t.{label}"] = (t_rot / count_mode_t_cost(eps), "ratio")
        m[f"synthesis.approximate_rz_s.{label}"] = (mean("synthesis.approximate_rz", label), "s")
    m["transpiler.transpile_s.count"] = (mean("transpiler.transpile", "count"), "s")
    sequence = [r.facts["gates"] for r in results if r.label.startswith("eps-") and "gates" in r.facts]
    m["transpiler.emitted_gates"] = (_mean(sequence), "count")
    rz = tracer.select("synthesis.approximate_rz")
    entries = max(s["table_entries"] for s in setups)
    m["synthesis.table_build_s"] = (_median([s["table_build_s"] for s in setups]) if entries else 0.0, "s")
    m["synthesis.table_entries"] = (entries, "count")
    m["synthesis.distance_over_epsilon"] = (
        _mean([s.info["distance_over_epsilon"] for s in rz if "distance_over_epsilon" in s.info]),
        "ratio",
    )
    m["synthesis.errors"] = (sum(1 for s in rz if "error" in s.info), "count")

    # simulation
    for label, short in (("clifford-full", "full"), ("clifford-narrow", "narrow")):
        pass_s = mean("tableau.pass", label)
        run_s = mean("simulate.run_clifford", label)
        m[f"tableau.pass_s.{short}"] = (pass_s, "s")
        m[f"simulate.run_clifford_s.{short}"] = (run_s, "s")
        m[f"simulate.clifford_pass_ratio.{short}"] = (run_s / pass_s if pass_s else 0.0, "ratio")
    first_full = [r for r in results if r.label == "clifford-full" and r.cycle == 0]
    m["tableau.random_events"] = (
        first_full[0].facts.get("random_events", 0) if first_full else 0, "count"
    )
    ext = tracer.select("simulate.run_extended")
    run_ext = mean("simulate.run_extended")
    branches = _mean([s.info.get("branches", 0) for s in ext])
    m["simulate.run_extended_s"] = (run_ext, "s")
    m["simulate.branches"] = (branches, "count")
    m["simulate.branch_us"] = (1e6 * run_ext / branches if branches else 0.0, "us")
    m["simulate.render_histogram_s"] = (mean("simulate.render_histogram"), "s")
    for name, labels in (("clifford", ("clifford-full", "clifford-narrow")), ("branch", ("branch",))):
        rates = [r.facts["steps_per_s"] for r in results if r.label in labels and "steps_per_s" in r.facts]
        m[f"simulate.cost_steps_per_s.{name}"] = (_mean(rates), "1/s")
    return m
