"""Command-line front end: build, lower, count, simulate, estimate, advise.

Exit codes are a contract: 0 for success (and HPC routing), 10 for a QC
routing, 11 when no engine fits, 2 for usage or input errors. All output is
UTF-8; `--format machine` selects one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .advisor import Decision, Policy, advise, advise_counts, render_report
from .ansatz import AnsatzKind, build_ansatz, param_count
from .circuit import (
    T_KINDS,
    TWO_PI,
    Circuit,
    GateKind,
    GateOp,
    ParseError,
    parse_circuit,
    render_circuit,
)
from .config import Config, load_config
from .simulate import BRANCH_KINDS, BudgetError, render_histogram, run_clifford, run_extended
from .surface import InfeasibleError, load_calibration, scan
from .tableau import RegimeError
from .transpiler import SynthesisMode, t_count, transpile
from . import encoding

_EXIT_BY_DECISION = {Decision.HPC: 0, Decision.QC: 10, Decision.INFEASIBLE: 11}


def _write(data: str | bytes, output: str | None) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    if output is None or output == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(output).write_bytes(data)


def _emit(args: argparse.Namespace, doc: object, text: str) -> None:
    """Write doc as one JSON line under `--format machine`, else the text."""
    if args.format == "machine":
        text = json.dumps(doc) + "\n"
    _write(text, getattr(args, "output", None))


def _table(header: str, rows: Iterable[Iterable[object]]) -> str:
    """A header line, then one space-separated line per row."""
    lines = [header] + [" ".join(f"{cell}" for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _read_circuit(path: str) -> Circuit:
    if path == "-":
        return parse_circuit(sys.stdin.read())
    return parse_circuit(Path(path).read_text(encoding="utf-8"))


_CONFIG_FIELDS = tuple(f.name for f in fields(Config))


def _config(args: argparse.Namespace) -> Config:
    overrides = {name: getattr(args, name, None) for name in _CONFIG_FIELDS}
    return load_config(getattr(args, "config", None)).override(**overrides)


def cmd_ansatz(args: argparse.Namespace) -> int:
    cfg = _config(args)
    kind = AnsatzKind(args.kind)
    rng = random.Random(cfg.seed)
    params = [
        rng.uniform(0.0, TWO_PI)
        for _ in range(param_count(kind, args.qubits, args.depth))
    ]
    circuit = build_ansatz(kind, args.qubits, args.depth, params)
    _write(render_circuit(circuit), args.output)
    return 0


def cmd_transpile(args: argparse.Namespace) -> int:
    cfg = _config(args)
    circuit = _read_circuit(args.circuit)
    mode = SynthesisMode(args.mode)
    result = transpile(
        circuit,
        cfg.epsilon,
        mode,
        count_slope=cfg.count_slope,
        count_offset=cfg.count_offset,
    )
    text = render_circuit(result.circuit)
    doc = {
        "n_qubits": result.circuit.n_qubits,
        "gate_count": result.circuit.gate_count,
        "depth": result.circuit.depth,
        "approx_rotations": result.approx_rotations,
        "approx_error": result.approx_error,
        "circuit": text,
    }
    _emit(args, doc, text)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    cfg = _config(args)
    report = t_count(
        _read_circuit(args.circuit),
        cfg.epsilon,
        count_slope=cfg.count_slope,
        count_offset=cfg.count_offset,
    )
    doc = {
        "t_full": report.t_full,
        "t_sym": report.t_sym,
        "epsilon": report.epsilon,
        "clifford_count": report.clifford_count,
        "breakdown": [
            {"layer": row.layer, "t_full": row.t_full, "t_sym": row.t_sym}
            for row in report.breakdown
        ],
    }
    text = (
        f"t-full: {report.t_full}\n"
        f"t-sym: {report.t_sym}\n"
        f"epsilon: {report.epsilon:g}\n"
        f"clifford-count: {report.clifford_count}\n"
    ) + _table("layer t-full t-sym", (row.values() for row in doc["breakdown"]))
    _emit(args, doc, text)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    circuit = _read_circuit(args.circuit)
    if circuit.first_kind_outside(BRANCH_KINDS) is not None:
        print(
            "note: lowering non-Clifford+T gates at epsilon "
            f"{cfg.epsilon:g} before simulating",
            file=sys.stderr,
        )
        circuit = transpile(circuit, cfg.epsilon, SynthesisMode.SEQUENCE).circuit
    if circuit.count_kinds(T_KINDS):
        hist = run_extended(circuit, args.shots, cfg.seed, t_max=cfg.t_max)
    else:
        hist = run_clifford(circuit, args.shots, cfg.seed)
    hist = dict(sorted(hist.items()))
    doc = {"histogram": hist, "seed": cfg.seed, "shots": args.shots}
    _emit(args, doc, render_histogram(hist))
    return 0


def _t_value(text: str) -> int:
    """A T-count argument: a whole number in float range >= 0, also as 1e8."""
    try:
        value = int(text)  # exact past 2**53, where a float rounds
    except ValueError:
        number = float(text)
        if not math.isfinite(number):
            raise ValueError(f"T value {text!r} is not finite")
        if number != int(number):
            raise ValueError(f"T value {text!r} is not a whole number")
        value = int(number)
    if value < 0:
        raise ValueError(f"T value {text!r} is negative")
    if value > sys.float_info.max:
        raise ValueError(f"T value {text!r} is past float range")
    return value


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    model = load_calibration(cfg.calibration)
    t_values = sorted(_t_value(v) for v in args.t)
    rows = scan(cfg.profile(), args.logical_qubits, t_values, model)
    docs = [
        {
            "t": t,
            "distance": r.d,
            "data_qubits": r.data_qubits,
            "distillation_qubits": r.distillation_qubits,
            "total_physical_qubits": r.total_physical,
            "hours_per_shot": r.hours_per_shot,
            "source": r.assumptions["source"],
        }
        for t, r in zip(t_values, rows)
    ]
    # the text columns are the doc's fields in order, hours to 6 digits
    text = _table(
        "t distance data distillation total hours-per-shot source",
        ({**d, "hours_per_shot": f"{d['hours_per_shot']:.6g}"}.values() for d in docs),
    )
    _emit(args, docs, text)
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    specs = [encoding.parse_tensor_spec(s) for s in args.spec]
    if args.scheme == "angle":
        scheme: encoding.EncodingScheme = encoding.AnglePerFeature()
    elif args.scheme == "amplitude":
        scheme = encoding.Amplitude()
    else:
        if args.target_features is None:
            raise ValueError("--target-features is required with --scheme hybrid")
        scheme = encoding.HybridCompressed(args.target_features)
    rows = encoding.compare_modalities(specs, scheme)
    # the text header is the row keys, dashed
    header = " ".join(rows[0]).replace("_", "-")
    _emit(args, rows, _table(header, (r.values() for r in rows)))
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    cfg = _config(args)
    profile = cfg.profile()
    model = load_calibration(cfg.calibration)
    policy = Policy(args.policy)
    circuit = _read_circuit(args.circuit) if args.circuit else None
    if args.t_override is not None:
        if circuit is None and args.logical_qubits is None:
            raise ValueError("--t-override without a circuit needs --logical-qubits")
        t = _t_value(str(args.t_override))
        report = advise_counts(
            t,
            t,
            epsilon=cfg.epsilon,
            policy=policy,
            n_qubits=circuit.n_qubits if circuit else args.logical_qubits,
            gate_count=circuit.gate_count if circuit else 0,
            t_threshold=cfg.t_threshold,
            profile=profile,
            logical_qubits=args.logical_qubits,
            model=model,
        )
    elif circuit is None:
        raise ValueError("a circuit file (or --t-override) is required")
    else:
        report = advise(
            circuit,
            cfg.epsilon,
            policy,
            cfg.t_threshold,
            profile,
            logical_qubits=args.logical_qubits,
            model=model,
            count_slope=cfg.count_slope,
            count_offset=cfg.count_offset,
        )
    _write(render_report(report, args.format), None)
    return _EXIT_BY_DECISION[report.decision]


# --- benchmark suites -------------------------------------------------------
#
# The Clifford suite measures a fixed-width readout (8 qubits) as n grows so
# the timing tracks the tableau engine, not the sampling layer; the extended
# suite pins (n, m) and sweeps t, where each extra T doubles the branch count.

BENCH_CLIFFORD_SIZES = (16, 32, 64, 128, 256)
BENCH_EXTENDED_T = (8, 9, 10, 11, 12, 13, 14)


def _clifford_gate(
    n: int, rng: random.Random, h_below: float, s_below: float
) -> GateOp:
    """H if the draw is below h_below, else S if below s_below, else a CNOT."""
    r = rng.random()
    if r < h_below:
        return GateOp(GateKind.H, (rng.randrange(n),))
    if r < s_below:
        return GateOp(GateKind.S, (rng.randrange(n),))
    a = rng.randrange(n)
    b = rng.randrange(n - 1)
    return GateOp(GateKind.CNOT, (a, b + 1 if b >= a else b))


def _random_clifford_circuit(n: int, m: int, seed: int) -> Circuit:
    rng = random.Random(seed)
    ops = [_clifford_gate(n, rng, 0.4, 0.7) for _ in range(m)]
    ops += [GateOp(GateKind.MEASURE, (q,)) for q in range(min(n, 8))]
    return Circuit.from_gates(n, ops)


def _low_t_circuit(n: int, t: int, seed: int) -> Circuit:
    rng = random.Random(seed)
    body = 140
    t_slots = set(rng.sample(range(body), t))
    ops = [
        GateOp(GateKind.T, (rng.randrange(n),))
        if i in t_slots
        else _clifford_gate(n, rng, 0.45, 0.75)
        for i in range(body)
    ]
    ops += [GateOp(GateKind.MEASURE, (q,)) for q in range(n)]
    return Circuit.from_gates(n, ops)


def _best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_clifford(seed: int = 0, shots: int = 512) -> list[tuple[int, int, float]]:
    """(n, m, seconds) rows for the polynomial-regime suite, m = 10n."""
    rows = []
    for n in BENCH_CLIFFORD_SIZES:
        m = 10 * n
        circuit = _random_clifford_circuit(n, m, seed + n)
        rows.append((n, m, _best_of(lambda: run_clifford(circuit, shots, seed))))
    return rows


def bench_extended(seed: int = 0, shots: int = 1000) -> list[tuple[int, int, float]]:
    """(t, branches, seconds) rows for the exponential-regime suite, n = 10."""
    rows = []
    for t in BENCH_EXTENDED_T:
        circuit = _low_t_circuit(10, t, seed + t)
        rows.append(
            (t, 1 << t, _best_of(lambda: run_extended(circuit, shots, seed), 2))
        )
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.suite == "clifford":
        header, rows = "n m seconds", bench_clifford(cfg.seed)
    else:
        header, rows = "t branches seconds", bench_extended(cfg.seed)
    _write(_table(header, ((a, b, f"{s:.6f}") for a, b, s in rows)), args.output)
    return 0


@functools.cache  # built on the first main() call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtriage",
        description=(
            "Clifford+T transpilation, T-counting, classical simulation, "
            "surface-code estimation, and HPC-vs-quantum dispatch"
        ),
    )
    parser.add_argument("--config", help="config file path (else $QTRIAGE_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *names: str) -> None:
        if "epsilon" in names:
            p.add_argument("--epsilon", type=float, default=None)
        if "seed" in names:
            p.add_argument("--seed", type=int, default=None)
        if "format" in names:
            p.add_argument("--format", choices=("text", "machine"), default="text")
        if "calibration" in names:
            p.add_argument("--calibration", default=None)

    p = sub.add_parser("ansatz", help="emit a benchmark circuit with seeded angles")
    p.add_argument("kind", choices=[k.value for k in AnsatzKind])
    p.add_argument("-n", "--qubits", type=int, required=True)
    p.add_argument("-d", "--depth", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    common(p, "seed")
    p.set_defaults(func=cmd_ansatz)

    p = sub.add_parser("transpile", help="lower a circuit to Clifford+T")
    p.add_argument("circuit")
    p.add_argument("--mode", choices=("count", "sequence"), default="sequence")
    p.add_argument("-o", "--output", default=None)
    common(p, "epsilon", "format")
    p.set_defaults(func=cmd_transpile)

    p = sub.add_parser("count", help="T-count a circuit under both policies")
    p.add_argument("circuit")
    common(p, "epsilon", "format")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("simulate", help="sample a circuit classically")
    p.add_argument("circuit")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--t-max", type=int, default=None, dest="t_max")
    common(p, "epsilon", "seed", "format")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="surface-code resources over T-counts")
    p.add_argument("-q", "--logical-qubits", type=int, required=True)
    p.add_argument("-t", "--t", nargs="+", required=True, metavar="T")
    common(p, "format", "calibration")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("encode", help="data-loading budgets for image tensors")
    p.add_argument("spec", nargs="+", help="IxJxK:modality[:symmetric]")
    p.add_argument("--scheme", choices=("angle", "amplitude", "hybrid"), default="angle")
    p.add_argument("--target-features", type=int, default=None)
    common(p, "format")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("advise", help="route a workload to HPC or QC")
    p.add_argument("circuit", nargs="?", default=None)
    p.add_argument("--policy", choices=("full", "symmetry"), default="full")
    p.add_argument("--t-threshold", type=int, default=None, dest="t_threshold")
    p.add_argument("--t-override", type=int, default=None, dest="t_override")
    p.add_argument("--logical-qubits", type=int, default=None)
    common(p, "epsilon", "format", "calibration")
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("bench", help="run a scaling suite, emit timing rows")
    p.add_argument("suite", choices=("clifford", "extended"))
    p.add_argument("-o", "--output", default=None)
    common(p, "seed")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse already printed usage
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        return args.func(args)
    except ParseError as err:
        print(f"error: line {err.line}, col {err.col}: {err.message}", file=sys.stderr)
        return 2
    except InfeasibleError as err:
        print(f"error: {err}", file=sys.stderr)
        return 11
    except (ValueError, RegimeError, BudgetError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
