"""qtriage benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload advise-20k --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports qtriage from its ``src``. Set-up
is timed first, in this process and in fresh interpreters; then whole cycles
of CLI ops run until the timed ops add up to ``--seconds``. Human-readable
lines come first; the last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
A run that cannot find the qtriage source tree exits non-zero with no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import startup

WORKLOAD_NAMES = ("advise-20k", "simulate-mix", "lower-sequence")
# start-up samples per run; each lower-sequence one builds the synthesis table
SETUP_SAMPLES = {"advise-20k": 9, "simulate-mix": 9, "lower-sequence": 3}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="qtriage benchmark run")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_samples(workload: str) -> list[dict[str, float]]:
    """The cold start of this process, then fresh interpreters one at a time.

    Each sample also carries its time at nominal host speed, scaled by the
    host reference timed around it (after it, for the in-process sample,
    whose imports must come first).
    """
    table = workload == "lower-sequence"
    first = startup.measure(table)
    import host

    refs = [host.host_ref()]
    first["scaled_setup_s"] = host.at_nominal_speed(first["setup_s"], refs[0])
    samples = [first]
    for _ in range(SETUP_SAMPLES[workload] - 1):
        done = subprocess.run(
            [sys.executable, startup.__file__] + (["table"] if table else []),
            capture_output=True, text=True, timeout=170, check=True, cwd=startup.ROOT,
        )
        refs.append(host.host_ref())
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        sample["scaled_setup_s"] = host.at_nominal_speed(sample["setup_s"], refs[-2], refs[-1])
        samples.append(sample)
    return samples


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    startup.use_source_tree()
    setups = setup_samples(args.workload)

    from host import environment, peak_rss_mb
    from metrics import end_to_end, report_lines, per_layer
    from tracing import Tracer
    from workloads import WORKLOADS, run_ops

    workload = WORKLOADS[args.workload]
    work = startup.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    problem = workload.prepare(args.seed, work)
    tracer = Tracer() if args.trace else None
    results, refs = run_ops(workload, args.seed, args.seconds, work, tracer)
    peak = peak_rss_mb()
    for path in work.glob("*.qc"):
        path.unlink()

    env = environment()
    # with --trace 1 an op is the untraced call and its traced repeat
    failed = [r for r in results if r.problem]
    for r in failed[:5]:
        print(f"failed {r.label} cycle {r.cycle}: {r.problem}")
    if problem:
        print(f"failed before timing: {problem}")
    print("env " + json.dumps(env))
    for line in report_lines(workload, results, setups, peak, len(failed) / len(results)):
        print(line)
    if tracer:
        metrics = per_layer(tracer, results, setups, refs)
        tracer.dump(work / "spans.json")
    else:
        metrics = end_to_end(results, setups, peak)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    doc = {
        "correct": not failed and problem is None,
        "attempted": len(results) + (problem is not None),
        "failed": len(failed) + (problem is not None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({**doc, "env": env, "args": vars(args)}) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
