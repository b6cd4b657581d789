"""Seeded circuit files for the benchmark workloads.

Every instance is a pure function of (seed, workload, op index). The writer
emits qtriage's text circuit format itself and imports nothing from the
package, so the program under test only ever sees the files, and two commits
compared on one seed read byte-identical inputs.

Usage:
    python3 perfbench/inputs.py advise-20k --seed 7 --cycles 2 --out DIR
"""

from __future__ import annotations

import argparse
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

TWO_PI = 2.0 * math.pi

# (family, qubits, depth) of the two advise-20k ansatze
ADVISE_SHAPES = {
    "heavy": ("strongly-entangling", 500, 20),  # 10,000 U3 + 10,000 CNOT
    "light": ("hardware-efficient", 500, 20),  # 20,000 RY/RZ + 9,980 CNOT
}
# (qubits, random Clifford gates, measured qubits, shots) per simulate class
CLIFFORD_SHAPES = {
    "heavy": (96, 960, 96, 1024),  # full-width readout: many random events
    "light": (256, 2560, 8, 1024),  # narrow readout: few random events
}
BRANCH_SHAPE = (10, 140, 10, 1000)  # (qubits, body gates, T gates, shots)
LOWER_SHAPE = ("real-amplitudes", 4, 2)  # 8 generic RY rotations


@dataclass
class Instance:
    """One generated circuit file and what the generator knows about it."""

    text: str
    n_qubits: int
    readout: int = 0  # measured qubits, in measure order 0..readout-1
    params: int = 0  # generic rotation angles drawn
    meta: dict = field(default_factory=dict)

    def write(self, path: Path) -> Path:
        path.write_text(self.text, encoding="utf-8")
        return path


def rng_for(seed: int, *tags: object) -> random.Random:
    """Independent stream per (seed, tags); string seeds hash stably."""
    return random.Random("/".join(str(t) for t in (seed, *tags)))


def _gate(kind: str, *qubits: int, angles: tuple[float, ...] = ()) -> str:
    head = kind + ("(" + ",".join(repr(a) for a in angles) + ")" if angles else "")
    return head + " " + " ".join(str(q) for q in qubits)


def ansatz_text(family: str, n: int, depth: int, params: list[float]) -> str:
    """The package's benchmark ansatz families, written as circuit text.

    Layer structure matches ``qtriage.ansatz.build_ansatz`` with the same
    angles: each rotation block starts a new layer, entanglers layer greedily.
    """
    it = iter(params)
    lines = [f"qubits {n}", f"name {family} depth={depth}"]
    for layer in range(depth):
        if layer:
            lines.append("layer")
        if family == "strongly-entangling":
            for q in range(n):
                lines.append(_gate("u3", q, angles=(next(it), next(it), next(it))))
            stride = layer % (n - 1) + 1
            lines += [_gate("cnot", q, (q + stride) % n) for q in range(n)]
            continue
        kinds = ("ry", "rz") if family == "hardware-efficient" else ("ry",)
        for kind in kinds:
            lines += [_gate(kind, q, angles=(next(it),)) for q in range(n)]
        lines += [_gate("cnot", q, q + 1) for q in range(n - 1)]
    return "\n".join(lines) + "\n"


_PARAMS_PER_QUBIT = {
    "strongly-entangling": 3,
    "hardware-efficient": 2,
    "real-amplitudes": 1,
}


def ansatz_instance(family: str, n: int, depth: int, rng: random.Random) -> Instance:
    count = _PARAMS_PER_QUBIT[family] * n * depth
    params = [rng.uniform(0.0, TWO_PI) for _ in range(count)]
    return Instance(
        ansatz_text(family, n, depth, params),
        n,
        params=count,
        meta={"family": family, "depth": depth},
    )


def _clifford_gate(n: int, rng: random.Random, p_h: float, p_s: float) -> str:
    r = rng.random()
    if r < p_h:
        return _gate("h", rng.randrange(n))
    if r < p_h + p_s:
        return _gate("s", rng.randrange(n))
    a = rng.randrange(n)
    b = rng.randrange(n - 1)
    return _gate("cnot", a, b + 1 if b >= a else b)


def clifford_instance(n: int, m: int, readout: int, rng: random.Random) -> Instance:
    """m random H/S/CNOT gates, then measure qubits 0..readout-1."""
    lines = [f"qubits {n}"]
    lines += [_clifford_gate(n, rng, 0.4, 0.3) for _ in range(m)]
    lines += [_gate("measure", q) for q in range(readout)]
    return Instance("\n".join(lines) + "\n", n, readout=readout)


def low_t_instance(n: int, body: int, t: int, rng: random.Random) -> Instance:
    """body gates of which t are T at random slots, then measure every qubit."""
    slots = set(rng.sample(range(body), t))
    lines = [f"qubits {n}"]
    for i in range(body):
        if i in slots:
            lines.append(_gate("t", rng.randrange(n)))
        else:
            lines.append(_clifford_gate(n, rng, 0.45, 0.30))
    lines += [_gate("measure", q) for q in range(n)]
    return Instance("\n".join(lines) + "\n", n, readout=n, meta={"t": t})


# instances per cycle: short ops run more often, so every class gets samples
SIMULATE_WEIGHTS = {"heavy": 2, "light": 3, "control": 1}
LOWER_PER_CYCLE = 2


def advise_instance(seed: int, cycle: int, cls: str) -> Instance:
    family, n, depth = ADVISE_SHAPES[cls]
    return ansatz_instance(family, n, depth, rng_for(seed, "advise-20k", cycle, cls))


def simulate_instance(seed: int, cycle: int, cls: str, k: int = 0) -> Instance:
    rng = rng_for(seed, "simulate-mix", cycle, cls, k)
    if cls == "control":
        n, body, t, _ = BRANCH_SHAPE
        return low_t_instance(n, body, t, rng)
    n, m, readout, _ = CLIFFORD_SHAPES[cls]
    return clifford_instance(n, m, readout, rng)


def lower_instance(seed: int, cycle: int, k: int = 0) -> Instance:
    family, n, depth = LOWER_SHAPE
    return ansatz_instance(family, n, depth, rng_for(seed, "lower-sequence", cycle, k))


def cycle_instances(workload: str, seed: int, cycle: int) -> list[tuple[str, Instance]]:
    """The files one cycle of a workload reads, with the op class of each.

    lower-sequence instances serve every op class, so their class is "all".
    """
    if workload == "advise-20k":
        return [(c, advise_instance(seed, cycle, c)) for c in ("heavy", "light")]
    if workload == "simulate-mix":
        return [
            (c, simulate_instance(seed, cycle, c, k))
            for k in range(max(SIMULATE_WEIGHTS.values()))
            for c, weight in SIMULATE_WEIGHTS.items()
            if k < weight
        ]
    if workload == "lower-sequence":
        return [("all", lower_instance(seed, cycle, k)) for k in range(LOWER_PER_CYCLE)]
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("advise-20k", "simulate-mix", "lower-sequence"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for cycle in range(args.cycles):
        for k, (cls, inst) in enumerate(cycle_instances(args.workload, args.seed, cycle)):
            print(inst.write(args.out / f"{args.workload}-{cycle}-{k}-{cls}.qc"))


if __name__ == "__main__":
    main()
