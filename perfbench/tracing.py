"""Spans at qtriage's module boundaries, recorded from the benchmark's side.

The traced run swaps each layer's public function, where its caller looks it
up, for a wrapper that records a span; the program's source is untouched.
Spans live in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

# (module whose global the caller reads, attribute, span name). Inner calls
# are patched where the outer layer looks them up, so advise splits into
# t_count, sim_cost, estimate_surface_code and advise_counts, and transpile
# shows one synthesis span per approximated rotation.
LAYER_CALLS = (
    ("qtriage.cli", "parse_circuit", "circuit.parse"),
    ("qtriage.cli", "render_circuit", "circuit.render"),
    ("qtriage.cli", "load_calibration", "surface.load_calibration"),
    ("qtriage.cli", "advise", "advisor.advise"),
    ("qtriage.cli", "advise_counts", "advisor.advise_counts"),
    ("qtriage.cli", "render_report", "advisor.render_report"),
    ("qtriage.advisor", "t_count", "transpiler.t_count"),
    ("qtriage.advisor", "sim_cost", "simulate.sim_cost"),
    ("qtriage.advisor", "estimate_surface_code", "surface.estimate"),
    ("qtriage.advisor", "advise_counts", "advisor.advise_counts"),
    ("qtriage.cli", "transpile", "transpiler.transpile"),
    ("qtriage.transpiler", "approximate_rz", "synthesis.approximate_rz"),
    ("qtriage.cli", "run_clifford", "simulate.run_clifford"),
    ("qtriage.cli", "run_extended", "simulate.run_extended"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    op: int  # op id; spans of one op share it
    label: str  # op class label, e.g. "clifford-full"
    info: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self.label = ""

    @contextmanager
    def span(self, name: str, **info: object) -> Iterator[dict]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, self.label, dict(info)))
        self._stack.append(index)
        try:
            yield self.spans[index].info
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as info:
                try:
                    if name == "simulate.run_extended" and not kwargs.get("return_info"):
                        hist, run = fn(*args, **{**kwargs, "return_info": True})
                        info.update(run)
                        return hist
                    result = fn(*args, **kwargs)
                except Exception as err:
                    info["error"] = type(err).__name__
                    raise
                if name == "circuit.parse":
                    info["gates"] = result.gate_count
                elif name == "synthesis.approximate_rz":
                    info["distance_over_epsilon"] = result[1] / args[1]
                return result

        return traced

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Record a span around every call listed in LAYER_CALLS."""
        saved = []
        for module_name, attr, name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def select(self, name: str, label: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (label is None or s.label == label)
        ]

    def mean_seconds(self, name: str, label: str | None = None) -> float:
        """Mean span duration per call; 0.0 when the layer was never called."""
        chosen = self.select(name, label)
        return sum(s.seconds for s in chosen) / len(chosen) if chosen else 0.0

    def self_seconds(self, index: int) -> float:
        """Span duration minus the time its direct children cover."""
        children = (s.seconds for s in self.spans if s.parent == index)
        return self.spans[index].seconds - sum(children)

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps([asdict(s) for s in self.spans], default=str) + "\n",
            encoding="utf-8",
        )
