"""Defaults and file/environment configuration for the command-line tools.

Precedence is flags over config file over built-in defaults. The file uses
the same whitespace key-value format as calibration data, found either via
an explicit path or the QTRIAGE_CONFIG environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, get_args, get_type_hints

from .advisor import DEFAULT_T_THRESHOLD
from .simulate import DEFAULT_T_MAX
from .surface import HardwareProfile, parse_kv_lines
from .transpiler import DEFAULT_COUNT_OFFSET, DEFAULT_COUNT_SLOPE

ENV_CONFIG_PATH = "QTRIAGE_CONFIG"


@dataclass(frozen=True)
class Config:
    epsilon: float = 1e-2
    t_threshold: int = DEFAULT_T_THRESHOLD
    p: float = 1e-3
    cycle_time: float = 1e-6
    target_logical_error: float = 0.02
    calibration: str | None = None
    seed: int = 0
    t_max: int = DEFAULT_T_MAX
    count_slope: float = DEFAULT_COUNT_SLOPE
    count_offset: int = DEFAULT_COUNT_OFFSET

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if self.t_threshold < 0 or self.t_max < 0:
            raise ValueError("t_threshold and t_max must be >= 0")
        if self.count_slope <= 0.0 or self.count_offset < 0:
            raise ValueError("count_slope must be > 0 and count_offset >= 0")
        self.profile()  # range-checks p, cycle_time, target_logical_error

    def profile(self) -> HardwareProfile:
        return HardwareProfile(self.p, self.cycle_time, self.target_logical_error)

    def override(self, **values: Any) -> "Config":
        """Copy with the non-None entries of values replacing fields."""
        changed = {k: v for k, v in values.items() if v is not None}
        return replace(self, **changed) if changed else self


def _parser(field_type: Any) -> Callable[[str], Any]:
    """The field's type, or the non-None member of an optional type."""
    members = [t for t in get_args(field_type) if t is not type(None)]
    return members[0] if members else field_type


_PARSERS = {name: _parser(t) for name, t in get_type_hints(Config).items()}


def config_from_text(text: str) -> Config:
    values: dict[str, Any] = {}
    for row in parse_kv_lines(text):
        if len(row) != 2:
            raise ValueError(f"bad config line: {' '.join(row)}")
        key, raw = row
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _PARSERS[key](raw)
    return Config(**values)


def load_config(
    path: str | Path | None = None, env: Mapping[str, str] = os.environ
) -> Config:
    """Defaults, overlaid by the file at path or at $QTRIAGE_CONFIG if set."""
    chosen = path if path is not None else env.get(ENV_CONFIG_PATH)
    if chosen is None:
        return Config()
    return config_from_text(Path(chosen).read_text(encoding="utf-8"))
