"""Start-up cost of a fresh qtriage CLI process.

``measure`` times what a CLI call pays before its first op does real work:
``import qtriage.cli``, ``load_calibration()`` and, when lowering, the first
``default_table()`` build. Run as a script it takes one such sample in a
fresh interpreter and prints it as JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Import qtriage from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qtriage" / "__init__.py").is_file():
        raise SystemExit(f"error: no qtriage source tree under {SRC}")
    sys.path.insert(0, str(SRC))


def measure(build_table: bool) -> dict[str, float]:
    """One start-up sample; the first call in a process is the cold one."""
    t0 = time.perf_counter()
    import qtriage.cli

    t1 = time.perf_counter()
    from qtriage.surface import load_calibration

    load_calibration()
    t2 = time.perf_counter()
    entries = 0
    if build_table:
        from qtriage.synthesis import default_table

        entries = len(default_table())
    t3 = time.perf_counter()
    if not qtriage.cli.__file__.startswith(str(SRC)):
        raise SystemExit(f"error: imported qtriage from {qtriage.cli.__file__}")
    return {
        "setup_s": t3 - t0,
        "import_s": t1 - t0,
        "load_calibration_s": t2 - t1,
        "table_build_s": t3 - t2,
        "table_entries": entries,
    }


if __name__ == "__main__":
    # the benchmark process has these loaded before its own sample; match it
    import argparse, os, subprocess  # noqa: E401,F401

    use_source_tree()
    print(json.dumps(measure(sys.argv[1:] == ["table"])))
