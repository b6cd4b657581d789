"""The host a run measures on: its speed right now and its environment.

On a shared host the same op's wall time swings by a quarter within a
minute as neighbours come and go. ``host_ref`` times a fixed kernel of the
kinds of work qtriage does (interpreter loop, small-array numpy calls, a
memory stream); timed ops are scaled by it to seconds at nominal host speed,
where the kernel takes REF_NOMINAL_S. The kernel is the benchmark's own code,
so no change to the program can move it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import time

import numpy as np

REF_NOMINAL_S = 0.015
_ROWS = np.zeros((64, 256), dtype=np.uint8)
_STREAM = np.ones(1 << 20)  # 8 MiB, past the caches


def host_ref() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i & 7
    for j in range(400):
        _ROWS[j & 63] ^= _ROWS[(j + 1) & 63]
    for _ in range(4):
        _STREAM.sum()
    return time.perf_counter() - start


def at_nominal_speed(seconds: float, *refs: float) -> float:
    """Scale a timing by the mean of the reference timings around it."""
    return seconds * REF_NOMINAL_S * len(refs) / sum(refs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """What a result must be stored with so runs on other hosts are not compared."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "process_threads": process_threads(),
        "processes": 1,  # set-up probes ran one at a time and have exited
    }


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def process_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None
