"""Host facts recorded with every run. Nothing here sets anything.

The BLAS thread count is read from the OpenBLAS that numpy already
loaded, so a run records the thread budget it actually ran with.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time

import numpy as np

_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "openblas_get_num_threads")
_CALIB = np.random.default_rng(0).random(20000)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _loaded_blas() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process
    (numpy and scipy may each bring their own)."""
    paths = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower() \
                        and ".so" in path and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def blas_threads() -> dict[str, int]:
    """Live thread count per loaded OpenBLAS; -1 when unreadable."""
    counts = {}
    for path in _loaded_blas():
        lib = ctypes.CDLL(path)
        counts[os.path.basename(path)] = -1
        for symbol in _THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[os.path.basename(path)] = int(getter())
                break
    return counts


def calibrate() -> float:
    """Milliseconds for a fixed mixed numpy/python loop; a slow host
    shows here, a slow program does not. No BLAS call, so the program's
    BLAS thread state cannot move it."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    values = _CALIB
    for _ in range(5):
        values = np.sort(np.sin(values))
    return (time.perf_counter() - start) * 1000.0


def rss_mb() -> float:
    """Resident memory of this process now, in MB."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine since boot; steal is
    time a hypervisor ran something else on this machine's CPUs."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def facts() -> dict:
    threads = blas_threads()
    return {"nproc": nproc(),
            "blas": threads,
            "blas_threads": max(threads.values(), default=-1),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "loadavg": list(os.getloadavg())}
