"""Core count, BLAS thread cap and the environment record of a run.

Imports nothing outside the standard library at module level, so the thread
cap can be set before numpy is first imported.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_env(processes: int) -> dict[str, str]:
    """Thread-count variables for a launch that keeps ``processes`` processes busy.

    Caps BLAS threads so that processes x BLAS threads <= nproc.
    """
    value = str(max(1, nproc() // processes))
    return {k: value for k in BLAS_VARS}


def _blas_threads() -> tuple[str, int | None]:
    """(path of the loaded OpenBLAS library, its current thread count)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown", None
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps)))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return Path(path).name, int(fn())
    return (Path(libs[0]).name if libs else "not loaded"), None


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record(root: Path, workload: str, seed: int) -> dict:
    import numpy as np

    lib, threads = _blas_threads()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_library": lib,
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_sha": git_sha(root),
        "machine": platform.machine(),
    }
