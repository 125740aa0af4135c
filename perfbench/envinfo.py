"""Record of the machine and libraries a run measured."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import subprocess

import numpy as np
import scipy


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info.get('version', '')}".strip()
    except (KeyError, TypeError):
        name = "unknown"
    threads = "unknown"
    # The loaded OpenBLAS reports its own thread count; read it through ctypes.
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", handle.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return name, threads


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root) -> dict:
    blas, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "thread_env": {
            key: os.environ.get(key, "unset")
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(root),
    }
