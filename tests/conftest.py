"""Shared test helpers: reference scales, random configuration draws and a
child Python process that imports this checkout's package."""

import collections
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavmag
from cavmag import numerics
from cavmag.model import TWO_PI, PhysicalParams

KAPPA_C = TWO_PI * 5e6
KAPPA_M = TWO_PI * 1e6

# Every numpy.linalg function that calls LAPACK.
LINALG_SOLVERS = (
    "cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd", "svdvals", "tensorinv",
    "tensorsolve",
)
# The numerics entry points, through which the package calls LAPACK.
LAPACK_ENTRY_POINTS = ("solve", "eigvals", "eigvalsh", "det")


def random_params(rng, stiff=False) -> PhysicalParams:
    """Random valid configuration around the reference scales.

    The moderate draw keeps the decay-rate spread small enough that the
    fixed-step integrator stays cheap; stiff draws allow the full reference
    coupling strength and the slow magnon decay.
    """
    if stiff:
        kappa_m = rng.uniform(0.1, 0.5) * KAPPA_C
        coupling = 4.0 * KAPPA_C
        detuning = 4.0 * KAPPA_C
    else:
        kappa_m = rng.uniform(0.1, 0.5) * KAPPA_C
        coupling = 2.0 * KAPPA_C
        detuning = 2.0 * KAPPA_C
    return PhysicalParams(
        kappa_1=rng.uniform(0.5, 1.5) * KAPPA_C,
        kappa_2=rng.uniform(0.5, 1.5) * KAPPA_C,
        kappa_m=kappa_m,
        gamma_1=rng.uniform(0.0, coupling),
        gamma_2=rng.uniform(0.0, coupling),
        delta_1=rng.uniform(-detuning, detuning),
        delta_2=rng.uniform(-detuning, detuning),
        delta_m=rng.uniform(-detuning, detuning),
        r=rng.uniform(0.0, 0.8),
        temperature=rng.uniform(0.0, 0.3),
    )


def count_lapack(monkeypatch, shapes=None) -> collections.Counter:
    """Count every LAPACK call from here on, by rebinding the functions.

    Each numerics entry point counts under its own name, and each
    np.linalg solver as "np.linalg.<name>", so a path that calls LAPACK
    through numpy's wrappers shows. If shapes is a list, each entry point
    appends (name, shape of its first argument) to it.
    """
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(a, *args, **kwargs):
            calls[name] += 1
            if shapes is not None and not name.startswith("np.linalg."):
                shapes.append((name, a.shape))
            return real(a, *args, **kwargs)
        return wrapper

    for name in LAPACK_ENTRY_POINTS:
        monkeypatch.setattr(numerics, name, counted(name, getattr(numerics, name)))
    for name in LINALG_SOLVERS:
        monkeypatch.setattr(np.linalg, name, counted(f"np.linalg.{name}", getattr(np.linalg, name)))
    return calls


def linalg_calls(calls: collections.Counter) -> dict:
    """The np.linalg solvers among count_lapack's counts."""
    return {name: n for name, n in calls.items() if name.startswith("np.linalg.")}


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def pytest_terminal_summary(terminalreporter):
    acceptance = sys.modules.get("test_acceptance")
    if acceptance is not None and acceptance.RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in acceptance.RESULTS:
            terminalreporter.write_line(line)


def run_python(*args) -> subprocess.CompletedProcess:
    """Python in a child process with this checkout's cavmag importable.

    A child shows stderr as a user sees it, numpy warnings included, and
    starts from a fresh set of imported modules.
    """
    src = str(Path(cavmag.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
