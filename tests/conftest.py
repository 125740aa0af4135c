"""Shared test helpers: reference scales, random configuration draws and a
child Python process that imports this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavmag
from cavmag.model import TWO_PI, PhysicalParams

KAPPA_C = TWO_PI * 5e6
KAPPA_M = TWO_PI * 1e6


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
