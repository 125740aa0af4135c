"""Minimal dense linear-algebra kernel.

Everything here operates on small dense real matrices (6x6 system matrices,
36x36 vectorized solves). The heavy lifting is delegated to LAPACK through
numpy/scipy; this module adds the validation, error taxonomy and the
fixed-step Lyapunov integrator used as an independent cross-check of the
algebraic steady-state solver.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    NumericalError,
    SingularMatrixError,
    StabilityError,
    StepSizeError,
)

# Relative pivot threshold below which a solve is refused as singular.
SINGULAR_PIVOT_RTOL = 1e-14
# Hard cap on ||M||*dt for the fixed-step integrator.
MAX_STABLE_STEP = 0.1


def _as_square(a, name: str = "matrix") -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise DomainError(f"{name} contains non-finite entries")
    if out.shape[0] != out.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {out.shape}")
    return out


def eig_general(a) -> np.ndarray:
    """Eigenvalues of a general real square matrix, as a complex array.

    Complex eigenvalues of a real matrix come in conjugate pairs; callers
    rely on that to read symplectic spectra off the imaginary parts.
    """
    m = _as_square(a)
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b by LU factorization with a pivot-based singularity guard."""
    # imported here: scipy.linalg is most of the package's import time, and
    # nothing else in the package needs it
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

    m = _as_square(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != m.shape[0]:
        raise DimensionError(
            f"rhs of length {rhs.shape[0]} does not match matrix of size {m.shape[0]}"
        )
    if not np.all(np.isfinite(rhs)):
        raise DomainError("rhs contains non-finite entries")
    with warnings.catch_warnings():
        # the pivot check below is the singularity contract; scipy's warning
        # on an exactly zero pivot would just duplicate it
        warnings.simplefilter("ignore", category=LinAlgWarning)
        lu, piv = lu_factor(m, check_finite=False)
    scale = np.linalg.norm(m, np.inf)
    min_pivot = np.min(np.abs(np.diag(lu)))
    if scale == 0.0 or min_pivot <= SINGULAR_PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot {min_pivot:.3e}, norm {scale:.3e})"
        )
    return lu_solve((lu, piv), rhs, check_finite=False)


def integrate_lyapunov_ode(m, d, t_end: float, dt: float) -> np.ndarray:
    """Integrate dV/dt = m V + V m^T + d from V(0) = 0 up to t_end.

    Classical fixed-step fourth-order Runge-Kutta; the step is shrunk so an
    integer number of steps lands exactly on t_end. Serves as an independent
    route to the steady-state covariance for Hurwitz-stable m: the iteration
    converges to the solution of m V + V m^T + d = 0.
    """
    mm = _as_square(m, "m")
    dd = _as_square(d, "d")
    if dd.shape != mm.shape:
        raise DimensionError(f"d has shape {dd.shape}, expected {mm.shape}")
    if not np.allclose(dd, dd.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(dd).max())):
        raise DomainError("d must be symmetric")
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if t_end <= 0.0:
        raise DomainError(f"t_end must be positive, got {t_end}")
    spectrum = eig_general(mm)
    if spectrum.real.max() >= 0.0:
        raise StabilityError(
            f"m is not Hurwitz stable (max Re lambda = {spectrum.real.max():.3e}); "
            "refusing to integrate toward a non-existent steady state"
        )
    m_norm = np.linalg.norm(mm, 2)
    if m_norm * dt > MAX_STABLE_STEP:
        raise StepSizeError(
            f"dt = {dt:.3e} is too large for ||m|| = {m_norm:.3e} "
            f"(||m||*dt = {m_norm * dt:.3f} > {MAX_STABLE_STEP})"
        )

    n_steps = max(1, math.ceil(t_end / dt))
    h = t_end / n_steps
    mt = mm.T
    v = np.zeros_like(mm)

    def rate(x):
        return mm @ x + x @ mt + dd

    for _ in range(n_steps):
        k1 = rate(v)
        k2 = rate(v + 0.5 * h * k1)
        k3 = rate(v + 0.5 * h * k2)
        k4 = rate(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    return 0.5 * (v + v.T)
