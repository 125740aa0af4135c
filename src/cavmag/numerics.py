"""Validated dense eigen-solve, and an LU solve kept for the benchmark.

eig_general is the drift eigen-solve behind steady_state.stability: it
refuses a matrix that is not 2-D, square and finite, then calls LAPACK
through numpy. solve_linear, an LU solve with a pivot-based singularity
guard, has no production caller; it stays only because the benchmark's
tracer in perfbench/ names it (ROADMAP item 1).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, SingularMatrixError

# Relative pivot threshold below which a solve is refused as singular.
SINGULAR_PIVOT_RTOL = 1e-14


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
