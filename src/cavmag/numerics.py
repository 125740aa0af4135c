"""The one module that calls LAPACK, and an LU solve kept for the benchmark.

solve, eigvals, eigvalsh and det call the gufuncs behind np.linalg, from
numpy's private module numpy.linalg._umath_linalg, with np.linalg's type
signatures and error state, so each gives np.linalg's values bit for bit.
Where LAPACK sets its failure flag, solve raises SingularMatrixError and
eigvals and eigvalsh NumericalError; no other module handles a LAPACK
failure. They skip np.linalg's shape, finiteness and type checks, which
cost about as much as a 6x6 eigen-solve: callers pass float arrays of
matching shapes. Callers reach them as numerics.solve(...) and so on, so a
test or a tracer can rebind them; a tier-1 test fails by name if numpy
renames one.

eig_general is the drift eigen-solve behind steady_state.stability: it
refuses a matrix that is not 2-D, square and finite, then calls eigvals.
solve_linear, an LU solve with a pivot-based singularity guard, has no
production caller; it stays only because the benchmark's tracer in
perfbench/ names it (ROADMAP item 1).
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionError, DomainError, NumericalError, SingularMatrixError

# Relative pivot threshold below which a solve is refused as singular.
SINGULAR_PIVOT_RTOL = 1e-14
_NO_CONVERGENCE = "eigenvalue iteration failed: Eigenvalues did not converge"


def _lapack_errors(error: type, message: str) -> np.errstate:
    """np.linalg's error state around a gufunc: LAPACK's failure flag
    (invalid) raises error(message) where np.linalg raises LinAlgError, and
    no other flag warns."""
    def raiser(err, flag):
        raise error(message)
    return np.errstate(call=raiser, invalid="call", over="ignore", divide="ignore", under="ignore")


def solve(a, b) -> np.ndarray:
    """np.linalg.solve(a, b) for float a (..., n, n) and b (..., n, k)."""
    with _lapack_errors(SingularMatrixError, "Singular matrix"):
        return _umath_linalg.solve(a, b, signature="dd->d")


def eigvals(a) -> np.ndarray:
    """Eigenvalues of finite float a (..., n, n), always complex.

    np.linalg.eigvals returns the real parts instead when every imaginary
    part is zero; eig_general keeps that rule. np.linalg.eigvals also
    refuses non-finite input, which LAPACK itself reports on stderr before
    failing, so callers pass finite arrays only.
    """
    with _lapack_errors(NumericalError, _NO_CONVERGENCE):
        return _umath_linalg.eigvals(a, signature="d->D")


def eigvalsh(a) -> np.ndarray:
    """np.linalg.eigvalsh(a) for float a (..., n, n): ascending, from the lower triangle."""
    with _lapack_errors(NumericalError, _NO_CONVERGENCE):
        return _umath_linalg.eigvalsh_lo(a, signature="d->d")


def det(a) -> np.ndarray:
    """np.linalg.det(a) for float a (..., n, n), under the caller's errstate (measures._reports)."""
    return _umath_linalg.det(a, signature="d->d")


def _as_square(a) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise DimensionError(f"matrix must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise DomainError("matrix contains non-finite entries")
    if out.shape[0] != out.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {out.shape}")
    if not out.size:  # numpy's max over an empty spectrum has no identity
        raise DimensionError(f"matrix must not be empty, got shape {out.shape}")
    return out


def eig_general(a) -> np.ndarray:
    """Eigenvalues of a general real square matrix, as np.linalg.eigvals gives them.

    The array is complex, or real when every imaginary part is zero
    (numpy's rule; cavmag point prints this array as its spectrum); complex
    eigenvalues come in conjugate pairs. steady_state.stability is the only
    caller. A LAPACK failure raises eigvals' NumericalError.
    """
    w = eigvals(_as_square(a))
    return w.real if (w.imag == 0).all() else w


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
