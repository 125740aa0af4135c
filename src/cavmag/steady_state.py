"""Steady-state covariance matrix and drift-spectrum stability.

The stationary covariance matrix V of the fluctuations solves the algebraic
Lyapunov equation

    M V + V M^T = -D

which is vectorized into the single 36x36 linear system
(I (x) M + M (x) I) vec V = -vec D and solved densely. V uses the same
quadrature ordering as the drift matrix and the vacuum normalization 1/2 per
quadrature, so the two-mode separability boundary sits at twice the minimum
symplectic eigenvalue = 1. Nothing is kept between calls but the operator's
index tables, which depend on the matrix size alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    DimensionError,
    DomainError,
    NumericalError,
    SingularMatrixError,
    StabilityError,
)

# Verified residual bound for every solved point: ||M V + V M^T + D||_inf
# relative to ||D||_inf.
LYAPUNOV_RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class StabilityReport:
    """Drift spectrum summary: stable iff every eigenvalue has Re < 0."""

    max_real_part: float
    spectrum: np.ndarray
    stable: bool


def stability(m) -> StabilityReport:
    """Assess Hurwitz stability of a drift matrix from its full spectrum."""
    spectrum = numerics.eig_general(m)
    max_real = float(spectrum.real.max())
    return StabilityReport(max_real_part=max_real, spectrum=spectrum, stable=max_real < 0.0)


# I (x) M + M (x) I for an n x n drift M has entry [(i, k), (j, l)] =
# delta_ij M_kl + M_ij delta_kl. _kron_sum gathers it from vec(M) followed by
# +0.0 and -0.0 through two index tables: the first picks M_kl where i == j
# and +0.0 elsewhere, the second M_ij where k == l and -0.0 elsewhere.
# Adding -0.0 leaves every float as it is, and +0.0 + x is what adding x into
# a zeroed entry gives, so each entry is the IEEE sum that a zeroed 4-D array
# with two accumulating writes holds, signed zeros included.
@functools.cache
def _kron_sum_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    i, k, j, l = np.indices((n, n, n, n)).reshape(4, n * n, n * n)
    return np.where(i == j, k * n + l, n * n), np.where(k == l, i * n + j, n * n + 1)


_SIGNED_ZEROS = np.array([0.0, -0.0])


def _kron_sum(m: np.ndarray) -> np.ndarray:
    """The Lyapunov operator I (x) M + M (x) I of a square float matrix."""
    left, right = _kron_sum_tables(m.shape[0])
    padded = np.concatenate((m.ravel(), _SIGNED_ZEROS))
    return padded.take(left) + padded.take(right)


def solve_lyapunov(m, d) -> tuple[np.ndarray, StabilityReport]:
    """Steady-state covariance matrices for drift m and diffusion d.

    d is one n x n diffusion matrix or a stack of them, (k, n, n), all
    against the one drift m. Returns (v, report): v has the shape of d, and
    report is the drift's stability report, whose spectrum is read-only
    since every point of the stack shares it. Refuses unstable drift
    matrices: the algebraic solution only describes the long-time state
    when m is Hurwitz, and a d of another shape or with non-finite entries,
    both before the linear solve. Each call checks the drift's stability
    and gathers the 36x36 operator from vec(m) (_kron_sum) once for its
    whole stack, and keeps neither. The stack is solved by one
    numerics.solve (LAPACK's solve, as np.linalg.solve calls it) that
    broadcasts the operator against the k right-hand sides, so each is the
    LAPACK solve a 2-D d gets, bit for bit. Each v is symmetrized to remove
    round-off asymmetry and checked against the residual bound; the first
    in the stack to miss it raises. For symmetric v, V M^T is the transpose
    of M V, so one product gives the residual.
    """
    m = np.asarray(m, dtype=float)
    d = np.asarray(d, dtype=float)
    report = stability(m)
    if not report.stable:
        raise StabilityError(
            f"drift matrix is unstable (max Re lambda = {report.max_real_part:.6e})"
        )
    report.spectrum.flags.writeable = False
    if d.ndim not in (2, 3) or d.shape[-2:] != m.shape:
        raise DimensionError(f"d has shape {d.shape}, expected {m.shape}")
    if not np.isfinite(d).all():
        raise DomainError("d contains non-finite entries")
    n = m.shape[0]
    stack = d.reshape(-1, n, n)
    try:
        # every eigenvalue of the operator is a sum lambda_i + lambda_j of
        # drift eigenvalues, so Re < 0 after the stability check: LAPACK
        # reporting an exactly singular factor is the only way this solve
        # can fail
        v = numerics.solve(_kron_sum(m), -stack.reshape(-1, n * n, 1)).reshape(stack.shape)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"Lyapunov system is singular: {exc}") from exc
    v = 0.5 * (v + v.transpose(0, 2, 1))

    # infinity norms (largest absolute row sum) of each residual, then of
    # each d, in one reduction
    mv = m @ v
    norms = np.abs(np.concatenate((mv + mv.transpose(0, 2, 1) + stack, stack)))
    norms = norms.sum(axis=2).max(axis=1).tolist()
    for residual, scale in zip(norms[:len(stack)], norms[len(stack):]):
        bound = LYAPUNOV_RESIDUAL_RTOL * scale
        if not residual <= bound:
            raise NumericalError(
                f"Lyapunov residual {residual:.3e} exceeds bound {bound:.3e}"
            )
    return v.reshape(d.shape), report
