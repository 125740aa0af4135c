"""Steady-state covariance matrix and drift-spectrum stability.

The stationary covariance matrix V of the fluctuations solves the algebraic
Lyapunov equation

    M V + V M^T = -D

which is vectorized into the single 36x36 linear system
(I (x) M + M (x) I) vec V = -vec D and solved densely. V uses the same
quadrature ordering as the drift matrix and the vacuum normalization 1/2 per
quadrature, so the two-mode separability boundary sits at twice the minimum
symplectic eigenvalue = 1.
"""

from __future__ import annotations

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
    """Assess Hurwitz stability of a drift matrix from its full spectrum.

    The report's spectrum is read-only: solve_lyapunov hands the same report
    to every call with the same drift, so no caller may change it.
    """
    spectrum = numerics.eig_general(m)
    spectrum.flags.writeable = False
    max_real = float(spectrum.real.max())
    return StabilityReport(max_real_part=max_real, spectrum=spectrum, stable=max_real < 0.0)


# I (x) M + M (x) I for an n x n drift M has entry [(i, k), (j, l)] =
# delta_ij M_kl + M_ij delta_kl. _kron_sum gathers it from vec(M) followed by
# +0.0 and -0.0 through two index tables: the first picks M_kl where i == j
# and +0.0 elsewhere, the second M_ij where k == l and -0.0 elsewhere.
# Adding -0.0 leaves every float as it is, and +0.0 + x is what adding x into
# a zeroed entry gives, so each entry is the IEEE sum that a zeroed 4-D array
# with two accumulating writes holds, signed zeros included.
def _kron_sum_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    i, k, j, l = np.indices((n, n, n, n)).reshape(4, n * n, n * n)
    return np.where(i == j, k * n + l, n * n), np.where(k == l, i * n + j, n * n + 1)


_KRON_SUM_6 = _kron_sum_tables(6)  # the three-mode drift's, built once
_SIGNED_ZEROS = np.array([0.0, -0.0])


def _kron_sum(m: np.ndarray) -> np.ndarray:
    """The Lyapunov operator I (x) M + M (x) I of a square float matrix."""
    n = m.shape[0]
    left, right = _KRON_SUM_6 if n == 6 else _kron_sum_tables(n)
    padded = np.concatenate((m.ravel(), _SIGNED_ZEROS))
    return padded.take(left) + padded.take(right)


# The last drift solve_lyapunov accepted: ((shape, bytes), its report, its
# read-only operator). It is replaced whole by one rebinding, so a thread
# reads the old entry or the new one, never a mix.
_last_drift = (None, None, None)


def solve_lyapunov(m, d) -> tuple[np.ndarray, StabilityReport]:
    """Steady-state covariance matrix for drift m and diffusion d.

    Returns (v, report), where report is the drift's stability report.
    Refuses unstable drift matrices: the algebraic solution only describes
    the long-time state when m is Hurwitz, and a d of another shape or with
    non-finite entries, both before the linear solve. The 36x36 operator
    comes from vec(m) by two gathers (_kron_sum) through index tables built
    at import. v is symmetrized to remove round-off asymmetry and
    checked against the residual bound; for symmetric v, V M^T is the
    transpose of M V, so one product gives the residual.

    The last accepted drift is kept, keyed by its shape and bytes, with its
    report and its operator (read-only). A call with the same drift, as at
    every point of an r x T sweep, skips the eigen-solve and the operator
    build and returns that same report; the checks of d, the solve and the
    residual bound run on every call. Only a drift that passed the
    stability check is kept, so an unstable, non-finite or non-square one is
    refused on every call.
    """
    global _last_drift
    m = np.asarray(m, dtype=float)
    d = np.asarray(d, dtype=float)
    key = (m.shape, m.tobytes())
    last_key, report, coeff = _last_drift
    if key != last_key:
        report = stability(m)
        if not report.stable:
            raise StabilityError(
                f"drift matrix is unstable (max Re lambda = {report.max_real_part:.6e})"
            )
        coeff = _kron_sum(m)
        coeff.flags.writeable = False
        _last_drift = (key, report, coeff)
    if d.shape != m.shape:
        raise DimensionError(f"d has shape {d.shape}, expected {m.shape}")
    if not np.isfinite(d).all():
        raise DomainError("d contains non-finite entries")
    n = m.shape[0]
    try:
        # every eigenvalue of coeff is a sum lambda_i + lambda_j of drift
        # eigenvalues, so Re < 0 after the stability check: LAPACK reporting
        # an exactly singular factor is the only way this solve can fail
        v = np.linalg.solve(coeff, -d.reshape(-1)).reshape(n, n)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"Lyapunov system is singular: {exc}") from exc
    v = 0.5 * (v + v.T)

    # infinity norms: largest absolute row sum
    mv = m @ v
    residual = np.abs(mv + mv.T + d).sum(axis=1).max()
    bound = LYAPUNOV_RESIDUAL_RTOL * np.abs(d).sum(axis=1).max()
    if not residual <= bound:
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return v, report
