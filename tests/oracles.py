"""Reference computations independent of the production path.

A fixed-step integrator for the Lyapunov ODE, a 50-digit Lyapunov solve and
the report's measure columns at 50 digits. Nothing here imports cavmag
beyond its error types, so a fault on the production path cannot hide in
the oracle that checks it.
"""

import math

import mpmath
import numpy as np

from cavmag.errors import DimensionError, DomainError, StabilityError

# Hard cap on ||M||*dt for the fixed-step integrator.
MAX_STABLE_STEP = 0.1
# A smallest residual contangle above this floor counts as zero.
RESIDUAL_FLOOR = -1e-9


class StepSizeError(ValueError):
    """The fixed-step integrator was asked to run with an unsafe step."""


def _square(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise DomainError(f"{name} contains non-finite entries")
    if out.shape[0] != out.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {out.shape}")
    return out


def integrate_lyapunov_ode(m, d, t_end: float, dt: float) -> np.ndarray:
    """Integrate dV/dt = m V + V m^T + d from V(0) = 0 up to t_end.

    Classical fixed-step fourth-order Runge-Kutta; the step is shrunk so an
    integer number of steps lands exactly on t_end. Serves as an independent
    route to the steady-state covariance for Hurwitz-stable m: the iteration
    converges to the solution of m V + V m^T + d = 0.
    """
    mm = _square(m, "m")
    dd = _square(d, "d")
    if dd.shape != mm.shape:
        raise DimensionError(f"d has shape {dd.shape}, expected {mm.shape}")
    if not np.allclose(dd, dd.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(dd).max())):
        raise DomainError("d must be symmetric")
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if t_end <= 0.0:
        raise DomainError(f"t_end must be positive, got {t_end}")
    spectrum = np.linalg.eigvals(mm)
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


def lyapunov_mp(m, d):
    """V from the 36x36 system (I (x) M + M (x) I) vec V = -vec D at 50 digits."""
    n = m.shape[0]
    with mpmath.workdps(50):
        coeff = mpmath.zeros(n * n, n * n)
        for i in range(n):
            for k in range(n):
                # (M V + V M^T)_ik = sum_l M_il V_lk + V_il M_kl
                for l in range(n):
                    coeff[i * n + k, l * n + k] += m[i, l]
                    coeff[i * n + k, i * n + l] += m[k, l]
        rhs = mpmath.matrix([-x for x in d.reshape(-1).tolist()])
        vec = mpmath.lu_solve(coeff, rhs)
        return np.array([float(x) for x in vec]).reshape(n, n)


def _pair_log_negativity(sigma):
    """E_N of a two-mode mpmath CM [[A, C], [C^T, B]] from its block invariants.

    The discriminant Dt^2 - 4 det sigma is clamped at 0, as production
    clamps it: where it is 0 exactly (a separable pair such as
    [[1.25 I, 0.2 I], [0.2 I, 1.25 I]]) it can round below 0 at 50 digits.
    """
    a, b, c = sigma[0:2, 0:2], sigma[2:4, 2:4], sigma[0:2, 2:4]
    delta = mpmath.det(a) + mpmath.det(b) - 2 * mpmath.det(c)
    discriminant = max(mpmath.mpf(0), delta**2 - 4 * mpmath.det(sigma))
    eta_sq = (delta - mpmath.sqrt(discriminant)) / 2
    return max(mpmath.mpf(0), -mpmath.log(4 * eta_sq) / 2)


def pair_log_negativity_mp(v4):
    """Logarithmic negativity of a two-mode CM from its block invariants at 50 digits."""
    with mpmath.workdps(50):
        return float(_pair_log_negativity(mpmath.matrix(v4.tolist())))


def _smallest_symplectic_mp(v, transposed=None):
    """Smallest symplectic eigenvalue of V, after a partial transpose of one mode.

    The eigenvalues of Omega V are +/- i nu; transposing mode k flips the
    sign of its y quadrature, row and column.
    """
    n = v.rows
    sign = [-1 if transposed is not None and i == 2 * transposed + 1 else 1 for i in range(n)]
    vt = mpmath.matrix(n, n)
    omega = mpmath.zeros(n, n)
    for i in range(n):
        for j in range(n):
            vt[i, j] = sign[i] * sign[j] * v[i, j]
        if i % 2 == 0:
            omega[i, i + 1], omega[i + 1, i] = 1, -1
    return min(abs(mpmath.im(x)) for x in mpmath.eig(omega * vt, left=False, right=False))


def columns_mp(v) -> dict:
    """The 21 measure columns of a 6x6 CM (m, c1, c2 ordering) at 50 digits, as floats.

    The pairs and the steering values come from block invariants, the
    one-vs-two splits and nu_min from the spectrum of Omega times the
    (partially transposed) CM. Every column of the report but lambda_max.
    """
    labels = ("m", "c1", "c2")
    pairs = {"c1c2": (1, 2), "mc1": (0, 1), "mc2": (0, 2)}
    with mpmath.workdps(50):
        cm = mpmath.matrix(np.asarray(v, dtype=float).tolist())

        def block(i, j):
            return cm[2 * i:2 * i + 2, 2 * j:2 * j + 2]

        def pair_cm(a, b):
            idx = [2 * a, 2 * a + 1, 2 * b, 2 * b + 1]
            return mpmath.matrix([[cm[i, j] for j in idx] for i in idx])

        e_n = {key: _pair_log_negativity(pair_cm(a, b)) for key, (a, b) in pairs.items()}
        split = {
            labels[k]: max(mpmath.mpf(0), -mpmath.log(2 * _smallest_symplectic_mp(cm, k)))
            for k in range(3)
        }
        residuals = {
            "m": split["m"] ** 2 - e_n["mc1"] ** 2 - e_n["mc2"] ** 2,
            "c1": split["c1"] ** 2 - e_n["mc1"] ** 2 - e_n["c1c2"] ** 2,
            "c2": split["c2"] ** 2 - e_n["mc2"] ** 2 - e_n["c1c2"] ** 2,
        }
        smallest = min(residuals.values())
        steering, asymmetry = {}, {}
        for key, (a, b) in pairs.items():
            det_pair = mpmath.det(pair_cm(a, b))
            # s steering the other mode: (1/2) ln det 2A_s - (1/2) ln det 2 sigma
            ab, ba = (
                max(mpmath.mpf(0), mpmath.log(mpmath.det(block(s, s)) / (4 * det_pair)) / 2)
                for s in (a, b)
            )
            steering[f"zeta_{labels[a]}_{labels[b]}"] = ab
            steering[f"zeta_{labels[b]}_{labels[a]}"] = ba
            asymmetry[f"zeta_s_{key}"] = abs(ab - ba)
        columns = {
            **{f"e_n_{key}": e_n[key] for key in pairs},
            "e_n_mc_max": max(e_n["mc1"], e_n["mc2"]),
            "e_n_m_vs_c1c2": split["m"],
            "e_n_c1_vs_mc2": split["c1"],
            "e_n_c2_vs_mc1": split["c2"],
            **{f"r_tau_{key}": residuals[key] for key in labels},
            "r_tau_min": smallest if smallest < RESIDUAL_FLOOR else max(mpmath.mpf(0), smallest),
            **steering,
            **asymmetry,
            "nu_min": _smallest_symplectic_mp(cm),
        }
        return {column: float(value) for column, value in columns.items()}
