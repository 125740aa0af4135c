"""Correlation quantifiers of the three-mode Gaussian steady state.

All measures act on covariance matrices in the (x, y, X1, Y1, X2, Y2)
ordering with vacuum variance 1/2. Bipartite entanglement is quantified by
the logarithmic negativity E = max(0, -ln 2 eta), where eta is the smallest
symplectic eigenvalue after a partial transpose; genuine tripartite
entanglement by the minimal residual contangle; and directional quantum
steering by Renyi-2 entropy differences of the steerer's reduced state and
the joint two-mode state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import model, steady_state
from .errors import CavmagError, DomainError, NumericalError, PhysicalityError
from .model import PhysicalParams
from .steady_state import StabilityReport

# Slack absorbed by physicality checks before a covariance matrix is rejected.
PHYSICALITY_ATOL = 1e-6
# Floor below which a residual contangle counts as numerically zero.
RESIDUAL_FLOOR = -1e-9
# Relative split sqrt(Dt^2 - 4 det sigma) / Dt of the two partially
# transposed symplectic eigenvalues below which full_report takes a pair's
# negativity from its eigenvalues, not from the closed form: there the
# closed form's error grows as 1e-16 / split.
MIN_ROOT_SPLIT = 1e-2


class Mode(enum.IntEnum):
    """Mode labels mapped to quadrature index pairs of the global CM."""

    MAGNON = 0
    CAVITY_1 = 1
    CAVITY_2 = 2

    @property
    def label(self) -> str:
        return model.MODE_LABELS[self]

    @property
    def indices(self) -> tuple[int, int]:
        return (2 * self, 2 * self + 1)


_MODE_BY_LABEL = {m.label: m for m in Mode}


def as_mode(mode) -> Mode:
    if isinstance(mode, Mode):
        return mode
    try:
        return _MODE_BY_LABEL[mode]
    except (KeyError, TypeError):
        raise DomainError(f"unknown mode {mode!r}; expected one of {model.MODE_LABELS}")


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k:2 * k + 2, 2 * k:2 * k + 2] = j
    return out


OMEGA_2 = symplectic_form(2)
OMEGA_3 = symplectic_form(3)

# Partial-transpose sign masks: one -1 on the y quadrature of the transposed
# mode. Pairwise masks act on a reduced 4x4 CM with the transposed mode first;
# the tripartite masks act on the global CM for each one-vs-two split.
PT_PAIR = np.array([1.0, -1.0, 1.0, 1.0])
PT_ONE_VS_TWO = {
    Mode.MAGNON: np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]),
    Mode.CAVITY_1: np.array([1.0, 1.0, 1.0, -1.0, 1.0, 1.0]),
    Mode.CAVITY_2: np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]),
}

_PAIRS = (
    ("c1c2", Mode.CAVITY_1, Mode.CAVITY_2),
    ("mc1", Mode.MAGNON, Mode.CAVITY_1),
    ("mc2", Mode.MAGNON, Mode.CAVITY_2),
)
# The two directions of each _PAIRS entry in turn: full_report takes each
# pair's steering asymmetry from consecutive entries.
_STEERING_DIRECTIONS = (
    ("c1|c2", Mode.CAVITY_1, Mode.CAVITY_2),
    ("c2|c1", Mode.CAVITY_2, Mode.CAVITY_1),
    ("m|c1", Mode.MAGNON, Mode.CAVITY_1),
    ("c1|m", Mode.CAVITY_1, Mode.MAGNON),
    ("m|c2", Mode.MAGNON, Mode.CAVITY_2),
    ("c2|m", Mode.CAVITY_2, Mode.MAGNON),
)


def reduce(v, modes) -> np.ndarray:
    """Reduced covariance matrix of the given modes, in the given order."""
    modes = [as_mode(m) for m in modes]
    if not modes:
        raise DomainError("at least one mode is required")
    if len(set(modes)) != len(modes):
        raise DomainError(f"duplicate modes in {[m.label for m in modes]}")
    v = np.asarray(v, dtype=float)
    sel = [i for m in modes for i in m.indices]
    return v[np.ix_(sel, sel)]


def symplectic_eigenvalues(v) -> np.ndarray:
    """Symplectic spectrum of a CM, ascending.

    The eigenvalues of Omega V are +/- i nu; the nu are read off the
    imaginary parts, which avoids complex-matrix machinery.
    """
    v = np.asarray(v, dtype=float)
    ev = np.linalg.eigvals(symplectic_form(v.shape[0] // 2) @ v)
    return np.sort(np.abs(ev.imag))[1::2]


def _require_heisenberg(nu_min: float) -> float:
    if nu_min < 0.5 - PHYSICALITY_ATOL:
        raise PhysicalityError(
            f"covariance matrix violates the Heisenberg bound "
            f"(min symplectic eigenvalue {nu_min:.6g} < 1/2)"
        )
    return nu_min


def _check_physical(v) -> float:
    return _require_heisenberg(float(symplectic_eigenvalues(v)[0]))


def _pt_min_eigenvalue(v, mask, omega) -> float:
    vt = v * np.outer(mask, mask)
    ev = np.linalg.eigvals(omega @ vt)
    return float(np.min(np.abs(ev.imag)))


def log_negativity(v4) -> float:
    """Logarithmic negativity of a two-mode CM: max(0, -ln 2 eta).

    eta is the minimum symplectic eigenvalue of the partially transposed CM;
    the state is separable, and the measure zero, once 2 eta >= 1.
    """
    v4 = np.asarray(v4, dtype=float)
    if v4.shape != (4, 4):
        raise DomainError(f"expected a 4x4 two-mode CM, got shape {v4.shape}")
    _check_physical(v4)
    eta = _pt_min_eigenvalue(v4, PT_PAIR, OMEGA_2)
    return max(0.0, -math.log(2.0 * eta))


def log_negativity_one_vs_two(v, focus) -> float:
    """Logarithmic negativity across the focus-mode-vs-rest bipartition."""
    focus = as_mode(focus)
    v = np.asarray(v, dtype=float)
    _check_physical(v)
    eta = _pt_min_eigenvalue(v, PT_ONE_VS_TWO[focus], OMEGA_3)
    return max(0.0, -math.log(2.0 * eta))


def residual_contangle(v, focus) -> float:
    """Residual contangle of the focus mode: E^2(u|vw) - E^2(u|v) - E^2(u|w).

    Contangle is the squared logarithmic negativity. The raw value is
    returned; tiny negatives are numerical, large ones would signal a
    monogamy violation and are deliberately not hidden.
    """
    focus = as_mode(focus)
    others = [m for m in Mode if m is not focus]
    one_vs_two = log_negativity_one_vs_two(v, focus)
    pairwise = [log_negativity(reduce(v, [focus, other])) for other in others]
    return one_vs_two**2 - pairwise[0] ** 2 - pairwise[1] ** 2


def _clamp_residual(smallest: float) -> float:
    # zero within numerical noise clamps to zero; a real negative passes raw
    return smallest if smallest < RESIDUAL_FLOOR else max(0.0, smallest)


def min_residual_contangle(v) -> float:
    """Minimum residual contangle over the three one-vs-two splits.

    Clamped at zero when all three residuals are zero to within numerical
    noise; a genuinely negative residual is passed through raw.
    """
    return _clamp_residual(min(residual_contangle(v, focus) for focus in Mode))


def _require_positive_det(det_value: float, context: str):
    if det_value <= 0.0:
        raise PhysicalityError(f"non-positive determinant ({det_value:.3e}) for {context}")


def _renyi2_entropy_arg(det_value: float, context: str) -> float:
    _require_positive_det(det_value, context)
    return 0.5 * math.log(det_value)


def gaussian_steering(v, steerer, steered) -> float:
    """Renyi-2 steering from steerer to steered: max(0, S(2V_a) - S(2V_ab)).

    S(s) = (1/2) ln det s, V_a is the steerer's reduced single-mode block and
    V_ab the ordered two-mode CM. Positive value means the steerer's
    measurements can condition the steered mode below vacuum noise.
    """
    steerer = as_mode(steerer)
    steered = as_mode(steered)
    if steerer is steered:
        raise DomainError("steerer and steered must differ")
    v = np.asarray(v, dtype=float)
    va = 2.0 * reduce(v, [steerer])
    vab = 2.0 * reduce(v, [steerer, steered])
    det_a = va[0, 0] * va[1, 1] - va[0, 1] * va[1, 0]
    s_a = _renyi2_entropy_arg(det_a, f"reduced block of {steerer.label}")
    s_ab = _renyi2_entropy_arg(
        float(np.linalg.det(vab)), f"pair ({steerer.label}, {steered.label})"
    )
    return max(0.0, s_a - s_ab)


def steering_asymmetry(v, a, b) -> float:
    """Absolute difference of the two steering directions of a pair."""
    return abs(gaussian_steering(v, a, b) - gaussian_steering(v, b, a))


def classify_steering(z_ab: float, z_ba: float) -> str:
    """Steering taxonomy of a pair: no-way, one-way or two-way."""
    if z_ab > 0.0 and z_ba > 0.0:
        return "two-way"
    if z_ab > 0.0 or z_ba > 0.0:
        return "one-way"
    return "no-way"


# The report row, shared by reports, sweeps and serialized grids: each
# column in order, with the grouped view of CorrelationReport and the key it
# appears under there (None for a column read on its own).
_LAYOUT = (
    ("e_n_c1c2", "e_n", "c1c2"),
    ("e_n_mc1", "e_n", "mc1"),
    ("e_n_mc2", "e_n", "mc2"),
    ("e_n_mc_max", None, None),
    ("e_n_m_vs_c1c2", "e_n_one_vs_two", "m"),
    ("e_n_c1_vs_mc2", "e_n_one_vs_two", "c1"),
    ("e_n_c2_vs_mc1", "e_n_one_vs_two", "c2"),
    ("r_tau_m", "residuals", "m"),
    ("r_tau_c1", "residuals", "c1"),
    ("r_tau_c2", "residuals", "c2"),
    ("r_tau_min", None, None),
    ("zeta_c1_c2", "steering", "c1|c2"),
    ("zeta_c2_c1", "steering", "c2|c1"),
    ("zeta_m_c1", "steering", "m|c1"),
    ("zeta_c1_m", "steering", "c1|m"),
    ("zeta_m_c2", "steering", "m|c2"),
    ("zeta_c2_m", "steering", "c2|m"),
    ("zeta_s_c1c2", "asymmetry", "c1c2"),
    ("zeta_s_mc1", "asymmetry", "mc1"),
    ("zeta_s_mc2", "asymmetry", "mc2"),
    ("nu_min", None, None),
    ("lambda_max", None, None),
)
REPORT_COLUMNS = tuple(column for column, _, _ in _LAYOUT)


def _view(name: str) -> property:
    """Read-only dict of the row's columns grouped under one view name."""
    members = tuple((key, column) for column, view, key in _LAYOUT if view == name)
    return property(lambda self: {key: self.values[column] for key, column in members})


def _column(name: str) -> property:
    return property(lambda self: self.values[name])


@dataclass(frozen=True)
class CorrelationReport:
    """Every scalar measure at one parameter point.

    values maps each of REPORT_COLUMNS, in order, to a float; the grouped
    views (e_n["c1c2"], steering["c1|m"], ...) and r_tau_min and nu_min read
    from it.
    """

    params: PhysicalParams
    stability: StabilityReport
    values: dict

    e_n = _view("e_n")
    e_n_one_vs_two = _view("e_n_one_vs_two")
    residuals = _view("residuals")
    steering = _view("steering")
    asymmetry = _view("asymmetry")
    r_tau_min = _column("r_tau_min")
    nu_min = _column("nu_min")

    @property
    def stable(self) -> bool:
        return self.stability.stable

    def as_dict(self) -> dict:
        """The row in the canonical column layout, plus the stable flag."""
        return {**self.values, "stable": self.stable}


# Stacked sign masks for the batched spectra of full_report: all ones (the
# symplectic spectrum of V itself), then the one-vs-two partial transposes in
# Mode order.
_SPECTRUM_MASKS = np.array([np.ones(6)] + [PT_ONE_VS_TWO[mode] for mode in Mode])
_SPECTRUM_SIGNS = _SPECTRUM_MASKS[:, :, None] * _SPECTRUM_MASKS[:, None, :]
# Quadrature indices and mode numbers of each _PAIRS entry.
_PAIR_INDEX = np.array([a.indices + b.indices for _, a, b in _PAIRS])
_PAIR_A = np.array([int(a) for _, a, _ in _PAIRS])
_PAIR_B = np.array([int(b) for _, _, b in _PAIRS])
# Steerer mode and position in _PAIRS of each _STEERING_DIRECTIONS entry.
_STEERER = np.array([int(s) for _, s, _ in _STEERING_DIRECTIONS])
_DIRECTION_PAIR = np.array([
    next(k for k, (_, a, b) in enumerate(_PAIRS) if {a, b} == {s, t})
    for _, s, t in _STEERING_DIRECTIONS
])


def _measures(v):
    """Every measure of a stationary CM from a handful of batched calls.

    Returns (nu_min, pairwise E_N, one-vs-two E_N, steering) as floats and
    lists in _PAIRS, Mode and _STEERING_DIRECTIONS order. One Heisenberg
    check on V covers every reduced state, since each reduction of a physical
    CM is physical. The two-mode quantities come from block invariants of
    each pair CM sigma = [[A, C], [C^T, B]]: its smallest partially
    transposed symplectic eigenvalue solves eta^2 = (Dt - sqrt(Dt^2 -
    4 det sigma)) / 2 with Dt = det A + det B - 2 det C, and Renyi-2 steering
    from a to b is (1/2) ln(det A / (4 det sigma)). These are the values of
    log_negativity and gaussian_steering, which stay the eigenvalue-based
    reference.
    """
    spectra = np.abs(np.linalg.eigvals(OMEGA_3 @ (v * _SPECTRUM_SIGNS)).imag)
    # +/- i nu pairs: the second-smallest modulus is the smallest nu
    nu_min = _require_heisenberg(float(np.sort(spectra[0])[1]))

    blocks = v.reshape(3, 2, 3, 2)
    det_blocks = (
        blocks[:, 0, :, 0] * blocks[:, 1, :, 1] - blocks[:, 0, :, 1] * blocks[:, 1, :, 0]
    )
    pair_cms = v[_PAIR_INDEX[:, :, None], _PAIR_INDEX[:, None, :]]
    det_pairs = np.linalg.det(pair_cms)
    for mode, det in zip(Mode, det_blocks.diagonal().tolist()):
        _require_positive_det(det, f"reduced block of {mode.label}")
    for (_, a, b), det in zip(_PAIRS, det_pairs.tolist()):
        _require_positive_det(det, f"pair ({a.label}, {b.label})")

    delta_pt = (
        det_blocks[_PAIR_A, _PAIR_A] + det_blocks[_PAIR_B, _PAIR_B]
        - 2.0 * det_blocks[_PAIR_A, _PAIR_B]
    )
    # the rationalized root: (Dt - split) / 2 cancels digits when eta is small
    split = np.sqrt(np.maximum(delta_pt**2 - 4.0 * det_pairs, 0.0))
    eta_sq = 2.0 * det_pairs / (delta_pt + split)
    # at large r (r = 10) a partially transposed eigenvalue sinks below the
    # rounding error of V and can come out as zero; the finiteness test below
    # refuses the infinite negativity, so numpy is not let warn of it
    with np.errstate(divide="ignore", invalid="ignore"):
        e_n_one_vs_two = np.maximum(0.0, -np.log(2.0 * spectra[1:].min(axis=1)))
        e_n_pairs = np.maximum(0.0, -0.5 * np.log(4.0 * eta_sq))
        steering = np.maximum(
            0.0,
            0.5 * np.log(det_blocks[_STEERER, _STEERER] / (4.0 * det_pairs[_DIRECTION_PAIR])),
        )
    # Near a double root (nearly pure, weakly correlated pairs such as the
    # vacuum at r = 0) rounding in Dt^2 - 4 det sigma costs the root half its
    # digits, so those pairs take the eigenvalue route.
    for k in np.flatnonzero(split < MIN_ROOT_SPLIT * delta_pt):
        eta = _pt_min_eigenvalue(pair_cms[k], PT_PAIR, OMEGA_2)
        e_n_pairs[k] = max(0.0, -math.log(2.0 * eta))

    e_n_pairs, e_n_split, zeta = e_n_pairs.tolist(), e_n_one_vs_two.tolist(), steering.tolist()
    if not all(map(math.isfinite, e_n_pairs + e_n_split + zeta)):
        raise NumericalError("a correlation measure is not finite")
    return nu_min, e_n_pairs, e_n_split, zeta


def full_report(p: PhysicalParams) -> CorrelationReport:
    """Stability, steady state and all correlation measures at one point."""
    try:
        m = model.drift_matrix(p)
        report = steady_state.stability(m)
        d = model.diffusion_matrix(p)
        v = steady_state.solve_lyapunov(m, d)
        nu_min, e_n_pairs, e_n_split, zeta = _measures(v)
    except CavmagError as exc:
        raise type(exc)(f"{exc} [at parameter point {p}]") from exc
    # each focus mode's contangle less those of the two pairs holding it
    residuals = [
        x**2 - sum(e**2 for e, (_, a, b) in zip(e_n_pairs, _PAIRS) if mode in (a, b))
        for mode, x in zip(Mode, e_n_split)
    ]
    row = (  # in _LAYOUT order
        *e_n_pairs,
        max(e_n_pairs[1:]),
        *e_n_split,
        *residuals,
        _clamp_residual(min(residuals)),
        *zeta,
        *(abs(ab - ba) for ab, ba in zip(zeta[::2], zeta[1::2])),
        nu_min,
        report.max_real_part,
    )
    return CorrelationReport(p, report, dict(zip(REPORT_COLUMNS, row, strict=True)))
