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
import itertools
import math
import operator
import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import model, numerics, steady_state
from .errors import CavmagError, DomainError, NumericalError, PhysicalityError
from .model import PhysicalParams
from .steady_state import StabilityReport

# Slack absorbed by physicality checks before a covariance matrix is rejected.
PHYSICALITY_ATOL = 1e-6
# Floor below which a residual contangle counts as numerically zero.
RESIDUAL_FLOOR = -1e-9
_EPS = float(np.finfo(float).eps)


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


OMEGA_3 = symplectic_form(3)

# Partial-transpose sign masks: one -1 on the y quadrature of the transposed
# mode. Pairwise masks act on a reduced 4x4 CM with the transposed mode first;
# the tripartite masks act on the global CM for each one-vs-two split.
PT_PAIR = np.array([1.0, -1.0, 1.0, 1.0])
PT_ONE_VS_TWO = {mode: np.where(np.arange(6) == mode.indices[1], -1.0, 1.0) for mode in Mode}

# The three pairs in report order (c1c2, mc1, mc2). Each is also read both
# ways, a to b then b to a, for the six steering directions, so _measures
# takes each pair's steering asymmetry from consecutive directions.
_PAIRS = (
    (Mode.CAVITY_1, Mode.CAVITY_2),
    (Mode.MAGNON, Mode.CAVITY_1),
    (Mode.MAGNON, Mode.CAVITY_2),
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


def _pt_negativity(v, mask) -> float:
    """Logarithmic negativity across a partial transpose: max(0, -ln 2 eta).

    eta is the minimum symplectic eigenvalue of V with its quadratures
    signed by mask; the state is separable, and the measure zero, once
    2 eta >= 1. V itself must meet the Heisenberg bound. Rounding moves
    E_N by about ||dV|| / eta, and the result stays within
    max(1e-12, 8 eps ||V||_2 * 2 e^E_N) of a 50-digit value: at r = 3,
    T = 2 K the c1c2 pair is off by 3.5e-12 against a bound of 1.2e-11.
    """
    _require_heisenberg(float(symplectic_eigenvalues(v)[0]))
    eta = symplectic_eigenvalues(v * np.outer(mask, mask))[0]
    return max(0.0, -math.log(2.0 * eta))


def log_negativity(v4) -> float:
    """Logarithmic negativity of a two-mode CM, the first mode transposed."""
    v4 = np.asarray(v4, dtype=float)
    if v4.shape != (4, 4):
        raise DomainError(f"expected a 4x4 two-mode CM, got shape {v4.shape}")
    return _pt_negativity(v4, PT_PAIR)


def log_negativity_one_vs_two(v, focus) -> float:
    """Logarithmic negativity across the focus-mode-vs-rest bipartition."""
    mask = PT_ONE_VS_TWO[as_mode(focus)]
    v = np.asarray(v, dtype=float)
    if v.shape != (6, 6):
        raise DomainError(f"expected a 6x6 three-mode CM, got shape {v.shape}")
    return _pt_negativity(v, mask)


def _clamp_residual(smallest: float) -> float:
    # r_tau_min: zero within numerical noise clamps to zero; a real negative
    # (a monogamy violation) passes raw
    return smallest if smallest < RESIDUAL_FLOOR else max(0.0, smallest)


def _require_positive_det(det_value: float, context: str):
    if det_value <= 0.0:
        raise PhysicalityError(f"non-positive determinant ({det_value:.3e}) for {context}")


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
    _require_positive_det(det_a, f"reduced block of {steerer.label}")
    det_ab = float(np.linalg.det(vab))
    _require_positive_det(det_ab, f"pair ({steerer.label}, {steered.label})")
    return max(0.0, 0.5 * math.log(det_a) - 0.5 * math.log(det_ab))


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
# The seven columns read from the one-vs-two partial transposes: the
# splits, the residual contangles and their minimum.
ONE_VS_TWO_COLUMNS = frozenset(REPORT_COLUMNS[4:11])
# The nine steering columns: the six directions and the three asymmetries.
STEERING_COLUMNS = frozenset(REPORT_COLUMNS[11:20])


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
    from it. full_report leaves out the stages its quantities do not read:
    without the seven ONE_VS_TWO_COLUMNS, e_n_one_vs_two, residuals and
    r_tau_min raise KeyError; without the nine STEERING_COLUMNS, steering
    and asymmetry do. The pair negativities, nu_min and lambda_max are in
    every report.
    """

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


# P Omega P for the stacked spectra of _measures, P = diag(mask): the identity
# mask (the symplectic spectrum of V itself), then the one-vs-two partial
# transposes in Mode order. P Omega P V = P (Omega P V P) P has the spectrum
# of Omega times the partially transposed V.
_SPECTRUM_MASKS = np.array([np.ones(6)] + [PT_ONE_VS_TWO[mode] for mode in Mode])
_SPECTRUM_FORMS = _SPECTRUM_MASKS[:, :, None] * OMEGA_3 * _SPECTRUM_MASKS[:, None, :]
# Positions in the flattened 6x6 V of each _PAIRS entry's 4x4 CM.
_PAIR_INDEX = np.array([
    [[6 * i + j for j in quadratures] for i in quadratures]
    for quadratures in (a.indices + b.indices for a, b in _PAIRS)
])
# diag(J, -J): sigma _PAIR_TWIST sigma has A J C - C J B as its upper right
# block for a pair CM sigma = [[A, C], [C^T, B]].
_PAIR_TWIST = np.kron(np.diag([1.0, -1.0]), symplectic_form(1))
# Positions in _PAIRS of the two pairs holding each mode, in Mode order.
_HOLDING_PAIRS = tuple(tuple(k for k, pair in enumerate(_PAIRS) if mode in pair) for mode in Mode)
_COLUMN_SET = frozenset(REPORT_COLUMNS)
# The columns of a report row, in _LAYOUT order, for each (one_vs_two,
# steering) pair of the optional stages that _measures takes.
_STAGE_COLUMNS = {
    (one_vs_two, steering): tuple(
        c for c in REPORT_COLUMNS
        if (one_vs_two or c not in ONE_VS_TWO_COLUMNS) and (steering or c not in STEERING_COLUMNS)
    )
    for one_vs_two, steering in itertools.product((False, True), repeat=2)
}
# Factors of the logarithms of _measures: E_N = -ln(2 eta) for the three
# one-vs-two splits, E_N = -(1/2) ln(4 eta^2) for the three pairs, and
# zeta = (1/2) ln(det A / (4 det sigma)) for the six steering directions.
_LOG_SCALES = (-1.0,) * 3 + (-0.5,) * 3 + (0.5,) * 6


def _quotient(a: float, b: float) -> float:
    """a / b as IEEE 754 (and numpy) has it: +-inf or nan where b is zero."""
    return a / b if b else a * math.copysign(math.inf, b)


# The size from which a stack finishes on arrays (_array_rows); a smaller
# stack, a single point among them, takes _row per CM. Per CM of the full
# stages on a 2-vCPU x86_64 host, arrays against _row: 111 against 60 us
# at k = 1, 50 against 46 at k = 4 and 38 against 44 at k = 8.
_ARRAY_TAIL_MIN = 8


def _measures(v, one_vs_two: bool = True, steering: bool = True) -> list:
    """The report rows of a stack of stationary CMs, all but lambda_max.

    v is a (k, 6, 6) stack; the result holds one row per CM, each a list
    in _LAYOUT order, less the seven ONE_VS_TWO_COLUMNS unless one_vs_two
    is true (only they read the one-vs-two spectra) and less the nine
    STEERING_COLUMNS unless steering is true. One Heisenberg check
    on V covers every reduced state: with delta = PHYSICALITY_ATOL and
    nu_min >= 1/2 - delta, V + i (1/2 - delta) Omega >= 0, so its principal
    blocks have det >= (1/2 - delta)^2 per mode and its square per pair,
    and every logarithm below has a positive argument. The pair measures come from
    block invariants of sigma = [[A, C], [C^T, B]]:
    eta^2 = (Dt - sqrt(Dt^2 - 4 det sigma)) / 2 with
    Dt = det A + det B - 2 det C, and steering from a to b is
    (1/2) ln(det A / (4 det sigma)), the values of the eigenvalue-based
    log_negativity and gaussian_steering. The root split uses the exact
    identity Dt^2 - 4 det sigma = (det A - det B)^2 - 4 det G,
    G = A J C - C J B, J = [[0, 1], [-1, 0]]: neither term on the right
    cancels when the pair is weakly correlated.

    Four steps run once on the whole stack: numerics.eigvalsh of each V;
    one numerics.eigvals of the stacked _SPECTRUM_FORMS @ V for the
    symplectic spectrum of each V (which the Heisenberg refusal and nu_min
    read) and, if one_vs_two, of its three one-vs-two partial transposes;
    one numerics.det of the stacked pair CMs; and the _PAIR_TWIST product
    for G. Each numerics call is the LAPACK gufunc that np.linalg calls,
    which loops over a stack calling LAPACK once per matrix, as matmul
    calls BLAS, so each value is the one a stack of one gives, bit for bit.

    The tail has two forms with one result. A stack of fewer than
    _ARRAY_TAIL_MIN CMs finishes each on Python floats (_row); a larger
    one finishes on arrays (_array_rows), whose every step is the IEEE
    operation _row takes, in the same order, on a column of the stack. Both
    take one numpy logarithm of a C-contiguous array of arguments (element
    by element, so each value is the same whichever others sit beside it),
    and both run under the errstate of _reports. So every row is bit for
    bit the same from either; a tier-1 test holds them to it.

    V is refused first when eps cond_2(V) exceeds PHYSICALITY_ATOL: rounding
    then moves the measures by more than the Heisenberg slack. At large
    squeezing (from r = 5.56 at default_params) even the exact V of the
    rounded drift and diffusion matrices is unphysical, so no solver can do
    better. A well-conditioned V is then refused unless it is positive
    definite: the symplectic spectrum of an indefinite V such as
    -I_2 (+) I_4 is all 1, so the Heisenberg check alone would pass it.
    Positive definite with nu_min >= 1/2 is V + i Omega / 2 >= 0 (Williamson).
    A stack of _ARRAY_TAIL_MIN or more makes both checks as one array pass,
    and the Heisenberg and finiteness checks of its rows as another; where
    one fails, the stack is checked or finished again CM by CM (_row), for
    the refusal's message. Each check runs over the whole stack before the
    next step, so in a stack of several CMs the one that raises need not be
    the first that fails; full_report evaluates a failing stack again one
    point at a time. A LAPACK failure raises the NumericalError of the
    numerics call.
    """
    eigenvalues = numerics.eigvalsh(v)
    stacked = len(v) >= _ARRAY_TAIL_MIN
    if stacked:
        w = np.abs(eigenvalues)
        w_min = w.min(axis=1)
        # a nan eigenvalue makes w_min nan, which fails every comparison
        conditioned = (w_min > 0.0) & (_EPS * (w.max(axis=1) / w_min) <= PHYSICALITY_ATOL)
    if not stacked or not (conditioned & (eigenvalues[:, 0] > 0.0)).all():
        for eigenvalues in eigenvalues.tolist():
            w = [abs(x) for x in eigenvalues]
            # a nan eigenvalue, which min and max can pass over, reads as cond = inf
            cond = max(w) / min(w) if min(w) > 0.0 and not math.isnan(sum(w)) else math.inf
            if not _EPS * cond <= PHYSICALITY_ATOL:
                raise NumericalError(
                    f"covariance matrix too ill-conditioned for its measures "
                    f"(eps * cond(V) = {_EPS * cond:.3e} > {PHYSICALITY_ATOL:g})"
                )
            # eigvalsh sorts ascending
            if eigenvalues[0] <= 0.0:
                raise PhysicalityError(
                    f"covariance matrix is not positive definite "
                    f"(smallest eigenvalue {eigenvalues[0]:.6g} <= 0)"
                )
    forms = _SPECTRUM_FORMS if one_vs_two else _SPECTRUM_FORMS[:1]
    spectra = numerics.eigvals(forms @ v[:, None]).imag
    pair_cms = v.reshape(-1, 36).take(_PAIR_INDEX, axis=1)
    g = (pair_cms[:, :, :2] @ _PAIR_TWIST @ pair_cms[..., 2:]).reshape(-1, 3, 4)
    det_pairs = numerics.det(pair_cms)
    if stacked:
        rows = _array_rows(v, spectra, det_pairs, g, steering)
        if rows is not None:
            return rows
    return list(map(_row, v.tolist(), spectra.tolist(), det_pairs.tolist(), g.tolist(),
                    itertools.repeat(steering)))


# Positions in the flattened 6x6 V of the four entries [[a, b], [c, d]] of
# each mode's 2x2 block, in Mode order, then of each _PAIRS entry's C block.
_MODE_BLOCKS = np.array([[14 * m, 14 * m + 1, 14 * m + 6, 14 * m + 7] for m in Mode]).T
_CROSS_BLOCKS = np.array([
    [6 * i + j, 6 * i + j + 1, 6 * i + j + 6, 6 * i + j + 7]
    for i, j in ((2 * a, 2 * b) for a, b in _PAIRS)
]).T
# The mode a, then the mode b, of each _PAIRS entry, and the two pairs
# holding each mode (_HOLDING_PAIRS) as two index rows.
_PAIR_MODES = np.array(_PAIRS).T
_HOLDING_ROWS = np.array(_HOLDING_PAIRS).T


def _array_rows(v, spectra, det_pairs, g, steering: bool) -> list | None:
    """The report rows of a stack of CMs, as _row gives each, or None where
    a row would be refused (or a spectrum holds a nan, which Python's sort
    and min place otherwise than numpy's): _measures then finishes the
    stack with _row, which raises the refusal. Each step is _row's IEEE
    operation on a column: max(a, b) is np.where(b > a, b, a), max(s, 0.0)
    np.where(0.0 > s, 0.0, s), min(a, b, c) two such selections left to
    right, _quotient a plain division, and the clamps keep _row's -0.0 and
    nan behaviour."""
    k = len(v)
    x = v.reshape(k, 36)
    a, b, c, d = x.take(_MODE_BLOCKS, axis=1).transpose(1, 0, 2)
    det_modes = a * d - b * c
    p, q, r, s = x.take(_CROSS_BLOCKS, axis=1).transpose(1, 0, 2)
    det_a, det_b = det_modes.take(_PAIR_MODES, axis=1).transpose(1, 0, 2)
    delta_pt = det_a + det_b - 2.0 * (p * s - q * r)
    diff = det_a - det_b
    g0, g1, g2, g3 = g.transpose(2, 0, 1)
    square = diff * diff - 4.0 * (g0 * g3 - g1 * g2)
    split = np.sqrt(np.where(0.0 > square, 0.0, square))
    # 2 eta of each one-vs-two split, 4 eta^2 of each pair, then, with
    # steering, det A / (4 det sigma) of each steering direction
    magnitudes = np.abs(spectra)
    args = [2.0 * magnitudes[:, 1:].min(axis=2), 4.0 * (2.0 * det_pairs / (delta_pt + split))]
    if steering:
        args.append((np.stack((det_a, det_b), axis=2) / (4.0 * det_pairs)[..., None]).reshape(k, 6))
    n_split = spectra.shape[1] - 1
    args = np.concatenate(args, axis=1)
    logs = np.log(args) * _LOG_SCALES[3 - n_split:3 - n_split + args.shape[1]]
    logs = np.where(logs <= 0.0, 0.0, logs)
    e_n_pairs = logs[:, n_split:n_split + 3]
    mc1, mc2 = e_n_pairs[:, 1:].T
    columns = [e_n_pairs, np.where(mc2 > mc1, mc2, mc1)[:, None]]
    if n_split:
        e_n_split = logs[:, :n_split]
        squares = e_n_pairs * e_n_pairs
        h, j = squares.take(_HOLDING_ROWS, axis=1).transpose(1, 0, 2)
        residuals = e_n_split * e_n_split - (h + j)
        smallest, r1, r2 = residuals.T
        smallest = np.where(r1 < smallest, r1, smallest)
        smallest = np.where(r2 < smallest, r2, smallest)
        # _clamp_residual: a real negative passes raw, noise and -0.0 read 0.0
        positive = np.where(smallest > 0.0, smallest, 0.0)
        clamped = np.where(smallest < RESIDUAL_FLOOR, smallest, positive)
        columns += [e_n_split, residuals, clamped[:, None]]
    zeta = logs[:, n_split + 3:]
    nu_min = np.sort(magnitudes[:, 0], axis=1)[:, 1]
    columns += [zeta, np.abs(zeta[:, 0::2] - zeta[:, 1::2]), nu_min[:, None]]
    rows = np.concatenate(columns, axis=1)
    if (
        (nu_min < 0.5 - PHYSICALITY_ATOL).any()
        or np.isnan(spectra[:, 0]).any()
        or not np.isfinite(rows).all()
    ):
        return None
    return rows.tolist()


def _row(x: list, spectra: list, det_pairs: list, g: list, steering: bool) -> list:
    """The report row of one CM x (nested lists) from its symplectic
    spectra (imaginary parts: V's, then those of its three one-vs-two
    partial transposes, if given), its three pair determinants and G
    entries. Without the one-vs-two spectra the row lacks the seven
    ONE_VS_TWO_COLUMNS; unless steering is true it lacks the nine
    STEERING_COLUMNS and takes none of their quotients and logarithms.
    _reports holds numpy's errstate: a partially transposed eigenvalue
    below V's rounding can be zero, its infinite negativity refused below."""
    # +/- i nu pairs: the second-smallest modulus is the smallest nu
    nu_min = _require_heisenberg(sorted(map(abs, spectra[0]))[1])

    # 2 eta of each one-vs-two split, 4 eta^2 of each pair, then, with
    # steering, det A / (4 det sigma) of each steering direction
    log_args = [2.0 * min(map(abs, spectrum)) for spectrum in spectra[1:]]
    steering_args = []
    det_modes = [x[i][i] * x[i + 1][i + 1] - x[i][i + 1] * x[i + 1][i] for i in (0, 2, 4)]
    for (a, b), det_pair, (g0, g1, g2, g3) in zip(_PAIRS, det_pairs, g):
        i, j = 2 * a, 2 * b
        det_a, det_b = det_modes[a], det_modes[b]
        delta_pt = det_a + det_b - 2.0 * (x[i][j] * x[i + 1][j + 1] - x[i][j + 1] * x[i + 1][j])
        diff = det_a - det_b
        split = math.sqrt(max(diff * diff - 4.0 * (g0 * g3 - g1 * g2), 0.0))
        # the rationalized root: (Dt - split) / 2 cancels digits when eta is small
        log_args.append(4.0 * _quotient(2.0 * det_pair, delta_pt + split))
        if steering:
            steering_args += _quotient(det_a, 4.0 * det_pair), _quotient(det_b, 4.0 * det_pair)
    logs = np.log(log_args + steering_args).tolist()
    # max(0, scale ln), a nan let through to the finiteness test, -0.0 read as 0.0
    n_split = len(spectra) - 1
    scales = _LOG_SCALES[3 - n_split:]
    logs = [0.0 if y <= 0.0 else y for y in map(operator.mul, scales, logs)]
    e_n_split, e_n_pairs, zeta = logs[:n_split], logs[n_split:n_split + 3], logs[n_split + 3:]

    row = [*e_n_pairs, max(e_n_pairs[1:])]  # in _LAYOUT order; zeta may be empty
    if e_n_split:
        # each focus mode's contangle less those of the two pairs holding it
        squares = [e * e for e in e_n_pairs]
        residuals = [e * e - (squares[h] + squares[k]) for e, (h, k) in zip(e_n_split, _HOLDING_PAIRS)]
        row += [*e_n_split, *residuals, _clamp_residual(min(residuals))]
    row += [*zeta, *[abs(a - b) for a, b in zip(zeta[::2], zeta[1::2])], nu_min]
    if not all(map(math.isfinite, row)):
        raise NumericalError("a correlation measure is not finite")
    return row


def full_report(
    points: PhysicalParams | Iterable[PhysicalParams],
    *,
    quantities: Iterable[str] = REPORT_COLUMNS,
) -> CorrelationReport | list[CorrelationReport]:
    """Stability, steady state and all correlation measures at parameter points.

    points is one PhysicalParams, which gives one CorrelationReport, or a
    sequence of them, which gives a list of reports in the same order. Both
    take the one stacked evaluation (_reports), one point as a stack of one,
    and a sequence's reports are bit for bit those of its points one at a
    time. Every refusal, a LAPACK failure included, is a CavmagError that
    names its point and holds it as error.point, and numpy warns of no
    floating-point flag on the way. A stack of several points runs stage by
    stage over its drift groups, so when it fails it is evaluated again as
    full_report of each point in turn: the first failing point raises its
    own error, and so is evaluated twice. A sequence of one is evaluated
    once, as full_report of its point.

    quantities names the columns the caller reads (every one of
    REPORT_COLUMNS by default); a name outside them raises DomainError.
    Two stages run only when a quantity reads them. The seven
    ONE_VS_TWO_COLUMNS (e_n_m_vs_c1c2, e_n_c1_vs_mc2, e_n_c2_vs_mc1,
    r_tau_m, r_tau_c1, r_tau_c2 and r_tau_min) read the spectra of the three
    one-vs-two partial transposes; the nine STEERING_COLUMNS (the six
    zeta_* directions and the three zeta_s_* asymmetries) read the steering
    quotients and their logarithms. A report without a stage lacks its
    columns and holds every other one, with the bits and the refusals of
    the full evaluation; the pair negativities, e_n_mc_max, nu_min and
    lambda_max are always computed.
    """
    quantities = tuple(quantities)  # read twice below
    try:
        known = _COLUMN_SET.issuperset(quantities)
    except TypeError:  # an unhashable name
        known = False
    if not known:
        raise DomainError(f"unknown quantities in {quantities}; expected names from REPORT_COLUMNS")
    stages = (
        not ONE_VS_TWO_COLUMNS.isdisjoint(quantities),
        not STEERING_COLUMNS.isdisjoint(quantities),
    )
    if isinstance(points, PhysicalParams):
        try:
            return _reports([points], stages)[0]
        except CavmagError as exc:
            error = type(exc)(f"{exc} [at parameter point {points}]")
            error.point = points
            raise error from exc
    points = list(points)
    if len(points) > 1:
        try:
            return _reports(points, stages)
        except CavmagError:
            pass  # evaluated again below, one point at a time
    return [full_report(p, quantities=quantities) for p in points]


# The eight fields that make up the drift matrix. Each of its entries is one
# of them, its negation or 0.0, so two points have the same drift bytes
# exactly when these fields have the same bits (+0.0 and -0.0 kept apart).
_DRIFT_FIELDS = operator.attrgetter(
    "kappa_m", "delta_m", "gamma_1", "gamma_2", "kappa_1", "delta_1", "kappa_2", "delta_2"
)
_DRIFT_KEY = struct.Struct("8d").pack


def _reports(points: list, stages: tuple) -> list:
    """The reports of a non-empty stack of points, in its order: per
    distinct drift (keyed by the bits of its _DRIFT_FIELDS), one
    drift_matrix, one diffusion_matrix of the points that share it wherever
    they sit, and one solve_lyapunov call; then one _measures call with the
    optional stages (one_vs_two, steering) that stages holds. Each report
    is filled in as CorrelationReport's own __init__ would fill it, without
    a frozen dataclass's object.__setattr__ per field. Every floating-point
    flag is ignored, since each ends in a named refusal: an overflow in
    solve_lyapunov in its residual bound, and one in G, det or a logarithm
    of _measures in its finiteness test."""
    with np.errstate(all="ignore"):
        groups = {}  # the drift fields' bits: the positions of the points that share them
        for i, p in enumerate(points):
            groups.setdefault(_DRIFT_KEY(*_DRIFT_FIELDS(p)), []).append(i)
        stacks, placed = [], []  # placed: (position, stability report) per V
        for positions in groups.values():
            group = [points[i] for i in positions]
            v, report = steady_state.solve_lyapunov(
                model.drift_matrix(group[0]), model.diffusion_matrix(group)
            )
            stacks.append(v)
            placed += [(i, report) for i in positions]
        v = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
        columns = _STAGE_COLUMNS[stages]
        reports = [None] * len(points)
        for (i, report), row in zip(placed, _measures(v, *stages)):
            row.append(report.max_real_part)
            reports[i] = new = object.__new__(CorrelationReport)
            new.__dict__.update(stability=report, values=dict(zip(columns, row, strict=True)))
        return reports
