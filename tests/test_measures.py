import ast
import collections
import itertools
import json
import math
import operator
import os
import re
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavmag.measures as measures
from cavmag import numerics
from cavmag.errors import (
    CavmagError,
    DomainError,
    NumericalError,
    PhysicalityError,
    StabilityError,
)
from cavmag.measures import (
    Mode,
    full_report,
    gaussian_steering,
    log_negativity,
    log_negativity_one_vs_two,
    reduce,
    symplectic_eigenvalues,
    symplectic_form,
)
from cavmag.model import TWO_PI, PhysicalParams, default_params, diffusion_matrix, drift_matrix
from cavmag.steady_state import StabilityReport, solve_lyapunov
from conftest import KAPPA_C, count_lapack, linalg_calls, random_params, swapped
from oracles import columns_mp, pair_log_negativity_mp

GOLDEN_REPORT = os.path.join(os.path.dirname(__file__), "data", "golden_report.json")

# Each grouped view of CorrelationReport, its keys in order, and the flat
# column each key reads.
VIEW_COLUMNS = {
    "e_n": {"c1c2": "e_n_c1c2", "mc1": "e_n_mc1", "mc2": "e_n_mc2"},
    "e_n_one_vs_two": {"m": "e_n_m_vs_c1c2", "c1": "e_n_c1_vs_mc2", "c2": "e_n_c2_vs_mc1"},
    "residuals": {"m": "r_tau_m", "c1": "r_tau_c1", "c2": "r_tau_c2"},
    "steering": {
        "c1|c2": "zeta_c1_c2",
        "c2|c1": "zeta_c2_c1",
        "m|c1": "zeta_m_c1",
        "c1|m": "zeta_c1_m",
        "m|c2": "zeta_m_c2",
        "c2|m": "zeta_c2_m",
    },
    "asymmetry": {"c1c2": "zeta_s_c1c2", "mc1": "zeta_s_mc1", "mc2": "zeta_s_mc2"},
}

# The modes of each pair key of the report's views, and of each steering
# direction key, steerer first.
PAIR_MODES = {
    "c1c2": (Mode.CAVITY_1, Mode.CAVITY_2),
    "mc1": (Mode.MAGNON, Mode.CAVITY_1),
    "mc2": (Mode.MAGNON, Mode.CAVITY_2),
}
DIRECTION_MODES = {
    "c1|c2": (Mode.CAVITY_1, Mode.CAVITY_2),
    "c2|c1": (Mode.CAVITY_2, Mode.CAVITY_1),
    "m|c1": (Mode.MAGNON, Mode.CAVITY_1),
    "c1|m": (Mode.CAVITY_1, Mode.MAGNON),
    "m|c2": (Mode.MAGNON, Mode.CAVITY_2),
    "c2|m": (Mode.CAVITY_2, Mode.MAGNON),
}

VACUUM_6 = 0.5 * np.eye(6)
VACUUM_4 = 0.5 * np.eye(4)


def tmsv(s: float) -> np.ndarray:
    """Two-mode squeezed vacuum CM with squeezing s (vacuum variance 1/2)."""
    c, m = 0.5 * np.cosh(2.0 * s), 0.5 * np.sinh(2.0 * s)
    block = m * np.diag([1.0, -1.0])
    out = np.block([[c * np.eye(2), block], [block, c * np.eye(2)]])
    return out


def negativity_bounds(v, exact) -> dict:
    """The 50-digit comparison's bound on each negativity column of exact.

    E_N = -ln(2 eta) moves by about ||dV|| / eta when V is rounded, so each
    is held to 8 eps ||V||_2 / eta, eta from the 50-digit E_N, and at least
    to 1e-12.
    """
    scale = 8.0 * np.finfo(float).eps * np.linalg.norm(v, 2)
    return {
        column: max(1e-12, scale * 2.0 * math.exp(exact[column]))
        for column in exact if column.startswith("e_n_")
    }


def assert_columns_within_bounds(row, v, exact):
    """Each column of row against the 50-digit columns exact of V: each
    negativity is held to negativity_bounds, each residual contangle to
    that bound carried through its three squares, nu_min to 1e-12 relative
    and every other column to 1e-12."""
    bound = negativity_bounds(v, exact)
    terms = {
        "m": ("e_n_m_vs_c1c2", "e_n_mc1", "e_n_mc2"),
        "c1": ("e_n_c1_vs_mc2", "e_n_mc1", "e_n_c1c2"),
        "c2": ("e_n_c2_vs_mc1", "e_n_mc2", "e_n_c1c2"),
    }
    for mode, columns in terms.items():
        propagated = sum(2.0 * exact[c] * bound[c] + bound[c] ** 2 for c in columns)
        bound[f"r_tau_{mode}"] = max(1e-12, propagated)
    bound["r_tau_min"] = max(bound[f"r_tau_{mode}"] for mode in terms)
    bound["nu_min"] = 1e-12 * exact["nu_min"]
    for column, value in exact.items():
        assert abs(row[column] - value) <= bound.get(column, 1e-12), column


def residual_contangle(v, focus) -> float:
    """E^2(u|vw) - E^2(u|v) - E^2(u|w) of the focus mode u from the
    reference negativities, raw: a large negative would be a monogamy
    violation."""
    u_vw = log_negativity_one_vs_two(v, focus)
    u_v, u_w = (log_negativity(reduce(v, [focus, m])) for m in Mode if m is not focus)
    return u_vw**2 - u_v**2 - u_w**2


def min_residual_contangle(v) -> float:
    """The smallest residual contangle, clamped as r_tau_min is."""
    return measures._clamp_residual(min(residual_contangle(v, focus) for focus in Mode))


def steady_state_cm(p):
    v, _ = solve_lyapunov(drift_matrix(p), diffusion_matrix(p))
    return v


def forced_unstable(monkeypatch):
    fake = StabilityReport(max_real_part=1.0, spectrum=np.ones(6, dtype=complex), stable=False)
    monkeypatch.setattr(measures.steady_state, "stability", lambda m: fake)


def sideband_params():
    p = default_params()
    kc = p.kappa_c
    return p.replace(delta_m=2 * kc, delta_1=-2 * kc, delta_2=2 * kc)


def weak_pair_params(point):
    """Points whose pairs are nearly pure and weakly correlated."""
    kc = default_params().kappa_c
    return {
        "no squeezing": default_params().replace(r=0.0),
        "sideband, r = 0.01": sideband_params().replace(r=0.01, temperature=0.0, gamma_2=2 * kc),
        "resonance, r = 0.05": default_params().replace(
            r=0.05, temperature=0.0, gamma_1=kc, gamma_2=kc
        ),
    }[point]


# The points of the per-column 50-digit comparison.
COLUMN_ORACLE_POINTS = {
    "default": default_params(),
    "r = 3, T = 2 K": default_params().replace(r=3.0, temperature=2.0),
    "sideband, T = 0.5 K": sideband_params().replace(temperature=0.5),
    "stiff corner": default_params().replace(
        kappa_m=1e-3 * KAPPA_C, gamma_1=30 * KAPPA_C, gamma_2=0.01 * KAPPA_C,
        kappa_2=1e3 * KAPPA_C,
    ),
    "sideband, r = 1": sideband_params().replace(r=1.0),
    "delta_1 = -6, delta_2 = 6 kappa_c": default_params().replace(
        delta_1=-6 * KAPPA_C, delta_2=6 * KAPPA_C
    ),
    "sideband, r = 0.01": sideband_params().replace(r=0.01),
    # the cavities steer each other unequally (0.341 and 0.349), which no
    # other point here does
    "kappa_2 = 2 kappa_c, r = 1": default_params().replace(kappa_2=2 * KAPPA_C, r=1.0),
    # cavity 1 steers the magnon one way (zeta_c1_m = 0.0044) and cavity 2
    # one way (zeta_c1_c2 = 0.108 against 0), which no other point does
    "unequal couplings, r = 0.8": default_params().replace(
        r=0.8, gamma_1=0.4 * KAPPA_C, gamma_2=1.8 * KAPPA_C, kappa_m=2.5 * KAPPA_C,
        kappa_2=1.1 * KAPPA_C,
    ),
    # a squared-negativity monogamy counterexample: r_tau_min = -1.47e-7
    "monogamy counterexample": PhysicalParams(
        kappa_1=31415926.535897933, kappa_2=16540966.352031771, kappa_m=6283185.307179586,
        gamma_1=125663706.14359173, gamma_2=9392624.409043266, delta_1=-176161362.7463158,
        delta_2=-129684536.85045086, delta_m=48552254.963932194, r=0.0032673779236563893,
        temperature=0.10100463744235155,
    ),
}

# Names of the block-invariant kernel of full_report, and the functions of
# the eigenvalue reference it is tested against, which must read none of them.
KERNEL_NAMES = {
    "_measures", "_row", "_quotient", "_SPECTRUM_MASKS", "_SPECTRUM_FORMS", "_PAIR_INDEX",
    "_PAIR_TWIST", "_HOLDING_PAIRS", "_LOG_SCALES", "_STAGE_COLUMNS",
    "_ARRAY_TAIL_MIN", "_array_rows", "_MODE_BLOCKS", "_CROSS_BLOCKS", "_PAIR_MODES",
    "_HOLDING_ROWS",
}
# Module-level names of measures.py that the kernel shares with the reference
# (RESIDUAL_FLOOR: _clamp_residual's, which the array tail applies column-wise).
SHARED_NAMES = {
    "_PAIRS", "_EPS", "PHYSICALITY_ATOL", "RESIDUAL_FLOOR", "_require_heisenberg",
    "_clamp_residual",
}
REFERENCE_FUNCTIONS = (
    "as_mode", "symplectic_form", "reduce", "symplectic_eigenvalues", "_pt_negativity",
    "log_negativity", "log_negativity_one_vs_two", "_require_positive_det",
    "gaussian_steering",
)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


DETUNING = st.floats(-10.0, 10.0)
# A wide box of valid inputs: rates and detunings in kappa_c, T in kelvin.
STRESS_BOX = dict(
    kappa_2=log_uniform(1e-3, 1e3),
    kappa_m=log_uniform(1e-3, 10.0),
    gamma_1=log_uniform(1e-3, 30.0),
    gamma_2=log_uniform(1e-3, 30.0),
    delta_1=DETUNING,
    delta_2=DETUNING,
    delta_m=DETUNING,
    r=st.floats(0.0, 3.0),
    temperature=st.floats(0.0, 5.0),
)


def stress_params(r, temperature, **rates):
    return default_params().replace(
        r=r, temperature=temperature, **{k: x * KAPPA_C for k, x in rates.items()}
    )


def drift_norm(p):
    """||M||_inf, the scale of the drift eigen-solver's rounding."""
    return np.abs(drift_matrix(p)).sum(axis=1).max()


# Each column whose counterpart changes when the two cavities exchange labels.
SWAPPED_COLUMNS = dict(
    pair
    for a, b in [
        ("e_n_mc1", "e_n_mc2"),
        ("e_n_c1_vs_mc2", "e_n_c2_vs_mc1"),
        ("r_tau_c1", "r_tau_c2"),
        ("zeta_c1_c2", "zeta_c2_c1"),
        ("zeta_m_c1", "zeta_m_c2"),
        ("zeta_c1_m", "zeta_c2_m"),
        ("zeta_s_mc1", "zeta_s_mc2"),
    ]
    for pair in ((a, b), (b, a))
)


class TestReduce:
    def test_pair_selection(self, rng):
        v = rng.normal(size=(6, 6))
        v = v + v.T
        assert np.array_equal(reduce(v, [Mode.CAVITY_1, Mode.CAVITY_2]), v[2:, 2:])
        assert np.array_equal(reduce(v, [Mode.MAGNON]), v[:2, :2])
        assert np.array_equal(reduce(v, ["m", "c2"]), v[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])])

    def test_order_follows_argument(self, rng):
        v = rng.normal(size=(6, 6))
        v = v + v.T
        swapped = reduce(v, [Mode.CAVITY_2, Mode.CAVITY_1])
        direct = reduce(v, [Mode.CAVITY_1, Mode.CAVITY_2])
        assert np.array_equal(swapped[:2, :2], direct[2:, 2:])
        assert np.array_equal(swapped[2:, :2], direct[2:, :2].T)

    def test_composition(self, rng):
        v = rng.normal(size=(6, 6))
        v = v + v.T
        pair = reduce(v, [Mode.MAGNON, Mode.CAVITY_1])
        assert np.array_equal(pair[:2, :2], reduce(v, [Mode.MAGNON]))

    def test_errors(self):
        with pytest.raises(DomainError):
            reduce(VACUUM_6, [Mode.MAGNON, Mode.MAGNON])
        with pytest.raises(DomainError):
            reduce(VACUUM_6, [])
        with pytest.raises(DomainError):
            reduce(VACUUM_6, ["c3"])


class TestSymplecticSpectrum:
    def test_symplectic_form_properties(self):
        for n in (1, 2, 3):
            omega = symplectic_form(n)
            assert np.array_equal(omega.T, -omega)
            assert np.array_equal(omega @ omega, -np.eye(2 * n))

    def test_vacuum_spectrum(self):
        assert np.allclose(symplectic_eigenvalues(VACUUM_6), 0.5, atol=1e-12)

    def test_tmsv_is_pure(self):
        nu = symplectic_eigenvalues(tmsv(0.7))
        assert np.allclose(nu, 0.5, atol=1e-10)

    def test_pt_spectrum_is_purely_imaginary(self, rng):
        for _ in range(20):
            v = steady_state_cm(random_params(rng, stiff=True))
            for mask in measures.PT_ONE_VS_TWO.values():
                vt = v * np.outer(mask, mask)
                ev = np.linalg.eigvals(measures.OMEGA_3 @ vt)
                assert np.abs(ev.real).max() <= 1e-9 * np.linalg.norm(v, 2)


class TestLogNegativity:
    def test_vacuum_is_separable(self):
        assert log_negativity(VACUUM_4) == 0.0

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0])
    def test_tmsv_analytic_value(self, s):
        assert log_negativity(tmsv(s)) == pytest.approx(2.0 * s, abs=1e-10)

    def test_separable_thermal_product(self):
        v = np.diag([1.3, 1.3, 0.8, 0.8])
        assert log_negativity(v) == 0.0

    def test_rejects_unphysical_cm(self):
        with pytest.raises(PhysicalityError):
            log_negativity(0.2 * np.eye(4))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            log_negativity(VACUUM_6)

    def test_agrees_with_closed_form(self, rng):
        # independent oracle: smallest PT symplectic eigenvalue from the
        # two-mode determinant formula
        for _ in range(30):
            v = steady_state_cm(random_params(rng, stiff=True))
            for pair in ([Mode.CAVITY_1, Mode.CAVITY_2], [Mode.MAGNON, Mode.CAVITY_1]):
                v4 = reduce(v, pair)
                a, b, c = v4[:2, :2], v4[2:, 2:], v4[:2, 2:]
                delta = np.linalg.det(a) + np.linalg.det(b) - 2.0 * np.linalg.det(c)
                eta = np.sqrt((delta - np.sqrt(delta**2 - 4.0 * np.linalg.det(v4))) / 2.0)
                expected = max(0.0, -np.log(2.0 * eta))
                assert log_negativity(v4) == pytest.approx(expected, abs=1e-10)


class TestOneVsTwo:
    def test_vacuum(self):
        for focus in Mode:
            assert log_negativity_one_vs_two(VACUUM_6, focus) == 0.0

    def test_non_negative_on_random_states(self, rng):
        for _ in range(20):
            v = steady_state_cm(random_params(rng, stiff=True))
            for focus in Mode:
                assert log_negativity_one_vs_two(v, focus) >= 0.0

    def test_sideband_configuration_positive_for_all_foci(self):
        v = steady_state_cm(sideband_params())
        for focus in Mode:
            assert log_negativity_one_vs_two(v, focus) > 0.0

    @pytest.mark.parametrize("shape", [(4, 4), (5, 6)])
    def test_rejects_wrong_shape(self, shape):
        # both shapes once let numpy's broadcast or matmul ValueError out
        message = re.escape(f"expected a 6x6 three-mode CM, got shape {shape}")
        with pytest.raises(DomainError, match=message):
            log_negativity_one_vs_two(0.5 * np.eye(6)[: shape[0], : shape[1]], Mode.MAGNON)


class TestResidualContangle:
    def test_vacuum(self):
        for focus in Mode:
            assert residual_contangle(VACUUM_6, focus) == 0.0
        assert min_residual_contangle(VACUUM_6) == 0.0

    def test_monogamy(self, rng):
        for _ in range(30):
            v = steady_state_cm(random_params(rng, stiff=True))
            for focus in Mode:
                assert residual_contangle(v, focus) >= -1e-9

    def test_positive_at_sideband_point(self):
        assert min_residual_contangle(steady_state_cm(sideband_params())) > 0.0

    def test_min_is_clamped_only_near_zero(self, rng):
        rep = full_report(random_params(rng))
        smallest = min(rep.residuals.values())
        if smallest >= -1e-9:
            assert rep.r_tau_min == max(0.0, smallest)
        else:  # pragma: no cover - would indicate a monogamy violation
            assert rep.r_tau_min == smallest
        for raw, clamped in [(-1e-8, -1e-8), (-1e-10, 0.0), (0.3, 0.3)]:
            assert measures._clamp_residual(raw) == clamped


class TestGaussianSteering:
    def test_vacuum(self):
        assert gaussian_steering(VACUUM_6, Mode.CAVITY_1, Mode.CAVITY_2) == 0.0
        assert gaussian_steering(VACUUM_6, Mode.CAVITY_2, Mode.CAVITY_1) == 0.0

    @pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
    def test_tmsv_analytic_value(self, s):
        # pure TMSV: det(2 V_a) = cosh^2(2s), det(2 V) = 1
        v = np.zeros((6, 6))
        v[:4, :4] = tmsv(s)
        v[4:, 4:] = 0.5 * np.eye(2)
        expected = np.log(np.cosh(2.0 * s))
        z_ab = gaussian_steering(v, Mode.MAGNON, Mode.CAVITY_1)
        z_ba = gaussian_steering(v, Mode.CAVITY_1, Mode.MAGNON)
        assert z_ab == pytest.approx(expected, abs=1e-10)
        assert z_ba == pytest.approx(expected, abs=1e-10)

    def test_symmetric_configuration_steers_equally(self):
        v = steady_state_cm(default_params())
        z_12 = gaussian_steering(v, Mode.CAVITY_1, Mode.CAVITY_2)
        z_21 = gaussian_steering(v, Mode.CAVITY_2, Mode.CAVITY_1)
        assert z_12 > 0.0
        assert abs(z_12 - z_21) <= 1e-10

    def test_asymmetric_decay_orders_directions(self):
        # faster-decaying second cavity: it steers the first one more strongly
        p = default_params().replace(kappa_2=1.5 * KAPPA_C)
        v = steady_state_cm(p)
        z_21 = gaussian_steering(v, Mode.CAVITY_2, Mode.CAVITY_1)
        z_12 = gaussian_steering(v, Mode.CAVITY_1, Mode.CAVITY_2)
        assert z_21 > z_12

    def test_coupling_mismatch_breaks_symmetry(self):
        p = default_params().replace(gamma_2=0.7 * default_params().gamma_1)
        v = steady_state_cm(p)
        z_12 = gaussian_steering(v, Mode.CAVITY_1, Mode.CAVITY_2)
        assert abs(z_12 - gaussian_steering(v, Mode.CAVITY_2, Mode.CAVITY_1)) > 0.0

    def test_steerability_implies_entanglement(self, rng):
        pairs = (
            (Mode.CAVITY_1, Mode.CAVITY_2),
            (Mode.MAGNON, Mode.CAVITY_1),
            (Mode.MAGNON, Mode.CAVITY_2),
        )
        for _ in range(30):
            v = steady_state_cm(random_params(rng, stiff=True))
            for a, b in pairs:
                steerable = (
                    gaussian_steering(v, a, b) > 0.0
                    or gaussian_steering(v, b, a) > 0.0
                )
                if steerable:
                    assert log_negativity(reduce(v, [a, b])) > 0.0

    def test_errors(self):
        with pytest.raises(DomainError):
            gaussian_steering(VACUUM_6, Mode.MAGNON, Mode.MAGNON)
        message = re.escape("non-positive determinant (0.000e+00) for reduced block of c1")
        with pytest.raises(PhysicalityError, match=f"^{message}$"):
            gaussian_steering(np.zeros((6, 6)), Mode.CAVITY_1, Mode.CAVITY_2)


def residual_params():
    """A point that the Lyapunov residual bound refuses: a 1e3 kappa_c coupling
    to the first cavity against decay rates of 1e-6 kappa_c (the point
    `cavmag point --kappa-1 5 --kappa-2 5 --kappa-m 50 --gamma-1 5e9
    --gamma-2 500 --delta-1 5e8:hz --r 1`)."""
    return default_params().replace(
        kappa_1=1e-6 * KAPPA_C, kappa_2=1e-6 * KAPPA_C, kappa_m=1e-5 * KAPPA_C,
        gamma_1=1e3 * KAPPA_C, gamma_2=1e-4 * KAPPA_C, delta_1=100 * KAPPA_C, r=1.0,
    )


# A point at which LAPACK's eigen-solve of the one-vs-two forms fails to
# converge (cavmag point --r=5e-324 --temperature=93.76011927227091
# --gamma-2=111088811935381.0:kc); the pair quantities alone solve there.
LAPACK_FAILURE = dict(r=5e-324, temperature=93.76011927227091, gamma_2=111088811935381.0 * KAPPA_C)

# Each refusal type that a valid point reaches, with no fakes: (change to
# default_params(), error type, start of the message)
REAL_REFUSALS = {
    "unstable gamma_1 = 1e300": (
        dict(gamma_1=TWO_PI * 1e300), StabilityError, "drift matrix is unstable"),
    "ill-conditioned r = 9 at 2 K": (
        dict(r=9.0, temperature=2.0), NumericalError, "covariance matrix too ill-conditioned"),
    "non-finite D at r = 1000": (
        dict(r=1000.0), DomainError, "d contains non-finite entries"),
    "Lyapunov residual": (None, NumericalError, "Lyapunov residual "),
    # the stacked one-vs-two eigen-solve does not converge; its LinAlgError
    # once escaped full_report bare
    "eigen-solve at r = 5e-324, 93.76 K": (
        LAPACK_FAILURE, NumericalError, "eigenvalue iteration failed: Eigenvalues did not converge"),
}


def refused_params(change):
    return residual_params() if change is None else default_params().replace(**change)


class TestFullReport:
    def test_no_squeezing_no_correlations(self):
        rep = full_report(default_params().replace(r=0.0))
        assert rep.stable
        assert all(value == 0.0 for value in rep.e_n.values())
        assert all(value == 0.0 for value in rep.steering.values())
        assert rep.r_tau_min == 0.0

    def test_decoupled_magnon(self):
        # with the couplings off the cavities hold a two-mode squeezed state
        p = default_params().replace(gamma_1=0.0, gamma_2=0.0)
        rep = full_report(p)
        assert rep.e_n["c1c2"] == pytest.approx(2.0 * p.r, abs=1e-10)
        assert rep.e_n["mc1"] == 0.0 and rep.e_n["mc2"] == 0.0
        assert rep.steering["m|c1"] == 0.0 and rep.steering["c1|m"] == 0.0
        assert rep.r_tau_min == 0.0

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0])
    def test_two_mode_squeezed_vacuum(self, s):
        # uncoupled and cold, the cavities hold a two-mode squeezed vacuum and
        # the magnon its vacuum: E_N = 2s, zeta = ln cosh 2s both ways
        p = default_params().replace(gamma_1=0.0, gamma_2=0.0, temperature=0.0, r=s)
        row = full_report(p).as_dict()
        zeta = math.log(math.cosh(2.0 * s))
        expected = {
            "e_n_c1c2": 2.0 * s, "e_n_c1_vs_mc2": 2.0 * s, "e_n_c2_vs_mc1": 2.0 * s,
            "zeta_c1_c2": zeta, "zeta_c2_c1": zeta, "nu_min": 0.5,
        }
        for column, value in expected.items():
            assert abs(row[column] - value) <= 1e-12, column
        for column in ("e_n_mc1", "e_n_mc2", "e_n_mc_max"):
            assert row[column] == 0.0 and not np.signbit(row[column]), column

    def test_reference_point_summary(self):
        rep = full_report(default_params())
        assert rep.stable
        assert rep.e_n["c1c2"] > 0.5
        assert rep.nu_min >= 0.5 - 1e-9
        assert rep.stability.max_real_part < 0.0
        assert rep.steering["c1|c2"] > 0.0 and rep.steering["c2|c1"] > 0.0  # two-way

    def test_residuals_match_direct_computation(self, rng):
        p = random_params(rng, stiff=True)
        rep = full_report(p)
        v = steady_state_cm(p)
        for mode in Mode:
            direct = residual_contangle(v, mode)
            assert rep.residuals[mode.label] == pytest.approx(direct, abs=1e-12)
        assert rep.r_tau_min == pytest.approx(min_residual_contangle(v), abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(**STRESS_BOX)
    def test_label_swap_symmetry(self, **point):
        # exchanging the cavities permutes the columns; worst seen over 3000
        # draws from the box: 4.4e-14 relative, in nu_min
        p = stress_params(**point)
        rep = full_report(p).values
        relabelled = full_report(swapped(p)).values
        for column in measures.REPORT_COLUMNS:
            x, y = rep[column], relabelled[SWAPPED_COLUMNS.get(column, column)]
            # lambda_max within the eigen-solver's rounding, as in TestStressDomain
            bound = 1e-12 * (drift_norm(p) if column == "lambda_max" else max(1.0, abs(x)))
            assert abs(x - y) <= bound, column

    def test_unstable_drift_is_refused(self, monkeypatch):
        forced_unstable(monkeypatch)
        with pytest.raises(StabilityError, match="unstable.*at parameter point"):
            full_report(default_params())

    def test_large_squeezing_is_finite_or_refused(self):
        # at r = 10 a one-vs-two negativity once came out infinite; V's
        # condition number refuses the point before any measure, and numpy
        # must not warn on the way to the refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="at parameter point"):
                full_report(default_params().replace(r=10.0))

    @pytest.mark.parametrize("r", [7.0, 9.0, 11.0, 15.0])
    def test_squeezing_beyond_the_digits_of_v_is_refused(self, r):
        # unrefused, r = 7 gave nu_min 0.500035 and r = 9 gave E_N 9.85:
        # eps * cond_2(V) reads 3.2e-4 and 0.68 there
        with pytest.raises(NumericalError, match=rf"ill-conditioned.*at parameter point.*r={r}"):
            full_report(default_params().replace(r=r))

    @pytest.mark.parametrize("change", [
        pytest.param(dict(r=711.0), id="711.0"),
        pytest.param(dict(r=1000.0), id="1000.0"),
        pytest.param(dict(omega_m=1e-300), id="omega_m=1e-300"),
    ])
    def test_squeezing_beyond_the_float_range_is_refused(self, change):
        # from r = 710.48 math.sinh overflows, which once escaped as a bare
        # OverflowError; the infinite moments meet the refusal of D that
        # r from 355 on already reached through a float product. At a tiny
        # omega_m the thermal occupation is inf, where it once raised a bare
        # ZeroDivisionError
        with pytest.raises(DomainError) as info:
            full_report(default_params().replace(**change))
        point = default_params().replace(**change)
        assert str(info.value) == f"d contains non-finite entries [at parameter point {point}]"

    @pytest.mark.parametrize(
        "change", [dict(r=5.5), dict(temperature=1e6)], ids=["r = 5.5", "T = 1e6 K"]
    )
    def test_well_conditioned_extremes_solve(self, change):
        # eps * cond_2(V) reads 8.0e-7 at r = 5.5 and 4.1e-10 at 1e6 K, where
        # eps * ||V||_2^2 would read 3.8e-5 and refuse the hot bath
        rep = full_report(default_params().replace(**change))
        assert all(math.isfinite(x) for x in rep.values.values())

    def test_errors_carry_parameter_context(self, monkeypatch):
        def boom(m, d):
            raise StabilityError("synthetic failure")

        monkeypatch.setattr(measures.steady_state, "solve_lyapunov", boom)
        with pytest.raises(StabilityError, match="at parameter point"):
            full_report(default_params())

    @pytest.mark.parametrize("change, error_type, start", REAL_REFUSALS.values(), ids=REAL_REFUSALS)
    def test_refusal_holds_its_point(self, change, error_type, start):
        p = refused_params(change)
        with pytest.raises(error_type) as info:
            full_report(p)
        assert info.value.point is p
        message = str(info.value)
        assert message.startswith(start)
        assert message.endswith(f" [at parameter point {p}]")

    def test_lyapunov_residual_refusal_is_reached(self):
        # the only refusal of solve_lyapunov after its solve; the digits are
        # LAPACK's rounding, so only the message's shape is pinned
        p = residual_params()
        with pytest.raises(NumericalError) as info:
            full_report(p)
        number = r"\d\.\d{3}e[+-]\d\d"
        assert re.fullmatch(
            rf"Lyapunov residual {number} exceeds bound {number} "
            rf"\[at parameter point {re.escape(str(p))}\]",
            str(info.value),
        ), str(info.value)
        residual, bound = map(float, re.findall(number, str(info.value)))
        assert residual > bound
        assert info.value.point is p

    def test_as_dict_round_trip_of_columns(self):
        flat = full_report(default_params()).as_dict()
        assert list(flat) == [*measures.REPORT_COLUMNS, "stable"]
        assert flat["e_n_mc_max"] == max(flat["e_n_mc1"], flat["e_n_mc2"])

    def test_views_read_their_columns_at_golden_points(self):
        # a report without a stage raises KeyError on the views of its
        # columns and reads every other view as the full report does
        with open(GOLDEN_REPORT, encoding="utf-8") as handle:
            points = json.load(handle)["points"]
        for entry in points:
            if entry.get("forced_unstable"):
                continue
            p = PhysicalParams(**entry["params"])
            full = full_report(p).as_dict()
            for quantities in (measures.REPORT_COLUMNS, ("e_n_c1c2",), ("zeta_c1_c2",),
                               ("r_tau_min",)):
                rep = full_report(p, quantities=quantities)
                flat = rep.as_dict()
                for view, columns in VIEW_COLUMNS.items():
                    if not set(columns.values()) <= set(flat):
                        with pytest.raises(KeyError):
                            getattr(rep, view)
                        continue
                    grouped = getattr(rep, view)
                    assert list(grouped) == list(columns), view
                    for key, column in columns.items():
                        assert grouped[key] == flat[column] == full[column], (
                            entry["label"], view, key
                        )
                if "r_tau_min" in flat:
                    assert rep.r_tau_min == flat["r_tau_min"]
                else:
                    with pytest.raises(KeyError):
                        rep.r_tau_min
                assert rep.nu_min == flat["nu_min"] == full["nu_min"]
                assert rep.stability.max_real_part == flat["lambda_max"]
            pair_only = full_report(p, quantities=("e_n_c1c2",))
            for view in ("steering", "asymmetry", "e_n_one_vs_two", "residuals"):
                with pytest.raises(KeyError):
                    getattr(pair_only, view)


class TestBatchedReport:
    """full_report against stored columns and the per-measure reference functions."""

    def test_matches_golden_columns(self, monkeypatch):
        # columns written by the per-measure eigenvalue implementation; see
        # tests/data/make_golden_report.py
        with open(GOLDEN_REPORT, encoding="utf-8") as handle:
            golden = json.load(handle)
        assert tuple(golden["columns"]) == measures.REPORT_COLUMNS
        for entry in golden["points"]:
            p = PhysicalParams(**entry["params"])
            if entry.get("forced_unstable"):
                # stored before an unstable drift became a refusal
                with monkeypatch.context() as patch:
                    forced_unstable(patch)
                    with pytest.raises(StabilityError, match="at parameter point"):
                        full_report(p)
                continue
            row = full_report(p).as_dict()
            assert row["stable"] is entry["stable"], entry["label"]
            for column, expected in zip(golden["columns"], entry["columns"]):
                assert abs(row[column] - expected) <= 1e-12, (entry["label"], column)

    @pytest.mark.parametrize("draw", ["moderate", "stiff", "weak squeezing"])
    def test_agrees_with_reference_functions(self, rng, draw):
        for _ in range(15):
            p = random_params(rng, stiff=draw == "stiff")
            if draw == "weak squeezing":
                # nearly pure, weakly correlated pairs: the closed-form
                # negativity is ill-conditioned there
                p = p.replace(r=float(rng.choice([0.0, 1e-6, 1e-3])), temperature=0.0)
            rep = full_report(p)
            v = steady_state_cm(p)
            for key, (a, b) in PAIR_MODES.items():
                expected = log_negativity(reduce(v, [a, b]))
                assert abs(rep.e_n[key] - expected) <= 1e-12
            for mode in Mode:
                expected = log_negativity_one_vs_two(v, mode)
                assert abs(rep.e_n_one_vs_two[mode.label] - expected) <= 1e-12
                expected = residual_contangle(v, mode)
                assert abs(rep.residuals[mode.label] - expected) <= 1e-12
            assert abs(rep.r_tau_min - min_residual_contangle(v)) <= 1e-12
            for key, (a, b) in DIRECTION_MODES.items():
                assert abs(rep.steering[key] - gaussian_steering(v, a, b)) <= 1e-12
            for key, (a, b) in PAIR_MODES.items():
                expected = abs(gaussian_steering(v, a, b) - gaussian_steering(v, b, a))
                assert abs(rep.asymmetry[key] - expected) <= 1e-12
            assert abs(rep.nu_min - symplectic_eigenvalues(v)[0]) <= 1e-12

    @pytest.mark.parametrize("point", ["sideband, r = 0.01", "resonance, r = 0.05"])
    def test_pair_negativity_matches_50_digit_value(self, point):
        # weakly correlated pairs: computed as Dt^2 - 4 det sigma, the root
        # split cancelled, and E_N was off by 1.0e-14 (c1c2 at the sideband
        # point) and 8.6e-15 (mc1 and mc2 at resonance)
        p = weak_pair_params(point)
        rep = full_report(p)
        v = steady_state_cm(p)
        for key, (a, b) in PAIR_MODES.items():
            expected = pair_log_negativity_mp(reduce(v, [a, b]))
            assert abs(rep.e_n[key] - expected) <= 2e-15, key

    @pytest.mark.parametrize("point", COLUMN_ORACLE_POINTS)
    def test_every_column_matches_50_digit_value(self, point):
        p = COLUMN_ORACLE_POINTS[point]
        v = steady_state_cm(p)
        row = full_report(p).as_dict()
        exact = columns_mp(v)
        assert list(exact) == list(measures.REPORT_COLUMNS[:-1])
        assert_columns_within_bounds(row, v, exact)

    @pytest.mark.parametrize("point", COLUMN_ORACLE_POINTS)
    def test_reference_negativities_match_50_digit_value(self, point):
        # the eigenvalue reference is held where the report is: at r = 3,
        # T = 2 K its c1c2 negativity is off by 3.5e-12 against a bound of
        # 1.2e-11, so a flat 1e-12 would not hold it
        v = steady_state_cm(COLUMN_ORACLE_POINTS[point])
        exact = columns_mp(v)
        bound = negativity_bounds(v, exact)
        for key, (a, b) in PAIR_MODES.items():
            column = VIEW_COLUMNS["e_n"][key]
            assert abs(log_negativity(reduce(v, [a, b])) - exact[column]) <= bound[column], key
        for mode in Mode:
            column = VIEW_COLUMNS["e_n_one_vs_two"][mode.label]
            assert abs(log_negativity_one_vs_two(v, mode) - exact[column]) <= bound[column], mode

    @pytest.mark.parametrize("point", ["no squeezing", "sideband, r = 0.01"])
    def test_no_pair_takes_an_eigen_solve(self, monkeypatch, point):
        # these pairs once fell back to the 4x4 eigen-solve (3 and 1 of them)
        def refuse(*args):
            raise AssertionError("a pair took the eigenvalue route")

        monkeypatch.setattr(measures, "_pt_negativity", refuse)
        monkeypatch.setattr(measures, "symplectic_eigenvalues", refuse)
        full_report(weak_pair_params(point))

    def test_reference_reads_no_kernel_name(self):
        with open(measures.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in REFERENCE_FUNCTIONS:
            read = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
            assert not read & KERNEL_NAMES, name

    def test_kernel_names_follow_the_kernel(self):
        # every kernel name is still defined, and every module-level name a
        # kernel function reads is a kernel name or a declared shared one, so
        # the guard above sees each name the kernel reads
        with open(measures.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        defined = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defined[name.id] = node
        assert KERNEL_NAMES <= set(defined), KERNEL_NAMES - set(defined)
        assert SHARED_NAMES <= set(defined), SHARED_NAMES - set(defined)
        for name in KERNEL_NAMES:
            if isinstance(defined[name], ast.FunctionDef):
                read = {n.id for n in ast.walk(defined[name]) if isinstance(n, ast.Name)}
                unlisted = (read & set(defined)) - KERNEL_NAMES - SHARED_NAMES
                assert not unlisted, (name, unlisted)

    def test_quotient_is_ieee_division(self):
        # the scalar tail divides with _quotient: where Python raises
        # ZeroDivisionError it gives numpy's inf or nan, signs included
        values = [1.0, -2.5, 0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]
        with np.errstate(all="ignore"):
            for a, b in itertools.product(values, repeat=2):
                expected = float(np.divide(a, b))
                got = measures._quotient(a, b)
                assert math.isnan(got) if math.isnan(expected) else (
                    got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)
                ), (a, b)

    def test_refusals_of_hand_built_cms(self):
        # a sub-vacuum V or an indefinite one is unphysical; a singular V, or
        # an indefinite one with an eigenvalue at the rounding level of V, as
        # rounding gives at r = 20, is ill-conditioned; numpy warns of none
        rank_5 = np.eye(6)
        rank_5[5, 5] = 0.0
        # eigvalsh gives nan for the cavity 1 block here and 1 elsewhere; a
        # nan eigenvalue reads as an infinite condition number
        with_nan = np.eye(6)
        with_nan[2, 3] = with_nan[3, 2] = np.nan
        cases = [
            (0.4 * np.eye(6), PhysicalityError,
             r"Heisenberg bound \(min symplectic eigenvalue 0\.4 < 1/2\)"),
            (np.zeros((6, 6)), NumericalError, r"ill-conditioned .*eps \* cond\(V\) = inf"),
            (rank_5, NumericalError, r"ill-conditioned .*eps \* cond\(V\) = inf"),
            (with_nan, NumericalError, r"ill-conditioned .*eps \* cond\(V\) = inf"),
            (np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1e-12]), NumericalError,
             r"ill-conditioned .*eps \* cond\(V\) = 2\.220e-04"),
            # well conditioned but indefinite: every 2x2 block of Omega V
            # still has eigenvalues +/- i nu, so only the sign check refuses
            (np.diag([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0]), PhysicalityError,
             r"not positive definite \(smallest eigenvalue -1 <= 0\)"),
            (np.diag([-0.6, -0.6, 0.5, 0.5, 0.5, 0.5]), PhysicalityError,
             r"not positive definite \(smallest eigenvalue -0\.6 <= 0\)"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v, error, message in cases:
                with pytest.raises(error, match=message):
                    measures._measures(v[None])

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        h=st.lists(st.floats(-4.0, 4.0), min_size=21, max_size=21),
        nu=st.lists(st.floats(0.45, 1e4), min_size=3, max_size=3),
    )
    def test_scalar_tail_returns_floats_or_refuses(self, h, nu):
        # S diag(nu) S^T over strong squeezing and hot or sub-vacuum modes:
        # the row is 21 finite Python floats or a named refusal, with no
        # ZeroDivisionError, ValueError or numpy warning on the way
        upper = np.zeros((6, 6))
        upper[np.triu_indices(6)] = h
        s = scipy.linalg.expm(measures.OMEGA_3 @ (upper + np.triu(upper, 1).T))
        v = s @ np.diag(np.repeat(nu, 2)) @ s.T
        v = 0.5 * (v + v.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                [row] = measures._measures(v[None])
            except (NumericalError, PhysicalityError):
                return
        assert len(row) == len(measures.REPORT_COLUMNS) - 1
        assert all(type(x) is float and math.isfinite(x) for x in row)

    def test_root_split_identity(self, rng):
        # Dt^2 - 4 det sigma = (det A - det B)^2 - 4 det G, with G the upper
        # right block of sigma _PAIR_TWIST sigma, A J C - C J B
        j = mpmath.matrix([[0, 1], [-1, 0]])
        with mpmath.workdps(50):
            twist = mpmath.matrix(measures._PAIR_TWIST.tolist())
            for _ in range(20):
                a, b = (x + x.T for x in rng.normal(size=(2, 2, 2)))
                c = rng.normal(size=(2, 2))
                sigma = mpmath.matrix(np.block([[a, c], [c.T, b]]).tolist())
                a, b, c = (mpmath.matrix(x.tolist()) for x in (a, b, c))
                g = (sigma * twist * sigma)[0:2, 2:4]
                assert g == a * j * c - c * j * b
                delta = mpmath.det(a) + mpmath.det(b) - 2 * mpmath.det(c)
                lhs = delta**2 - 4 * mpmath.det(sigma)
                rhs = (mpmath.det(a) - mpmath.det(b)) ** 2 - 4 * mpmath.det(g)
                assert abs(lhs - rhs) <= mpmath.mpf(10) ** -45 * (delta**2 + 1)

    def test_five_lapack_calls_per_point(self, monkeypatch):
        # README's count: the drift spectrum, the 36x36 solve, eigvalsh of V,
        # one stacked eigvals for the four spectra, one stacked det for the
        # three pairs; a sequence of the point and its r/2 twin, which share
        # the drift, makes the same five calls, all through the numerics
        # entry points
        calls = count_lapack(monkeypatch)
        with open(GOLDEN_REPORT, encoding="utf-8") as handle:
            points = json.load(handle)["points"]
        for entry in points:
            if not entry.get("forced_unstable"):
                p = PhysicalParams(**entry["params"])
                for batch in (p, [p, p.replace(r=0.5 * p.r)]):
                    calls.clear()
                    full_report(batch)
                    assert linalg_calls(calls) == {}, entry["label"]
                    assert calls == {"eigvals": 2, "eigvalsh": 1, "solve": 1, "det": 1}, (
                        entry["label"]
                    )

    def test_no_determinant_check_is_reached_at_golden_points(self, monkeypatch):
        # the Heisenberg check on V bounds every determinant whose logarithm
        # the report takes, so no production path checks its sign again
        def refuse(det_value, context):
            raise AssertionError(f"determinant check reached for {context}")

        monkeypatch.setattr(measures, "_require_positive_det", refuse)
        with open(GOLDEN_REPORT, encoding="utf-8") as handle:
            points = json.load(handle)["points"]
        for entry in points:
            if not entry.get("forced_unstable"):
                full_report(PhysicalParams(**entry["params"]))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        h=st.lists(st.floats(-0.5, 0.5), min_size=21, max_size=21),
        nu=st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3),
    )
    # the vacuum, and a pure state squeezed on the magnon alone: every
    # bound holds with equality
    @example(h=[0.0] * 21, nu=[0.5] * 3)
    @example(h=[0.5, 0.5] + [0.0] * 19, nu=[0.5] * 3)
    def test_heisenberg_bound_implies_positive_determinants(self, h, nu):
        # every physical CM is S diag(nu1, nu1, nu2, nu2, nu3, nu3) S^T with S
        # symplectic and nu >= 1/2; S = exp(Omega H) for a symmetric H
        upper = np.zeros((6, 6))
        upper[np.triu_indices(6)] = h
        s = scipy.linalg.expm(measures.OMEGA_3 @ (upper + np.triu(upper, 1).T))
        v = s @ np.diag(np.repeat(nu, 2)) @ s.T
        for mode in Mode:
            assert np.linalg.det(reduce(v, [mode])) >= 0.25 * (1.0 - 1e-12), mode
        for key, (a, b) in PAIR_MODES.items():
            assert np.linalg.det(reduce(v, [a, b])) >= 0.0625 * (1.0 - 1e-12), key

    def test_every_reduced_state_is_physical(self, rng):
        # full_report checks the Heisenberg bound on V alone; every one- and
        # two-mode reduction of a solved V must satisfy it too
        subsets = [list(c) for n in (1, 2) for c in itertools.combinations(Mode, n)]
        for _ in range(30):
            v = steady_state_cm(random_params(rng, stiff=True))
            for modes in subsets:
                assert symplectic_eigenvalues(reduce(v, modes)).min() >= 0.5 - 1e-9

    def test_heisenberg_violation_is_refused(self, monkeypatch):
        monkeypatch.setattr(
            measures.steady_state,
            "solve_lyapunov",
            lambda m, d: (
                np.broadcast_to(0.4 * np.eye(6), d.shape), measures.steady_state.stability(m)
            ),
        )
        with pytest.raises(PhysicalityError, match="Heisenberg.*at parameter point"):
            full_report(default_params())

    # every (one_vs_two, steering) pair of the optional stages
    STAGES = tuple(itertools.product((True, False), repeat=2))

    def both_tails(self, monkeypatch, v, stages):
        """_measures of the stack v finished on arrays, then by _row: the
        float.hex of every cell, or the refusal's type and message."""
        outcomes = []
        for smallest in (1, 10**9):
            monkeypatch.setattr(measures, "_ARRAY_TAIL_MIN", smallest)
            with np.errstate(all="ignore"):
                try:
                    rows = measures._measures(v, *stages)
                except CavmagError as exc:
                    outcomes.append((type(exc), str(exc)))
                else:
                    outcomes.append([[x.hex() for x in row] for row in rows])
        return outcomes

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(st.lists(st.fixed_dictionaries(STRESS_BOX), min_size=33, max_size=33))
    def test_array_tail_gives_the_bits_of_the_row_tail(self, draws):
        # about 200 stress-box CMs in stacks of 8 and of 33, through every
        # pair of optional stages: the array tail gives each cell's bits
        # that _row gives, and it is the tail taken (no fallback)
        stack = []
        for point in draws:
            try:
                stack.append(steady_state_cm(stress_params(**point)))
            except CavmagError:
                continue
        stack = np.array(stack)
        finished = []
        real_array_rows = measures._array_rows
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(
                measures, "_array_rows",
                lambda *args: finished.append(real := real_array_rows(*args)) or real,
            )
            for stages in self.STAGES:
                for v in (stack[:8], stack):
                    on_arrays, by_rows = self.both_tails(monkeypatch, v, stages)
                    assert on_arrays == by_rows, stages
        assert finished and all(rows is not None for rows in finished)

    def test_array_tail_keeps_the_clamps_and_ties(self, monkeypatch):
        # the vacuum, whose every log argument is exactly 1, so -0.5 ln 1 =
        # -0.0 is clamped to +0.0; separable pairs on a zero discriminant
        # (TestColumnsMp); and a CM made cavity-symmetric by copying cavity
        # 1's blocks to cavity 2 (at delta_m = -4, delta_1 = delta_2 = 4
        # kappa_c, where the solved e_n_mc1 and e_n_mc2 differ by 1.8e-16),
        # whose e_n_mc1 and e_n_mc2 are equal, so e_n_mc_max meets max's tie
        separable = []
        for a, c in [(1.25, 0.2), (1.25, 0.7), (1.5, 0.7), (2.5, 0.4)]:
            v = 0.5 * np.eye(6)
            v[2:, 2:] = np.kron(np.array([[a, c], [c, a]]), np.eye(2))
            separable.append(v)
        symmetric = steady_state_cm(
            default_params().replace(delta_m=-4 * KAPPA_C, delta_1=4 * KAPPA_C, delta_2=4 * KAPPA_C)
        )
        symmetric[4:6, 4:6] = symmetric[2:4, 2:4]
        symmetric[0:2, 4:6] = symmetric[0:2, 2:4]
        symmetric[4:6, 0:2] = symmetric[2:4, 0:2]
        symmetric[4:6, 2:4] = symmetric[2:4, 4:6].T
        stack = np.array([VACUUM_6, *separable, symmetric, VACUUM_6, symmetric])
        for stages in self.STAGES:
            on_arrays, by_rows = self.both_tails(monkeypatch, stack, stages)
            assert on_arrays == by_rows, stages
            columns = measures._STAGE_COLUMNS[stages]
            vacuum, tie = (dict(zip(columns, on_arrays[i])) for i in (0, 5))
            assert all(
                x == (0.0).hex() for column, x in vacuum.items() if column != "nu_min"
            ), vacuum
            assert tie["e_n_mc1"] == tie["e_n_mc2"] == tie["e_n_mc_max"] != (0.0).hex()

    def test_array_tail_clamps_a_negative_discriminant(self):
        # (det A - det B)^2 - 4 det G is >= 0 for every physical pair, but
        # rounding can leave it below 0, where max(s, 0.0) makes the root
        # split 0; no solved CM found has it, so det G is raised by hand
        # (G = I at each pair), and both tails are given the same inputs
        v = np.array([
            steady_state_cm(default_params().replace(r=r)) for r in np.linspace(0.1, 1, 8)
        ])
        spectra = numerics.eigvals(measures._SPECTRUM_FORMS @ v[:, None]).imag
        pair_cms = v.reshape(-1, 36).take(measures._PAIR_INDEX, axis=1)
        det_pairs = numerics.det(pair_cms)
        g = np.zeros((len(v), 3, 4))
        g[..., 0] = g[..., 3] = 1.0
        for steering in (True, False):
            with np.errstate(all="ignore"):
                on_arrays = measures._array_rows(v, spectra, det_pairs, g, steering)
                by_rows = list(map(measures._row, v.tolist(), spectra.tolist(), det_pairs.tolist(),
                                   g.tolist(), itertools.repeat(steering)))
            assert [[x.hex() for x in row] for row in on_arrays] == [
                [x.hex() for x in row] for row in by_rows
            ]

    def test_array_tail_refuses_as_the_row_tail(self, monkeypatch):
        # a sub-vacuum CM among valid ones (the Heisenberg refusal), one
        # whose determinants overflow (a measure that is not finite), and
        # the conditioning and sign refusals of the first array pass: each
        # stack of 8 is refused with the same type and message either way
        valid = [steady_state_cm(default_params().replace(r=r)) for r in np.linspace(0, 1, 7)]
        cases = [
            (PhysicalityError, "Heisenberg bound", 0.4 * np.eye(6)),
            (NumericalError, "not finite", 1e160 * np.eye(6)),
            (NumericalError, "ill-conditioned", np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-12])),
            (PhysicalityError, "not positive definite", np.diag([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0])),
        ]
        for error, message, bad in cases:
            for position in (0, 3, 7):
                stack = np.array(valid[:position] + [bad] + valid[position:])
                for stages in self.STAGES:
                    on_arrays, by_rows = self.both_tails(monkeypatch, stack, stages)
                    assert on_arrays == by_rows, (message, stages)
                    assert on_arrays[0] is error and message in on_arrays[1], on_arrays


def report_bits(report) -> list:
    """Every column, the stable flag and the drift spectrum, signbits included."""
    spectrum = [(z.real.hex(), z.imag.hex()) for z in report.stability.spectrum.tolist()]
    return [x.hex() for x in report.values.values()] + [report.stable, spectrum]


class TestStackedReport:
    """full_report of a sequence is its points one at a time, to the last bit."""

    def cold_reports(self, points):
        return [full_report(p) for p in points]

    def test_stack_matches_points_one_at_a_time(self, monkeypatch):
        with open(GOLDEN_REPORT, encoding="utf-8") as handle:
            golden = json.load(handle)["points"]
        golden = [PhysicalParams(**e["params"]) for e in golden if not e.get("forced_unstable")]
        base = default_params()
        detuned = base.replace(delta_1=KAPPA_C, delta_m=-0.0)
        # runs of a shared drift (r and T leave it as it is) between points
        # with drifts of their own, a drift that comes back after another,
        # and the two signed zeros of delta_m, whose drifts differ in their
        # bytes and so form two groups (LAPACK's reflections read the sign
        # of a zero)
        mixed = [
            base.replace(r=0.2), base.replace(r=0.5, temperature=1.0), base.replace(r=0.8),
            detuned, sideband_params(), sideband_params().replace(r=0.1, temperature=0.3),
            detuned.replace(r=0.0), base, base.replace(delta_m=-0.0), base.replace(delta_m=0.0),
        ]
        # drift groups that interleave: r outer, gamma_2 / gamma_1 inner
        interleaved = [
            base.replace(r=r, gamma_2=x * base.gamma_1) for r in (0.1, 0.4) for x in (0.5, 1.0, 1.5)
        ]
        # points that differ only in r and in the sign of a zero delta_1:
        # the drift key keeps +0.0 and -0.0 apart, so two drift groups
        signed = [base.replace(r=r, delta_1=zero) for r in (0.1, 0.6) for zero in (0.0, -0.0)]
        real_stability = measures.steady_state.stability
        drifts = []
        monkeypatch.setattr(measures.steady_state, "stability",
                            lambda m: drifts.append(m) or real_stability(m))
        solves = []
        for points in (golden, mixed, interleaved, signed):
            drifts.clear()
            stacked = full_report(points)
            solves.append(len(drifts))
            assert isinstance(stacked, list) and len(stacked) == len(points)
            for got, expected in zip(stacked, self.cold_reports(points)):
                assert report_bits(got) == report_bits(expected)
        # one drift eigen-solve per distinct drift of each stack
        assert solves[1:] == [4, 3, 2]
        assert full_report(()) == []

    def test_one_lapack_call_per_drift_group(self, monkeypatch):
        # a 12-point stack, r outer and gamma_2 / gamma_1 inner: each of the
        # three drifts gets one spectrum and one solve, wherever its points
        # sit, and the stack one eigvalsh, one stacked eigvals and one det
        base = default_params()
        points = [
            base.replace(r=r, gamma_2=x * base.gamma_1)
            for r in (0.1, 0.4, 0.7, 1.0) for x in (0.5, 1.0, 1.5)
        ]
        calls = count_lapack(monkeypatch)
        full_report(points)
        assert linalg_calls(calls) == {}
        assert calls == {"eigvals": 4, "solve": 3, "eigvalsh": 1, "det": 1}

    def test_first_failing_point_raises_its_own_error(self):
        # no fakes: the r = 9 point is refused by the conditioning check of
        # _measures, and the third point's drift has a computed eigenvalue
        # on the imaginary axis, refused before any measure is taken; the
        # stack meets the later point's refusal first
        valid = default_params()
        squeezed = valid.replace(r=9.0, temperature=2.0)
        unstable = valid.replace(gamma_2=1e17 * valid.gamma_1)
        with pytest.raises(StabilityError, match="drift matrix is unstable"):
            full_report(unstable)
        with pytest.raises(NumericalError) as alone:
            full_report(squeezed)
        assert re.fullmatch(
            r"covariance matrix too ill-conditioned for its measures "
            r"\(eps \* cond\(V\) = \d\.\d{3}e[+-]\d\d > 1e-06\) \[at parameter point "
            + re.escape(str(squeezed)) + r"\]",
            str(alone.value),
        ), str(alone.value)
        with pytest.raises(NumericalError) as stacked:
            full_report([valid, squeezed, unstable])
        assert str(stacked.value) == str(alone.value)

    def test_sequence_raises_the_error_of_its_element(self):
        # each failing point is a copy, equal but not identical, so .point
        # is the sequence's own element; the stack's first failing point
        # raises, with the message it raises alone
        valid = default_params()
        later = valid.replace(gamma_2=1e17 * valid.gamma_1)  # unstable
        for change, error_type, _ in REAL_REFUSALS.values():
            alone = refused_params(change)
            element = alone.replace(r=alone.r)
            assert element == alone and element is not alone
            with pytest.raises(error_type) as single:
                full_report(alone)
            with pytest.raises(error_type) as stacked:
                full_report([valid, valid.replace(r=0.1), element, later])
            assert stacked.value.point is element
            assert str(stacked.value) == str(single.value)

    def test_pair_quantities_skip_the_one_vs_two_stage_bit_for_bit(self):
        # point_inputs-style draws (detunings in kappa_c), then r from 5 to
        # 30 at 0 and 2 K, where the conditioning refusal fires from r = 5.56,
        # then hot baths and extreme kappa_2 / kappa_1 at r = 0.4: for each
        # set of quantities, each point is refused as the full evaluation
        # refuses it, or holds the full report's bits in the columns of the
        # stages that the set reads
        base = default_params()
        kc = base.kappa_c
        draws = np.random.default_rng(24).uniform(
            [-6.0, -6.0, -6.0, 0.0, 0.0, 0.0, 0.2], [6.0, 6.0, 6.0, 1.0, 0.5, 2.0, 2.2],
            size=(300, 7),
        )
        points = [
            base.replace(delta_1=d1 * kc, delta_2=d2 * kc, delta_m=dm * kc, r=r, temperature=t,
                         gamma_2=g * base.gamma_1, kappa_2=k * base.kappa_1)
            for d1, d2, dm, r, t, g, k in draws.tolist()
        ]
        points += [
            base.replace(r=r, temperature=t) for r in np.linspace(5.0, 30.0, 51).tolist()
            for t in (0.0, 2.0)
        ]
        edges = [base.replace(r=0.4, temperature=t) for t in (10.0, 100.0, 1000.0)]
        edges += [
            base.replace(r=0.4, temperature=t, kappa_2=ratio * base.kappa_1)
            for t in (0.02, 10.0, 100.0, 1000.0) for ratio in (1e-6, 1e-3, 1e3, 1e6)
        ]
        without = {
            ("e_n_c1c2",): measures.ONE_VS_TWO_COLUMNS | measures.STEERING_COLUMNS,
            ("zeta_c1_c2",): measures.ONE_VS_TWO_COLUMNS,
            ("r_tau_min",): measures.STEERING_COLUMNS,
            measures.REPORT_COLUMNS: frozenset(),
        }
        outcomes = collections.Counter()
        for i, p in enumerate(points + edges):
            edge = i >= len(points)
            try:
                full = full_report(p).values
            except CavmagError as exc:
                for quantities in without:
                    with pytest.raises(CavmagError) as skipped:
                        full_report(p, quantities=quantities)
                    assert type(skipped.value) is type(exc), (p, quantities)
                    assert str(skipped.value) == str(exc)
                outcomes[edge, type(exc).__name__] += 1
                continue
            for quantities, skipped_columns in without.items():
                columns = [c for c in measures.REPORT_COLUMNS if c not in skipped_columns]
                values = full_report(p, quantities=quantities).values
                assert list(values) == columns, quantities
                assert [values[c].hex() for c in columns] == [full[c].hex() for c in columns], (
                    p, quantities
                )
            outcomes[edge, "accepted"] += 1
        assert outcomes == {
            (False, "accepted"): 304, (False, "NumericalError"): 98, (True, "accepted"): 19,
        }

    def test_quantities_are_report_columns(self):
        # the pair negativities, nu_min and lambda_max are in every report;
        # each optional stage adds its columns when a quantity reads one
        p = default_params()
        always = ["e_n_c1c2", "e_n_mc1", "e_n_mc2", "e_n_mc_max", "nu_min", "lambda_max"]
        assert list(full_report(p, quantities=()).values) == always
        assert list(full_report(p, quantities=("e_n_mc2", "nu_min")).values) == always
        assert list(full_report(p, quantities=("r_tau_min",)).values) == [
            c for c in measures.REPORT_COLUMNS if c not in measures.STEERING_COLUMNS
        ]
        assert list(full_report(p, quantities=("zeta_s_mc1",)).values) == [
            c for c in measures.REPORT_COLUMNS if c not in measures.ONE_VS_TWO_COLUMNS
        ]
        assert list(full_report(p, quantities=("r_tau_c1", "zeta_m_c2")).values) == list(
            measures.REPORT_COLUMNS
        )
        assert measures.ONE_VS_TWO_COLUMNS == set(measures.REPORT_COLUMNS[4:11])
        assert measures.STEERING_COLUMNS == {
            c for c in measures.REPORT_COLUMNS if c.startswith("zeta_")
        }
        for quantities in (("e_n_c1c2", "nope"), "e_n_c1c2", (["r"],)):
            with pytest.raises(DomainError, match="^unknown quantities in "):
                full_report(p, quantities=quantities)

    def test_stacked_lapack_failure_is_retried_one_point_at_a_time(self, monkeypatch):
        # the one-vs-two eigen-solve of a stack fails as numerics raises a
        # LAPACK failure; the drift's eigen-solve is 2-D
        real_eigvals = numerics.eigvals
        failed = []

        def eigvals_of_one(a):
            if a.ndim > 2 and a.shape[0] > 1:
                failed.append(a.shape)
                raise NumericalError("eigenvalue iteration failed: synthetic failure")
            return real_eigvals(a)

        points = [default_params().replace(r=r) for r in (0.1, 0.4, 0.7)]
        expected = self.cold_reports(points)
        monkeypatch.setattr(numerics, "eigvals", eigvals_of_one)
        got = full_report(points)
        assert failed == [(3, 4, 6, 6)]  # the stacked call failed, once
        assert [report_bits(r) for r in got] == [report_bits(r) for r in expected]


def columns_or_refusal(p):
    """The report's columns at p, or the type of its refusal."""
    try:
        return full_report(p).values
    except CavmagError as exc:
        return type(exc)


class TestInvariances:
    """Two exact symmetries of the model; rates and detunings in kappa_c."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(**STRESS_BOX)
    def test_negated_detunings_keep_every_measure(self, **point):
        # T M(delta) T = M(-delta) and T D T = D for T = diag(-1, 1, 1, -1, 1, -1),
        # a time reversal times a pi rotation of the magnon, so the LU of the
        # sign-scaled operator makes the same pivots and V(-delta) = T V T bit
        # for bit. Every measure is invariant under T, but the general
        # eigen-solver of the symplectic spectra is not sign-equivariant: 2 of
        # these 200 draws moved a column by up to 7.8e-16, and the other 198
        # kept the bits of every column but lambda_max
        p = stress_params(**point)
        negated = p.replace(delta_1=-p.delta_1, delta_2=-p.delta_2, delta_m=-p.delta_m)
        t = np.diag([-1.0, 1.0, 1.0, -1.0, 1.0, -1.0])
        assert np.array_equal(t @ drift_matrix(p) @ t, drift_matrix(negated))
        v, _ = solve_lyapunov(drift_matrix(p), diffusion_matrix(p))
        v_negated, _ = solve_lyapunov(drift_matrix(negated), diffusion_matrix(negated))
        assert np.array_equal(t @ v @ t, v_negated)
        rep, rep_negated = columns_or_refusal(p), columns_or_refusal(negated)
        if isinstance(rep, type):
            assert rep_negated is rep
            return
        for column, x in rep.items():
            # lambda_max within the eigen-solver's rounding, as in TestStressDomain
            bound = 1e-12 * (drift_norm(p) if column == "lambda_max" else max(1.0, abs(x)))
            assert abs(rep_negated[column] - x) <= bound, column

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(**STRESS_BOX)
    def test_doubled_rates_keep_every_measure(self, **point):
        # M and D both double, so V keeps its bits and the drift spectrum
        # doubles exactly: nothing may depend on a rate's absolute size
        p = stress_params(**point)
        rates = ("kappa_1", "kappa_2", "kappa_m", "gamma_1", "gamma_2",
                 "delta_1", "delta_2", "delta_m")
        rep = columns_or_refusal(p)
        doubled = columns_or_refusal(p.replace(**{name: 2.0 * getattr(p, name) for name in rates}))
        if isinstance(rep, type):
            assert doubled is rep
            return
        for column, x in rep.items():
            expected = 2.0 * x if column == "lambda_max" else x
            assert doubled[column].hex() == expected.hex(), column


class TestStressDomain:
    """full_report over a wide box of valid inputs; rates and detunings in kappa_c."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(**STRESS_BOX)
    def test_drift_is_passive(self, **point):
        # the couplings and detunings cancel exactly in M + M^T, which holds
        # the decay rates alone: every drift is Hurwitz stable with
        # Re lambda <= -min kappa, the bound the stability checks rest on
        p = stress_params(**point)
        m = drift_matrix(p)
        kappas = [p.kappa_m, p.kappa_m, p.kappa_1, p.kappa_1, p.kappa_2, p.kappa_2]
        assert np.array_equal(m + m.T, -2.0 * np.diag(kappas))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(**STRESS_BOX)
    # equal decay rates and no detuning: passivity holds with equality, and
    # the computed lambda_max sits 7.5e-9 rad/s right of -kappa_c
    @example(kappa_2=1.0, kappa_m=1.0, gamma_1=1.0, gamma_2=1.0,
             delta_1=0.0, delta_2=0.0, delta_m=0.0, r=0.4, temperature=0.02)
    def test_solves_finite_and_physical(self, **point):
        p = stress_params(**point)
        flat = full_report(p).as_dict()
        assert all(math.isfinite(flat[c]) for c in measures.REPORT_COLUMNS)
        assert flat["nu_min"] >= 0.5 - 1e-9
        # passivity, Re lambda <= -min kappa, up to the eigen-solver's rounding:
        # where it is tight (equal rates, no detuning) the computed spectrum
        # sits a few eps ||M|| to the right of -min kappa
        slack = 1e-12 * drift_norm(p)
        assert flat["lambda_max"] <= -min(p.kappa_m, p.kappa_1, p.kappa_2) + slack

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(**{**STRESS_BOX, "r": st.just(0.0)})
    def test_no_squeezing_no_entanglement_or_steering(self, **point):
        # passive dynamics driven by thermal inputs leave the state
        # separable: every negativity and steering value is zero up to
        # rounding (worst seen over 3000 draws: 2.9e-15)
        flat = full_report(stress_params(**point)).as_dict()
        for column in measures.REPORT_COLUMNS:
            if column.startswith(("e_n_", "zeta_")):
                assert flat[column] <= 1e-12, column

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(**STRESS_BOX)
    def test_steering_implies_entanglement(self, **point):
        # a Gaussian state steerable across a pair in either direction is
        # entangled across it; no tolerance (over 3000 draws, 418 steerable
        # pairs and no exception)
        flat = full_report(stress_params(**point)).as_dict()
        for pair, a, b in (("c1c2", "c1", "c2"), ("mc1", "m", "c1"), ("mc2", "m", "c2")):
            if max(flat[f"zeta_{a}_{b}"], flat[f"zeta_{b}_{a}"]) > 0.0:
                assert flat[f"e_n_{pair}"] > 0.0, pair


# Rates over 45 decades in rad/s, and r and T from the ordinary range out to
# where the bath moments overflow; unbounded boxes of valid inputs
RATE = log_uniform(1e-15, 1e30)
INPUT_BOX = dict(
    kappa_1=RATE,
    kappa_2=RATE,
    kappa_m=RATE,
    gamma_1=st.just(0.0) | RATE,
    gamma_2=st.just(0.0) | RATE,
    **{name: st.just(0.0) | RATE | RATE.map(operator.neg)
       for name in ("delta_1", "delta_2", "delta_m")},
    r=st.floats(0.0, 12.0) | log_uniform(1e-300, 1e3),
    omega_m=RATE,
    temperature=st.floats(0.0, 5.0) | log_uniform(1e-300, 1e300),
)
# One set of quantities per combination of the optional stages
QUANTITY_KINDS = (("e_n_c1c2",), ("zeta_c1_c2",), ("r_tau_min",), measures.REPORT_COLUMNS)


class TestInputContract:
    """Every valid point ends in a report or in a refusal that holds it."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(changes=st.fixed_dictionaries({}, optional=INPUT_BOX),
           quantities=st.sampled_from(QUANTITY_KINDS))
    # once a bare LinAlgError, then numpy overflow warnings before the
    # residual refusal and before the finiteness refusal
    @example(changes=LAPACK_FAILURE, quantities=measures.REPORT_COLUMNS)
    @example(changes=dict(kappa_m=1.7e308), quantities=measures.REPORT_COLUMNS)
    @example(changes=dict(r=342.244915322078, gamma_2=342.244915322078 * KAPPA_C),
             quantities=measures.REPORT_COLUMNS)
    def test_full_report_returns_a_finite_report_or_a_refusal_of_its_point(
        self, changes, quantities
    ):
        p = default_params().replace(**changes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = full_report(p, quantities=quantities)
            except CavmagError as exc:
                assert exc.point is p, exc
            else:
                assert all(map(math.isfinite, report.values.values())), report.values
