import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavmag.measures as measures
from cavmag.errors import CavmagError, DomainError, PhysicalityError, StabilityError
from cavmag.measures import (
    Mode,
    classify_steering,
    full_report,
    gaussian_steering,
    log_negativity,
    log_negativity_one_vs_two,
    min_residual_contangle,
    reduce,
    residual_contangle,
    steering_asymmetry,
    symplectic_eigenvalues,
    symplectic_form,
)
from cavmag.model import PhysicalParams, default_params, diffusion_matrix, drift_matrix
from cavmag.steady_state import StabilityReport, solve_lyapunov
from conftest import KAPPA_C, random_params

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

VACUUM_6 = 0.5 * np.eye(6)
VACUUM_4 = 0.5 * np.eye(4)


def tmsv(s: float) -> np.ndarray:
    """Two-mode squeezed vacuum CM with squeezing s (vacuum variance 1/2)."""
    c, m = 0.5 * np.cosh(2.0 * s), 0.5 * np.sinh(2.0 * s)
    block = m * np.diag([1.0, -1.0])
    out = np.block([[c * np.eye(2), block], [block, c * np.eye(2)]])
    return out


def steady_state_cm(p):
    return solve_lyapunov(drift_matrix(p), diffusion_matrix(p))


def forced_unstable(monkeypatch):
    fake = StabilityReport(max_real_part=1.0, spectrum=np.ones(6, dtype=complex), stable=False)
    monkeypatch.setattr(measures.steady_state, "stability", lambda m: fake)


def sideband_params():
    p = default_params()
    kc = p.kappa_c
    return p.replace(delta_m=2 * kc, delta_1=-2 * kc, delta_2=2 * kc)


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
        v = steady_state_cm(random_params(rng))
        smallest = min(residual_contangle(v, focus) for focus in Mode)
        clamped = min_residual_contangle(v)
        if smallest >= -1e-9:
            assert clamped == max(0.0, smallest)
        else:  # pragma: no cover - would indicate a monogamy violation
            assert clamped == smallest


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
        assert steering_asymmetry(v, Mode.CAVITY_1, Mode.CAVITY_2) <= 1e-10

    def test_asymmetric_decay_orders_directions(self):
        # faster-decaying second cavity: it steers the first one more strongly
        p = default_params().replace(kappa_2=1.5 * KAPPA_C)
        v = steady_state_cm(p)
        z_21 = gaussian_steering(v, Mode.CAVITY_2, Mode.CAVITY_1)
        z_12 = gaussian_steering(v, Mode.CAVITY_1, Mode.CAVITY_2)
        assert z_21 > z_12
        assert steering_asymmetry(v, Mode.CAVITY_1, Mode.CAVITY_2) > 0.0

    def test_coupling_mismatch_breaks_symmetry(self):
        p = default_params().replace(gamma_2=0.7 * default_params().gamma_1)
        v = steady_state_cm(p)
        assert steering_asymmetry(v, Mode.CAVITY_1, Mode.CAVITY_2) > 0.0

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

    def test_classification(self):
        assert classify_steering(0.0, 0.0) == "no-way"
        assert classify_steering(0.1, 0.0) == "one-way"
        assert classify_steering(0.0, 0.1) == "one-way"
        assert classify_steering(0.1, 0.2) == "two-way"


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

    def test_reference_point_summary(self):
        rep = full_report(default_params())
        assert rep.stable
        assert rep.e_n["c1c2"] > 0.5
        assert rep.nu_min >= 0.5 - 1e-9
        assert rep.stability.max_real_part < 0.0
        two_way = classify_steering(rep.steering["c1|c2"], rep.steering["c2|c1"])
        assert two_way == "two-way"

    def test_residuals_match_direct_computation(self, rng):
        p = random_params(rng, stiff=True)
        rep = full_report(p)
        v = steady_state_cm(p)
        for mode in Mode:
            direct = residual_contangle(v, mode)
            assert rep.residuals[mode.label] == pytest.approx(direct, abs=1e-12)
        assert rep.r_tau_min == pytest.approx(min_residual_contangle(v), abs=1e-12)

    def test_label_swap_symmetry(self, rng):
        for _ in range(5):
            p = random_params(rng)
            rep = full_report(p)
            swapped = full_report(p.swapped())
            assert rep.e_n["c1c2"] == pytest.approx(swapped.e_n["c1c2"], abs=1e-10)
            assert rep.e_n["mc1"] == pytest.approx(swapped.e_n["mc2"], abs=1e-10)
            assert rep.e_n["mc2"] == pytest.approx(swapped.e_n["mc1"], abs=1e-10)
            assert rep.steering["c1|c2"] == pytest.approx(
                swapped.steering["c2|c1"], abs=1e-10
            )
            assert rep.steering["m|c1"] == pytest.approx(
                swapped.steering["m|c2"], abs=1e-10
            )
            assert rep.r_tau_min == pytest.approx(swapped.r_tau_min, abs=1e-10)

    def test_unstable_drift_is_refused(self, monkeypatch):
        forced_unstable(monkeypatch)
        with pytest.raises(StabilityError, match="unstable.*at parameter point"):
            full_report(default_params())

    def test_large_squeezing_is_finite_or_refused(self):
        # at r = 10 a one-vs-two negativity came out infinite; whether it does
        # depends on the rounding of the BLAS in use, so either outcome passes,
        # but numpy must not warn on the way to the refusal
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                flat = full_report(default_params().replace(r=10.0)).as_dict()
        except CavmagError as exc:
            assert "at parameter point" in str(exc)
        else:
            assert all(np.isfinite(flat[c]) for c in measures.REPORT_COLUMNS)

    def test_errors_carry_parameter_context(self, monkeypatch):
        def boom(m, d):
            raise StabilityError("synthetic failure")

        monkeypatch.setattr(measures.steady_state, "solve_lyapunov", boom)
        with pytest.raises(StabilityError, match="at parameter point"):
            full_report(default_params())

    def test_as_dict_round_trip_of_columns(self):
        flat = full_report(default_params()).as_dict()
        assert list(flat) == [*measures.REPORT_COLUMNS, "stable"]
        assert flat["e_n_mc_max"] == max(flat["e_n_mc1"], flat["e_n_mc2"])

    def test_views_read_their_columns_at_golden_points(self):
        with open(GOLDEN_REPORT, encoding="utf-8") as handle:
            points = json.load(handle)["points"]
        for entry in points:
            if entry.get("forced_unstable"):
                continue
            rep = full_report(PhysicalParams(**entry["params"]))
            flat = rep.as_dict()
            for view, columns in VIEW_COLUMNS.items():
                grouped = getattr(rep, view)
                assert list(grouped) == list(columns), view
                for key, column in columns.items():
                    assert grouped[key] == flat[column], (entry["label"], view, key)
            assert rep.r_tau_min == flat["r_tau_min"]
            assert rep.nu_min == flat["nu_min"]
            assert rep.stability.max_real_part == flat["lambda_max"]


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
            for key, a, b in measures._PAIRS:
                expected = log_negativity(reduce(v, [a, b]))
                assert abs(rep.e_n[key] - expected) <= 1e-12
            for mode in Mode:
                expected = log_negativity_one_vs_two(v, mode)
                assert abs(rep.e_n_one_vs_two[mode.label] - expected) <= 1e-12
                expected = residual_contangle(v, mode)
                assert abs(rep.residuals[mode.label] - expected) <= 1e-12
            assert abs(rep.r_tau_min - min_residual_contangle(v)) <= 1e-12
            for key, a, b in measures._STEERING_DIRECTIONS:
                assert abs(rep.steering[key] - gaussian_steering(v, a, b)) <= 1e-12
            for key, a, b in measures._PAIRS:
                assert abs(rep.asymmetry[key] - steering_asymmetry(v, a, b)) <= 1e-12
            assert abs(rep.nu_min - symplectic_eigenvalues(v)[0]) <= 1e-12

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
            measures.steady_state, "solve_lyapunov", lambda m, d: 0.4 * np.eye(6)
        )
        with pytest.raises(PhysicalityError, match="Heisenberg.*at parameter point"):
            full_report(default_params())


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


DETUNING = st.floats(-10.0, 10.0)


class TestStressDomain:
    """full_report over a wide box of valid inputs; rates and detunings in kappa_c."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
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
    def test_solves_finite_and_physical(self, r, temperature, **rates):
        p = default_params().replace(
            r=r, temperature=temperature, **{k: x * KAPPA_C for k, x in rates.items()}
        )
        flat = full_report(p).as_dict()
        assert all(math.isfinite(flat[c]) for c in measures.REPORT_COLUMNS)
        assert flat["nu_min"] >= 0.5 - 1e-9
        # passivity, Re lambda <= -min kappa, up to the eigen-solver's rounding:
        # where it is tight (equal rates, no detuning) the computed spectrum
        # sits a few eps ||M|| to the right of -min kappa
        slack = 1e-12 * np.abs(drift_matrix(p)).sum(axis=1).max()
        assert flat["lambda_max"] <= -min(p.kappa_m, p.kappa_1, p.kappa_2) + slack
