import ast
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from cavmag import numerics, steady_state
from cavmag.errors import DimensionError, DomainError, StabilityError
from cavmag.measures import full_report, symplectic_eigenvalues
from cavmag.model import default_params, diffusion_matrix, drift_matrix
from cavmag.steady_state import LYAPUNOV_RESIDUAL_RTOL, solve_lyapunov, stability
from conftest import KAPPA_C, random_params, swapped
from oracles import integrate_lyapunov_ode, lyapunov_mp
from test_measures import report_bits
from test_model import SWAP


def ode_reference(p, t_end_factor=12.0):
    """Steady state via the fixed-step integrator, step chosen from ||M||."""
    m = drift_matrix(p)
    d = diffusion_matrix(p)
    dt = 0.09 / np.linalg.norm(m, 2)
    t_end = t_end_factor / min(p.kappa_1, p.kappa_2, p.kappa_m)
    return integrate_lyapunov_ode(m, d, t_end, dt)


class TestSolveLyapunov:
    def test_pure_decay_vacuum_fixed_point(self):
        kappa = 3.0e6
        v, _ = solve_lyapunov(-kappa * np.eye(6), kappa * np.eye(6))
        assert np.allclose(v, 0.5 * np.eye(6), atol=1e-12)

    def test_decoupled_analytic_solution(self):
        # with no coupling and no detuning every entry is D_ij / (k_i + k_j)
        p = default_params().replace(
            gamma_1=0.0, gamma_2=0.0, kappa_2=1.7 * KAPPA_C, temperature=0.1
        )
        m = drift_matrix(p)
        d = diffusion_matrix(p)
        rates = np.array([p.kappa_m, p.kappa_m, p.kappa_1, p.kappa_1,
                          p.kappa_2, p.kappa_2])
        expected = d / np.add.outer(rates, rates)
        v, _ = solve_lyapunov(m, d)
        assert np.allclose(v, expected, rtol=1e-12, atol=1e-14)
        v_ode = ode_reference(p)
        assert np.abs(v - v_ode).max() <= 1e-8

    def test_reference_point_matches_ode_oracle(self):
        p = default_params()
        m = drift_matrix(p)
        d = diffusion_matrix(p)
        v, _ = solve_lyapunov(m, d)
        dt = 0.09 / np.linalg.norm(m, 2)
        v_ode = integrate_lyapunov_ode(m, d, t_end=40.0 / p.kappa_m, dt=dt)
        assert np.abs(v - v_ode).max() <= 1e-8

    def test_random_configurations_match_ode_oracle(self, rng):
        for _ in range(10):
            p = random_params(rng)
            v, _ = solve_lyapunov(drift_matrix(p), diffusion_matrix(p))
            assert np.abs(v - ode_reference(p)).max() <= 1e-8

    def test_residual_bound(self, rng):
        for _ in range(20):
            p = random_params(rng, stiff=True)
            m = drift_matrix(p)
            d = diffusion_matrix(p)
            v, _ = solve_lyapunov(m, d)
            residual = np.linalg.norm(m @ v + v @ m.T + d, np.inf)
            assert residual <= LYAPUNOV_RESIDUAL_RTOL * np.linalg.norm(d, np.inf)

    def test_result_exactly_symmetric(self, rng):
        p = random_params(rng)
        v, _ = solve_lyapunov(drift_matrix(p), diffusion_matrix(p))
        assert np.array_equal(v, v.T)

    def test_physicality_of_steady_state(self, rng):
        for _ in range(30):
            p = random_params(rng, stiff=True)
            v, _ = solve_lyapunov(drift_matrix(p), diffusion_matrix(p))
            assert symplectic_eigenvalues(v).min() >= 0.5 - 1e-9

    def test_label_swap_conjugation(self, rng):
        for _ in range(10):
            p = random_params(rng)
            v, _ = solve_lyapunov(drift_matrix(p), diffusion_matrix(p))
            v_swapped, _ = solve_lyapunov(
                drift_matrix(swapped(p)), diffusion_matrix(swapped(p))
            )
            assert np.abs(SWAP @ v @ SWAP.T - v_swapped).max() <= 1e-10

    def test_returns_the_drift_stability_report(self, rng):
        for _ in range(5):
            m = drift_matrix(random_params(rng))
            _, report = solve_lyapunov(m, -m - m.T)
            expected = stability(m)
            assert report.stable and report.max_real_part == expected.max_real_part
            assert np.array_equal(report.spectrum, expected.spectrum)

    @pytest.mark.parametrize("d, error, message", [
        (np.eye(4), DimensionError, r"d has shape \(4, 4\), expected \(6, 6\)"),
        (np.ones(36), DimensionError, r"d has shape \(36,\), expected \(6, 6\)"),
        (np.diag([1.0, 1.0, np.nan, 1.0, 1.0, 1.0]), DomainError, "d contains non-finite"),
        (np.full((6, 6), np.inf), DomainError, "d contains non-finite"),
    ], ids=["4x4", "vector", "nan", "inf"])
    def test_bad_diffusion_is_refused_before_the_solve(self, monkeypatch, d, error, message):
        def refuse(*args):
            raise AssertionError("the 36x36 solve was reached")

        monkeypatch.setattr(numerics, "solve", refuse)
        m = drift_matrix(default_params())
        # the fake sits on the solve's path: a valid d reaches it
        with pytest.raises(AssertionError, match="the 36x36 solve was reached"):
            solve_lyapunov(m, -m - m.T)
        with pytest.raises(error, match=message):
            solve_lyapunov(m, d)

    def test_operator_is_the_accumulated_kronecker_sum(self, rng):
        # the two gathers give, entry for entry and signed zeros included,
        # what a zeroed 4-D array with two accumulating writes holds
        for n in (1, 2, 3, 6):
            for _ in range(10):
                m = rng.normal(size=(n, n))
                m[rng.random((n, n)) < 0.3] = 0.0
                m[rng.random((n, n)) < 0.3] = -0.0
                expected = np.zeros((n, n, n, n))
                diag = np.arange(n)
                expected[diag, :, diag, :] = m
                expected[:, diag, :, diag] += m
                expected = expected.reshape(n * n, n * n)
                got = steady_state._kron_sum(m)
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("n", [2, 4])
    def test_other_sizes_solve(self, rng, n):
        # every size takes the one path, with its index tables built once
        a = rng.normal(size=(n, n))
        m = a - a.T - 2.0 * np.eye(n)
        b = rng.normal(size=(n, n))
        d = b @ b.T
        v, _ = solve_lyapunov(m, d)
        expected = scipy.linalg.solve_continuous_lyapunov(m, -d)
        assert np.abs(v - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_refuses_unstable_drift(self):
        with pytest.raises(StabilityError):
            solve_lyapunov(np.eye(6), np.eye(6))

    @pytest.mark.parametrize("point", [
        "default", "r = 3, T = 2 K", "sideband, T = 0.5 K", "stiff corner",
    ])
    def test_matches_50_digit_oracle(self, point):
        p = default_params()
        kc = p.kappa_c
        p = {
            "default": p,
            "r = 3, T = 2 K": p.replace(r=3.0, temperature=2.0),
            "sideband, T = 0.5 K": p.replace(
                delta_m=2 * kc, delta_1=-2 * kc, delta_2=2 * kc, temperature=0.5
            ),
            "stiff corner": p.replace(
                kappa_m=1e-3 * kc, gamma_1=30 * kc, gamma_2=0.01 * kc, kappa_2=1e3 * kc
            ),
        }[point]
        m = drift_matrix(p)
        d = diffusion_matrix(p)
        v_mp = lyapunov_mp(m, d)
        assert np.abs(solve_lyapunov(m, d)[0] - v_mp).max() <= 1e-14 * np.abs(v_mp).max()


class TestDriftMemo:
    """solve_lyapunov keeps nothing between calls: each call solves its drift."""

    def test_a_drift_after_another_gives_its_cold_bits(self):
        # A, B, A: the second A report is the first one's, to the last bit
        base = default_params()
        a, b = base, base.replace(delta_1=KAPPA_C, r=0.7)
        cold = report_bits(full_report(a))
        assert report_bits(full_report(b)) != cold
        assert report_bits(full_report(a)) == cold

    def test_only_the_kron_sum_tables_are_cached(self):
        # a cache is state kept between calls; the operator's index tables
        # depend on n alone, so they are the one cache in the package
        cached = []
        for path in sorted(Path(steady_state.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                for decorator in getattr(node, "decorator_list", []):
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = getattr(target, "attr", getattr(target, "id", None))
                    if name in ("cache", "lru_cache"):
                        cached.append(f"{path.name}:{node.name}")
        assert cached == ["steady_state.py:_kron_sum_tables"]

    def test_unstable_drift_is_refused_every_call_and_not_kept(self):
        p = default_params()
        m, d = drift_matrix(p), diffusion_matrix(p)
        v, _ = solve_lyapunov(m, d)
        messages = []
        for _ in range(2):
            with pytest.raises(StabilityError) as err:
                solve_lyapunov(np.eye(6), np.eye(6))
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            "drift matrix is unstable (max Re lambda = 1.000000e+00)"
        )
        # the refusals left nothing behind
        assert np.array_equal(solve_lyapunov(m, d)[0], v)

    def test_same_bytes_in_another_shape_miss(self):
        p = default_params()
        m = drift_matrix(p)
        solve_lyapunov(m, diffusion_matrix(p))
        with pytest.raises(DimensionError, match=r"must be square, got shape \(4, 9\)"):
            solve_lyapunov(m.reshape(4, 9), np.eye(6).reshape(4, 9))

    def test_empty_drift_is_refused(self):
        # both once ended in numpy's bare "zero-size array to reduction
        # operation maximum which has no identity"
        empty = np.zeros((0, 0))
        with pytest.raises(DimensionError, match=r"^matrix must not be empty, got shape \(0, 0\)$"):
            stability(empty)
        with pytest.raises(DimensionError, match=r"^matrix must not be empty, got shape \(0, 0\)$"):
            solve_lyapunov(empty, empty)

    def test_threads_get_cold_results(self):
        # six threads on two cores, each cycling through three drifts and
        # three diffusions with a short switch interval: state shared
        # between calls that mixed up drifts would change V or the spectrum
        base = default_params()
        points = [base.replace(delta_1=k * KAPPA_C, r=r)
                  for k in (0.5, 1.0, 1.5) for r in (0.2, 0.5, 0.8)]
        problems = [(drift_matrix(p), diffusion_matrix(p)) for p in points]
        expected = []
        for m, d in problems:
            v, report = solve_lyapunov(m, d)
            expected.append((v, report.spectrum))
        failures = []

        def work(offset):
            for step in range(150):
                k = (offset + step * (1 + offset % 2)) % len(problems)
                v, report = solve_lyapunov(*problems[k])
                if not (np.array_equal(v, expected[k][0])
                        and np.array_equal(report.spectrum, expected[k][1])):
                    failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_shared_arrays_refuse_writes(self):
        # the points of a drift group share its stability report
        base = default_params()
        reports = full_report([base, base.replace(r=0.7)])
        assert reports[0].stability is reports[1].stability
        with pytest.raises(ValueError, match="read-only"):
            reports[0].stability.spectrum[0] = 0.0

    def test_layout_of_the_drift_does_not_matter(self):
        # a Fortran-ordered copy and a strided view of the same values give
        # the V and spectrum of the C-ordered drift, signed zeros included
        p = default_params()
        m, d = drift_matrix(p), diffusion_matrix(p)
        holder = np.zeros((12, 12))
        holder[::2, ::2] = m
        layouts = {"Fortran": np.asfortranarray(m), "strided": holder[::2, ::2]}
        assert not layouts["Fortran"].flags.c_contiguous
        assert not layouts["strided"].flags.c_contiguous
        assert not layouts["strided"].flags.f_contiguous
        v_ref, report_ref = solve_lyapunov(m, d)
        spectrum_ref = report_ref.spectrum
        for layout in layouts.values():
            v, report = solve_lyapunov(layout, d)
            assert np.array_equal(v, v_ref)
            assert np.array_equal(np.signbit(v), np.signbit(v_ref))
            assert np.array_equal(report.spectrum, spectrum_ref)
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(report.spectrum, part)),
                                      np.signbit(getattr(spectrum_ref, part)))


class TestStability:
    def test_reference_point_is_stable(self):
        report = stability(drift_matrix(default_params()))
        assert report.stable
        assert report.max_real_part < 0.0
        assert len(report.spectrum) == 6

    def test_stable_over_wide_detuning_window(self):
        p0 = default_params()
        for d1 in np.linspace(-10.0, 10.0, 9):
            for d2 in np.linspace(-10.0, 10.0, 9):
                p = p0.replace(delta_1=d1 * KAPPA_C, delta_2=d2 * KAPPA_C)
                assert stability(drift_matrix(p)).stable

    def test_decoupled_spectrum(self):
        p = default_params().replace(
            gamma_1=0.0, gamma_2=0.0,
            delta_1=1.0 * KAPPA_C, delta_2=-2.0 * KAPPA_C, delta_m=0.5 * KAPPA_C,
        )
        spectrum = np.sort_complex(stability(drift_matrix(p)).spectrum)
        expected = np.sort_complex(np.array([
            -p.kappa_m + 1j * p.delta_m, -p.kappa_m - 1j * p.delta_m,
            -p.kappa_1 + 1j * p.delta_1, -p.kappa_1 - 1j * p.delta_1,
            -p.kappa_2 + 1j * p.delta_2, -p.kappa_2 - 1j * p.delta_2,
        ]))
        assert np.allclose(spectrum, expected, rtol=1e-10, atol=1e-3)

    def test_passivity_bound(self, rng):
        # damped beam-splitter dynamics: spectrum confined left of -min(kappa)
        for _ in range(200):
            p = random_params(rng, stiff=True)
            report = stability(drift_matrix(p))
            bound = -min(p.kappa_m, p.kappa_1, p.kappa_2)
            assert report.max_real_part <= bound + 1e-9
            assert report.stable
