import numpy as np
import pytest

from cavmag.errors import (
    DimensionError,
    DomainError,
    SingularMatrixError,
    StabilityError,
    StepSizeError,
)
from cavmag.numerics import eig_general, integrate_lyapunov_ode, solve_linear
from conftest import run_python


class TestEigGeneral:
    def test_diagonal_matrix(self):
        ev = eig_general(np.diag([-1.0, -2.0, -3.0]))
        assert np.allclose(sorted(ev.real), [-3.0, -2.0, -1.0], atol=1e-12)
        assert np.allclose(ev.imag, 0.0, atol=1e-12)

    def test_rotation_generator(self):
        ev = eig_general([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(sorted(ev.imag), [-1.0, 1.0], atol=1e-12)
        assert np.allclose(ev.real, 0.0, atol=1e-12)

    def test_matches_companion_matrix_roots(self, rng):
        # independent oracle: roots of the characteristic polynomial via the
        # companion matrix (np.roots)
        for _ in range(20):
            a = rng.normal(size=(6, 6))
            ev = np.sort_complex(eig_general(a))
            oracle = np.sort_complex(np.roots(np.poly(a)))
            assert np.allclose(ev, oracle, atol=1e-8 * np.linalg.norm(a))

    def test_conjugate_pairs(self, rng):
        for _ in range(50):
            a = rng.normal(size=(6, 6))
            ev = eig_general(a)
            for lam in ev:
                dist = np.min(np.abs(ev - lam.conjugate()))
                assert dist <= 1e-9 * max(1.0, np.abs(lam))

    def test_trace_and_determinant_identities(self, rng):
        for _ in range(20):
            a = rng.normal(size=(6, 6)) + 3.0 * np.eye(6)
            ev = eig_general(a)
            assert abs(ev.sum().real - np.trace(a)) <= 1e-8 * np.linalg.norm(a)
            assert abs(ev.sum().imag) <= 1e-8 * np.linalg.norm(a)
            det = np.linalg.det(a)
            assert abs(np.prod(ev).real - det) <= 1e-6 * abs(det)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            eig_general(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            eig_general([[np.nan, 0.0], [0.0, 1.0]])


class TestSolveLinear:
    def test_identity(self, rng):
        b = rng.normal(size=5)
        assert np.array_equal(solve_linear(np.eye(5), b), b)

    def test_diagonal_scaling(self):
        x = solve_linear(np.diag([2.0, 4.0]), [2.0, 8.0])
        assert np.allclose(x, [1.0, 2.0], atol=1e-14)

    def test_residual_bound_on_random_system(self, rng):
        for _ in range(10):
            a = rng.normal(size=(36, 36)) + 36.0 * np.eye(36)
            b = rng.normal(size=36)
            x = solve_linear(a, b)
            residual = np.linalg.norm(a @ x - b, np.inf)
            assert residual <= 1e-10 * max(1.0, np.linalg.norm(b, np.inf))

    def test_singular_matrix_raises(self):
        a = np.ones((3, 3))
        with pytest.raises(SingularMatrixError):
            solve_linear(a, np.ones(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_linear(np.eye(3), np.ones(4))

    def test_importing_the_package_leaves_scipy_unloaded(self):
        # scipy.linalg is imported by solve_linear alone, which no production
        # path calls; loaded eagerly it was most of `import cavmag`
        proc = run_python("-c", "import sys, cavmag; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestIntegrateLyapunovOde:
    def test_pure_decay_reaches_vacuum(self):
        kappa = 2.0
        m = -kappa * np.eye(6)
        d = kappa * np.eye(6)
        v = integrate_lyapunov_ode(m, d, t_end=20.0 / kappa, dt=0.01)
        assert np.allclose(v, 0.5 * np.eye(6), atol=1e-10)

    def test_zero_source_stays_zero(self):
        m = -np.eye(4)
        v = integrate_lyapunov_ode(m, np.zeros((4, 4)), t_end=5.0, dt=0.01)
        assert np.array_equal(v, np.zeros((4, 4)))

    def test_monotone_convergence_in_time(self, rng):
        a = rng.normal(size=(4, 4))
        m = a - (np.abs(np.linalg.eigvals(a).real).max() + 1.0) * np.eye(4)
        c = rng.normal(size=(4, 4))
        d = c @ c.T
        # reference: very long integration of the same contraction
        ref = integrate_lyapunov_ode(m, d, t_end=60.0, dt=0.005)
        errs = [
            np.linalg.norm(integrate_lyapunov_ode(m, d, t_end=t, dt=0.005) - ref)
            for t in (2.0, 4.0, 8.0, 16.0)
        ]
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))

    def test_result_is_symmetric(self, rng):
        a = rng.normal(size=(6, 6))
        m = a - (np.abs(np.linalg.eigvals(a).real).max() + 1.0) * np.eye(6)
        c = rng.normal(size=(6, 6))
        d = c @ c.T
        v = integrate_lyapunov_ode(m, d, t_end=10.0, dt=0.005)
        assert np.abs(v - v.T).max() <= 1e-10

    def test_refuses_unstable_drift(self):
        with pytest.raises(StabilityError):
            integrate_lyapunov_ode(np.eye(2), np.eye(2), t_end=1.0, dt=0.001)

    def test_refuses_large_step(self):
        m = -10.0 * np.eye(2)
        with pytest.raises(StepSizeError):
            integrate_lyapunov_ode(m, np.eye(2), t_end=1.0, dt=0.02)

    def test_rejects_bad_inputs(self):
        m = -np.eye(2)
        with pytest.raises(DomainError):
            integrate_lyapunov_ode(m, np.eye(2), t_end=1.0, dt=-0.1)
        with pytest.raises(DomainError):
            integrate_lyapunov_ode(m, np.array([[0.0, 1.0], [0.0, 0.0]]), t_end=1.0, dt=0.01)
        with pytest.raises(DomainError):
            integrate_lyapunov_ode(m, np.eye(2), t_end=0.0, dt=0.01)
        with pytest.raises(DimensionError):
            integrate_lyapunov_ode(m, np.eye(3), t_end=1.0, dt=0.01)
