import numpy as np
import pytest

from cavmag.errors import DimensionError, DomainError, SingularMatrixError
from cavmag.numerics import eig_general, solve_linear
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
