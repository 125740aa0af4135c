import ast
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from cavmag import numerics
from cavmag.errors import DimensionError, DomainError, SingularMatrixError
from cavmag.model import default_params, drift_matrix
from cavmag.numerics import eig_general, solve_linear
from conftest import LINALG_SOLVERS, run_python


def same_array(got, expected) -> bool:
    """Same shape, dtype and bytes: every value, signed zeros included."""
    return (
        got.shape == expected.shape
        and got.dtype == expected.dtype
        and got.tobytes() == expected.tobytes()
    )


def with_zeros(rng, a):
    """a with about a fifth of its entries set to +0.0 and a fifth to -0.0."""
    a = a.copy()
    a[rng.random(a.shape) < 0.2] = 0.0
    a[rng.random(a.shape) < 0.2] = -0.0
    return a


class TestLapackEntryPoints:
    """numerics' LAPACK calls against the np.linalg functions they replace."""

    def test_solve_matches_numpy(self, rng):
        for _ in range(20):
            a = with_zeros(rng, rng.normal(size=(5, 6, 6))) + 6.0 * np.eye(6)
            b = with_zeros(rng, rng.normal(size=(5, 6, 3)))
            assert same_array(numerics.solve(a, b), np.linalg.solve(a, b))
        # the Lyapunov solve's shape: one operator against k right-hand sides
        for k in (1, 2, 9):
            a = with_zeros(rng, rng.normal(size=(36, 36))) + 36.0 * np.eye(36)
            b = with_zeros(rng, rng.normal(size=(k, 36, 1)))
            b[0, :, 0] = -0.0  # a zero solution, whose signs LAPACK sets
            assert same_array(numerics.solve(a, b), np.linalg.solve(a, b))

    def test_eigvals_matches_numpy(self, rng):
        for shape in ((6, 6), (7, 6, 6), (5, 4, 6, 6)):
            for _ in range(10):
                a = with_zeros(rng, rng.normal(size=shape))
                expected = np.linalg.eigvals(a)
                assert expected.dtype == np.complex128
                assert same_array(numerics.eigvals(a), expected)
        # an all-real spectrum stays complex here, with zero imaginary parts;
        # np.linalg.eigvals returns its real parts
        a = np.diag([-1.0, -0.0, 0.0, 2.0])
        got = numerics.eigvals(a)
        assert got.dtype == np.complex128 and not got.imag.any()
        assert same_array(np.ascontiguousarray(got.real), np.linalg.eigvals(a))

    def test_eigvalsh_matches_numpy(self, rng):
        for shape in ((6, 6), (9, 6, 6), (3, 2, 4, 4)):
            for _ in range(10):
                a = with_zeros(rng, rng.normal(size=shape))
                a = a + np.swapaxes(a, -1, -2)
                a[..., 0, :] = -0.0  # a zero eigenvalue, and an upper triangle
                a[..., :, 0] = 0.0   # that differs from the lower one in sign
                assert same_array(numerics.eigvalsh(a), np.linalg.eigvalsh(a))

    def test_det_matches_numpy(self, rng):
        for shape in ((4, 4), (8, 3, 4, 4)):
            for _ in range(10):
                a = with_zeros(rng, rng.normal(size=shape))
                a[..., 1, :] = -0.0  # singular: a zero determinant, signed
                assert same_array(numerics.det(a), np.linalg.det(a))
                b = rng.normal(size=shape)
                assert same_array(numerics.det(b), np.linalg.det(b))

    def test_singular_solve_raises_singular_matrix_error(self):
        # LAPACK's exactly singular factor, where np.linalg.solve raises LinAlgError
        for a in (np.zeros((3, 3)), np.ones((36, 36))):
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                np.linalg.solve(a, np.ones((2, len(a), 1)))
            with pytest.raises(SingularMatrixError, match="^Singular matrix$"):
                numerics.solve(a, np.ones((2, len(a), 1)))

    def test_numpy_gufuncs_exist_with_their_double_loops(self):
        # the private numpy module the entry points call: a numpy that renames
        # a gufunc or drops its float64 loop fails here, by name
        for name, types, signature in [
            ("solve", "dd->d", "(m,m),(m,n)->(m,n)"),
            ("eigvals", "d->D", "(m,m)->(m)"),
            ("eigvalsh_lo", "d->d", "(m,m)->(m)"),
            ("det", "d->d", "(m,m)->()"),
        ]:
            gufunc = getattr(_umath_linalg, name, None)
            assert isinstance(gufunc, np.ufunc), name
            assert types in gufunc.types, (name, gufunc.types)
            assert gufunc.signature == signature, (name, gufunc.signature)

    def test_lapack_is_called_only_from_numerics_and_the_reference_routines(self):
        # the production path calls LAPACK through numerics alone; np.linalg's
        # solvers stay in the reference routines that tests check the
        # production columns against
        class Finder(ast.NodeVisitor):
            def __init__(self, module):
                self.module, self.scope, self.found = module, ["<module>"], set()

            def visit_FunctionDef(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            def visit_Attribute(self, node):
                linalg = isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                if (linalg and node.attr in LINALG_SOLVERS) or node.attr == "_umath_linalg":
                    self.found.add((self.module, self.scope[-1], node.attr))
                self.generic_visit(node)

            def visit_ImportFrom(self, node):
                if node.module and "linalg" in node.module or any(
                    "linalg" in alias.name for alias in node.names
                ):
                    self.found.add((self.module, self.scope[-1], f"from {node.module}"))

            def visit_Import(self, node):
                for alias in node.names:
                    if "linalg" in alias.name:
                        self.found.add((self.module, self.scope[-1], f"import {alias.name}"))

        found, naming = set(), set()
        for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            finder = Finder(path.name)
            finder.visit(ast.parse(source))
            found |= finder.found
            if "LinAlgError" in source:
                naming.add(path.name)
        assert {f for f in found if f[0] != "numerics.py"} == {
            ("measures.py", "symplectic_eigenvalues", "eigvals"),
            ("measures.py", "gaussian_steering", "det"),
        }
        assert ("numerics.py", "<module>", "from numpy.linalg") in found
        # numerics alone decides what a LAPACK failure becomes
        assert naming <= {"numerics.py"}, naming


class TestEigGeneral:
    def test_matches_numpy_bit_for_bit(self, rng):
        # numpy's rule: complex when any imaginary part is nonzero, else
        # the real parts as a float array; cavmag point prints either
        for _ in range(20):
            a = with_zeros(rng, rng.normal(size=(6, 6)))
            assert same_array(eig_general(a), np.linalg.eigvals(a))

    def test_real_spectrum_is_a_real_array(self):
        # no coupling and no detuning: a diagonal drift, all eigenvalues real
        m = drift_matrix(default_params().replace(gamma_1=0.0, gamma_2=0.0))
        ev = eig_general(m)
        expected = np.linalg.eigvals(m)
        assert ev.dtype == expected.dtype == np.float64
        assert same_array(ev, expected) and ev.strides == expected.strides
        assert eig_general(drift_matrix(default_params())).dtype == np.complex128


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

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 3)])
    def test_rejects_other_than_2d(self, shape):
        message = re.escape(f"matrix must be 2-D, got shape {shape}")
        with pytest.raises(DimensionError, match=message):
            eig_general(np.zeros(shape))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            eig_general([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_empty(self):
        # numpy's max over the empty spectrum once raised a bare ValueError
        with pytest.raises(DimensionError, match=r"^matrix must not be empty, got shape \(0, 0\)$"):
            eig_general(np.zeros((0, 0)))


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

    def test_rejects_empty(self):
        with pytest.raises(DimensionError, match="must not be empty"):
            solve_linear(np.zeros((0, 0)), np.zeros(0))

    def test_rejects_non_finite_rhs(self):
        with pytest.raises(DomainError, match="^rhs contains non-finite entries$"):
            solve_linear(np.eye(3), [1.0, np.nan, 0.0])

    def test_importing_the_package_leaves_scipy_unloaded(self):
        # scipy.linalg is imported by solve_linear alone, which no production
        # path calls; loaded eagerly it was most of `import cavmag`
        proc = run_python("-c", "import sys, cavmag; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
