import ast
import math
import os

import numpy as np
import pytest

import cavmag
from cavmag import measures
from cavmag.errors import DimensionError, DomainError, StabilityError
from oracles import StepSizeError, columns_mp, integrate_lyapunov_ode
from test_measures import tmsv

ORACLES = os.path.join(os.path.dirname(__file__), "oracles.py")

# What `import cavmag` exports: the production API and nothing else.
PRODUCTION_API = [
    "AxisSpec", "CavmagError", "ConfigError", "CorrelationReport", "DimensionError",
    "DomainError", "FIGURE_IDS", "NumericalError", "PhysicalParams",
    "PhysicalityError", "REPORT_COLUMNS", "SingularMatrixError", "StabilityError",
    "StabilityReport", "SweepResult", "SweepSpec", "ValidationError", "__version__",
    "default_params", "diffusion_matrix", "drift_matrix", "figure_preset", "full_report",
    "noise_moments", "read_json", "run_sweep", "solve_lyapunov", "stability",
    "thermal_occupation", "with_resolution", "write_csv", "write_json",
]


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


class TestColumnsMp:
    @pytest.mark.parametrize("s", [0.0, 0.1, 0.7])
    def test_two_mode_squeezed_vacuum_on_the_cavities(self, s):
        # E_N = 2s across c1c2 and across each cavity against the rest, and
        # each cavity steers the other by ln cosh 2s; the magnon is vacuum
        v = 0.5 * np.eye(6)
        v[2:, 2:] = tmsv(s)
        columns = columns_mp(v)
        expected = dict.fromkeys(columns, 0.0)
        expected.update(
            e_n_c1c2=2 * s, e_n_c1_vs_mc2=2 * s, e_n_c2_vs_mc1=2 * s,
            zeta_c1_c2=math.log(math.cosh(2 * s)), zeta_c2_c1=math.log(math.cosh(2 * s)),
            nu_min=0.5,
        )
        for column, value in expected.items():
            assert abs(columns[column] - value) <= 1e-14, column

    @pytest.mark.parametrize("a, c", [(1.25, 0.2), (1.25, 0.7), (1.5, 0.7), (2.5, 0.4)])
    def test_separable_pair_on_a_zero_discriminant(self, a, c):
        # vacuum magnon, cavities [[a I, c I], [c I, a I]]: Dt^2 - 4 det sigma
        # of the c1c2 pair is 0 exactly, and rounded below 0 at 50 digits,
        # where the oracle's square root once gave a complex number
        v = 0.5 * np.eye(6)
        v[2:, 2:] = np.kron(np.array([[a, c], [c, a]]), np.eye(2))
        columns = columns_mp(v)
        row = dict(zip(measures.REPORT_COLUMNS, measures._measures(v[None])[0]))
        assert list(columns) == list(measures.REPORT_COLUMNS[:-1])
        for column, value in columns.items():
            assert abs(row[column] - value) <= 1e-12, column


class TestPackageBoundary:
    def test_top_level_exports_only_the_production_api(self):
        assert sorted(cavmag.__all__) == PRODUCTION_API
        for name in cavmag.__all__:
            getattr(cavmag, name)

    def test_oracles_import_nothing_of_cavmag_but_its_errors(self):
        with open(ORACLES, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert [name for name in imported if name.split(".")[0] in ("", "cavmag")] == [
            "cavmag.errors"
        ]
