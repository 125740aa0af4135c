import ast
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import cavmag.model as model
from cavmag.errors import DomainError
from cavmag.measures import full_report, symplectic_form
from cavmag.model import (
    TWO_PI,
    PhysicalParams,
    default_params,
    diffusion_matrix,
    drift_matrix,
    noise_moments,
    thermal_occupation,
)
from conftest import KAPPA_C, random_params, swapped

# mode-swap permutation exchanging the two cavity quadrature pairs
SWAP = np.zeros((6, 6))
SWAP[0, 0] = SWAP[1, 1] = 1.0
SWAP[2, 4] = SWAP[3, 5] = 1.0
SWAP[4, 2] = SWAP[5, 3] = 1.0


class TestNoiseMoments:
    def test_no_squeezing(self):
        assert noise_moments(0.0, TWO_PI * 1e10, 0.0) == (0.0, 0.0, 0.0)

    def test_frozen_reference_values(self):
        # high-precision sinh/cosh evaluation (40-digit arithmetic)
        big_n, big_m, _ = noise_moments(0.4, TWO_PI * 1e10, 0.0)
        assert big_n == pytest.approx(0.168717473152422299, rel=1e-14)
        assert big_m == pytest.approx(0.44405299109381150329, rel=1e-14)
        big_n, big_m, _ = noise_moments(1.2, TWO_PI * 1e10, 0.0)
        assert big_n == pytest.approx(2.2784735834827535389, rel=1e-14)
        assert big_m == pytest.approx(2.7331146068380472872, rel=1e-14)

    @pytest.mark.parametrize("r", [400.0, 710.47, 710.48, 1000.0])
    def test_moments_beyond_the_float_range_are_infinite(self, r):
        # sinh(r)^2 overflows from r = 355 and math.sinh itself from 710.48;
        # either way the moments are inf, which diffusion_matrix passes on
        assert noise_moments(r, TWO_PI * 1e10, 0.0)[:2] == (math.inf, math.inf)

    @pytest.mark.parametrize("omega, temperature", [(1e-300, 0.02), (1.0, math.inf)])
    def test_occupation_beyond_the_float_range_is_infinite(self, omega, temperature):
        # hbar w / k_B T rounds to 0, where 1/expm1 once raised a bare
        # ZeroDivisionError; the occupation is inf, as the moments above
        assert thermal_occupation(omega, temperature) == math.inf
        assert noise_moments(0.4, omega, temperature)[2] == math.inf
        assert thermal_occupation(omega, 0.0) == 0.0

    def test_thermal_occupation_reference_value(self):
        # Bose factor at 10 GHz and 20 mK with CODATA hbar and k_B
        n_m = thermal_occupation(TWO_PI * 1e10, 0.02)
        assert n_m == pytest.approx(3.7894491701641575e-11, rel=1e-12)

    def test_zero_temperature_is_exact(self):
        assert thermal_occupation(TWO_PI * 1e10, 0.0) == 0.0

    def test_extreme_cold_does_not_overflow(self):
        assert thermal_occupation(TWO_PI * 1e10, 1e-9) == 0.0
        # at the smallest normal float k_B T underflows to zero
        assert thermal_occupation(TWO_PI * 1e10, 2.2250738585072014e-308) == 0.0

    @pytest.mark.parametrize("r", np.linspace(0.0, 3.0, 31))
    def test_minimum_uncertainty_bath(self, r):
        big_n, big_m, _ = noise_moments(r, TWO_PI * 1e10, 0.0)
        target = big_n * (big_n + 1.0)
        assert abs(big_m**2 - target) <= 1e-12 * max(1.0, target)

    def test_occupation_monotonic_in_temperature(self):
        omega = TWO_PI * 1e10
        values = [thermal_occupation(omega, t) for t in (0.01, 0.1, 1.0, 10.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_occupation_monotonic_in_frequency(self):
        values = [
            thermal_occupation(TWO_PI * f, 0.1) for f in (1e9, 5e9, 1e10, 5e10)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        # nan fails every comparison, so it once passed all three checks and
        # came back as a nan occupation or nan moments
        cases = [
            (noise_moments, (-0.1, TWO_PI * 1e10, 0.0), "r must be non-negative, got -0.1"),
            (thermal_occupation, (-1.0, 0.1), "omega must be positive, got -1.0"),
            (thermal_occupation, (TWO_PI * 1e10, -0.1), "temperature must be non-negative, got -0.1"),
            (thermal_occupation, (TWO_PI * 1e10, math.nan), "temperature must be non-negative, got nan"),
            (thermal_occupation, (math.nan, 0.02), "omega must be positive, got nan"),
            (noise_moments, (math.nan, TWO_PI * 1e10, 0.02), "r must be non-negative, got nan"),
            (noise_moments, (0.4, math.nan, 0.02), "omega must be positive, got nan"),
            (noise_moments, (0.4, TWO_PI * 1e10, math.nan), "temperature must be non-negative, got nan"),
        ]
        for function, args, message in cases:
            with pytest.raises(DomainError, match=re.escape(message)):
                function(*args)


class TestPhysicalParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            default_params().replace(kappa_1=0.0)
        with pytest.raises(DomainError):
            default_params().replace(kappa_m=-1.0)
        with pytest.raises(DomainError):
            default_params().replace(gamma_1=-1.0)
        with pytest.raises(DomainError):
            default_params().replace(r=-0.1)
        with pytest.raises(DomainError):
            default_params().replace(temperature=-0.01)
        with pytest.raises(DomainError):
            default_params().replace(delta_1=np.inf)
        # a string once failed the sign check as a bare TypeError naming no
        # field, True was taken as 1, and an int or a Fraction beyond the
        # float range raised a bare OverflowError
        for name, value in [("r", "0.4"), ("r", None), ("r", 1 + 1j), ("r", True),
                            ("kappa_1", "5e6"), ("temperature", False),
                            ("r", 10**400), ("kappa_2", -(10**400)),
                            ("gamma_1", Fraction(10**400, 3))]:
            message = f"{name} must be a finite real number, got {value!r}"
            with pytest.raises(DomainError, match=re.escape(message)):
                default_params().replace(**{name: value})

    def test_fields_are_stored_as_floats(self):
        # a Fraction once passed validation and then failed in np.sinh as a
        # bare TypeError
        for value in (Fraction(2, 5), 1, np.float64(0.4), np.int64(2)):
            p = default_params().replace(r=value)
            assert type(p.r) is float and p.r == float(value)
        fraction = full_report(default_params().replace(r=Fraction(2, 5)))
        assert fraction.values == full_report(default_params().replace(r=0.4)).values

    def test_defaults(self):
        p = default_params()
        assert p.kappa_1 == p.kappa_2 == TWO_PI * 5e6
        assert p.kappa_m == TWO_PI * 1e6
        assert p.gamma_1 == p.gamma_2 == 4.0 * p.kappa_c
        assert p.omega_m == TWO_PI * 10e9
        assert p.r == 0.4
        assert p.temperature == 0.02
        assert p.delta_1 == p.delta_2 == p.delta_m == 0.0

    def test_swapped_roundtrip(self, rng):
        p = random_params(rng)
        assert swapped(swapped(p)) == p

    def test_replace_stores_and_refuses_as_the_constructor(self, rng):
        # every field against a table of values: replace, which checks only
        # the fields it changes, stores the constructor's bits or raises its
        # type and message; two changed fields in either keyword order meet
        # the constructor's first refusal
        values = (
            0.4, 7.5e6, 5e-324, 1.7e308, 1, 0, 3, -2, 0.0, -0.0, -1.0, -1e-300,
            Fraction(2, 5), Fraction(-1, 3), np.float64(0.4), np.float64(-0.0), np.float32(0.1),
            np.int64(2), True, False, math.nan, -math.nan, math.inf, -math.inf, "0.4", "",
            None, 1 + 1j, 10**400, -(10**400), Fraction(10**400, 3),
        )

        def outcome(make):
            try:
                p = make()
            except Exception as exc:  # the outcome compared is the exception itself
                return type(exc), str(exc)
            return [(type(x), x.hex()) for x in p.__dict__.values()]

        names = model._FIELD_NAMES
        for base in (default_params(), random_params(rng).replace(delta_1=-0.0)):
            kept = outcome(lambda: base)
            for name, x in itertools.product(names, values):
                expected = outcome(lambda: PhysicalParams(**{**base.__dict__, name: x}))
                assert outcome(lambda: base.replace(**{name: x})) == expected, (name, x)
            for (a, b), x, y in itertools.product(
                itertools.permutations(names, 2), (math.nan, -1.0, 0.0), (math.inf, -2.0, 0.5)
            ):
                expected = outcome(lambda: PhysicalParams(**{**base.__dict__, a: x, b: y}))
                assert outcome(lambda: base.replace(**{a: x, b: y})) == expected, (a, x, b, y)
            for changes in ({"nope": 1.0}, {"r": math.nan, "nope": 1.0}):
                with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
                    base.replace(**changes)
            assert outcome(lambda: base) == kept

    def test_constructor_and_replace_share_one_field_check(self):
        # both go through _check_fields and hold no refusal of their own, so
        # what one accepts or refuses the other cannot drift from
        with open(model.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        [cls] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PhysicalParams"]
        methods = {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}
        for name in ("__post_init__", "replace"):
            nodes = list(ast.walk(methods[name]))
            called = {
                n.func.id for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            }
            assert "_check_fields" in called, name
            assert not any(isinstance(n, ast.Raise) for n in nodes), name
            assert "DomainError" not in {n.id for n in nodes if isinstance(n, ast.Name)}, name


class TestDriftMatrix:
    def test_decoupled_decay_only(self):
        p = default_params().replace(gamma_1=0.0, gamma_2=0.0)
        m = drift_matrix(p)
        expected = -np.diag([p.kappa_m, p.kappa_m, p.kappa_1, p.kappa_1,
                             p.kappa_2, p.kappa_2])
        assert np.array_equal(m, expected)

    def test_trace_at_reference_parameters(self):
        m = drift_matrix(default_params())
        assert np.trace(m) == pytest.approx(-2.0 * TWO_PI * 11e6, rel=1e-14)

    def test_structural_zeros(self, rng):
        # entries with no coupling, detuning or decay stay exactly zero for
        # generic parameters
        p = random_params(rng).replace(
            gamma_1=1.3 * KAPPA_C, gamma_2=0.7 * KAPPA_C,
            delta_1=0.9 * KAPPA_C, delta_2=-1.1 * KAPPA_C, delta_m=1.7 * KAPPA_C,
        )
        m = drift_matrix(p)
        zero_positions = [
            (0, 2), (0, 4), (1, 3), (1, 5),
            (2, 0), (2, 4), (2, 5), (3, 1), (3, 4), (3, 5),
            (4, 0), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3),
        ]
        for i, j in zero_positions:
            assert m[i, j] == 0.0
        assert np.count_nonzero(m) == 36 - len(zero_positions)

    def test_hamiltonian_decomposition(self, rng):
        # removing the diagonal decay leaves J H with H symmetric
        for _ in range(10):
            p = random_params(rng)
            m = drift_matrix(p)
            decay = np.diag([p.kappa_m, p.kappa_m, p.kappa_1, p.kappa_1,
                             p.kappa_2, p.kappa_2])
            h = -symplectic_form(3) @ (m + decay)
            assert np.array_equal(h, h.T)

    def test_label_swap_permutation(self, rng):
        for _ in range(10):
            p = random_params(rng)
            assert np.array_equal(
                SWAP @ drift_matrix(p) @ SWAP.T, drift_matrix(swapped(p))
            )


class TestDiffusionMatrix:
    def test_vacuum_baths(self):
        p = default_params().replace(r=0.0, temperature=0.0)
        d = diffusion_matrix(p)
        expected = np.diag([p.kappa_m, p.kappa_m, p.kappa_1, p.kappa_1,
                            p.kappa_2, p.kappa_2])
        assert np.array_equal(d, expected)

    def test_squeezed_cross_correlations(self):
        p = default_params()
        d = diffusion_matrix(p)
        big_m = 0.44405299109381150329
        cross = 2.0 * big_m * np.sqrt(p.kappa_1 * p.kappa_2)
        assert d[2, 4] == pytest.approx(cross, rel=1e-14)
        assert d[3, 5] == pytest.approx(-cross, rel=1e-14)
        assert d[2, 5] == 0.0 and d[3, 4] == 0.0
        assert np.array_equal(d, d.T)

    def test_positive_semidefinite(self, rng):
        for _ in range(50):
            d = diffusion_matrix(random_params(rng))
            assert np.linalg.eigvalsh(d).min() >= -1e-10 * np.linalg.norm(d, 2)

    def test_bath_state_is_physical(self, rng):
        # the input-noise covariance behind D must satisfy the uncertainty
        # relation sigma + i Omega / 2 >= 0
        for _ in range(20):
            p = random_params(rng)
            big_n, big_m, n_m = noise_moments(p.r, p.omega_m, p.temperature)
            sigma = np.zeros((6, 6))
            sigma[0, 0] = sigma[1, 1] = n_m + 0.5
            sigma[2, 2] = sigma[3, 3] = sigma[4, 4] = sigma[5, 5] = big_n + 0.5
            sigma[2, 4] = sigma[4, 2] = big_m
            sigma[3, 5] = sigma[5, 3] = -big_m
            herm = sigma + 0.5j * symplectic_form(3)
            assert np.linalg.eigvalsh(herm).min() >= -1e-10

    def test_label_swap_permutation(self, rng):
        for _ in range(10):
            p = random_params(rng)
            assert np.array_equal(
                SWAP @ diffusion_matrix(p) @ SWAP.T, diffusion_matrix(swapped(p))
            )

    def test_matches_the_public_noise_moments_bit_for_bit(self, rng):
        # over stress-box draws (rates in kappa_c, log-uniform), the inf
        # moments from r = 355 on and the inf occupation where hbar w
        # underflows, D is the one assembled here from noise_moments,
        # signed zeros included; the tuple is sinh^2, sinh cosh and the
        # occupation also at T = inf, which no PhysicalParams holds
        def reference(p):
            big_n, big_m, n_m = noise_moments(p.r, p.omega_m, p.temperature)
            d = np.zeros((6, 6))
            d[0, 0] = d[1, 1] = p.kappa_m * (2.0 * n_m + 1.0)
            d[2, 2] = d[3, 3] = p.kappa_1 * (2.0 * big_n + 1.0)
            d[4, 4] = d[5, 5] = p.kappa_2 * (2.0 * big_n + 1.0)
            cross = 2.0 * big_m * math.sqrt(p.kappa_1 * p.kappa_2)
            d[2, 4] = d[4, 2] = cross
            d[3, 5] = d[5, 3] = -cross
            return d

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        points = [
            default_params().replace(
                kappa_2=log_uniform(1e-3, 1e3) * KAPPA_C,
                kappa_m=log_uniform(1e-3, 10.0) * KAPPA_C,
                r=rng.uniform(0.0, 3.0),
                temperature=rng.uniform(0.0, 5.0),
            )
            for _ in range(500)
        ]
        edges = [(354.0, 0.02), (355.0, 0.0), (400.0, 2.0), (710.47, 0.02), (1000.0, 5.0)]
        points += [default_params().replace(r=r, temperature=t) for r, t in edges]
        points += [default_params().replace(omega_m=1e-300), default_params().replace(r=0.0)]
        for p in points:
            assert diffusion_matrix(p).tobytes() == reference(p).tobytes(), p
        for r, omega, temperature in [(0.4, TWO_PI * 1e10, math.inf), (400.0, 1.0, math.inf),
                                      (0.0, 1e-300, 0.02)]:
            s, c = math.sinh(r), math.cosh(r)
            expected = (s * s, s * c, thermal_occupation(omega, temperature))
            assert noise_moments(r, omega, temperature) == expected

