"""Physical parameters and the linearized fluctuation model.

The system is a magnon mode coupled to two microwave cavities by
beam-splitter (excitation-exchange) interactions, with both cavities driven
by a broadband two-mode squeezed vacuum and the magnon damped by a thermal
bath. After linearization the quadrature fluctuations obey

    dB/dt = M B + noise,   B = (x, y, X1, Y1, X2, Y2)

with the magnon quadratures first. All rates and detunings are angular
(rad/s); quadratures carry the 1/sqrt(2) normalization, so a vacuum mode has
variance 1/2 per quadrature.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# CODATA-2018 values.
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J/K

TWO_PI = 2.0 * np.pi

# Quadrature layout of the 6x6 matrices: magnon first, then the two cavities.
MODE_LABELS = ("m", "c1", "c2")


@dataclass(frozen=True)
class PhysicalParams:
    """All inputs of the model, in angular units (rad/s) and kelvin.

    kappa_1, kappa_2, kappa_m : cavity and magnon amplitude decay rates
    gamma_1, gamma_2          : magnon-cavity coupling strengths
    delta_1, delta_2, delta_m : detunings from the squeezed-drive frequency
    r                         : squeezing parameter of the two-mode drive
    omega_m                   : magnon frequency (only used for the thermal
                                occupation of the magnon bath)
    temperature               : bath temperature in kelvin
    """

    kappa_1: float
    kappa_2: float
    kappa_m: float
    gamma_1: float = 0.0
    gamma_2: float = 0.0
    delta_1: float = 0.0
    delta_2: float = 0.0
    delta_m: float = 0.0
    r: float = 0.0
    omega_m: float = TWO_PI * 10e9
    temperature: float = 0.0

    def __post_init__(self):
        _check_fields(self.__dict__, self.__dict__)  # every field, in declaration order

    @property
    def kappa_c(self) -> float:
        """Normalization scale for detunings and ratios (= kappa_1)."""
        return self.kappa_1

    def replace(self, **changes) -> "PhysicalParams":
        """A copy with some fields changed, as dataclasses.replace gives it.

        A change to one field, the only change a grid axis makes, copies the
        fields and checks that one by the constructor's own _check_fields,
        so it is stored or refused as the constructor would store or refuse
        it; any other change calls the constructor on all the fields.
        """
        if len(changes) != 1 or not _FIELD_SET.issuperset(changes):
            return type(self)(**{**self.__dict__, **changes})
        new = object.__new__(type(self))
        fields = new.__dict__
        fields.update(self.__dict__)
        fields.update(changes)
        _check_fields(fields, changes)
        return new


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(PhysicalParams))
_FIELD_SET = frozenset(_FIELD_NAMES)
_POSITIVE = ("kappa_1", "kappa_2", "kappa_m", "omega_m")
_NON_NEGATIVE = ("gamma_1", "gamma_2", "r", "temperature")


def _check_fields(fields: dict, names) -> None:
    """Check the named entries of a PhysicalParams' __dict__, in place.

    names holds every field in declaration order, or one field. Each must
    be a finite real number, and is stored as a float; then the decay rates
    and omega_m must be positive, and the couplings, r and the temperature
    non-negative. The first field to fail raises DomainError. Each pass
    takes the named fields in the constructor's order, so changing one
    field of a valid instance meets the refusal that building the instance
    with it meets.
    """
    for name in names:
        x = fields[name]
        if type(x) is float and math.isfinite(x):
            continue
        value = finite_float(x)
        if value is None:
            raise DomainError(f"{name} must be a finite real number, got {x!r}")
        # a Fraction or an integer would reach numpy as an object or int
        fields[name] = value
    for name in _POSITIVE:
        if name in names and not fields[name] > 0.0:
            raise DomainError(f"{name} must be positive, got {fields[name]}")
    for name in _NON_NEGATIVE:
        if name in names and fields[name] < 0.0:
            raise DomainError(f"{name} must be non-negative, got {fields[name]}")


def finite_float(x) -> float | None:
    """x as a float if it is a finite real number and not a bool, else None."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return None
    try:
        x = float(x)
    except OverflowError:  # an int or a Fraction beyond the float range
        return None
    return x if math.isfinite(x) else None


def default_params() -> PhysicalParams:
    """Reference microwave parameter set used by all presets.

    kappa_c/2pi = 5 MHz for both cavities, kappa_m/2pi = 1 MHz,
    Gamma = 4 kappa_c on both arms, omega_m/2pi = 10 GHz, r = 0.4,
    T = 20 mK, all detunings zero.
    """
    kappa_c = TWO_PI * 5e6
    return PhysicalParams(
        kappa_1=kappa_c,
        kappa_2=kappa_c,
        kappa_m=TWO_PI * 1e6,
        gamma_1=4.0 * kappa_c,
        gamma_2=4.0 * kappa_c,
        omega_m=TWO_PI * 10e9,
        r=0.4,
        temperature=0.02,
    )


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar w / kB T) - 1), exact 0 at T = 0.

    It is inf where hbar w / kB T rounds to 0 at T > 0 (omega below about
    2e-290 rad/s, where hbar w underflows, or T = inf), as noise_moments'
    squeezed moments are where sinh overflows.
    """
    if not omega > 0.0:  # nan fails every comparison
        raise DomainError(f"omega must be positive, got {omega}")
    if not temperature >= 0.0:
        raise DomainError(f"temperature must be non-negative, got {temperature}")
    if K_B * temperature == 0.0:  # T = 0, or a T so small that k_B T underflows
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    if x > 700.0:  # exp would overflow; occupation is numerically zero
        return 0.0
    if x == 0.0:  # hbar w underflows against k_B T: the occupation overflows
        return math.inf
    return 1.0 / math.expm1(x)


def noise_moments(r: float, omega_m: float, temperature: float) -> tuple[float, float, float]:
    """Bath moments (big_n, big_m, n_m) for squeezing r, magnon frequency
    omega_m and temperature T.

    big_n = sinh(r)^2 is the mean photon number of the squeezed drive,
    big_m = sinh(r) cosh(r) the cross-correlation of its two rails and n_m
    the thermal occupation of the magnon bath. The drive is
    minimum-uncertainty, so big_m^2 = big_n (big_n + 1) holds identically.
    Both are inf from r = 355 on (and math.sinh itself overflows from
    r = 710.48).
    """
    if not r >= 0.0:
        raise DomainError(f"r must be non-negative, got {r}")
    try:
        s, c = math.sinh(r), math.cosh(r)
    except OverflowError:
        s = c = math.inf
    return s * s, s * c, thermal_occupation(omega_m, temperature)


def drift_matrix(p: PhysicalParams) -> np.ndarray:
    """6x6 generator of the linearized quadrature dynamics.

    Detunings rotate each mode's quadrature pair, decay sits on the diagonal,
    and the couplings exchange excitations between the magnon and each cavity.
    """
    g1, g2 = p.gamma_1, p.gamma_2
    # one flat list: numpy converts it faster than six nested rows
    return np.array([
        -p.kappa_m, p.delta_m, 0.0, g1, 0.0, g2,
        -p.delta_m, -p.kappa_m, -g1, 0.0, -g2, 0.0,
        0.0, g1, -p.kappa_1, p.delta_1, 0.0, 0.0,
        -g1, 0.0, -p.delta_1, -p.kappa_1, 0.0, 0.0,
        0.0, g2, 0.0, 0.0, -p.kappa_2, p.delta_2,
        -g2, 0.0, 0.0, 0.0, -p.delta_2, -p.kappa_2,
    ]).reshape(6, 6)


def diffusion_matrix(p: PhysicalParams) -> np.ndarray:
    """6x6 noise-correlation source term of the Lyapunov equation.

    The magnon block is thermal, each cavity block carries the squeezed-drive
    occupation, and the cavity-cavity cross block holds the two-mode
    correlations: +2M sqrt(k1 k2) on (X1, X2) and the opposite sign on
    (Y1, Y2).
    """
    big_n, big_m, n_m = noise_moments(p.r, p.omega_m, p.temperature)
    d = np.zeros((6, 6))
    d[0, 0] = d[1, 1] = p.kappa_m * (2.0 * n_m + 1.0)
    d[2, 2] = d[3, 3] = p.kappa_1 * (2.0 * big_n + 1.0)
    d[4, 4] = d[5, 5] = p.kappa_2 * (2.0 * big_n + 1.0)
    cross = 2.0 * big_m * math.sqrt(p.kappa_1 * p.kappa_2)
    d[2, 4] = d[4, 2] = cross
    d[3, 5] = d[5, 3] = -cross
    return d
