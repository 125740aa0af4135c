"""Steady-state quantum correlations of a dual-cavity magnon system.

Two microwave cavities share a magnon mode through beam-splitter couplings
and are driven by a broadband two-mode squeezed vacuum. The package builds
the linearized drift and diffusion matrices, solves the algebraic Lyapunov
equation for the stationary covariance matrix, and evaluates entanglement
(logarithmic negativity, residual contangle) and Renyi-2 Gaussian steering
over parameter grids.
"""

from .errors import (
    CavmagError,
    ConfigError,
    DimensionError,
    DomainError,
    NumericalError,
    PhysicalityError,
    SingularMatrixError,
    StabilityError,
    ValidationError,
)
from .measures import REPORT_COLUMNS, CorrelationReport, full_report
from .model import (
    PhysicalParams,
    default_params,
    diffusion_matrix,
    drift_matrix,
    noise_moments,
    thermal_occupation,
)
from .steady_state import StabilityReport, solve_lyapunov, stability
from .sweep import (
    AxisSpec,
    FIGURE_IDS,
    SweepResult,
    SweepSpec,
    figure_preset,
    read_json,
    run_sweep,
    with_resolution,
    write_csv,
    write_json,
)

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "CavmagError",
    "ConfigError",
    "CorrelationReport",
    "DimensionError",
    "DomainError",
    "FIGURE_IDS",
    "NumericalError",
    "PhysicalParams",
    "PhysicalityError",
    "REPORT_COLUMNS",
    "SingularMatrixError",
    "StabilityError",
    "StabilityReport",
    "SweepResult",
    "SweepSpec",
    "ValidationError",
    "default_params",
    "diffusion_matrix",
    "drift_matrix",
    "figure_preset",
    "full_report",
    "noise_moments",
    "read_json",
    "run_sweep",
    "solve_lyapunov",
    "stability",
    "thermal_occupation",
    "with_resolution",
    "write_csv",
    "write_json",
    "__version__",
]
