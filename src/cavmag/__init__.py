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
    StepSizeError,
    ValidationError,
)
from .measures import (
    CorrelationReport,
    Mode,
    REPORT_COLUMNS,
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
from .model import (
    NoiseMoments,
    PhysicalParams,
    default_params,
    diffusion_matrix,
    drift_matrix,
    noise_moments,
    thermal_occupation,
)
from .numerics import eig_general, integrate_lyapunov_ode, solve_linear
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
    "Mode",
    "NoiseMoments",
    "NumericalError",
    "PhysicalParams",
    "PhysicalityError",
    "REPORT_COLUMNS",
    "SingularMatrixError",
    "StabilityError",
    "StabilityReport",
    "StepSizeError",
    "SweepResult",
    "SweepSpec",
    "ValidationError",
    "classify_steering",
    "default_params",
    "diffusion_matrix",
    "drift_matrix",
    "eig_general",
    "figure_preset",
    "full_report",
    "gaussian_steering",
    "integrate_lyapunov_ode",
    "log_negativity",
    "log_negativity_one_vs_two",
    "min_residual_contangle",
    "noise_moments",
    "read_json",
    "reduce",
    "residual_contangle",
    "run_sweep",
    "solve_linear",
    "solve_lyapunov",
    "stability",
    "steering_asymmetry",
    "symplectic_eigenvalues",
    "symplectic_form",
    "thermal_occupation",
    "with_resolution",
    "write_csv",
    "write_json",
    "__version__",
]
