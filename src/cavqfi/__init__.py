"""Gaussian-state metrology of a sinusoidally driven cavity field.

Covariance-matrix states, Bogoliubov/symplectic transforms (exact and
perturbative), two-mode Gaussian fidelity, quantum Fisher information, and
Cramer-Rao acceleration bounds for the driven-cavity accelerometer scenario.
"""

from .bogoliubov import (
    BogoliubovCoefficients,
    BogoliubovSeries,
    assemble_symplectic,
    evaluate_series,
    transform_full_oracle,
    transform_reduced,
    trivial_series,
)
from .cavity import (
    CavityScenario,
    acceleration_from_h,
    build_scenario_series,
    h_from_acceleration,
    mode_frequency,
    static_first_order,
)
from .gaussian import (
    GaussianState,
    PhysicalityReport,
    check_physical,
    initial_product_squeezed,
    partial_trace,
    purity,
    symplectic_form,
    vacuum,
)
from .metrology import (
    EstimationResult,
    FidelityBreakdown,
    H0Result,
    cramer_rao,
    fidelity_two_mode,
    mach_zehnder_bound,
    mach_zehnder_qfi,
    qfi_analytic_h0,
    qfi_numeric,
)
from .policy import DEFAULT_POLICY, NumericPolicy, policy_from_env

__version__ = "0.1.0"

__all__ = [
    "BogoliubovCoefficients",
    "BogoliubovSeries",
    "CavityScenario",
    "DEFAULT_POLICY",
    "EstimationResult",
    "FidelityBreakdown",
    "GaussianState",
    "H0Result",
    "NumericPolicy",
    "PhysicalityReport",
    "acceleration_from_h",
    "assemble_symplectic",
    "build_scenario_series",
    "check_physical",
    "cramer_rao",
    "evaluate_series",
    "fidelity_two_mode",
    "h_from_acceleration",
    "initial_product_squeezed",
    "mach_zehnder_bound",
    "mach_zehnder_qfi",
    "mode_frequency",
    "partial_trace",
    "policy_from_env",
    "purity",
    "qfi_analytic_h0",
    "qfi_numeric",
    "static_first_order",
    "symplectic_form",
    "transform_full_oracle",
    "transform_reduced",
    "trivial_series",
    "vacuum",
]
