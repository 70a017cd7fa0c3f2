"""Gaussian-state metrology of a sinusoidally driven cavity field.

Covariance-matrix states, the perturbative Bogoliubov series and its reduced
two-mode transform, two-mode Gaussian fidelity, quantum Fisher information,
and Cramer-Rao acceleration bounds for the driven-cavity accelerometer
scenario.
"""

from .bogoliubov import BogoliubovSeries, transform_reduced, unsqueezed_rows
from .cavity import (
    CavityScenario,
    acceleration_from_h,
    build_scenario_series,
    h_from_acceleration,
)
from .gaussian import GaussianState, initial_product_squeezed, symplectic_form
from .metrology import (
    FidelityBreakdown,
    H0Result,
    cramer_rao,
    fidelity_two_mode,
    qfi_analytic_h0,
    qfi_numeric,
)

__version__ = "0.1.0"

__all__ = [
    "BogoliubovSeries",
    "CavityScenario",
    "FidelityBreakdown",
    "GaussianState",
    "H0Result",
    "acceleration_from_h",
    "build_scenario_series",
    "cramer_rao",
    "fidelity_two_mode",
    "h_from_acceleration",
    "initial_product_squeezed",
    "qfi_analytic_h0",
    "qfi_numeric",
    "symplectic_form",
    "transform_reduced",
    "unsqueezed_rows",
]
