"""Oscillating-cavity accelerometer scenario: spectrum, drive response, units.

The cavity holds a phononic field with Dirichlet walls; mode angular
frequencies are w_n = prefactor * n * c_s / L.  The default prefactor is pi,
which reproduces w_n = 2*pi*500*n Hz for L = 1 um and c_s = 1e-3 m/s (the
reference parameter set used throughout).  The drive is a sinusoidal
acceleration a(t) = a sin(omega t) whose dimensionless amplitude is
h = a L / c_s^2; all first-order response coefficients below carry the
per-unit-h shape, with the amplitude factored out.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import kernels
from .bogoliubov import BogoliubovSeries

SPEED_OF_LIGHT = 2.99792458e8


@dataclasses.dataclass(frozen=True)
class CavityScenario:
    """Physical parameters of one accelerometer configuration.

    omega = None selects the particle-creation resonance w_k + w_kprime.
    a_probe is an optional acceleration at which validity margins are
    evaluated; the device itself is h-agnostic at leading order.
    """

    length: float              # L, m
    sound_speed: float         # c_s, m/s
    k: int
    kprime: int
    squeezing: float           # r, same for both modes
    tau: float                 # drive duration, s
    omega: float | None = None     # drive angular frequency, rad/s
    light_speed: float = SPEED_OF_LIGHT
    n_max: int = 50
    n_measurements: float = 1e11
    a_probe: float | None = None   # m/s^2
    spectrum_prefactor: float = math.pi

    def __post_init__(self):
        if self.length <= 0 or self.sound_speed <= 0:
            raise ValueError("length and sound_speed must be positive")
        # tau = 0 is the no-drive boundary: all first-order coefficients
        # vanish and downstream estimation reports "no information"
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.k < 1 or self.kprime < 1:
            raise ValueError("mode numbers must be positive integers")
        if self.k == self.kprime:
            raise ValueError("k and kprime must differ")
        if (self.k - self.kprime) % 2 == 0:
            raise ValueError("k and kprime must have opposite parity")
        if self.n_max < max(self.k, self.kprime):
            raise ValueError("n_max must cover both chosen modes")
        if self.n_measurements < 1:
            raise ValueError("n_measurements must be >= 1")

    @property
    def refractive_index(self) -> float:
        return self.light_speed / self.sound_speed

    @property
    def drive_omega(self) -> float:
        if self.omega is not None:
            return self.omega
        return mode_frequency(self.k, self) + mode_frequency(self.kprime, self)


def mode_frequency(n: int, scenario: CavityScenario) -> float:
    """Angular frequency of mode n (rad/s)."""
    if n < 1:
        raise ValueError("mode number must be >= 1")
    return scenario.spectrum_prefactor * n * scenario.sound_speed / scenario.length


def h_from_acceleration(a: float, scenario: CavityScenario) -> float:
    """Dimensionless drive amplitude h = a L / c_s^2."""
    return a * scenario.length / scenario.sound_speed**2


def acceleration_from_h(h: float, scenario: CavityScenario) -> float:
    """Exact inverse of h_from_acceleration."""
    return h * scenario.sound_speed**2 / scenario.length


def static_first_order(k: int, kprime: int) -> tuple[float, float]:
    """Static first-order pair coefficients for one uniformly accelerated hop.

    alpha1 = -2 sqrt(k k') / (pi^2 (k' - k)^3),
    beta1  =  2 sqrt(k k') / (pi^2 (k + k')^3).
    Defined for oddly separated pairs; the first argument is the row index of
    the corresponding matrix entry.
    """
    if k == kprime:
        raise ValueError("k and kprime must differ")
    root = math.sqrt(k * kprime)
    alpha1 = -2.0 * root / (math.pi**2 * (kprime - k) ** 3)
    beta1 = 2.0 * root / (math.pi**2 * (kprime + k) ** 3)
    return alpha1, beta1


def static_matrices(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Static coefficient matrices over 1..n_max with the parity selection rule.

    Same-parity and diagonal entries are exact zeros: for those pairs the
    series contains no odd powers of h, so nothing survives at first order.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    rows, cols = n[:, None], n[None, :]
    odd = ((rows - cols) % 2).astype(bool)
    root = np.sqrt(rows * cols)
    diff = np.where(odd, cols - rows, 1.0)
    total = cols + rows
    alpha = np.where(odd, -2.0 * root / (math.pi**2 * diff**3), 0.0)
    beta = np.where(odd, 2.0 * root / (math.pi**2 * total**3), 0.0)
    return alpha, beta


def drive_integral(x: float, omega: float, tau: float) -> complex:
    """Closed form of int_0^tau sin(omega t) e^{i x t} dt (resonance-safe)."""
    return complex(kernels.phase_integral(np.asarray(x, dtype=float), omega, tau))


def mode_frequencies(scenario: CavityScenario) -> np.ndarray:
    """Angular frequencies w_1 .. w_{n_max} of the truncated mode set (rad/s)."""
    return np.array([mode_frequency(n, scenario) for n in range(1, scenario.n_max + 1)])


def free_phases(scenario: CavityScenario) -> np.ndarray:
    """Lab-frame zeroth-order phases G_m = e^{-i w_m tau} of the free rotation.

    Multiplying row m of the interaction-picture series by G_m gives the
    lab-frame series.
    """
    return np.exp(-1j * mode_frequencies(scenario) * scenario.tau)


def sinusoidal_coefficients(scenario: CavityScenario) -> BogoliubovSeries:
    """First-order series for sinusoidal motion over the truncated mode set.

    Entry (m, n): the static coefficient times the mode-frequency sum or
    difference and the closed-form drive integral.  The series is in the
    interaction picture, so zeroth order is G = 1 (free_phases gives the
    lab-frame rotation).  At the sum resonance omega = w_k + w_kp the
    corresponding |beta1| entries grow linearly in tau with slope
    |beta_static| (w_k + w_kp) / 2.
    """
    alpha_static, beta_static = static_matrices(scenario.n_max)
    alpha1, beta1 = kernels.time_dependent_coefficients(
        mode_frequencies(scenario), scenario.drive_omega, scenario.tau, alpha_static, beta_static
    )
    return BogoliubovSeries(
        scenario.n_max, np.ones(scenario.n_max, dtype=complex), alpha1, beta1
    )


def build_scenario_series(scenario: CavityScenario) -> BogoliubovSeries:
    """Full first-order series for the scenario (validated entry point)."""
    if scenario.n_max < max(scenario.k, scenario.kprime):
        raise ValueError("n_max must cover both chosen modes")
    return sinusoidal_coefficients(scenario)


def resonant_beta_slope(scenario: CavityScenario) -> float:
    """Analytic growth rate of |beta1_{k,kp}(tau)| at the sum resonance."""
    _, beta_s = static_first_order(scenario.k, scenario.kprime)
    total = mode_frequency(scenario.k, scenario) + mode_frequency(
        scenario.kprime, scenario
    )
    return abs(beta_s) * total / 2.0
