"""Oscillating-cavity accelerometer scenario: spectrum, drive response, units.

The cavity holds a phononic field with Dirichlet walls; mode angular
frequencies are w_n = pi * n * c_s / L, which gives w_n = 2*pi*500*n Hz for
the reference parameter set (the CavityScenario defaults: L = 1 um,
c_s = 1e-3 m/s, modes 1 and 2 at their sum resonance, r = 10, tau = 30 s,
N = 1e11).  The drive is a sinusoidal
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

# Largest truncation: static_matrices forms (m + n)^3 in integers, exact in
# float64 while it stays below 2^53, which holds up to n_max 104032.
MAX_MODES = 100_000

@dataclasses.dataclass(frozen=True)
class CavityScenario:
    """Physical parameters of one accelerometer configuration.

    The defaults are the reference parameter set.  omega = None selects the
    particle-creation resonance w_k + w_kprime.  a_probe is an optional
    acceleration at which validity margins are evaluated; the device itself
    is h-agnostic at leading order.
    """

    length: float = 1e-6           # L, m
    sound_speed: float = 1e-3      # c_s, m/s
    k: int = 1
    kprime: int = 2
    squeezing: float = 10.0        # r, same for both modes
    tau: float = 30.0              # drive duration, s
    omega: float | None = None     # drive angular frequency, rad/s
    n_max: int = 50
    n_measurements: float = 1e11
    a_probe: float | None = None   # m/s^2

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
        if self.n_max > MAX_MODES:
            raise ValueError(f"n_max must be at most {MAX_MODES}")
        if self.n_measurements < 1:
            raise ValueError("n_measurements must be >= 1")
        # every scale a point forms must be a float64: the mode frequencies
        # up to w_{n_max} and the drive, the phases they turn through over
        # tau, and c_s^2 of h = a L / c_s^2 (nonzero)
        w_max = math.pi * self.n_max * self.sound_speed / self.length
        drive = 2.0 * w_max if self.omega is None else abs(self.omega)
        if not math.isfinite((2.0 * w_max + drive) * self.tau):
            raise ValueError("the mode frequencies, the drive or their phases over tau overflow float64")
        if not 0.0 < self.sound_speed * self.sound_speed < math.inf:
            raise ValueError("sound_speed^2 leaves the float64 range")

    @property
    def drive_omega(self) -> float:
        if self.omega is not None:
            return self.omega
        omegas = mode_frequencies(self)
        return float(omegas[self.k - 1] + omegas[self.kprime - 1])


def h_from_acceleration(a: float, scenario: CavityScenario) -> float:
    """Dimensionless drive amplitude h = a L / c_s^2."""
    return a * scenario.length / scenario.sound_speed**2


def acceleration_from_h(h: float, scenario: CavityScenario) -> float:
    """Exact inverse of h_from_acceleration."""
    return h * scenario.sound_speed**2 / scenario.length


def static_matrices(
    n_max: int, rows=slice(None), cols=slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Static coefficient matrices over 1..n_max with the parity selection rule.

    For m - n odd, alpha_mn = -2 sqrt(m n) / (pi^2 (n - m)^3) and
    beta_mn = 2 sqrt(m n) / (pi^2 (m + n)^3), the first-order pair
    coefficients of one uniformly accelerated hop.  Same-parity and diagonal
    entries are exact zeros (+0.0): for those pairs the series contains no
    odd powers of h, so nothing survives at first order.  rows and cols (each
    a slice or an index array of 0-based modes m - 1, default all) select
    the entries built.  Parity, m n and the cubes come from integer
    arithmetic, exact while (m + n)^3 stays below 2^53 (n_max up to about
    1e5), so every entry has the bits of the float formula whatever the
    selection.
    """
    n = np.arange(1, n_max + 1)
    m, n = n[rows][:, None], n[cols][None, :]
    odd = (m + n) % 2 == 1
    root = np.sqrt(m * n)
    diff, total = n - m, n + m
    alpha = np.zeros(odd.shape)
    beta = np.zeros(odd.shape)
    np.divide(-2.0 * root, math.pi**2 * (diff * diff * diff), out=alpha, where=odd)
    np.divide(2.0 * root, math.pi**2 * (total * total * total), out=beta, where=odd)
    return alpha, beta


def mode_frequencies(scenario: CavityScenario) -> np.ndarray:
    """Angular frequencies w_1 .. w_{n_max} of the truncated mode set (rad/s)."""
    n = np.arange(1, scenario.n_max + 1)
    return math.pi * n * scenario.sound_speed / scenario.length


def free_phases(scenario: CavityScenario) -> np.ndarray:
    """Lab-frame zeroth-order phases G_m = e^{-i w_m tau} of the free rotation.

    Multiplying row m of the interaction-picture coefficients by G_m gives
    those of the lab frame.
    """
    return np.exp(-1j * mode_frequencies(scenario) * scenario.tau)


def build_rows(scenario: CavityScenario, modes, taus) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``modes`` of the first-order alpha1 and beta1, at each duration of taus.

    modes are 1-based mode numbers; taus is a duration or an array of them,
    in place of scenario.tau.  Returns (alpha1, beta1), each of shape
    np.shape(taus) + (len(modes), n_max), owned by the caller: entry
    [..., i, :] is row modes[i] of the series of the scenario at that
    duration.  Each mode takes one kernel call, looked up on the module, for
    its row against the columns of the other parity, with the durations
    broadcast as tau; the parity selection rule zeroes the same-parity
    entries, which stay +0.0 and never reach the drive integral.  The work
    is O(n_max) per row and duration, and no temporary is larger than one
    row.  This is the only code that forms coefficient rows, so every entry
    has the bits of the same entry whatever rows are built with it.
    """
    n_max = scenario.n_max
    omegas = mode_frequencies(scenario)
    omega = scenario.drive_omega
    tau = np.asarray(taus, dtype=float)[..., None, None]
    shape = np.shape(taus) + (len(modes), n_max)
    alpha1, beta1 = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    for i, mode in enumerate(modes):
        # 0-based row mode - 1 against the columns of the other parity
        rows, cols = slice(mode - 1, mode), slice(mode % 2, None, 2)
        alpha_static, beta_static = static_matrices(n_max, rows, cols)
        alpha1[..., i : i + 1, cols], beta1[..., i : i + 1, cols] = kernels.time_dependent_coefficients(
            omegas, omega, tau, alpha_static, beta_static, rows, cols
        )
    return alpha1, beta1


def build_scenario_series(scenario: CavityScenario) -> BogoliubovSeries:
    """First-order series for sinusoidal motion over the truncated mode set.

    Entry (m, n): the static coefficient times the mode-frequency sum or
    difference and the closed-form drive integral.  Like every
    BogoliubovSeries it is in the interaction picture, S(h) = 1 + h S1: the
    free rotation of each mode is left out (free_phases gives it), and there
    is no second order.  At the sum resonance omega = w_k + w_kp the
    corresponding |beta1| entries grow linearly in tau with slope
    |beta_static| (w_k + w_kp) / 2.

    It is build_rows over every mode at scenario.tau; the two outputs are
    the only n_max x n_max arrays it allocates, and BogoliubovSeries adopts
    them, read-only, without a copy.
    """
    alpha1, beta1 = build_rows(scenario, range(1, scenario.n_max + 1), scenario.tau)
    alpha1.setflags(write=False)
    beta1.setflags(write=False)
    return BogoliubovSeries(scenario.n_max, alpha1, beta1)
