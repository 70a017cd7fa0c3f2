"""Oscillating-cavity accelerometer scenario: spectrum, drive response, units.

The cavity holds a phononic field with Dirichlet walls; mode angular
frequencies are w_n = pi * n * c_s / L, which gives w_n = 2*pi*500*n Hz for
the reference parameter set (the CavityScenario defaults: L = 1 um,
c_s = 1e-3 m/s, modes 1 and 2 at their sum resonance, r = 10, tau = 30 s,
N = 1e11).  The drive is a sinusoidal acceleration a(t) = a sin(omega t)
whose dimensionless amplitude is h = a L / c_s^2; all first-order response
coefficients below carry the per-unit-h shape, with the amplitude factored
out.  build_rows forms each of them from its static entry (static_matrices)
and the drive integral (drive_entries).  Every part that does not depend on
the duration comes from a row plan, and the module holds one: the last plan
built, keyed by the scenario's geometry and the rows.  It outlives the call
that built it, so calls of one geometry and rows plan once.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

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
    def geometry(self) -> tuple:
        """The fields a row plan reads: all but tau, squeezing, n_measurements
        and a_probe.  build_rows reuses its held plan while they agree."""
        return (self.length, self.sound_speed, self.k, self.kprime, self.omega, self.n_max)

    @property
    def drive_omega(self) -> float:
        """The drive frequency: omega, or w_k + w_kprime at the sum resonance.

        Each w_n is the scalar pi * n * c_s / L of mode_frequencies, so the
        sum has the bits of the sum of those two array entries.
        """
        if self.omega is not None:
            return self.omega
        c_s, length = self.sound_speed, self.length
        return math.pi * self.k * c_s / length + math.pi * self.kprime * c_s / length


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


def drive_entries(scale, x, omega, tau):
    """scale * i I(x), with I(x) = int_0^tau sin(omega t) exp(i x t) dt, entry by entry.

    I(x) = (e(x + omega) - e(x - omega)) / 2i, where
      e(y) = int_0^tau exp(i y t) dt = tau z sinc(h),  z = exp(i h),  h = y tau / 2.
    The sinc comes from the same exponential, Im(z) / h, exactly 1 at
    h = 0, so resonance needs no branch and each half-phase is reduced
    once.  The i of the entry cancels the 1/2i, so the result is the real
    factor scale / 2 times the one complex difference e(x + omega) -
    e(x - omega).  scale, x and tau broadcast against each other; each
    entry's arithmetic depends on its own inputs alone.
    """
    tau = np.asarray(tau, dtype=float)
    half_tau = 0.5 * tau

    def e(y):
        h = np.asarray(y * half_tau)
        z = np.exp(1j * h)
        return tau * z * np.divide(z.imag, h, out=np.ones_like(h), where=h != 0.0)

    return 0.5 * scale * (e(x + omega) - e(x - omega))


def _row_plan(scenario: CavityScenario, modes) -> tuple:
    """The part of rows ``modes`` (1-based mode numbers) that does not depend
    on the duration; it reads only scenario.geometry.

    It holds, per row m, (cols, alpha_scale, diff, beta_scale, total): the
    0-based columns n of the other parity, the detunings w_m - w_n and the
    sums w_m + w_n against them (each of shape (1, len(cols)), read-only),
    and the static entries times those (the scale that drive_entries takes).
    """
    n_max = scenario.n_max
    omegas = mode_frequencies(scenario)
    entries = []
    for mode in modes:
        # 0-based row mode - 1 against the columns of the other parity
        rows, cols = slice(mode - 1, mode), slice(mode % 2, None, 2)
        alpha_static, beta_static = static_matrices(n_max, rows, cols)
        diff = omegas[rows][:, None] - omegas[cols][None, :]
        total = omegas[rows][:, None] + omegas[cols][None, :]
        arrays = (alpha_static * diff, diff, beta_static * total, total)
        for array in arrays:
            array.setflags(write=False)
        entries.append((cols, *arrays))
    return tuple(entries)


# The last row plan built, as one (key, plan) pair with key
# (scenario.geometry, modes): the process holds this one plan, and
# build_rows replaces it when a call's key differs.
_held = (None, None)


def build_rows(scenario: CavityScenario, modes, taus) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``modes`` (1-based mode numbers) of the first-order alpha1 and beta1,
    at each duration of taus (a duration or an array of them).

    Returns (alpha1, beta1), each of shape np.shape(taus) + (len(modes),
    n_max), owned by the caller: entry [..., i, :] is row modes[i] of the
    series of the scenario at that duration (scenario.tau is not read), in
    the interaction picture.  Row m holds, against each column n of the
    other parity, with the durations broadcast as tau,
      alpha1[m, n] = i alpha_static[m, n] (w_m - w_n) I(w_m - w_n)
      beta1[m, n]  = i beta_static[m, n]  (w_m + w_n) I(w_m + w_n)
    with I the sinusoidal drive integral (drive_entries).  The parity rule
    zeroes the same-parity entries, which stay +0.0 and never reach the
    drive integral.  Everything that does not depend on tau (the static
    entries, the detunings and the sums) comes from the held row plan
    (_held), which outlives the call: it is planned anew only when
    (scenario.geometry, modes) differs from the last call's, so points and
    calls of one geometry and pair share it, and a series built a row at a
    time plans at each row.  The work is O(n_max) per row and duration, and
    no temporary is larger than one row.  This is the only code that forms
    coefficient rows, so every entry has the bits of the same entry
    whatever rows are built with it, and whether its plan was held or new.
    """
    global _held
    key = (scenario.geometry, tuple(modes))
    held_key, plan = _held
    if held_key != key:
        plan = _row_plan(scenario, modes)
        _held = (key, plan)
    omega, tau = scenario.drive_omega, np.asarray(taus, dtype=float)[..., None, None]
    shape = np.shape(taus) + (len(plan), scenario.n_max)
    alpha1, beta1 = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    for i, (cols, alpha_scale, diff, beta_scale, total) in enumerate(plan):
        alpha1[..., i : i + 1, cols] = drive_entries(alpha_scale, diff, omega, tau)
        beta1[..., i : i + 1, cols] = drive_entries(beta_scale, total, omega, tau)
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

    It is build_rows at scenario.tau over every mode, a row at a time, so
    the held plan is one row's; the two outputs are the only n_max x n_max
    arrays it allocates, and BogoliubovSeries adopts them, read-only,
    without a copy.
    """
    n_max = scenario.n_max
    alpha1, beta1 = np.empty((n_max, n_max), dtype=complex), np.empty((n_max, n_max), dtype=complex)
    for m in range(n_max):
        alpha1[m : m + 1], beta1[m : m + 1] = build_rows(scenario, (m + 1,), scenario.tau)
    alpha1.setflags(write=False)
    beta1.setflags(write=False)
    return BogoliubovSeries(scenario.n_max, alpha1, beta1)
