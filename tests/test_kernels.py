import mpmath
import numpy as np
import pytest

from cavqfi import CavityScenario
from cavqfi.cavity import mode_frequencies
from oracles import phase_integral


def test_phase_integral_resonance_continuity():
    # the closed form must be smooth through x = +-omega
    tau, omega = 1.3, 7.0
    vals = [complex(phase_integral(np.float64(omega + d), omega, tau)) for d in (-1e-9, 0.0, 1e-9)]
    assert abs(vals[0] - vals[1]) < 1e-8
    assert abs(vals[2] - vals[1]) < 1e-8


def mp_drive_integral(x, omega, tau):
    """int_0^tau sin(omega t) e^{i x t} dt at 40 digits, for the float detunings x +- omega.

    The detunings are taken as float64 sums, as cavity.drive_entries forms them, and
    every float is taken exactly, so the difference to drive_entries is the
    rounding of its own arithmetic from the half-phase on.
    """
    with mpmath.workdps(40):
        tau = mpmath.mpf(float(tau))

        def e(y):
            half = mpmath.mpf(float(y)) * tau / 2
            return tau * mpmath.expj(half) * mpmath.sinc(half)

        return complex((e(x + omega) - e(x - omega)) / mpmath.mpc(0, 2))


@pytest.mark.parametrize("tau", [2.00013, 16.3, 149.99913])
def test_drive_integral_matches_mpmath_at_kernel_phases(tau):
    # rows k = 1 and k' = 2 at n_max 1000 against every column: at
    # 149.99913 s the phases y tau reach 4.7e8 rad, past numpy's fast path
    # for sin, cos and exp (about 1e8 rad).  16.3 s is on the round-trip
    # lattice, and the sum resonance x = omega (beta1_12) has h = 0 exactly.
    sc = CavityScenario(n_max=1000, tau=tau)
    omegas, omega = mode_frequencies(sc), sc.drive_omega
    x = np.concatenate([omegas[:2, None] - omegas[None, :], omegas[:2, None] + omegas[None, :]]).ravel()
    assert (x - omega == 0.0).any()
    got = phase_integral(x, omega, tau)
    exact = np.array([mp_drive_integral(v, omega, tau) for v in x])
    assert np.abs(got - exact).max() <= 4 * np.finfo(float).eps * np.abs(exact).max()


def test_drive_integral_is_zero_at_zero_duration():
    # tau = 0: every half-phase is h = 0 and the integral is exactly zero
    x = np.array([-3.0, 0.0, 2.5])
    assert not phase_integral(x, 2.5, 0.0).any()
