import numpy as np

from cavqfi import kernels


def test_phase_integral_resonance_continuity():
    # the sinc form must be smooth through x = +-omega
    tau, omega = 1.3, 7.0
    vals = [complex(kernels.phase_integral(np.float64(omega + d), omega, tau)) for d in (-1e-9, 0.0, 1e-9)]
    assert abs(vals[0] - vals[1]) < 1e-8
    assert abs(vals[2] - vals[1]) < 1e-8

