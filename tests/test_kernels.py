import numpy as np

from cavqfi import kernels


def test_phase_integral_resonance_continuity():
    # the sinc form must be smooth through x = +-omega
    tau, omega = 1.3, 7.0
    vals = [complex(kernels.phase_integral(np.float64(omega + d), omega, tau)) for d in (-1e-9, 0.0, 1e-9)]
    assert abs(vals[0] - vals[1]) < 1e-8
    assert abs(vals[2] - vals[1]) < 1e-8


def block(alpha, beta):
    return kernels.symplectic_blocks(
        np.array([[alpha]], dtype=complex), np.array([[beta]], dtype=complex)
    )


def test_symplectic_blocks_identity():
    assert np.array_equal(block(1, 0), np.eye(2))


def test_symplectic_blocks_phase_rotation():
    assert np.allclose(block(1j, 0), [[0.0, 1.0], [-1.0, 0.0]])


def test_symplectic_blocks_single_mode_squeezer():
    s = 0.8
    blk = block(np.cosh(s), np.sinh(s))
    assert np.allclose(blk, np.diag([np.exp(-s), np.exp(s)]))
