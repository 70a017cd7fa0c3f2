import numpy as np
import pytest

from cavqfi import kernels
from cavqfi.cavity import static_matrices
from conftest import child_env

numba_required = pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba unavailable")


def sample_inputs(rng, n=20):
    omegas = np.pi * 1000.0 * np.arange(1, n + 1)
    alpha_s, beta_s = static_matrices(n)
    tau = rng.uniform(0.05, 2.0)
    omega_drive = omegas[0] + omegas[1]
    return omegas, omega_drive, tau, alpha_s, beta_s


def testphase_integral_resonance_continuity():
    # the sinc form must be smooth through x = +-omega
    tau, omega = 1.3, 7.0
    vals = [complex(kernels.phase_integral(np.float64(omega + d), omega, tau)) for d in (-1e-9, 0.0, 1e-9)]
    assert abs(vals[0] - vals[1]) < 1e-8
    assert abs(vals[2] - vals[1]) < 1e-8


@numba_required
def test_time_dependent_coefficients_backends_agree(rng):
    args = sample_inputs(rng)
    a_np, b_np = kernels.time_dependent_coefficients_numpy(*args)
    a_nb, b_nb = kernels.time_dependent_coefficients_numba(*args)
    scale = max(np.abs(a_np).max(), np.abs(b_np).max(), 1.0)
    assert np.abs(a_np - a_nb).max() <= 1e-12 * scale
    assert np.abs(b_np - b_nb).max() <= 1e-12 * scale


@numba_required
def test_reduced_transform_backends_agree(rng):
    n = 12
    alpha_rows = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    beta_rows = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    psi_k = np.diag([2.0, 0.5])
    psi_kp = np.diag([3.0, 1.0 / 3.0])
    phi = np.array([[0.1, 0.0], [0.0, -0.1]])
    out_np = kernels.reduced_transform_numpy(alpha_rows, beta_rows, 0, 1, psi_k, psi_kp, phi)
    out_nb = kernels.reduced_transform_numba(alpha_rows, beta_rows, 0, 1, psi_k, psi_kp, phi)
    assert np.abs(out_np - out_nb).max() <= 1e-11 * max(1.0, np.abs(out_np).max())


def test_active_backend_consistent():
    backend = kernels.active_backend()
    assert backend in ("numba", "numpy")
    if backend == "numba":
        assert kernels.time_dependent_coefficients is kernels.time_dependent_coefficients_numba
    else:
        assert kernels.time_dependent_coefficients is kernels.time_dependent_coefficients_numpy


def test_numpy_fallback_selectable_via_env():
    import subprocess
    import sys

    code = (
        "import cavqfi.kernels as k; "
        "assert k.active_backend() == 'numpy'; "
        "assert k.reduced_transform is k.reduced_transform_numpy; "
        "print('ok')"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(CAVQFI_KERNELS="numpy"),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"

    # without numba the fallback is bound whether or not the variable is
    # read; an invalid value must be refused, which shows that it is read
    bad = subprocess.run(
        [sys.executable, "-c", "import cavqfi.kernels"],
        env=child_env(CAVQFI_KERNELS="bogus"),
        capture_output=True,
        text=True,
    )
    assert bad.returncode != 0, bad.stdout
    assert "CAVQFI_KERNELS" in bad.stderr
