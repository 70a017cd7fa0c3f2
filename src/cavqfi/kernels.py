"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The backend is chosen once at import time from the environment variable
``CAVQFI_KERNELS``: ``numba`` (require the JIT), ``numpy`` (force the
fallback), or ``auto`` (default: numba when importable); any other value
raises ``ValueError``.  The numpy implementations are always importable
under explicit ``*_numpy`` names.  The ``*_numba`` names exist only when
numba imports and the backend is not forced to ``numpy``; only then can
tests and ``benchmarks/bench_kernels.py`` compare the two directly (the
backend-agreement tests skip on ``HAVE_NUMBA``).

Kernels:
  * time-dependent first-order coefficient matrices for a sinusoidally
    driven cavity (n_max^2 closed-form entries, rebuilt per tau),
  * the reduced two-mode covariance transform (per-spectator-mode 2x2
    products summed over the truncation range, called once per matrix-form
    QFI and once per fidelity evaluation inside QFI step ladders).
"""

from __future__ import annotations

import os

import numpy as np

_ENV_BACKEND = "CAVQFI_KERNELS"
_requested = os.environ.get(_ENV_BACKEND, "auto").lower()
if _requested not in ("auto", "numba", "numpy"):
    raise ValueError(f"{_ENV_BACKEND} must be auto|numba|numpy, got {_requested!r}")

if _requested == "numpy":
    HAVE_NUMBA = False
else:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        if _requested == "numba":
            raise
        HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------


def phase_integral(x, omega, tau):
    """Closed form of int_0^tau sin(omega t) exp(i x t) dt, stable at resonance.

    Uses int_0^tau exp(i y t) dt = tau * exp(i y tau / 2) * sinc(y tau / 2),
    which is exact for all y including y = 0, so no separate resonant branch
    is needed.
    """
    x = np.asarray(x, dtype=float)

    def e(y):
        half = 0.5 * y * tau
        return tau * np.exp(1j * half) * np.sinc(half / np.pi)

    return (e(x + omega) - e(x - omega)) / 2j


def time_dependent_coefficients_numpy(omegas, omega_drive, tau, alpha_static, beta_static):
    """First-order coefficient matrices alpha1(tau), beta1(tau).

    Entry (m, n) carries the free-evolution phase of the row mode:
      alpha1[m, n] = i e^{-i w_m tau} alpha_static[m, n] (w_m - w_n) I(w_m - w_n)
      beta1[m, n]  = i e^{-i w_m tau} beta_static[m, n]  (w_m + w_n) I(w_m + w_n)
    with I the sinusoidal drive integral above.  Attaching the phase to the
    row index is what keeps the first-order transformation canonical
    (alpha alpha^dag - beta beta^dag = 1 and alpha beta^T symmetric hold to
    O(h^2)); the column-phase reading breaks the beta symmetry condition.
    """
    omegas = np.asarray(omegas, dtype=float)
    diff = omegas[:, None] - omegas[None, :]
    total = omegas[:, None] + omegas[None, :]
    row_phase = (1j * np.exp(-1j * omegas * tau))[:, None]
    alpha1 = row_phase * alpha_static * diff * phase_integral(diff, omega_drive, tau)
    beta1 = row_phase * beta_static * total * phase_integral(total, omega_drive, tau)
    return alpha1, beta1


def _m_blocks_row(alpha_row, beta_row):
    # stack of 2x2 symplectic blocks for one row of coefficients
    n = alpha_row.shape[0]
    blocks = np.empty((n, 2, 2))
    d = alpha_row - beta_row
    s = alpha_row + beta_row
    blocks[:, 0, 0] = d.real
    blocks[:, 0, 1] = s.imag
    blocks[:, 1, 0] = -d.imag
    blocks[:, 1, 1] = s.real
    return blocks


def reduced_transform_numpy(alpha_rows, beta_rows, k, kp, psi_k, psi_kp, phi):
    """4x4 covariance of modes (k, kp) after the transformation.

    alpha_rows/beta_rows are the coefficient rows (k, kp) over all modes,
    shape (2, n_modes) complex; k, kp are 0-based column indices; psi_k,
    psi_kp, phi are the 2x2 blocks of the initial two-mode covariance.
    All other modes are assumed to start in vacuum, which contributes the
    spectator sum over m not in {k, kp} of M_im M_jm^T.
    """
    m_k = _m_blocks_row(alpha_rows[0], beta_rows[0])
    m_kp = _m_blocks_row(alpha_rows[1], beta_rows[1])
    rows = (m_k, m_kp)

    mask = np.ones(alpha_rows.shape[1], dtype=bool)
    mask[k] = False
    mask[kp] = False

    out = np.empty((4, 4))
    for i in (0, 1):
        for j in (0, 1):
            if j < i:
                continue
            mi, mj = rows[i], rows[j]
            block = np.einsum("mab,mcb->ac", mi[mask], mj[mask])
            block += mi[k] @ psi_k @ mj[k].T
            block += mi[kp] @ psi_kp @ mj[kp].T
            block += mi[k] @ phi @ mj[kp].T
            block += mi[kp] @ phi.T @ mj[k].T
            out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
            if j > i:
                out[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = block.T
    # symmetrize away the last bits of roundoff
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True)
    def _sinc_nb(u):
        if abs(u) < 1e-4:
            u2 = u * u
            return 1.0 - u2 / 6.0 + u2 * u2 / 120.0
        return np.sin(u) / u

    @njit(cache=True)
    def _phase_integral_nb(x, omega, tau):
        hp = 0.5 * (x + omega) * tau
        hm = 0.5 * (x - omega) * tau
        ep = tau * (np.cos(hp) + 1j * np.sin(hp)) * _sinc_nb(hp)
        em = tau * (np.cos(hm) + 1j * np.sin(hm)) * _sinc_nb(hm)
        return (ep - em) / 2j

    @njit(cache=True)
    def time_dependent_coefficients_numba(omegas, omega_drive, tau, alpha_static, beta_static):
        n = omegas.shape[0]
        alpha1 = np.zeros((n, n), dtype=np.complex128)
        beta1 = np.zeros((n, n), dtype=np.complex128)
        for m in range(n):
            wm = omegas[m]
            row_phase = 1j * (np.cos(wm * tau) - 1j * np.sin(wm * tau))
            for j in range(n):
                a_s = alpha_static[m, j]
                b_s = beta_static[m, j]
                if a_s == 0.0 and b_s == 0.0:
                    continue
                diff = wm - omegas[j]
                total = wm + omegas[j]
                alpha1[m, j] = (
                    row_phase * a_s * diff * _phase_integral_nb(diff, omega_drive, tau)
                )
                beta1[m, j] = (
                    row_phase * b_s * total * _phase_integral_nb(total, omega_drive, tau)
                )
        return alpha1, beta1

    @njit(cache=True)
    def reduced_transform_numba(alpha_rows, beta_rows, k, kp, psi_k, psi_kp, phi):
        n = alpha_rows.shape[1]
        blocks = np.empty((2, n, 2, 2))
        for i in range(2):
            for m in range(n):
                a = alpha_rows[i, m]
                b = beta_rows[i, m]
                blocks[i, m, 0, 0] = (a - b).real
                blocks[i, m, 0, 1] = (a + b).imag
                blocks[i, m, 1, 0] = -(a - b).imag
                blocks[i, m, 1, 1] = (a + b).real

        out = np.zeros((4, 4))
        for i in range(2):
            for j in range(i, 2):
                acc = np.zeros((2, 2))
                for m in range(n):
                    if m == k or m == kp:
                        continue
                    for a in range(2):
                        for c in range(2):
                            s = 0.0
                            for b in range(2):
                                s += blocks[i, m, a, b] * blocks[j, m, c, b]
                            acc[a, c] += s
                acc += blocks[i, k] @ psi_k @ blocks[j, k].T
                acc += blocks[i, kp] @ psi_kp @ blocks[j, kp].T
                acc += blocks[i, k] @ phi @ blocks[j, kp].T
                acc += blocks[i, kp] @ phi.T @ blocks[j, k].T
                for a in range(2):
                    for c in range(2):
                        out[2 * i + a, 2 * j + c] = acc[a, c]
                        if j > i:
                            out[2 * j + c, 2 * i + a] = acc[a, c]
        for a in range(4):
            for c in range(a + 1, 4):
                s = 0.5 * (out[a, c] + out[c, a])
                out[a, c] = s
                out[c, a] = s
        return out


if HAVE_NUMBA and _requested in ("auto", "numba"):
    _BACKEND = "numba"
    time_dependent_coefficients = time_dependent_coefficients_numba
    reduced_transform = reduced_transform_numba
else:
    _BACKEND = "numpy"
    time_dependent_coefficients = time_dependent_coefficients_numpy
    reduced_transform = reduced_transform_numpy


def active_backend() -> str:
    """Name of the kernel backend selected at import time."""
    return _BACKEND
