"""Hot numeric kernels, in numpy.

Kernels:
  * ``time_dependent_coefficients``: first-order coefficient matrices for a
    sinusoidally driven cavity (n_max^2 closed-form entries, rebuilt per
    tau),
  * ``reduced_transform``: the reduced two-mode covariance transform
    (per-spectator-mode 2x2 products summed over the truncation range,
    called once per fidelity evaluation inside QFI step ladders),
  * ``symplectic_blocks``: the 2x2 real block layout of (alpha, beta)
    coefficient pairs, shared by both transform paths and the matrix-form
    QFI, which sums the squares of its entries directly (it reads only the
    diagonal of the transformed covariance, so it needs no reduced
    transform).

Callers reach the first two as ``kernels.time_dependent_coefficients`` and
``kernels.reduced_transform``; perfbench's per-layer tracer wraps those two
module attributes by name.
"""

from __future__ import annotations

import numpy as np


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


def time_dependent_coefficients(omegas, omega_drive, tau, alpha_static, beta_static):
    """First-order coefficient matrices alpha1(tau), beta1(tau), interaction picture.

      alpha1[m, n] = i alpha_static[m, n] (w_m - w_n) I(w_m - w_n)
      beta1[m, n]  = i beta_static[m, n]  (w_m + w_n) I(w_m + w_n)
    with I the sinusoidal drive integral above.  The free rotation is left
    out: the lab-frame series is diag(G) + h diag(G) alpha1, with
    G_m = e^{-i w_m tau} multiplying row m.  That frame change is a diagonal
    unitary, so the series is canonical in both frames (alpha alpha^dag -
    beta beta^dag = 1 and alpha beta^T symmetric hold to O(h^2)), and at
    h = 0 the interaction-picture map is the identity.
    """
    omegas = np.asarray(omegas, dtype=float)
    diff = omegas[:, None] - omegas[None, :]
    total = omegas[:, None] + omegas[None, :]
    alpha1 = 1j * alpha_static * diff * phase_integral(diff, omega_drive, tau)
    beta1 = 1j * beta_static * total * phase_integral(total, omega_drive, tau)
    return alpha1, beta1


def symplectic_blocks(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Real (2m x 2n) matrix of 2x2 blocks for m x n coefficient inputs.

    The block of the pair (a, b) = (alpha_ij, beta_ij) is
    [[Re(a - b), Im(a + b)], [-Im(a - b), Re(a + b)]].
    """
    diff = alpha - beta
    total = alpha + beta
    m, n = diff.shape
    s = np.empty((2 * m, 2 * n))
    s[0::2, 0::2] = diff.real
    s[0::2, 1::2] = total.imag
    s[1::2, 0::2] = -diff.imag
    s[1::2, 1::2] = total.real
    return s


def reduced_transform(alpha_rows, beta_rows, k, kp, psi_k, psi_kp, phi):
    """4x4 covariance of modes (k, kp) after the transformation.

    alpha_rows/beta_rows are the coefficient rows (k, kp) over all modes,
    shape (2, n_modes) complex; k, kp are 0-based column indices; psi_k,
    psi_kp, phi are the 2x2 blocks of the initial two-mode covariance.
    All other modes are assumed to start in vacuum, which contributes the
    spectator sum over m not in {k, kp} of M_im M_jm^T.
    """
    n = alpha_rows.shape[1]
    # rows[i][m] is the 2x2 block of row i, mode m
    rows = np.ascontiguousarray(
        symplectic_blocks(alpha_rows, beta_rows).reshape(2, 2, n, 2).transpose(0, 2, 1, 3)
    )

    mask = np.ones(n, dtype=bool)
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
