"""Hot numeric kernels, in numpy.

Kernels:
  * ``time_dependent_coefficients``: first-order coefficients for a
    sinusoidally driven cavity, closed-form entries for a selection of rows
    against a selection of columns.  cavity.build_scenario_series calls it
    twice per block of rows, once for the block's rows of each parity
    against the columns of the other parity from the block's first row
    rightward: the parity selection rule zeroes every same-parity entry,
    and the first-order identities alpha1 = -alpha1^dag and
    beta1 = beta1^T (Bruschi, Fuentes and Louko, arXiv:1105.1875) give the
    entries left of a block from the earlier blocks.  Up to n_max 90 half
    the n_max^2 entries reach the drive integral, at n_max 1000 a quarter,
    and the temporaries stay a quarter of a block.
    This kernel is most of the build's time, which perfbench reports per
    point as ``cavity.build_scenario_series.ms`` (the BENCH_<pr>.json files
    keep the measured values; its wide_truncation workload runs n_max 1000),
  * ``symplectic_blocks``: the 2x2 real block layout of (alpha, beta)
    coefficient pairs, which builds rows k, k' of the symplectic matrix in
    bogoliubov.unsqueezed_rows.

Callers reach the first one as ``kernels.time_dependent_coefficients``;
perfbench's per-layer tracer wraps that module attribute by name.
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


def time_dependent_coefficients(
    omegas, omega_drive, tau, alpha_static, beta_static, rows=slice(None), cols=slice(None)
):
    """First-order coefficient matrices alpha1(tau), beta1(tau), interaction picture.

      alpha1[m, n] = i alpha_static[m, n] (w_m - w_n) I(w_m - w_n)
      beta1[m, n]  = i beta_static[m, n]  (w_m + w_n) I(w_m + w_n)
    with I the sinusoidal drive integral above.  The free rotation
    G_m = e^{-i w_m tau} of row m (cavity.free_phases) is left out; that
    diagonal unitary keeps the series canonical in both frames (alpha
    alpha^dag - beta beta^dag = 1 and alpha beta^T symmetric to O(h^2)).

    rows and cols (each a slice or an index array of 0-based modes m - 1,
    default all) select the entries built; alpha_static and beta_static hold
    just those entries.  Each entry's arithmetic does not depend on the
    selection.
    """
    omegas = np.asarray(omegas, dtype=float)
    diff = omegas[rows][:, None] - omegas[cols][None, :]
    total = omegas[rows][:, None] + omegas[cols][None, :]
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

