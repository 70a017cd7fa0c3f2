"""Hot numeric kernels, in numpy.

Kernels:
  * ``time_dependent_coefficients``: first-order coefficients for a
    sinusoidally driven cavity, closed-form entries for a selection of rows
    against a selection of columns, at one duration or at an array of
    them.  cavity.build_rows, the only caller, calls it once per row, for
    that row against the columns of the other parity (the parity selection
    rule zeroes every same-parity entry), with the durations broadcast as
    tau.  perfbench reports its time per point as
    ``kernels.time_dependent_coefficients.ms`` (the BENCH_*.json files keep
    the measured values; its wide_truncation workload runs n_max 1000),
  * ``drive_entries``: the per-entry formula that it evaluates, one complex
    exponential per half-phase of the closed-form drive integral.

Callers reach the first one as ``kernels.time_dependent_coefficients``;
perfbench's per-layer tracer wraps that module attribute by name.
"""

from __future__ import annotations

import numpy as np


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


def time_dependent_coefficients(
    omegas, omega_drive, tau, alpha_static, beta_static, rows=slice(None), cols=slice(None)
):
    """First-order coefficient matrices alpha1(tau), beta1(tau), interaction picture.

      alpha1[m, n] = i alpha_static[m, n] (w_m - w_n) I(w_m - w_n)
      beta1[m, n]  = i beta_static[m, n]  (w_m + w_n) I(w_m + w_n)
    with I the sinusoidal drive integral, each entry formed by
    drive_entries.  The free rotation G_m = e^{-i w_m tau} of row m
    (cavity.free_phases) is left out; that diagonal unitary keeps the
    series canonical in both frames (alpha alpha^dag - beta beta^dag = 1
    and alpha beta^T symmetric to O(h^2)).

    rows and cols (each a slice or an index array of 0-based modes m - 1,
    default all) select the entries built; alpha_static and beta_static hold
    just those entries.  tau is a number or an array that broadcasts
    against the (rows, cols) entries, such as a (d, 1, 1) array of d
    durations, which gives (d, rows, cols) outputs.  Each entry's
    arithmetic does not depend on the selection or on the other durations.
    """
    omegas = np.asarray(omegas, dtype=float)
    diff = omegas[rows][:, None] - omegas[cols][None, :]
    total = omegas[rows][:, None] + omegas[cols][None, :]
    alpha1 = drive_entries(alpha_static * diff, diff, omega_drive, tau)
    beta1 = drive_entries(beta_static * total, total, omega_drive, tau)
    return alpha1, beta1
