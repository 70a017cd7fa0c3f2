"""Two-mode Gaussian fidelity, quantum Fisher information, and precision bounds.

The fidelity follows the two-mode Gaussian determinant formula with the
package-wide vacuum-=-identity normalization.  It is evaluated in the
Uhlmann-consistent form F = (Pi + sqrt(Pi^2 - Delta)) / Delta, which is
algebraically 1/(Pi - sqrt(Pi^2 - Delta)); the superficially similar
1/(Pi + sqrt(...)) variant coincides for pure states but fails F(s, s) = 1
for mixed ones, so it is not used.

The 4x4 determinants run in float64 unless the covariance entries exceed
policy.extended_precision_above; then they run in mpmath, which is imported
only on that path.

The QFI comes in two independent routes.  Production uses the matrix form
qfi_analytic_h0: H0 = tr(P^-1 W) - tr((P^-1 V)^2) / 4 for the transformed
covariance sigma(h) = P + h V + h^2 W, built from rows k and k' of the series
in the frame where P is diagonal, with no fitted inputs.  H0 is a sum of
per-column terms, so the same sum also measures how much of H0 the modes
above a halved truncation carry.  The finite-difference
step ladder on the fidelity with Richardson extrapolation (qfi_numeric) is the
independent cross-check: ``cavqfi qfi`` reports both, and the test suite
compares them.  ``cavqfi qfi`` feeds the ladder un-squeezed states of the
interaction-picture series, which sit near the vacuum, so its fidelities
stay on the float64 path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .bogoliubov import BogoliubovSeries, pair_columns, pair_rows
from .errors import (
    ConditioningError,
    NoInformationError,
    NoPlateauError,
    NumericError,
)
from .gaussian import GaussianState, symplectic_form
from .policy import DEFAULT_POLICY, NumericPolicy

_OMEGA4 = symplectic_form(2)
_I4 = np.eye(4)


@dataclasses.dataclass(frozen=True)
class FidelityBreakdown:
    gamma: float
    lambda1: float
    lambda2: float
    delta: float
    pi: float
    fidelity: float


def _require_zero_means(state: GaussianState):
    if np.max(np.abs(state.first_moments)) != 0.0:
        raise NumericError(
            "fidelity formula requires zero first moments; displace states first"
        )


def _clamp(value, scale, policy, what, symmetric=False):
    """Clamp roundoff-level values to zero; error beyond the trusted band.

    With symmetric=True, values inside [-band, +band] collapse to zero: at a
    square-root branch point (pure states have Pi^2 = Delta exactly) keeping
    a +1e-16 residue would be amplified to a 1e-8 error by the root.
    """
    band = policy.branch_clamp * max(1.0, abs(scale))
    if value < -band:
        raise ConditioningError(f"{what} = {value:.6e} below -{band:.1e}")
    if symmetric and value <= band:
        return 0.0
    return max(value, 0.0)


def _fidelity_float(cov1, cov2, policy):
    gamma = float(np.linalg.det(_OMEGA4 @ cov1 @ _OMEGA4 @ cov2 - _I4)) / 16.0
    lam1 = float(np.linalg.det(cov1 + 1j * _OMEGA4).real) / 4.0
    lam2 = float(np.linalg.det(cov2 + 1j * _OMEGA4).real) / 4.0
    delta = float(np.linalg.det(cov1 + cov2)) / 16.0
    return gamma, lam1, lam2, delta


def _fidelity_mp(cov1, cov2, policy):
    import mpmath

    with mpmath.workdps(policy.extended_dps):
        m1 = mpmath.matrix(cov1.tolist())
        m2 = mpmath.matrix(cov2.tolist())
        om = mpmath.matrix(_OMEGA4.tolist())
        eye = mpmath.eye(4)
        gamma = mpmath.det(om * m1 * om * m2 - eye) / 16
        i_om = om * mpmath.mpc(0, 1)
        lam1 = mpmath.re(mpmath.det(m1 + i_om)) / 4
        lam2 = mpmath.re(mpmath.det(m2 + i_om)) / 4
        delta = mpmath.det(m1 + m2) / 16
        return float(gamma), float(lam1), float(lam2), float(delta)


def _breakdown(gamma, lam1, lam2, delta, policy):
    scale = max(1.0, abs(gamma), abs(delta))
    gamma = _clamp(gamma, scale, policy, "Gamma")
    lam1 = _clamp(lam1, scale, policy, "Lambda1", symmetric=True)
    lam2 = _clamp(lam2, scale, policy, "Lambda2", symmetric=True)
    if delta <= 0.0:
        raise ConditioningError(f"Delta = {delta:.6e} is not positive")
    pi = math.sqrt(gamma) + math.sqrt(lam1 * lam2)
    disc = _clamp(pi * pi - delta, delta, policy, "Pi^2 - Delta", symmetric=True)
    fidelity = (pi + math.sqrt(disc)) / delta
    return FidelityBreakdown(gamma, lam1, lam2, delta, pi, fidelity)


def fidelity_breakdown_from_covs(
    cov1: np.ndarray, cov2: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY
) -> FidelityBreakdown:
    """Fidelity between two zero-mean two-mode covariance matrices.

    Switches the 4x4 determinant work to extended precision once the
    covariance entries are large enough that float64 cancellation would eat
    the 1 - F signal (entries ~e^{2r} square and cancel against 1).
    """
    cov1 = np.asarray(cov1, dtype=float)
    cov2 = np.asarray(cov2, dtype=float)
    scale = max(np.abs(cov1).max(), np.abs(cov2).max())
    if scale > policy.extended_precision_above:
        parts = _fidelity_mp(cov1, cov2, policy)
    else:
        parts = _fidelity_float(cov1, cov2, policy)
    return _breakdown(*parts, policy)


def fidelity_two_mode(
    s1: GaussianState, s2: GaussianState, policy: NumericPolicy = DEFAULT_POLICY
) -> FidelityBreakdown:
    """Uhlmann fidelity of two two-mode Gaussian states with zero means."""
    if s1.num_modes != 2 or s2.num_modes != 2:
        raise ValueError("fidelity_two_mode expects two-mode states")
    _require_zero_means(s1)
    _require_zero_means(s2)
    return fidelity_breakdown_from_covs(s1.cov, s2.cov, policy)


# ---------------------------------------------------------------------------
# numeric QFI: fidelity step ladder with Richardson extrapolation
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class QFINumericResult:
    value: float
    ladder: tuple
    extrapolants: tuple
    dh_used: float
    plateau: bool


def _ladder_estimate(fid_pair, h, dh, sqrt_f0=1.0):
    f = fid_pair(h, dh)
    return 8.0 * (sqrt_f0 - math.sqrt(max(f, 0.0))) / (dh * dh)


def qfi_numeric(
    state_at,
    h: float,
    policy: NumericPolicy = DEFAULT_POLICY,
    return_diagnostics: bool = False,
):
    """QFI at h from H = 8 [1 - sqrt(F(sigma(h), sigma(h+dh)))] / dh^2.

    ``state_at`` maps h to a two-mode GaussianState.  The step ladder starts
    from policy.dh_ladder scaled by max(h, 1) and is rescaled iteratively
    until H * dh^2 sits near policy.dh_curvature_target (keeping the fidelity
    drop both resolvable above roundoff and inside the quadratic regime);
    two Richardson levels then remove the leading O(dh) and O(dh^2) biases.
    Raises NoPlateauError carrying the raw ladder when successive
    extrapolants disagree beyond policy.plateau_rtol.

    The estimator is anchored at h = 0 (where the base state is exactly pure)
    and well-behaved throughout the perturbative validity domain; well beyond
    it, the O(h^2) impurity of a first-order series feeds the fidelity at the
    same order as the signal and no unique finite-h value exists.
    """

    def fid_pair(x, dh):
        return fidelity_two_mode(state_at(x), state_at(x + dh), policy).fidelity

    # at h > 0 the truncated state map is O(h^2) impure and its self-fidelity
    # sits below one; differencing against sqrt(F(h, h)) removes that
    # dh-independent offset from the ladder (at h = 0 it is exactly one)
    sqrt_f0 = math.sqrt(max(fid_pair(h, 0.0), 0.0))

    scale = max(abs(h), 1.0)
    steps = [d * scale for d in policy.dh_ladder]
    dh_max = 0.25 * scale
    # iterate the pilot both ways: with H ~ 1e16 the default step sits far
    # outside the quadratic regime, while for near-constant maps the fidelity
    # drop hides under roundoff until the step grows
    for _ in range(60):
        pilot = _ladder_estimate(fid_pair, h, steps[0], sqrt_f0)
        drop = abs(pilot) * steps[0] ** 2  # = 8 |sqrt(F0) - sqrt(F)| at the pilot step
        if drop > policy.dh_curvature_max and steps[0] > 1e-30:
            factor = math.sqrt(policy.dh_curvature_target / drop)
        elif drop < 1e-9 and steps[0] < dh_max:
            factor = min(
                math.sqrt(policy.dh_curvature_target / max(drop, 1e-17)),
                10.0,
                dh_max / steps[0],
            )
        else:
            break
        steps = [d * factor for d in steps]
    if drop <= 1e-12:
        # fidelity stays put to roundoff even at the largest usable step:
        # the state map carries no information at this resolution
        result = QFINumericResult(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), steps[0], True)
        return result if return_diagnostics else result.value
    ladder = tuple(_ladder_estimate(fid_pair, h, d, sqrt_f0) for d in steps)
    e1, e2, e3 = ladder
    r12 = 2.0 * e2 - e1
    r23 = 2.0 * e3 - e2
    final = (4.0 * r23 - r12) / 3.0
    extrapolants = (r12, r23, final)

    span = abs(r23 - r12)
    tol = policy.plateau_rtol * max(abs(final), abs(r23))
    plateau = span <= tol or span <= policy.plateau_abs_floor
    if plateau and abs(final) <= policy.plateau_abs_floor:
        final = 0.0
    result = QFINumericResult(final, ladder, extrapolants, steps[0], plateau)
    if not plateau:
        raise NoPlateauError(
            f"QFI ladder did not plateau: extrapolants {extrapolants}",
            ladder=ladder,
            extrapolants=extrapolants,
        )
    return result if return_diagnostics else result.value


# ---------------------------------------------------------------------------
# the matrix-form leading-order QFI
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class H0Result:
    value: float
    truncation_change: float


def qfi_analytic_h0(
    series: BogoliubovSeries,
    r: float,
    k: int,
    kprime: int,
    return_diagnostics: bool = False,
):
    """Leading-order QFI H0 = tr(P^-1 W) - tr((P^-1 V)^2) / 4 in matrix form.

    Both modes start squeezed by r; sigma(h) = P + h V + h^2 W is the
    covariance of modes (k, k') under the series, built from rows k and k'
    of its coefficient matrices (Gaussian QFI from sigma and its
    derivatives: Monras, arXiv:1303.3682; Safranek, Lee and Fuentes,
    arXiv:1502.07924).

    The rows come from bogoliubov.pair_rows, S(h) = R0 + h S1 + h^2 S2, and
    are first rotated by R0^T, which undoes the free rotation of each mode;
    H0 is invariant under that fixed symplectic change of frame, and in the
    rotated frame P is exactly D = diag(e^{2r}, e^{-2r}, e^{2r}, e^{-2r}).
    Cavity series are built in the interaction picture (G = 1, R0 = 1),
    where the rotation changes nothing; a general series may carry G != 1.
    With s = R0^T S1, M1 = s[:, pair] D and M2 = (R0^T S2)[:, pair],
      V = M1 + M1^T,
      W_ii = sum_c s_ic^2 w_c + 2 M2_ii D_i,
    where w_c is the initial variance of column c (D on the columns of k and
    k', vacuum 1 elsewhere).  H0 reads only that diagonal of W, so
      H0 = sum_ic s_ic^2 w_c / D_i - (1/4) sum_ij V_ij^2 / (D_i D_j) + 2 tr(M2).
    Nothing inverts a lab-frame P: at r = 10 its entries reach e^{20} and
    their roundoff alone exceeds its smallest eigenvalue e^{-20}.

    With return_diagnostics, an H0Result also carries the truncation change
    (H0(n_max) - H0(n_max // 2)) / H0: the per-column terms of modes above
    n_max // 2, whose partial sum is exactly what the halved truncation
    drops.  It is nan when n_max // 2 does not cover the pair and 0.0 when
    H0 is zero.
    """
    n = series.n_modes
    if max(k, kprime) > n:
        raise NumericError("series truncation does not cover the mode pair")
    r0, s1, s2 = pair_rows(series, k, kprime)
    pair = pair_columns(k, kprime)
    d = np.array([math.exp(2.0 * r), math.exp(-2.0 * r)] * 2)
    s = r0.T @ s1
    weight = np.ones(2 * n)
    weight[pair] = d
    terms = s * s * weight / d[:, None]
    m1 = s[:, pair] * d
    v = m1 + m1.T
    value = terms.sum() - 0.25 * np.sum(v * v / np.outer(d, d))
    if s2 is not None:
        value += 2.0 * np.trace((r0.T @ s2)[:, pair])
    value = float(value)
    if not return_diagnostics:
        return value
    half = n // 2
    if half < max(k, kprime):
        change = math.nan
    elif value == 0.0:
        change = 0.0
    else:
        change = float(terms[:, 2 * half :].sum() / value)
    return H0Result(value, change)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EstimationResult:
    qfi: float
    qfi_valid: bool
    delta_h: float
    delta_a: float
    n_measurements: float
    validity_margin: float | None = None


def cramer_rao(
    qfi: float,
    n_measurements: float,
    length: float,
    sound_speed: float,
    h: float | None = None,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> EstimationResult:
    """Optimal bounds Delta h = 1/sqrt(N * H) and Delta a = Delta h * c_s^2 / L.

    When the probe amplitude h is supplied, the result carries the
    perturbative validity margin H * h^2, and the flag that it stays below
    policy.validity_threshold.
    """
    if qfi <= 0.0:
        raise NoInformationError("QFI must be positive for a Cramer-Rao bound")
    if n_measurements < 1:
        raise ValueError("n_measurements must be >= 1")
    delta_h = 1.0 / math.sqrt(n_measurements * qfi)
    delta_a = delta_h * sound_speed**2 / length
    if h is None:
        return EstimationResult(qfi, True, delta_h, delta_a, n_measurements, None)
    margin = qfi * h * h
    return EstimationResult(
        qfi, margin < policy.validity_threshold, delta_h, delta_a, n_measurements, margin
    )


def mach_zehnder_qfi(k_wave: float, T: float) -> float:
    """Atom-interferometer baseline: H = (k T^2)^2 from the phase k a T^2."""
    if k_wave <= 0 or T <= 0:
        raise ValueError("k_wave and T must be positive")
    return (k_wave * T * T) ** 2


def mach_zehnder_bound(k_wave: float, T: float, n_measurements: float) -> float:
    """Companion sensitivity bound delta a = 1 / (sqrt(N) k T^2)."""
    if n_measurements < 1:
        raise ValueError("n_measurements must be >= 1")
    return 1.0 / (math.sqrt(n_measurements) * k_wave * T * T)
