"""Two-mode Gaussian fidelity, quantum Fisher information, and precision bounds.

The fidelity follows the two-mode Gaussian determinant formula with the
package-wide vacuum-=-identity normalization.  It is evaluated in the
Uhlmann-consistent form F = (Pi + sqrt(Pi^2 - Delta)) / Delta, which is
algebraically 1/(Pi - sqrt(Pi^2 - Delta)); the superficially similar
1/(Pi + sqrt(...)) variant coincides for pure states but fails F(s, s) = 1
for mixed ones, so it is not used.

The 4x4 determinants run in float64 unless the covariance entries exceed
extended_precision_above (1e4); then they run in mpmath at extended_dps (40)
digits, which is imported only on that path.  That path serves ``cavqfi
fidelity`` and outside callers; the ``cavqfi qfi`` ladder never takes it.
The float64 path takes its four determinants in two stacked calls, one real
and one complex, with the values of four separate calls.
These and the ladder's step and plateau targets are the fixed tolerances of
policy.DEFAULT_POLICY.

The QFI comes in two independent routes, and both read one input per point:
rows k and k' of the interaction-picture series in the frame where the
initial state is the vacuum (bogoliubov.UnsqueezedRows).  Production uses
the matrix form qfi_analytic_h0: H0 = tr C2 - tr(C1^2) / 4 for the
transformed covariance I + h C1 + h^2 C2, with no fitted inputs.  H0 is a
sum of per-column terms, so the same sum also measures how much of H0 the
modes above a halved truncation carry.  The finite-difference step ladder
on the fidelity with Richardson extrapolation (qfi_numeric) is the
independent cross-check: ``cavqfi qfi`` reports both, and the test suite
compares them.  ``cavqfi qfi`` feeds the ladder the states of
bogoliubov.unsqueezed_state_map (one Gram matrix per point), which sit
near the vacuum, and the ladder's pilot shrinks a step whose state has
grown past extended_precision_above without taking its fidelity, so every
fidelity stays on the float64 path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .bogoliubov import UnsqueezedRows
from .errors import (
    ConditioningError,
    NoInformationError,
    NoPlateauError,
    NumericError,
)
from .gaussian import GaussianState, symplectic_form
from .policy import DEFAULT_POLICY

_OMEGA4 = symplectic_form(2)
_I4 = np.eye(4)
_I_OMEGA4 = 1j * _OMEGA4
_EPS = float(np.finfo(float).eps)


@dataclasses.dataclass(frozen=True)
class FidelityBreakdown:
    gamma: float
    lambda1: float
    lambda2: float
    delta: float
    pi: float
    fidelity: float


def _clamp(value, scale, what, symmetric=False):
    """Clamp roundoff-level values to zero; error beyond the trusted band.

    With symmetric=True, values inside [-band, +band] collapse to zero: at a
    square-root branch point (pure states have Pi^2 = Delta exactly) keeping
    a +1e-16 residue would be amplified to a 1e-8 error by the root.
    """
    band = DEFAULT_POLICY.branch_clamp * max(1.0, abs(scale))
    if value < -band:
        raise ConditioningError(f"{what} = {value:.6e} below -{band:.1e}")
    if symmetric and value <= band:
        return 0.0
    return max(value, 0.0)


def _fidelity_float(cov1, cov2):
    # two stacked determinant calls, one real and one complex; each matrix
    # is factored on its own, so the values are those of four separate calls
    gamma, delta = np.linalg.det(np.array((_OMEGA4 @ cov1 @ _OMEGA4 @ cov2 - _I4, cov1 + cov2)))
    lam1, lam2 = np.linalg.det(np.array((cov1, cov2)) + _I_OMEGA4).real
    return float(gamma) / 16.0, float(lam1) / 4.0, float(lam2) / 4.0, float(delta) / 16.0


def _fidelity_mp(cov1, cov2):
    import mpmath

    with mpmath.workdps(DEFAULT_POLICY.extended_dps):
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


def _breakdown(gamma, lam1, lam2, delta):
    scale = max(1.0, abs(gamma), abs(delta))
    gamma = _clamp(gamma, scale, "Gamma")
    lam1 = _clamp(lam1, scale, "Lambda1", symmetric=True)
    lam2 = _clamp(lam2, scale, "Lambda2", symmetric=True)
    if delta <= 0.0:
        raise ConditioningError(f"Delta = {delta:.6e} is not positive")
    pi = math.sqrt(gamma) + math.sqrt(lam1 * lam2)
    disc = _clamp(pi * pi - delta, delta, "Pi^2 - Delta", symmetric=True)
    fidelity = (pi + math.sqrt(disc)) / delta
    return FidelityBreakdown(gamma, lam1, lam2, delta, pi, fidelity)


def fidelity_two_mode(s1: GaussianState, s2: GaussianState) -> FidelityBreakdown:
    """Uhlmann fidelity of two two-mode Gaussian states with zero means.

    Switches the 4x4 determinant work to extended precision once the
    covariance entries are large enough that float64 cancellation would eat
    the 1 - F signal (entries ~e^{2r} square and cancel against 1).  The
    digit count is fixed, so entries large enough to cancel Delta at that
    precision raise ConditioningError naming the digit count and the
    covariance scale.
    """
    if s1.num_modes != 2 or s2.num_modes != 2:
        raise ValueError("fidelity_two_mode expects two-mode states")
    cov1, cov2 = s1.cov, s2.cov
    scale = max(np.abs(cov1).max(), np.abs(cov2).max())
    if scale > DEFAULT_POLICY.extended_precision_above:
        parts = _fidelity_mp(cov1, cov2)
        # Delta >= 1 for physical states (Minkowski's determinant
        # inequality), so a non-positive one is cancellation at this size
        if parts[3] <= 0.0:
            raise ConditioningError(
                f"Delta = {parts[3]:.6e} is not positive: {DEFAULT_POLICY.extended_dps} "
                f"digits do not resolve the determinants at covariance scale {scale:.3e}"
            )
    else:
        parts = _fidelity_float(cov1, cov2)
    return _breakdown(*parts)


# ---------------------------------------------------------------------------
# numeric QFI: fidelity step ladder with Richardson extrapolation
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class QFINumericResult:
    value: float
    ladder: tuple
    extrapolants: tuple
    dh_used: float


def _ladder_estimate(base, moved, dh):
    f = fidelity_two_mode(base, moved).fidelity
    return 8.0 * (1.0 - math.sqrt(max(f, 0.0))) / (dh * dh)


def qfi_numeric(state_at, h: float, return_diagnostics: bool = False):
    """QFI at h = 0 from H = 8 [1 - sqrt(F(sigma(0), sigma(dh)))] / dh^2.

    ``state_at`` maps h to a two-mode GaussianState.  The ladder is anchored
    at h = 0, where the initial state is pure, so its self-fidelity is one
    and the Bures form needs no offset; any other h raises ValueError (well
    inside the perturbative validity domain the QFI is H0 anyway, and
    beyond it the O(h^2) impurity of a first-order series feeds the
    fidelity at the same order as the signal).  The step ladder starts from
    dh_ladder (1e-4, 5e-5, 2.5e-5) and is rescaled iteratively, up to a
    largest step of 0.25, until H * dh^2 sits near dh_curvature_target
    (1e-6), keeping the fidelity drop both resolvable above roundoff and
    inside the quadratic regime; two Richardson levels then remove the
    leading O(dh) and O(dh^2) biases.  Raises NoPlateauError carrying the
    raw ladder when successive extrapolants disagree beyond plateau_rtol
    (0.1%).

    ``state_at(0.0)`` is evaluated once, and no step's state twice: the
    pilot computes the moved state at its trial step and first compares its
    largest covariance entry with the base state's.  Growth g beyond
    extended_precision_above (1e4) puts 1 - F at O(1), far outside the
    quadratic regime, so the step shrinks by sqrt(dh_curvature_target / g)
    with no fidelity taken (a squeezed-frame map, whose entries grow by
    O(dh), never meets the test).  That shrink assumes the entry grows about
    as H dh^2; for entries growing faster (e^{c dh}) it overshoots, so after
    a shrink whose measured drop misses dh_curvature_target by more than 10x
    the pilot re-aims once from that drop.  The fidelity of the settled
    pilot step is the first rung of the ladder.  The ladder reads only
    fidelities of the state map.
    """
    if h != 0.0:
        raise ValueError(f"the QFI ladder is anchored at h = 0, got h = {h!r}")
    base = state_at(0.0)
    steps = list(DEFAULT_POLICY.dh_ladder)
    dh_max = 0.25
    base_size = float(np.abs(base.cov).max())
    drop = math.inf
    target = DEFAULT_POLICY.dh_curvature_target
    shrunk = reaimed = False
    # iterate the pilot both ways: with H ~ 1e16 the default step sits far
    # outside the quadratic regime, while for near-constant maps the fidelity
    # drop hides under roundoff until the step grows
    for _ in range(60):
        moved = state_at(steps[0])
        growth = float(np.abs(moved.cov).max()) / base_size
        if growth > DEFAULT_POLICY.extended_precision_above:
            # entries grown this far put 1 - F at O(1), far outside the
            # quadratic regime; shrink the step without spending a fidelity
            # (which would take the extended-precision path at this size)
            factor = math.sqrt(target / growth)
            shrunk = True
        else:
            pilot = _ladder_estimate(base, moved, steps[0])
            drop = abs(pilot) * steps[0] ** 2  # = 8 |1 - sqrt(F)| at the pilot step
            if drop > DEFAULT_POLICY.dh_curvature_max and steps[0] > 1e-30:
                factor = math.sqrt(target / drop)
            elif drop < 1e-9 and steps[0] < dh_max:
                factor = min(
                    math.sqrt(target / max(drop, 1e-17)),
                    10.0,
                    dh_max / steps[0],
                )
            elif shrunk and not reaimed and not 0.1 < drop / target < 10.0:
                # the growth shrink assumed entries growing as H dh^2 (cavity
                # maps land within 1.5x of the target); entries growing
                # exponentially in dh overshoot it, so aim once more, from
                # the measured drop
                factor = math.sqrt(target / drop)
                reaimed = True
            else:
                break
        steps = [d * factor for d in steps]
        pilot = None  # it measured the step before the rescale
    if drop <= 1e-12:
        # fidelity stays put to roundoff even at the largest usable step:
        # the state map carries no information at this resolution
        result = QFINumericResult(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), steps[0])
        return result if return_diagnostics else result.value
    # the settled pilot is the first rung; only the other two cost a state
    if pilot is None:
        pilot = _ladder_estimate(base, state_at(steps[0]), steps[0])
    ladder = (pilot,) + tuple(_ladder_estimate(base, state_at(d), d) for d in steps[1:])
    e1, e2, e3 = ladder
    r12 = 2.0 * e2 - e1
    r23 = 2.0 * e3 - e2
    final = (4.0 * r23 - r12) / 3.0
    extrapolants = (r12, r23, final)

    span = abs(r23 - r12)
    tol = DEFAULT_POLICY.plateau_rtol * max(abs(final), abs(r23))
    if not (span <= tol or span <= DEFAULT_POLICY.plateau_abs_floor):
        raise NoPlateauError(
            f"QFI ladder did not plateau: extrapolants {extrapolants}", ladder, extrapolants
        )
    if abs(final) <= DEFAULT_POLICY.plateau_abs_floor:
        final = 0.0
    result = QFINumericResult(final, ladder, extrapolants, steps[0])
    return result if return_diagnostics else result.value


# ---------------------------------------------------------------------------
# the matrix-form leading-order QFI
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class H0Result:
    value: float
    truncation_change: float


def qfi_analytic_h0(rows: UnsqueezedRows) -> H0Result:
    """Leading-order QFI H0 of modes (k, k'), in matrix form, from their un-squeezed rows.

    In the frame of ``rows`` the initial state is the vacuum, so the
    transformed covariance is the unit polynomial I + h C1 + h^2 C2, and
    H0 = tr C2 - tr(C1^2) / 4 (Gaussian QFI from sigma and its
    derivatives: Monras, arXiv:1303.3682; Safranek, Lee and Fuentes,
    arXiv:1502.07924).  With the orders A1 (and A2) of ``rows``,
    C1 = A1[:, pair] + A1[:, pair]^T and tr C2 = sum A1^2 (+ 2 tr A2), so
      H0 = sum A1^2 - ||A1[:, pair] + A1[:, pair]^T||_F^2 / 4 (+ 2 tr A2).
    Nothing inverts a squeezed covariance: at r = 10 its entries reach
    e^{20} and their roundoff alone exceeds its smallest eigenvalue e^{-20}.

    H0 is the column sum A = sum A1^2 less the C1 term B/4, both
    non-negative (plus 2 tr A2).  When |H0| is within their float64
    rounding bound 2N eps (A + B/4 + |2 tr A2|), for N modes (rows 2N wide),
    the difference is a cancellation residue and H0 is 0.0: no information,
    not a tiny QFI of either sign.  The truncation change
    (H0(N) - H0(N // 2)) / H0 is the partial sum of A1^2 over the modes
    above N // 2, which is exactly what the halved truncation drops; it is
    nan when N // 2 does not cover the pair and 0.0 when H0 is zero.  Sums
    that overflow float64 (they grow as e^{4|r|}) raise NumericError.
    """
    a1 = rows.orders[1]
    pair = rows.pair
    n = a1.shape[1] // 2
    with np.errstate(over="ignore", invalid="ignore"):
        terms = a1 * a1
        column_sum = terms.sum()
        c1 = a1[:, pair] + a1[:, pair].T
        c1_term = 0.25 * np.sum(c1 * c1)
        value = column_sum - c1_term
        # 2N eps of their size bounds the rounding of the two sums (numpy
        # sums pairwise); an H0 inside it is a cancellation residue
        rounding = 2 * n * _EPS
        bound = rounding * column_sum + rounding * c1_term
        if len(rows.orders) == 3:
            second = 2.0 * np.trace(rows.orders[2][:, pair])
            value += second
            bound += rounding * abs(second)
    # at the reference point the sums leave float64 near r = 205
    if not math.isfinite(bound):
        raise NumericError(f"H0 overflows float64 at squeezing r = {rows.r}")
    value = 0.0 if abs(value) <= bound else float(value)
    half = n // 2
    if max(pair) >= 2 * half:
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
    qfi_valid: bool
    delta_h: float
    delta_a: float
    validity_margin: float | None = None


def cramer_rao(
    qfi: float,
    n_measurements: float,
    length: float,
    sound_speed: float,
    h: float | None = None,
) -> EstimationResult:
    """Optimal bounds Delta h = 1/sqrt(N * H) and Delta a = Delta h * c_s^2 / L.

    When the probe amplitude h is supplied, the result carries the
    perturbative validity margin H * h^2, and the flag that it stays below
    validity_threshold (1e-2).  An N * H that overflows float64 raises
    NumericError, not a bound of zero.
    """
    if qfi <= 0.0:
        raise NoInformationError("QFI must be positive for a Cramer-Rao bound")
    if n_measurements < 1:
        raise ValueError("n_measurements must be >= 1")
    information = n_measurements * qfi
    if math.isinf(information):
        raise NumericError(f"N * QFI = {n_measurements:.3e} * {qfi:.3e} overflows float64")
    delta_h = 1.0 / math.sqrt(information)
    delta_a = delta_h * sound_speed**2 / length
    if h is None:
        return EstimationResult(True, delta_h, delta_a)
    margin = qfi * h * h
    return EstimationResult(margin < DEFAULT_POLICY.validity_threshold, delta_h, delta_a, margin)
