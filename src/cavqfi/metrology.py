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

The QFI comes in two independent routes, and both read rows k and k' of
the interaction-picture series of a point.  Production uses the matrix
form qfi_analytic_h0: H0 = tr C2 - tr(C1^2) / 4 for the transformed
covariance I + h C1 + h^2 C2 in the frame where the initial state is the
vacuum, with no fitted inputs.  In that frame each entry of the rows is
its r = 0 value times a power of e^r, so H0 is a sum of coefficients times
e^{2 p r}, p = -2..2, which rows k and k' at r = 0 fix
(h0_coefficients): one call takes a point's duration and its two tau
probes, and no un-squeezed row is formed for H0.  The same sums measure
how much of H0 the modes above a halved truncation carry.  The
finite-difference step ladder on the fidelity with Richardson
extrapolation (qfi_numeric) is the independent cross-check: ``cavqfi qfi``
reports both, and the test suite compares them.  ``cavqfi qfi`` feeds the
ladder the states of one bogoliubov.unsqueezed_state_map of the rows at
the point's duration, in the frame where the squeezed initial state is
the vacuum.  They sit near the vacuum, and the ladder's pilot shrinks a
step whose state has grown past extended_precision_above without taking
its fidelity, so every fidelity stays on the float64 path.

cramer_rao turns a QFI into the two Cramer-Rao bounds and nothing more.
Whether a probe amplitude lies inside the perturbative domain (H0 h^2
below the policy's validity threshold) is decided by the CLI, which knows
the probe: cli.evaluate_scenario records the margin and cmd_qfi flags it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .bogoliubov import _check_mode_pair
from .errors import ConditioningError, NoPlateauError, NumericError
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
    # both precision paths end here; the mpmath one rounds its parts to
    # float64, where determinants of large covariances overflow
    if not all(map(math.isfinite, (gamma, lam1, lam2, delta))):
        raise NumericError("fidelity determinants overflow float64")
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
# the matrix-form leading-order QFI, from coefficients of e^{2 p r}
# ---------------------------------------------------------------------------

# the powers p = -2..2 of e^{2 p r}, in the order of the coefficients' last axis
_POWERS = np.arange(-2, 3)


@dataclasses.dataclass(frozen=True)
class H0Coefficients:
    """The parts of H0 for modes (k, k') as coefficients of e^{2 p r}, p = -2..2.

    Built by h0_coefficients from rows k and k' at r = 0.  parts has shape
    (..., 4, 5), its leading axes those of the rows (one entry per
    duration) and its last axis p + 2.  parts[..., 0, :] holds A = sum A1^2,
    parts[..., 1, :] holds B/4 = ||C1||_F^2 / 4 (zero at p = +-1),
    parts[..., 2, :] holds the part of A carried by the modes above
    n_modes // 2 (zero but at p = +-1; nan when those modes include k or
    k') and parts[..., 3, :] the rounding bound of that part (zero but at
    p = +-1).  second holds 2 tr A2, which does not depend on r (zero
    without a second order).
    """

    n_modes: int
    parts: np.ndarray
    second: np.ndarray


@np.errstate(over="ignore")
def h0_coefficients(alpha1, beta1, k: int, kprime: int, alpha2) -> H0Coefficients:
    """H0's coefficients of e^{2 p r} from rows k and k' of alpha1 and beta1 at r = 0.

    alpha1 and beta1 are (..., 2, N) arrays, N the number of modes: rows k
    and k' (in that order) of the first-order matrices, with any leading
    axes (a cavity point stacks its durations there, cavity.build_rows).
    alpha2 is None for a series with no second order (a cavity series has
    none), or the (..., 2) array of the second-order diagonal entries
    (alpha2_k, alpha2_k').  Rows of another shape, or a mode pair outside
    1..N, raise ValueError.  Entries that square past float64 give
    infinite coefficients, with no warning, which qfi_analytic_h0 refuses.

    The un-squeezed first order A1 = t S1 T^-1 (bogoliubov.unsqueezed_state_map)
    scales entry (i, j) of S1, the rows at r = 0, by t_i / T_j, a power of
    e^r: row i is an x row (t_i = e^{-r}) or a p row (e^r), and T_j is t_j
    on the pair columns and 1 on the spectators.  So A and B/4 are sums of
    coefficients times e^{2 p r}, and the coefficients are sums over S1,
    whose 2x2 block for the entry (a, b) of alpha1 and beta1 has the x row
    (Re(a-b), Im(a+b)) and the p row (-Im(a-b), Re(a+b)):
      - a spectator column adds its x rows' squares,
        |a - conj(b)|^2, to A at p = -1 and its p rows' squares,
        |a + conj(b)|^2, at p = +1;
      - the pair columns form a 4x4 block P, which adds its squares to A
        at p = -2 from x rows to p columns (Im(a+b)^2), at p = +2 from p
        rows to x columns (Im(a-b)^2) and at p = 0 within a quadrature.
        With P' the scaled block, B/4 = ||P' + P'^T||_F^2 / 4 takes half of
        A's pair squares at p = -+2; at p = 0 it takes the squares of
        P + P^T within a quadrature over 4, plus the products P_ij P_ji
        from x rows to p columns.
    t S2 t^-1 keeps the diagonal of S2, so 2 tr A2 = 2 tr S2.

    The rounding bound of the upper part: each entry of the rows is a
    difference of two float64 terms (cavity.drive_entries), so an entry
    whose exact value is zero, such as an off-resonant drive integral on
    the round-trip lattice, keeps a residue of about eps times its scale.
    For that scale take the modulus of the largest entry, the resonant
    ones, which is at most sqrt(2) M for M the largest real or imaginary
    part of a quadrature value a -+ conj(b) (a -+ b on the pair columns).
    Each entry's rounding is then at most sqrt(2) eps M and each quadrature
    value's 2 sqrt(2) eps M, and the upper part, a sum of 2 (N - N // 2)
    squared quadrature values at each of its powers, is a rounding residue
    when each power is within 16 (N - N // 2) eps^2 M^2.  Rows whose upper
    columns have scales far above M (N // 2 just above the pair) may keep
    their residue, which is then reported.
    """
    alpha1, beta1 = np.asarray(alpha1, dtype=complex), np.asarray(beta1, dtype=complex)
    n_modes = alpha1.shape[-1]
    if alpha1.ndim < 2 or alpha1.shape[-2] != 2 or beta1.shape != alpha1.shape:
        raise ValueError("alpha1 and beta1 must be rows k, k' of equal length")
    _check_mode_pair(n_modes, k, kprime)
    cols = [k - 1, kprime - 1]
    half = n_modes // 2
    parts = np.zeros(alpha1.shape[:-2] + (4, 5))
    column, c1, upper, rounding = parts[..., 0, :], parts[..., 1, :], parts[..., 2, :], parts[..., 3, :]
    # the pair block P, rows k, k' against columns k, k', in its 2x2
    # quadrature blocks: x rows to x columns Re(a-b), x rows to p columns
    # Im(a+b), p rows to x columns -Im(a-b), p rows to p columns Re(a+b)
    a, b = alpha1[..., cols], beta1[..., cols]
    d, s = a - b, a + b
    xx, xp, px, pp = d.real, s.imag, -d.imag, s.real
    blocks = np.stack([xp, xx, pp, px, xx + xx.swapaxes(-2, -1), pp + pp.swapaxes(-2, -1)])
    squares = blocks * blocks
    low, same_x, same_p, high, sym_x, sym_p = squares.sum((-2, -1))
    # the largest square of a real or imaginary part of a quadrature value
    largest = squares[:4].max((0, -2, -1))
    cross = (xp * px.swapaxes(-2, -1)).sum((-2, -1))
    column[..., 0], column[..., 2], column[..., 4] = low, same_x + same_p, high
    c1[..., 0], c1[..., 2], c1[..., 4] = 0.5 * low, 0.25 * (sym_x + sym_p) + cross, 0.5 * high
    # the spectator columns, with the pair columns zeroed: x rows
    # |a - conj(b)|^2 at p = -1 and p rows |a + conj(b)|^2 at p = +1,
    # squared in place as (re, im) floats
    conj_beta = np.conj(beta1)
    for at, rows in ((1, alpha1 - conj_beta), (3, np.add(alpha1, conj_beta, out=conj_beta))):
        rows[..., cols] = 0.0
        entries = rows.view(float)
        np.square(entries, out=entries)
        column[..., at] = entries.sum((-2, -1))
        upper[..., at] = entries[..., 2 * half :].sum((-2, -1))
        largest = np.maximum(largest, entries.max((-2, -1)))
    if max(cols) >= half:
        upper[...] = math.nan
    # 2 (N - N // 2) upper quadrature values, each within 2 sqrt(2) eps M
    rounding[..., 1] = rounding[..., 3] = 16 * (n_modes - half) * _EPS * _EPS * largest
    second = np.zeros(parts.shape[:-2]) if alpha2 is None else 4.0 * np.real(alpha2).sum(-1)
    return H0Coefficients(n_modes, parts, second)


@dataclasses.dataclass(frozen=True)
class H0Result:
    value: float
    truncation_change: float
    probes: tuple = ()


def qfi_analytic_h0(coefficients: H0Coefficients, r: float) -> H0Result:
    """Leading-order QFI H0 of modes (k, k') at squeezing r, in matrix form.

    In the frame where the squeezed initial state is the vacuum, the
    transformed covariance is the unit polynomial I + h C1 + h^2 C2, and
    H0 = tr C2 - tr(C1^2) / 4 (Gaussian QFI from sigma and its
    derivatives: Monras, arXiv:1303.3682; Safranek, Lee and Fuentes,
    arXiv:1502.07924).  With the orders A1 (and A2) of the un-squeezed
    rows, C1 = A1[:, pair] + A1[:, pair]^T and tr C2 = sum A1^2 (+ 2 tr A2),
    so H0 = A - B/4 (+ 2 tr A2) for the column sum A = sum A1^2 and
    B/4 = ||C1||_F^2 / 4, both non-negative.  ``coefficients``
    (h0_coefficients) holds A and B/4 as coefficients of e^{2 p r}, so H0
    at r is their weighted sum: nothing forms the un-squeezed rows, and
    nothing inverts a squeezed covariance.  Each term is weighted on its
    own, c_p e^{2 p r}, and overflows float64 only when its value does
    (e^{4r} alone leaves float64 from r = 177.5).

    When |H0| is within the float64 rounding bound 2N eps (A + B/4 + |2 tr A2|),
    for N modes, the difference is a cancellation residue and H0 is 0.0:
    no information, not a tiny QFI of either sign.  The truncation change
    (H0(N) - H0(N // 2)) / H0 is the part of A carried by the modes above
    N // 2, which is exactly what the halved truncation drops, over H0; it
    is nan when N // 2 does not cover the pair, and 0.0 when H0 is zero or
    when that part is within the rounding bound of the rows' own entries
    (h0_coefficients states it), so that the residue the round-trip
    lattice leaves is not reported as data.

    With leading axes of durations, the first duration is the point's and
    the others are probes of it: value and truncation_change are the
    point's, and probes holds the other H0 in order, each decided against
    its own bound, and inf for one whose sums overflow float64.  Sums of
    the point that overflow float64 (they grow as e^{4|r|}) raise
    NumericError.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weights = np.exp(2.0 * _POWERS * r)
        terms = coefficients.parts * weights
        far = np.isinf(weights)
        if far.any():
            terms[..., far] = np.exp(2.0 * _POWERS[far] * r + np.log(coefficients.parts[..., far]))
        column, c1, upper, residue = terms.sum(-1).reshape(-1, 4).T
        second = np.reshape(coefficients.second, -1)
        value = column - c1 + second
        # 2N eps of their size bounds the rounding of the sums; an H0
        # inside it is a cancellation residue
        rounding = 2 * coefficients.n_modes * _EPS
        bound = rounding * column + rounding * c1 + rounding * np.abs(second)
    # at the reference point the sums leave float64 near r = 205
    if not math.isfinite(bound[0]):
        raise NumericError(f"H0 overflows float64 at squeezing r = {r}")
    value = np.where(np.abs(value) <= bound, 0.0, value)
    value[~np.isfinite(bound)] = math.inf
    point = float(value[0])
    if math.isnan(upper[0]):
        change = math.nan
    elif point == 0.0 or upper[0] <= residue[0]:
        change = 0.0
    else:
        change = float(upper[0]) / point
    return H0Result(point, change, tuple(value[1:].tolist()))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cramer_rao(
    qfi: float, n_measurements: float, length: float, sound_speed: float
) -> tuple[float, float]:
    """Optimal bounds (Delta h, Delta a) = (1/sqrt(N * H), Delta h * c_s^2 / L).

    Both are inf at H <= 0, where the point carries no information.  An
    N * H that overflows float64 raises NumericError, not a bound of zero.
    The perturbative validity of a probe amplitude is not decided here:
    the record carries its margin H * h^2 (cli.evaluate_scenario), and
    ``cavqfi qfi`` compares it with the policy's threshold (cli.cmd_qfi).
    """
    if n_measurements < 1:
        raise ValueError("n_measurements must be >= 1")
    if qfi <= 0.0:
        return math.inf, math.inf
    information = n_measurements * qfi
    if math.isinf(information):
        raise NumericError(f"N * QFI = {n_measurements:.3e} * {qfi:.3e} overflows float64")
    delta_h = 1.0 / math.sqrt(information)
    return delta_h, delta_h * sound_speed**2 / length
