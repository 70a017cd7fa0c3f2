"""Reference implementations that the tests compare the package against.

None of these is on a path that ``cavqfi`` runs: the series evaluated at
one amplitude as whole coefficient matrices, the full-symplectic state
transform (the ground truth for ``bogoliubov.transform_reduced``), the
un-squeezed rows order by order (the orders whose Gram sum
``bogoliubov.unsqueezed_state_map`` forms), the state map and the H0 of a
whole series, the matrix-form H0 summed over the un-squeezed rows (the
reference for ``metrology.qfi_analytic_h0``),
the squeezed-frame route to the un-squeezed ladder state (the reference for
``bogoliubov.unsqueezed_state_map``), the exact-transform identities and
symplectic defects, the physicality check, reference states, the
closed-form static pair coefficients, the whole-matrix cavity series, the
closed-form QFI of a lattice point, and the atom-interferometer baseline.
Tests import them as ``from oracles import ...``, the way they import
``conftest``.

A ``BogoliubovSeries`` is in the interaction picture, S(h) = 1 + h S1
(+ h^2 S2 on the pair columns of rows k, k').  The lab frame exists only
here: the oracles that take ``phases`` (unit G_m, e.g. from
``cavity.free_phases``) multiply row m of the evaluated coefficients by
G_m before they use them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from cavqfi.bogoliubov import (
    BogoliubovSeries,
    _check_mode_pair,
    pair_columns,
    symplectic_blocks,
    unsqueezed_state_map,
)
from cavqfi.cavity import CavityScenario, drive_entries
from cavqfi.errors import NumericError
from cavqfi.gaussian import SYMMETRY_TOL, GaussianState, _frozen, symplectic_form
from cavqfi.metrology import H0Result, h0_coefficients, qfi_analytic_h0

# ---------------------------------------------------------------------------
# states and the physicality check
# ---------------------------------------------------------------------------

# lowest eigenvalue of sigma + i Omega that check_physical accepts
UNCERTAINTY_FLOOR = -1e-10


def vacuum(num_modes: int) -> GaussianState:
    return GaussianState(num_modes, np.eye(2 * num_modes))


def thermal_two_mode(nu_1: float, nu_2: float) -> GaussianState:
    """Two-mode thermal state with symplectic eigenvalues nu_i >= 1."""
    if nu_1 < 1.0 or nu_2 < 1.0:
        raise ValueError("thermal symplectic eigenvalues must be >= 1")
    return GaussianState(2, np.diag([nu_1, nu_1, nu_2, nu_2]))


def partial_trace(state: GaussianState, keep_modes) -> GaussianState:
    """Restrict to the given (1-based) modes, preserving their order."""
    keep = list(keep_modes)
    if not keep:
        raise ValueError("keep_modes must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError("keep_modes contains duplicates")
    for m in keep:
        if not (1 <= m <= state.num_modes):
            raise ValueError(f"mode {m} out of range 1..{state.num_modes}")
    idx = np.concatenate([[2 * (m - 1), 2 * m - 1] for m in keep])
    return GaussianState(len(keep), state.cov[np.ix_(idx, idx)])


@dataclasses.dataclass(frozen=True)
class PhysicalityReport:
    ok: bool
    symmetry_defect: float
    min_uncertainty_eig: float
    violations: tuple

    def __bool__(self):
        return self.ok


def check_physical(state: GaussianState) -> PhysicalityReport:
    """Check symmetry and the uncertainty relation eig(sigma + i Omega) >= UNCERTAINTY_FLOOR.

    Returns a report rather than raising, so callers can inspect near-misses
    (perturbative transforms violate the bound at second order by design).
    """
    violations = []
    cov = state.cov
    sym_defect = float(np.max(np.abs(cov - cov.T)))
    if sym_defect > SYMMETRY_TOL:
        violations.append(f"asymmetry {sym_defect:.3e} exceeds {SYMMETRY_TOL:.1e}")
    herm = cov + 1j * symplectic_form(state.num_modes)
    min_eig = float(np.linalg.eigvalsh(herm).min())
    if min_eig < UNCERTAINTY_FLOOR:
        violations.append(
            f"uncertainty violated: min eig(sigma + i Omega) = {min_eig:.3e}"
        )
    return PhysicalityReport(
        ok=not violations,
        symmetry_defect=sym_defect,
        min_uncertainty_eig=min_eig,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# the full symplectic matrix and the full-covariance transform
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BogoliubovCoefficients:
    """Exact or series-evaluated coefficient matrices over a truncated mode set."""

    n_modes: int
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=complex)
        beta = np.asarray(self.beta, dtype=complex)
        n = self.n_modes
        if alpha.shape != (n, n) or beta.shape != (n, n):
            raise ValueError(f"alpha and beta must be {n}x{n}")
        object.__setattr__(self, "alpha", _frozen(alpha, complex))
        object.__setattr__(self, "beta", _frozen(beta, complex))


def evaluate_series(series: BogoliubovSeries, h: float) -> BogoliubovCoefficients:
    """Coefficients at drive amplitude h: 1 + h alpha1 (+ h^2 diag(alpha2)), h beta1."""
    if h < 0:
        raise ValueError("h must be >= 0")
    alpha = np.eye(series.n_modes) + h * series.alpha1
    if series.alpha2 is not None:
        alpha[np.diag_indices(series.n_modes)] += h * h * series.alpha2
    return BogoliubovCoefficients(series.n_modes, alpha, h * series.beta1)


def identity_defects(coeffs: BogoliubovCoefficients):
    """(unitarity, symmetry) defects of the exact-transform identities.

    unitarity: || alpha alpha^dag - beta beta^dag - 1 ||_max
    symmetry:  || alpha beta^T - (alpha beta^T)^T ||_max
    Exact coefficient sets satisfy both to ~1e-8; series truncated at
    first order violate them at O(h^2) by construction.
    """
    eye = np.eye(coeffs.n_modes)
    uni = coeffs.alpha @ coeffs.alpha.conj().T - coeffs.beta @ coeffs.beta.conj().T - eye
    ab = coeffs.alpha @ coeffs.beta.T
    return float(np.abs(uni).max()), float(np.abs(ab - ab.T).max())


def assemble_symplectic(coeffs: BogoliubovCoefficients) -> np.ndarray:
    """Real 2N x 2N matrix of the 2x2 blocks of bogoliubov.symplectic_blocks (read-only)."""
    return _frozen(symplectic_blocks(coeffs.alpha, coeffs.beta), float)


def symplectic_defect(s: np.ndarray) -> float:
    """|| S Omega S^T - Omega ||_max; ~1e-15 for exact transforms, O(h^2) for series."""
    omega = symplectic_form(s.shape[0] // 2)
    return float(np.abs(s @ omega @ s.T - omega).max())


def series_symplectic_defect(series: BogoliubovSeries, h: float) -> float:
    """Convenience: symplectic defect of the series evaluated at h (O(h^2))."""
    return symplectic_defect(assemble_symplectic(evaluate_series(series, h)))


def transform_full_oracle(
    initial: GaussianState,
    series: BogoliubovSeries,
    h: float,
    k: int,
    kprime: int,
    phases=None,
) -> GaussianState:
    """Ground-truth path: embed, conjugate the full covariance, trace back down.

    Builds the 2N x 2N covariance (identity except the k/kprime blocks),
    applies S sigma S^T with the fully assembled symplectic matrix, then
    partial-traces to (k, kprime).  With phases G, the coefficients are
    those of the lab frame, row m of alpha(h) and beta(h) times G_m.
    """
    if initial.num_modes != 2:
        raise ValueError("initial state must have exactly two modes")
    _check_mode_pair(series.n_modes, k, kprime)
    n = series.n_modes
    pair = pair_columns(k, kprime)
    cov = np.eye(2 * n)
    cov[np.ix_(pair, pair)] = initial.cov

    coeffs = evaluate_series(series, h)
    if phases is not None:
        g = np.asarray(phases)[:, None]
        coeffs = BogoliubovCoefficients(n, g * coeffs.alpha, g * coeffs.beta)
    s = assemble_symplectic(coeffs)
    full_cov = s @ cov @ s.T
    full_cov = 0.5 * (full_cov + full_cov.T)
    full = GaussianState(n, full_cov)
    return partial_trace(full, [k, kprime])


@dataclasses.dataclass(frozen=True)
class UnsqueezedRows:
    """Rows k, k' of a series, order by order, in the frame where the initial state is the vacuum.

    orders stacks the (4, 2N) orders A0, A1 (and A2) of
    M(h) = t S(h) T^-1 that bogoliubov.unsqueezed_state_map forms and
    keeps to itself; rows 0, 1 belong to mode k, rows 2, 3 to mode k'.
    pair holds the four pair columns (pair_columns(k, kprime)).
    """

    r: float
    pair: tuple
    orders: np.ndarray


def unsqueezed_rows(alpha1, beta1, r: float, k: int, kprime: int, alpha2=None) -> UnsqueezedRows:
    """The orders of rows k, k' un-squeezed by r, with the arithmetic of unsqueezed_state_map.

    alpha1 and beta1 are rows k and k' of the first-order matrices (and
    alpha2 the entries (alpha2_k, alpha2_k')), as unsqueezed_state_map
    takes them.  Each order's entry (i, j) is its r = 0 value times
    t_i / T_j, formed as that function forms it, so the Gram sum of these
    orders is the state map's covariance bit for bit.  Entries that
    overflow float64 (they grow as e^{2r}) are kept as they come.
    """
    n_modes = np.shape(alpha1)[-1]
    _check_mode_pair(n_modes, k, kprime)
    pair = pair_columns(k, kprime)
    stacked = np.zeros((2 if alpha2 is None else 3, 4, 2 * n_modes))
    stacked[0][:, pair] = np.eye(4)
    stacked[1] = symplectic_blocks(alpha1, beta1)
    if alpha2 is not None:
        stacked[2][:, pair] = symplectic_blocks(np.diag(alpha2), np.zeros((2, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.exp([-r, r, -r, r])
        cols = np.ones(stacked.shape[2])
        cols[pair] = t
        orders = stacked * t[:, None] / cols
    return UnsqueezedRows(r, tuple(pair), orders)


def pair_rows(series: BogoliubovSeries, k: int, kprime: int):
    """(alpha1, beta1, alpha2) of rows k, k' sliced from a whole series.

    The package builds a point's rows alone (cavity.build_rows); tests
    that hold a whole series, random or built, pass its rows this way.
    alpha2 is None when the series has no second order.
    """
    rows = [k - 1, kprime - 1]
    alpha2 = None if series.alpha2 is None else series.alpha2[rows]
    return series.alpha1[rows], series.beta1[rows], alpha2


def series_unsqueezed_rows(series: BogoliubovSeries, r: float, k: int, kprime: int):
    """unsqueezed_rows of rows k, k' sliced from a whole series."""
    alpha1, beta1, alpha2 = pair_rows(series, k, kprime)
    return unsqueezed_rows(alpha1, beta1, r, k, kprime, alpha2)


def series_state_map(series: BogoliubovSeries, r: float, k: int, kprime: int):
    """bogoliubov.unsqueezed_state_map of rows k, k' sliced from a whole series, vacuum sigma0."""
    alpha1, beta1, alpha2 = pair_rows(series, k, kprime)
    return unsqueezed_state_map(alpha1, beta1, r, k, kprime, alpha2=alpha2)


def series_h0(series: BogoliubovSeries, r: float, k: int, kprime: int) -> H0Result:
    """metrology.qfi_analytic_h0 at r of rows k, k' sliced from a whole series.

    The package builds a point's rows alone (cavity.build_rows) and takes
    their coefficients (metrology.h0_coefficients); tests that hold a whole
    series, random or built, take its H0 this way.
    """
    alpha1, beta1, alpha2 = pair_rows(series, k, kprime)
    return qfi_analytic_h0(h0_coefficients(alpha1, beta1, k, kprime, alpha2), r)


def matrix_form_h0(rows: UnsqueezedRows) -> H0Result:
    """H0 of modes (k, k') summed over their un-squeezed rows, order by order.

    The route ``metrology.qfi_analytic_h0`` took before it read the
    coefficients of e^{2 p r}: with the orders A1 (and A2) of ``rows``,
    C1 = A1[:, pair] + A1[:, pair]^T and tr C2 = sum A1^2 (+ 2 tr A2), so
      H0 = sum A1^2 - ||A1[:, pair] + A1[:, pair]^T||_F^2 / 4 (+ 2 tr A2),
    summed over the (4, 2N) scaled entries themselves.  The same zero
    decision (|H0| within 2N eps (A + B/4 + |2 tr A2|) is 0.0), the same
    truncation change (the partial sum of A1^2 over the modes above N // 2,
    over H0; nan when N // 2 does not cover the pair) and NumericError on
    sums that overflow float64.
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
        rounding = 2 * n * np.finfo(float).eps
        bound = rounding * column_sum + rounding * c1_term
        if len(rows.orders) == 3:
            second = 2.0 * np.trace(rows.orders[2][:, pair])
            value += second
            bound += rounding * abs(second)
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


def squeezed_frame_ladder_state(
    series: BogoliubovSeries, r: float, h: float, k: int, kprime: int
) -> GaussianState:
    """The un-squeezed ladder state of modes (k, k'), by way of the squeezed frame.

    The route the ``cavqfi qfi`` cross-check took before
    bogoliubov.unsqueezed_state_map: rows k, k' of
    S(h) = 1 + h S1 (+ h^2 S2 on the pair columns) formed at h, the
    squeezed-frame covariance conjugated from them with both modes squeezed
    by r and every other mode in the vacuum, then every entry (i, j) scaled
    by t_i t_j for t = (e^{-r}, e^{r}, e^{-r}, e^{r}).  The squeezed-frame
    entries reach e^{2r}, so this state carries their rounding.
    """
    _check_mode_pair(series.n_modes, k, kprime)
    rows = [k - 1, kprime - 1]
    pair = pair_columns(k, kprime)
    s = h * symplectic_blocks(series.alpha1[rows], series.beta1[rows])
    s[:, pair] += np.eye(4)
    if series.alpha2 is not None:
        s2 = symplectic_blocks(np.diag(series.alpha2[rows]), np.zeros((2, 2)))
        s[:, pair] += h * h * s2
    sigma0 = np.diag([math.exp(2 * r), math.exp(-2 * r)] * 2)
    # the spectator columns act on the vacuum, the pair columns on sigma0
    own = s[:, pair]
    spect = s.copy()
    spect[:, pair] = 0.0
    squeezed = spect @ spect.T + own @ sigma0 @ own.T
    squeezed = 0.5 * (squeezed + squeezed.T)
    t = np.array([math.exp(-r), math.exp(r)] * 2)
    return GaussianState(2, squeezed * np.outer(t, t))


def trivial_series(n_modes: int) -> BogoliubovSeries:
    """Identity transformation at every order (all matrices zero)."""
    zeros = np.zeros((n_modes, n_modes), dtype=complex)
    return BogoliubovSeries(n_modes, zeros, zeros)


# ---------------------------------------------------------------------------
# closed forms of the cavity and the atom-interferometer baseline
# ---------------------------------------------------------------------------


def static_first_order(k: int, kprime: int) -> tuple[float, float]:
    """Static first-order pair coefficients for one uniformly accelerated hop.

    alpha1 = -2 sqrt(k k') / (pi^2 (k' - k)^3),
    beta1  =  2 sqrt(k k') / (pi^2 (k + k')^3).
    Defined for oddly separated pairs; the first argument is the row index of
    the corresponding matrix entry.
    """
    if k == kprime:
        raise ValueError("k and kprime must differ")
    root = math.sqrt(k * kprime)
    alpha1 = -2.0 * root / (math.pi**2 * (kprime - k) ** 3)
    beta1 = 2.0 * root / (math.pi**2 * (kprime + k) ** 3)
    return alpha1, beta1


def whole_static_matrices(n_max: int, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Static (alpha, beta) matrices over 1..n_max, every entry of rows at once.

    The float formula that cavity.static_matrices used before it took row
    and column selections: same-parity entries masked to +0.0 by np.where,
    cubes by ``**3``.  rows (a slice or an index array of 0-based modes
    m - 1, default all) keeps those rows; the formula is elementwise, so
    each entry has the same bits whichever rows are formed.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    rows, cols = n[rows][:, None], n[None, :]
    odd = ((rows - cols) % 2).astype(bool)
    root = np.sqrt(rows * cols)
    diff = np.where(odd, cols - rows, 1.0)
    total = cols + rows
    alpha = np.where(odd, -2.0 * root / (math.pi**2 * diff**3), 0.0)
    beta = np.where(odd, 2.0 * root / (math.pi**2 * total**3), 0.0)
    return alpha, beta


def mode_frequency(n: int, scenario: CavityScenario) -> float:
    """Angular frequency w_n = pi n c_s / L of mode n (rad/s), one mode at a time."""
    return math.pi * n * scenario.sound_speed / scenario.length


def whole_matrix_coefficients(
    scenario: CavityScenario, rows=slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Interaction-picture (alpha1, beta1) of the cavity series in one call.

    The single whole-matrix formula that cavity.build_scenario_series used
    before it built the series a row at a time: per-mode frequencies from
    mode_frequency, every static and drive term of the rows at once, the
    same-parity entries included (they come out as zeros of either sign).
    rows (a slice or an index array of 0-based modes m - 1, default all)
    forms only those rows, each entry with the bits it has in the whole
    matrix.
    """
    omegas = np.array([mode_frequency(n, scenario) for n in range(1, scenario.n_max + 1)])
    alpha_static, beta_static = whole_static_matrices(scenario.n_max, rows)
    omega, tau = scenario.drive_omega, scenario.tau
    diff = omegas[rows][:, None] - omegas[None, :]
    total = omegas[rows][:, None] + omegas[None, :]
    alpha1 = drive_entries(alpha_static * diff, diff, omega, tau)
    beta1 = drive_entries(beta_static * total, total, omega, tau)
    return alpha1, beta1


def phase_integral(x, omega, tau):
    """Closed form of int_0^tau sin(omega t) exp(i x t) dt, stable at resonance.

    It is the per-entry formula of the row build, cavity.drive_entries, at
    scale 1, over i: one exponential z = exp(i h) per half-phase
    h = (x +- omega) tau / 2, whose sinc Im(z) / h is exactly 1 at h = 0, so
    no separate resonant branch is needed.  Multiplying by -i only swaps
    the parts and flips a sign, so this is exactly what the row build forms.
    """
    return -1j * drive_entries(1.0, x, omega, tau)


def lattice_qfi(scenario: CavityScenario) -> float:
    """Closed-form leading-order QFI of a lattice point at the sum resonance.

    At tau a multiple of the round trip 2L/c_s every off-resonant drive
    integral vanishes (sinc(j pi) = 0), and rows k and k' keep three
    entries: the pair creation beta1_kk' and the mode mixings
    alpha1_k,2k+k' and alpha1_k',k+2k'.  Each has modulus |static| |x| tau / 2,
    with |x| = w_k + w_k' its frequency, and with the spectators in vacuum
    the reduced-state QFI is
      H0 = 4 |beta1_kk'|^2 + 4 (|alpha1_k,2k+k'|^2 + |alpha1_k',k+2k'|^2) sinh^2 r.
    The static moduli come from static_first_order, so nothing here reads
    cavity.static_matrices, cavity.drive_entries or the H0 matrix algebra.
    The partners enter analytically, whatever n_max is.  A drive off the
    sum resonance or a tau off the lattice raises ValueError.
    """
    k, kp = scenario.k, scenario.kprime
    x = mode_frequency(k, scenario) + mode_frequency(kp, scenario)
    if scenario.omega is not None and scenario.omega != x:
        raise ValueError("the closed form holds at the sum resonance only")
    cycles = scenario.tau * scenario.sound_speed / (2.0 * scenario.length)
    if abs(cycles - round(cycles)) > 1e-9 * cycles:
        raise ValueError(f"tau = {scenario.tau!r} is off the round-trip lattice")
    scale = x * scenario.tau / 2.0
    beta = static_first_order(k, kp)[1] * scale
    alpha_k = static_first_order(k, 2 * k + kp)[0] * scale
    alpha_kp = static_first_order(kp, k + 2 * kp)[0] * scale
    mixing = alpha_k**2 + alpha_kp**2
    return 4.0 * beta**2 + 4.0 * mixing * math.sinh(scenario.squeezing) ** 2


def resonant_beta_slope(scenario: CavityScenario) -> float:
    """Analytic growth rate of |beta1_{k,kp}(tau)| at the sum resonance."""
    _, beta_s = static_first_order(scenario.k, scenario.kprime)
    total = mode_frequency(scenario.k, scenario) + mode_frequency(
        scenario.kprime, scenario
    )
    return abs(beta_s) * total / 2.0


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
