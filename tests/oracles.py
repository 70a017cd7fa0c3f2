"""Reference implementations that the tests compare the package against.

None of these is on a path that ``cavqfi`` runs: the series evaluated at
one amplitude as whole coefficient matrices, the full-symplectic state
transform (the ground truth for ``bogoliubov.transform_reduced``), the
squeezed-frame route to the un-squeezed ladder state (the reference for
``bogoliubov.unsqueezed_state_map``), the exact-transform identities and
symplectic defects, the physicality check, reference states, the
closed-form static pair coefficients, the whole-matrix cavity series, and
the atom-interferometer baseline.  Tests import them as
``from oracles import ...``, the way they import ``conftest``.

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

from cavqfi import kernels
from cavqfi.bogoliubov import BogoliubovSeries, _check_mode_pair, pair_columns
from cavqfi.cavity import CavityScenario
from cavqfi.gaussian import SYMMETRY_TOL, GaussianState, _frozen, symplectic_form

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
    """Real 2N x 2N matrix of the 2x2 blocks of kernels.symplectic_blocks (read-only)."""
    return _frozen(kernels.symplectic_blocks(coeffs.alpha, coeffs.beta), float)


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
    _check_mode_pair(series, k, kprime)
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
    _check_mode_pair(series, k, kprime)
    rows = [k - 1, kprime - 1]
    pair = pair_columns(k, kprime)
    s = h * kernels.symplectic_blocks(series.alpha1[rows], series.beta1[rows])
    s[:, pair] += np.eye(4)
    if series.alpha2 is not None:
        s2 = kernels.symplectic_blocks(np.diag(series.alpha2[rows]), np.zeros((2, 2)))
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


def whole_static_matrices(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Static (alpha, beta) matrices over 1..n_max, every entry at once.

    The float formula that cavity.static_matrices used before it took row
    and column selections: same-parity entries masked to +0.0 by np.where,
    cubes by ``**3``.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    rows, cols = n[:, None], n[None, :]
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


def whole_matrix_coefficients(scenario: CavityScenario) -> tuple[np.ndarray, np.ndarray]:
    """Interaction-picture (alpha1, beta1) of the cavity series in one call.

    The single whole-matrix formula that cavity.build_scenario_series used
    before it filled the matrices in row blocks: per-mode frequencies from
    mode_frequency, every n_max x n_max static and drive term at once, the
    same-parity entries included (they come out as zeros of either sign).
    """
    omegas = np.array([mode_frequency(n, scenario) for n in range(1, scenario.n_max + 1)])
    alpha_static, beta_static = whole_static_matrices(scenario.n_max)
    omega, tau = scenario.drive_omega, scenario.tau
    diff = omegas[:, None] - omegas[None, :]
    total = omegas[:, None] + omegas[None, :]
    alpha1 = 1j * alpha_static * diff * kernels.phase_integral(diff, omega, tau)
    beta1 = 1j * beta_static * total * kernels.phase_integral(total, omega, tau)
    return alpha1, beta1


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
