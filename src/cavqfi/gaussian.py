"""Phase-space representation of Gaussian states of a bosonic field.

Conventions: quadratures are interleaved as (x1, p1, x2, p2, ...) with
x_n = (a_n + a_n^dag)/sqrt(2), p_n = -i (a_n - a_n^dag)/sqrt(2), and the
covariance matrix is sigma_ij = <X_i X_j + X_j X_i> - 2 <X_i><X_j>, so the
vacuum covariance is exactly the identity.  Mode indices in the public API
are 1-based, matching the mode labels k, k' used throughout.

Two fixed tolerances belong to the state type: SYMMETRY_TOL, the largest
asymmetry a covariance may carry, and UNCERTAINTY_FLOOR, the lowest
eigenvalue of sigma + i Omega that check_physical accepts.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NumericError

SYMMETRY_TOL = 1e-12
UNCERTAINTY_FLOOR = -1e-10


def symplectic_form(num_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode (read-only)."""
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    omega = np.zeros((2 * num_modes, 2 * num_modes))
    omega[0::2, 1::2] = np.eye(num_modes)
    omega[1::2, 0::2] = -np.eye(num_modes)
    return _frozen(omega)


def _frozen(arr):
    arr = np.asarray(arr)
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True)
class GaussianState:
    """Zero-indexed arrays, 1-based mode labels at the API surface.

    first_moments has length 2*num_modes, cov is 2N x 2N real symmetric.
    Instances are immutable; all operations return new states.
    """

    num_modes: int
    first_moments: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        moments = np.asarray(self.first_moments, dtype=float)
        n = self.num_modes
        if n < 1:
            raise ValueError("num_modes must be >= 1")
        if cov.shape != (2 * n, 2 * n):
            raise ValueError(f"cov must be {2*n}x{2*n}, got {cov.shape}")
        if moments.shape != (2 * n,):
            raise ValueError(f"first_moments must have length {2*n}")
        defect = np.max(np.abs(cov - cov.T)) if cov.size else 0.0
        if defect > SYMMETRY_TOL:
            raise ValueError(f"cov is not symmetric (max asymmetry {defect:.3e})")
        object.__setattr__(self, "cov", _frozen(cov))
        object.__setattr__(self, "first_moments", _frozen(moments))


def vacuum(num_modes: int) -> GaussianState:
    return GaussianState(num_modes, np.zeros(2 * num_modes), np.eye(2 * num_modes))


def initial_product_squeezed(r_k: float, r_kprime: float) -> GaussianState:
    """Two single-mode squeezed states in product form, zero first moments.

    Covariance diag(e^{2 r_k}, e^{-2 r_k}, e^{2 r_k'}, e^{-2 r_k'}).
    """
    if not (np.isfinite(r_k) and np.isfinite(r_kprime)):
        raise ValueError("squeezing parameters must be finite")
    diag = [np.exp(2 * r_k), np.exp(-2 * r_k), np.exp(2 * r_kprime), np.exp(-2 * r_kprime)]
    return GaussianState(2, np.zeros(4), np.diag(diag))


def thermal_two_mode(nu_1: float, nu_2: float) -> GaussianState:
    """Two-mode thermal state with symplectic eigenvalues nu_i >= 1."""
    if nu_1 < 1.0 or nu_2 < 1.0:
        raise ValueError("thermal symplectic eigenvalues must be >= 1")
    return GaussianState(2, np.zeros(4), np.diag([nu_1, nu_1, nu_2, nu_2]))


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
    return GaussianState(
        len(keep), state.first_moments[idx], state.cov[np.ix_(idx, idx)]
    )


def _balanced_logdet(cov):
    # symmetric balancing: det(cov) = det(D cov D) * prod(d_i^-2) with
    # D = diag(1/sqrt(cov_ii)); keeps products of e^{+-2r} entries tame
    d = np.sqrt(np.abs(np.diag(cov)))
    d[d == 0.0] = 1.0
    balanced = cov / d[:, None] / d[None, :]
    sign, logdet = np.linalg.slogdet(balanced)
    return sign, logdet + 2.0 * np.sum(np.log(d))


def purity(state: GaussianState) -> float:
    """1/sqrt(det cov); equals 1 exactly for pure states in this normalization."""
    sign, logdet = _balanced_logdet(state.cov)
    if sign <= 0:
        raise NumericError("covariance determinant is not positive; state invalid")
    return float(np.exp(-0.5 * logdet))


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
