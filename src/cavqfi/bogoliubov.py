"""Bogoliubov coefficients, their symplectic representation, and state transforms.

A transformation is either held exactly (BogoliubovCoefficients) or as a
perturbative series in the dimensionless drive amplitude h
(BogoliubovSeries): alpha(h) = diag(G) + h alpha1 (+ h^2 alpha2),
beta(h) = h beta1 (+ h^2 beta2).

Two transform paths are provided for a two-mode initial state embedded in an
otherwise-vacuum field: ``transform_full_oracle`` builds the full 2N x 2N
symplectic matrix and conjugates the full covariance (ground truth), while
``transform_reduced`` assembles only the two target-mode blocks plus the
spectator vacuum sum and must agree with the oracle to roundoff.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import kernels
from .gaussian import GaussianState, partial_trace, symplectic_form

_UNIT_PHASE_TOL = 1e-12


def m_block(alpha_mn: complex, beta_mn: complex) -> np.ndarray:
    """2x2 symplectic block for one (alpha, beta) coefficient pair."""
    return kernels.symplectic_blocks(
        np.array([[alpha_mn]], dtype=complex), np.array([[beta_mn]], dtype=complex)
    )


def _frozen(arr, dtype):
    arr = np.array(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True)
class BogoliubovCoefficients:
    """Exact or series-evaluated coefficient matrices over a truncated mode set."""

    n_modes: int
    alpha: np.ndarray
    beta: np.ndarray
    exact: bool = False

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=complex)
        beta = np.asarray(self.beta, dtype=complex)
        n = self.n_modes
        if alpha.shape != (n, n) or beta.shape != (n, n):
            raise ValueError(f"alpha and beta must be {n}x{n}")
        object.__setattr__(self, "alpha", _frozen(alpha, complex))
        object.__setattr__(self, "beta", _frozen(beta, complex))

    def identity_defects(self):
        """(unitarity, symmetry) defects of the exact-transform identities.

        unitarity: || alpha alpha^dag - beta beta^dag - 1 ||_max
        symmetry:  || alpha beta^T - (alpha beta^T)^T ||_max
        Exact coefficient sets satisfy both to ~1e-8; series truncated at
        first order violate them at O(h^2) by construction.
        """
        eye = np.eye(self.n_modes)
        uni = self.alpha @ self.alpha.conj().T - self.beta @ self.beta.conj().T - eye
        ab = self.alpha @ self.beta.T
        return float(np.abs(uni).max()), float(np.abs(ab - ab.T).max())


@dataclasses.dataclass(frozen=True)
class BogoliubovSeries:
    """Perturbative coefficient data: zeroth-order phases plus order matrices.

    G holds the diagonal zeroth-order phases (|G_m| = 1), alpha1/beta1 the
    first-order matrices with zero diagonal.  Second-order matrices are
    structurally supported but absent in all shipped scenarios.
    """

    n_modes: int
    G: np.ndarray
    alpha1: np.ndarray
    beta1: np.ndarray
    alpha2: np.ndarray | None = None
    beta2: np.ndarray | None = None

    def __post_init__(self):
        n = self.n_modes
        G = np.asarray(self.G, dtype=complex)
        if G.shape != (n,):
            raise ValueError(f"G must be a length-{n} vector")
        if np.max(np.abs(np.abs(G) - 1.0)) > _UNIT_PHASE_TOL:
            raise ValueError("zeroth-order phases must have unit modulus")
        for name in ("alpha1", "beta1"):
            mat = np.asarray(getattr(self, name), dtype=complex)
            if mat.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}")
            if np.any(np.diag(mat) != 0):
                raise ValueError(f"{name} must have a zero diagonal")
            object.__setattr__(self, name, _frozen(mat, complex))
        object.__setattr__(self, "G", _frozen(G, complex))
        for name in ("alpha2", "beta2"):
            mat = getattr(self, name)
            if mat is not None:
                mat = np.asarray(mat, dtype=complex)
                if mat.shape != (n, n):
                    raise ValueError(f"{name} must be {n}x{n}")
                object.__setattr__(self, name, _frozen(mat, complex))


def evaluate_series(series: BogoliubovSeries, h: float) -> BogoliubovCoefficients:
    """Coefficients at drive amplitude h: diag(G) + h alpha1 (+ h^2 alpha2), etc."""
    if h < 0:
        raise ValueError("h must be >= 0")
    alpha = np.diag(series.G) + h * series.alpha1
    beta = h * series.beta1
    if series.alpha2 is not None:
        alpha = alpha + h * h * series.alpha2
    if series.beta2 is not None:
        beta = beta + h * h * series.beta2
    return BogoliubovCoefficients(series.n_modes, alpha, beta, exact=False)


@dataclasses.dataclass(frozen=True)
class SymplecticTransform:
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"matrix must be {self.dim}x{self.dim}")
        object.__setattr__(self, "matrix", _frozen(mat, float))

    def symplectic_defect(self) -> float:
        """|| S Omega S^T - Omega ||_max; ~1e-15 for exact transforms, O(h^2) for series."""
        omega = symplectic_form(self.dim // 2).matrix
        return float(np.abs(self.matrix @ omega @ self.matrix.T - omega).max())


def assemble_symplectic(coeffs: BogoliubovCoefficients) -> SymplecticTransform:
    """Real 2N x 2N matrix with 2x2 blocks m_block(alpha_mn, beta_mn)."""
    return SymplecticTransform(
        dim=2 * coeffs.n_modes, matrix=kernels.symplectic_blocks(coeffs.alpha, coeffs.beta)
    )


def _check_mode_pair(series, k, kprime):
    if k == kprime:
        raise ValueError("k and kprime must differ")
    for m in (k, kprime):
        if not (1 <= m <= series.n_modes):
            raise ValueError(f"mode {m} outside truncation range 1..{series.n_modes}")


def _initial_blocks(initial: GaussianState):
    if initial.num_modes != 2:
        raise ValueError("initial state must have exactly two modes")
    cov = initial.cov
    return cov[0:2, 0:2], cov[2:4, 2:4], cov[0:2, 2:4]


def transform_reduced(
    initial: GaussianState,
    series: BogoliubovSeries,
    h: float,
    k: int,
    kprime: int,
) -> GaussianState:
    """Fast path: 4x4 covariance of modes (k, kprime) after the series transform.

    The initial two-mode state lives on (k, kprime); all other modes start in
    vacuum.  Obtained from the s sigma s^T oracle restricted to the (k, kprime)
    blocks, so only the coefficient rows of the two target modes are touched.
    """
    _check_mode_pair(series, k, kprime)
    alpha_rows, beta_rows = _series_rows(series, h, [k - 1, kprime - 1])
    psi_k, psi_kp, phi = _initial_blocks(initial)
    cov = kernels.reduced_transform(
        alpha_rows,
        beta_rows,
        k - 1,
        kprime - 1,
        np.ascontiguousarray(psi_k),
        np.ascontiguousarray(psi_kp),
        np.ascontiguousarray(phi),
    )
    moments = _reduced_moments(alpha_rows, beta_rows, k - 1, kprime - 1, initial)
    return GaussianState(2, moments, cov)


def _series_rows(series, h, rows):
    """Rows of evaluate_series(series, h).alpha and .beta, built without the full matrices.

    Same elementwise arithmetic as evaluate_series, so the rows are bit-identical.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    diag = np.zeros((len(rows), series.n_modes), dtype=complex)
    diag[np.arange(len(rows)), rows] = series.G[rows]
    alpha = diag + h * series.alpha1[rows]
    beta = h * series.beta1[rows]
    if series.alpha2 is not None:
        alpha = alpha + h * h * series.alpha2[rows]
    if series.beta2 is not None:
        beta = beta + h * h * series.beta2[rows]
    return alpha, beta


def _reduced_moments(alpha_rows, beta_rows, k, kp, initial):
    if not initial.first_moments.any():
        return np.zeros(4)
    out = np.zeros(4)
    for i in (0, 1):
        blk_k = m_block(alpha_rows[i, k], beta_rows[i, k])
        blk_kp = m_block(alpha_rows[i, kp], beta_rows[i, kp])
        out[2 * i : 2 * i + 2] = (
            blk_k @ initial.first_moments[0:2] + blk_kp @ initial.first_moments[2:4]
        )
    return out


def transform_full_oracle(
    initial: GaussianState,
    series: BogoliubovSeries,
    h: float,
    k: int,
    kprime: int,
) -> GaussianState:
    """Ground-truth path: embed, conjugate the full covariance, trace back down.

    Builds the 2N x 2N covariance (identity except the k/kprime blocks),
    applies S sigma S^T with the fully assembled symplectic matrix, then
    partial-traces to (k, kprime).
    """
    _check_mode_pair(series, k, kprime)
    n = series.n_modes
    psi_k, psi_kp, phi = _initial_blocks(initial)
    cov = np.eye(2 * n)
    sk = slice(2 * (k - 1), 2 * k)
    skp = slice(2 * (kprime - 1), 2 * kprime)
    cov[sk, sk] = psi_k
    cov[skp, skp] = psi_kp
    cov[sk, skp] = phi
    cov[skp, sk] = phi.T
    moments = np.zeros(2 * n)
    moments[sk] = initial.first_moments[0:2]
    moments[skp] = initial.first_moments[2:4]

    s = assemble_symplectic(evaluate_series(series, h)).matrix
    full_cov = s @ cov @ s.T
    full_cov = 0.5 * (full_cov + full_cov.T)
    full = GaussianState(n, s @ moments, full_cov)
    return partial_trace(full, [k, kprime])


def trivial_series(n_modes: int) -> BogoliubovSeries:
    """Identity transformation at every order (G = 1, all matrices zero)."""
    zeros = np.zeros((n_modes, n_modes), dtype=complex)
    return BogoliubovSeries(n_modes, np.ones(n_modes, dtype=complex), zeros, zeros)


def series_symplectic_defect(series: BogoliubovSeries, h: float) -> float:
    """Convenience: symplectic defect of the series evaluated at h (O(h^2))."""
    return assemble_symplectic(evaluate_series(series, h)).symplectic_defect()
