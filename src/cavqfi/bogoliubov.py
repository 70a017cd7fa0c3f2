"""Bogoliubov coefficients, their symplectic representation, and state transforms.

A transformation is either held exactly (BogoliubovCoefficients) or as a
perturbative series in the dimensionless drive amplitude h
(BogoliubovSeries): alpha(h) = diag(G) + h alpha1 (+ h^2 alpha2),
beta(h) = h beta1 (+ h^2 beta2).

Rows k and k' of the real symplectic matrix S(h) have one block form,
``pair_rows``: S(h) = R0 + h S1 + h^2 S2, with R0 the zeroth-order rotation
on the pair columns.  Both the reduced transform and the matrix-form QFI
(metrology.qfi_analytic_h0) read it.

Two transform paths are provided for a two-mode initial state embedded in an
otherwise-vacuum field: ``transform_full_oracle`` builds the full 2N x 2N
symplectic matrix and conjugates the full covariance (ground truth), while
``transform_reduced`` forms only rows k and k' from ``pair_rows`` and must
agree with the oracle to roundoff.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import kernels
from .gaussian import GaussianState, partial_trace, symplectic_form

_UNIT_PHASE_TOL = 1e-12


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
    """Real 2N x 2N matrix of the 2x2 blocks of kernels.symplectic_blocks."""
    return SymplecticTransform(
        dim=2 * coeffs.n_modes, matrix=kernels.symplectic_blocks(coeffs.alpha, coeffs.beta)
    )


def _check_mode_pair(series, k, kprime):
    if k == kprime:
        raise ValueError("k and kprime must differ")
    for m in (k, kprime):
        if not (1 <= m <= series.n_modes):
            raise ValueError(f"mode {m} outside truncation range 1..{series.n_modes}")


def pair_columns(k: int, kprime: int) -> list:
    """Columns (x_k, p_k, x_k', p_k') of modes k, k' (1-based) in the 2N block layout."""
    return [2 * k - 2, 2 * k - 1, 2 * kprime - 2, 2 * kprime - 1]


def pair_rows(series: BogoliubovSeries, k: int, kprime: int):
    """Rows k, k' of the series in block form: S(h) = R0 + h S1 + h^2 S2.

    R0 is the 4x4 zeroth-order rotation, the blocks of G_k and G_k' on its
    diagonal; it fills the pair_columns(k, kprime) of S(0), whose other
    columns are zero.  S1 and S2 are the real (4, 2N) symplectic_blocks of
    rows k, k' of the first and second order; S2 is None when the series
    has no second order.  Rows 0, 1 of each belong to mode k, rows 2, 3 to
    mode k'.
    """
    _check_mode_pair(series, k, kprime)
    rows = [k - 1, kprime - 1]

    def blocks(alpha, beta):
        zeros = np.zeros((2, series.n_modes), dtype=complex)
        return kernels.symplectic_blocks(
            zeros if alpha is None else alpha[rows], zeros if beta is None else beta[rows]
        )

    # block(G_m, 0) of kernels.symplectic_blocks on the pair's own columns,
    # written out: for a 2x2 input that call's fixed overhead would be most
    # of what H0 pays for the rotation
    r0 = np.zeros((4, 4))
    for i, g in enumerate(series.G[rows].tolist()):
        r0[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[g.real, g.imag], [-g.imag, g.real]]
    s2 = None
    if series.alpha2 is not None or series.beta2 is not None:
        s2 = blocks(series.alpha2, series.beta2)
    return r0, blocks(series.alpha1, series.beta1), s2


def transform_reduced(
    initial: GaussianState,
    series: BogoliubovSeries,
    h: float,
    k: int,
    kprime: int,
) -> GaussianState:
    """Fast path: 4x4 covariance of modes (k, kprime) after the series transform.

    The initial two-mode state lives on (k, kprime); all other modes start in
    vacuum.  Only rows k, k' of S(h) are formed, from pair_rows, and
    kernels.reduced_transform conjugates the initial covariance with them.
    """
    if initial.num_modes != 2:
        raise ValueError("initial state must have exactly two modes")
    if h < 0:
        raise ValueError("h must be >= 0")
    r0, s1, s2 = pair_rows(series, k, kprime)
    pair = pair_columns(k, kprime)
    s = h * s1
    if s2 is not None:
        s += h * h * s2
    s[:, pair] += r0
    cov = kernels.reduced_transform(s, pair, initial.cov)
    return GaussianState(2, s[:, pair] @ initial.first_moments, cov)


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
    if initial.num_modes != 2:
        raise ValueError("initial state must have exactly two modes")
    _check_mode_pair(series, k, kprime)
    n = series.n_modes
    pair = pair_columns(k, kprime)
    cov = np.eye(2 * n)
    cov[np.ix_(pair, pair)] = initial.cov
    moments = np.zeros(2 * n)
    moments[pair] = initial.first_moments

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
