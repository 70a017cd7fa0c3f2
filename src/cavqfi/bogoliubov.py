"""Bogoliubov coefficients and the reduced state transform.

A transformation is held as a perturbative series in the dimensionless
drive amplitude h, in the interaction picture (BogoliubovSeries):
alpha(h) = 1 + h alpha1 (+ h^2 diag(alpha2)), beta(h) = h beta1;
evaluate_series gives the coefficient matrices at one h
(BogoliubovCoefficients).

Rows k and k' of the real symplectic matrix S(h) have one block form,
``pair_rows``: S(h) = 1 + h S1 (+ h^2 S2 on the pair columns).
``transform_reduced`` maps a two-mode initial state embedded in an
otherwise-vacuum field to the covariance of modes k, k' from those rows
alone, never forming the full 2N x 2N matrix.  The QFI reads the rows in
one frame, where the squeezed initial state is the vacuum:
``unsqueezed_rows`` maps them there once per point, and both the
matrix-form QFI (metrology.qfi_analytic_h0) and the QFI ladder's states
(``unsqueezed_state_map``) read that one value.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import kernels
from .errors import NumericError
from .gaussian import GaussianState


def _frozen(arr, dtype):
    """Read-only array of dtype; a read-only array that owns its data is adopted.

    Anything else is copied, so no caller can change the stored array
    through a reference it kept.
    """
    if (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.flags.owndata
        and not arr.flags.writeable
    ):
        return arr
    arr = np.array(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


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


@dataclasses.dataclass(frozen=True)
class BogoliubovSeries:
    """Perturbative coefficient data of an interaction-picture transformation.

    The zeroth order is the identity.  alpha1/beta1 are the first-order
    matrices, with zero diagonal.  alpha2, when given, is the length-n_modes
    diagonal of the second-order alpha, the only second-order part that
    reaches the QFI at h = 0 (unitarity fixes its real part); no shipped
    scenario sets it.
    """

    n_modes: int
    alpha1: np.ndarray
    beta1: np.ndarray
    alpha2: np.ndarray | None = None

    def __post_init__(self):
        n = self.n_modes
        for name in ("alpha1", "beta1"):
            mat = np.asarray(getattr(self, name), dtype=complex)
            if mat.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}")
            if np.any(np.diag(mat) != 0):
                raise ValueError(f"{name} must have a zero diagonal")
            object.__setattr__(self, name, _frozen(mat, complex))
        if self.alpha2 is not None:
            alpha2 = np.asarray(self.alpha2, dtype=complex)
            if alpha2.shape != (n,):
                raise ValueError(f"alpha2 must be a length-{n} vector")
            object.__setattr__(self, "alpha2", _frozen(alpha2, complex))


def evaluate_series(series: BogoliubovSeries, h: float) -> BogoliubovCoefficients:
    """Coefficients at drive amplitude h: 1 + h alpha1 (+ h^2 diag(alpha2)), h beta1."""
    if h < 0:
        raise ValueError("h must be >= 0")
    alpha = np.eye(series.n_modes) + h * series.alpha1
    if series.alpha2 is not None:
        alpha[np.diag_indices(series.n_modes)] += h * h * series.alpha2
    return BogoliubovCoefficients(series.n_modes, alpha, h * series.beta1)


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
    """Rows k, k' of the series in block form: (S1, S2).

    S(h) = 1 + h S1 (+ h^2 S2 on the pair columns).  S1 is the real (4, 2N)
    symplectic_blocks of rows k, k' of alpha1 and beta1.  The identity and
    S2 act on pair_columns(k, kprime) alone: S2 is the 4x4 diagonal block
    of alpha2_k and alpha2_k' there, or None when the series has no second
    order.  Rows 0, 1 of each belong to mode k, rows 2, 3 to mode k'.
    """
    _check_mode_pair(series, k, kprime)
    rows = [k - 1, kprime - 1]
    s1 = kernels.symplectic_blocks(series.alpha1[rows], series.beta1[rows])
    s2 = None
    if series.alpha2 is not None:
        s2 = kernels.symplectic_blocks(np.diag(series.alpha2[rows]), np.zeros((2, 2)))
    return s1, s2


@dataclasses.dataclass(frozen=True)
class UnsqueezedRows:
    """Rows k, k' of the series in the frame where the initial state is the vacuum.

    Both modes start squeezed by r, covariance sigma0 = diag(e^{2r},
    e^{-2r}, e^{2r}, e^{-2r}).  The symplectic un-squeezing
    t = diag(e^{-r}, e^{r}, e^{-r}, e^{r}) takes it to the identity and
    changes no fidelity and no QFI (Banchi, Braunstein and Pirandola,
    arXiv:1507.01941).  With T = t on the pair columns and 1 elsewhere, the
    state of modes (k, k') is then M(h) M(h)^T for
    M(h) = t S(h) T^-1 = A0 + h A1 (+ h^2 A2).  orders stacks those
    (4, 2N) orders, read-only: A0 is the identity on the pair columns,
    A1 = t S1 T^-1, and A2 = t S2 t^-1 on the pair columns when the series
    has a second order.  pair holds the four pair columns
    (pair_columns(k, kprime)).  Entries that overflow float64 (they grow as
    e^{2r}) are kept as they come; each reader raises NumericError on them.
    """

    r: float
    pair: tuple
    orders: np.ndarray


def unsqueezed_rows(series: BogoliubovSeries, r: float, k: int, kprime: int) -> UnsqueezedRows:
    """Rows k, k' of the series un-squeezed by r, from one pair_rows call.

    A mode pair outside the series' truncation raises ValueError.
    """
    s1, s2 = pair_rows(series, k, kprime)
    pair = pair_columns(k, kprime)
    stacked = np.zeros((2 if s2 is None else 3, 4, s1.shape[1]))
    stacked[0][:, pair] = np.eye(4)
    stacked[1] = s1
    if s2 is not None:
        stacked[2][:, pair] = s2
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.exp([-r, r, -r, r])
        cols = np.ones(s1.shape[1])
        cols[pair] = t
        orders = stacked * t[:, None] / cols
    orders.setflags(write=False)
    return UnsqueezedRows(r, tuple(pair), orders)


def unsqueezed_state_map(rows: UnsqueezedRows):
    """h -> the state of modes (k, k') in the un-squeezed frame, built once.

    The state is M(h) M(h)^T for the orders A_i of ``rows``; their Gram
    matrix is formed once, so each state is the 4x4 sum over i, j of
    h^(i+j) A_i A_j^T, and at h = 0 a cavity state is exactly the identity.
    The map serves the QFI ladder (metrology.qfi_numeric), which evaluates
    a handful of states of one point.  A state whose covariance or Gram
    blocks overflow float64 (the blocks grow as e^{4r}) raises NumericError.
    """
    q = len(rows.orders)
    with np.errstate(over="ignore", invalid="ignore"):
        flat = rows.orders.reshape(4 * q, -1)
        blocks = (flat @ flat.T).reshape(q, 4, q, 4)
        # the coefficient of h^p sums the Gram blocks (i, j) with i + j = p;
        # it is symmetrized here, once, so that every state is exactly
        # symmetric
        coeffs = np.zeros((2 * q - 1, 4, 4))
        for i in range(q):
            for j in range(q):
                coeffs[i + j] += blocks[i, :, j]
        coeffs = (0.5 * (coeffs + coeffs.transpose(0, 2, 1))).reshape(-1, 16)

    def state_at(h: float) -> GaussianState:
        if h < 0:
            raise ValueError("h must be >= 0")
        with np.errstate(over="ignore", invalid="ignore"):
            cov = np.array([h**p for p in range(len(coeffs))]) @ coeffs
        if not np.isfinite(cov).all():
            raise NumericError("transformed covariance overflows float64")
        return GaussianState(2, cov.reshape(4, 4))

    return state_at


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
    A covariance that overflows float64 raises NumericError.
    """
    if initial.num_modes != 2:
        raise ValueError("initial state must have exactly two modes")
    if h < 0:
        raise ValueError("h must be >= 0")
    s1, s2 = pair_rows(series, k, kprime)
    pair = pair_columns(k, kprime)
    s = h * s1
    s[:, pair] += np.eye(4) if s2 is None else np.eye(4) + h * h * s2
    with np.errstate(over="ignore", invalid="ignore"):
        cov = kernels.reduced_transform(s, pair, initial.cov)
    if not np.isfinite(cov).all():
        raise NumericError("transformed covariance overflows float64")
    return GaussianState(2, cov)
