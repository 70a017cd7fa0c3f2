"""Bogoliubov series and the reduced two-mode state.

A transformation is held as a perturbative series in the dimensionless
drive amplitude h, in the interaction picture (BogoliubovSeries):
alpha(h) = 1 + h alpha1 (+ h^2 diag(alpha2)), beta(h) = h beta1.

Every two-mode state is built one way, from rows k and k' of the real
symplectic matrix S(h) = 1 + h S1 (+ h^2 S2 on the pair columns), never
from the full 2N x 2N matrix.  ``unsqueezed_rows`` takes those rows order
by order from rows k and k' of the coefficients, mapped by the
un-squeezing of a squeezing r, once per row set;
``unsqueezed_state_map`` forms their Gram matrix once, with the vacuum on
the spectator columns and a given covariance on the pair columns, and
gives each state as a 4x4 sum.  The QFI reads the rows in the frame where
the squeezed initial state is the vacuum: the matrix-form QFI
(metrology.qfi_analytic_h0) and the QFI ladder's states read that one
value.  ``transform_reduced`` is the r = 0 case: the state of modes k, k'
after the series, for any two-mode initial covariance.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import kernels
from .errors import NumericError
from .gaussian import GaussianState, _frozen


# the two-mode vacuum, the default initial covariance of unsqueezed_state_map
_VACUUM = _frozen(np.eye(4), float)


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


def _check_mode_pair(n_modes, k, kprime):
    if k == kprime:
        raise ValueError("k and kprime must differ")
    for m in (k, kprime):
        if not (1 <= m <= n_modes):
            raise ValueError(f"mode {m} outside truncation range 1..{n_modes}")


def pair_columns(k: int, kprime: int) -> list:
    """Columns (x_k, p_k, x_k', p_k') of modes k, k' (1-based) in the 2N block layout."""
    return [2 * k - 2, 2 * k - 1, 2 * kprime - 2, 2 * kprime - 1]


@dataclasses.dataclass(frozen=True)
class UnsqueezedRows:
    """Rows k, k' of the series in the frame where the initial state is the vacuum.

    Rows k, k' of S(h) are 1 + h S1 (+ h^2 S2 on the pair columns): S1 is
    the real (4, 2N) kernels.symplectic_blocks of rows k, k' of alpha1 and
    beta1, and S2 the 4x4 diagonal block of alpha2_k and alpha2_k'; the
    identity and S2 act on the four pair columns alone.  Rows 0, 1 belong
    to mode k, rows 2, 3 to mode k'.  Both modes start squeezed by r,
    covariance sigma0 = diag(e^{2r}, e^{-2r}, e^{2r}, e^{-2r}).  The
    symplectic un-squeezing t = diag(e^{-r}, e^{r}, e^{-r}, e^{r}) takes it
    to the identity and changes no fidelity and no QFI (Banchi, Braunstein
    and Pirandola, arXiv:1507.01941).  With T = t on the pair columns and 1
    elsewhere, the state of modes (k, k') is then M(h) M(h)^T for
    M(h) = t S(h) T^-1 = A0 + h A1 (+ h^2 A2).  orders stacks those
    (4, 2N) orders, read-only: A0 is the identity on the pair columns,
    A1 = t S1 T^-1, and A2 = t S2 t^-1 on the pair columns when the series
    has a second order.  At r = 0, t and T are exactly 1 and the orders are
    those of S(h) itself.  pair holds the four pair columns
    (pair_columns(k, kprime)).  Entries that overflow float64 (they grow as
    e^{2r}) are kept as they come; each reader raises NumericError on them.
    """

    r: float
    pair: tuple
    orders: np.ndarray


def unsqueezed_rows(alpha1, beta1, r: float, k: int, kprime: int, alpha2=None) -> UnsqueezedRows:
    """Rows k, k' of a series, un-squeezed by r, from those rows of its coefficients.

    alpha1 and beta1 are (2, N) arrays, N the number of modes: rows k and
    k' (in that order) of the first-order matrices.  alpha2, when given,
    holds the second-order diagonal entries (alpha2_k, alpha2_k').  A
    caller holding a whole series passes those rows of it; a cavity point
    builds them alone (cavity.build_rows).  Rows of another shape, or
    a mode pair outside 1..N, raise ValueError.
    """
    n_modes = np.shape(alpha1)[-1]
    if np.shape(alpha1) != (2, n_modes) or np.shape(beta1) != (2, n_modes):
        raise ValueError("alpha1 and beta1 must be rows k, k' of equal length")
    _check_mode_pair(n_modes, k, kprime)
    pair = pair_columns(k, kprime)
    stacked = np.zeros((2 if alpha2 is None else 3, 4, 2 * n_modes))
    stacked[0][:, pair] = np.eye(4)
    stacked[1] = kernels.symplectic_blocks(alpha1, beta1)
    if alpha2 is not None:
        stacked[2][:, pair] = kernels.symplectic_blocks(np.diag(alpha2), np.zeros((2, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.exp([-r, r, -r, r])
        cols = np.ones(stacked.shape[2])
        cols[pair] = t
        orders = stacked * t[:, None] / cols
    orders.setflags(write=False)
    return UnsqueezedRows(r, tuple(pair), orders)


def unsqueezed_state_map(rows: UnsqueezedRows, sigma0: np.ndarray = _VACUUM):
    """h -> the state of modes (k, k') in the frame of ``rows``, built once.

    sigma0 is the 4x4 covariance of modes (k, k') before the series, in
    that frame; every other mode starts in the vacuum.  The default, the
    vacuum, is the squeezed initial state un-squeezed by rows.r.  For the
    orders A_i of ``rows``, with own_i their four pair columns and spect_i
    the rest, the Gram block (i, j) is
    spect_i spect_j^T + own_i sigma0 own_j^T.  It is formed once, so each
    state is the 4x4 sum over i, j of h^(i+j) times block (i, j); the
    h = 0 state is sigma0 itself (the identity for a cavity series in the
    un-squeezed frame).  The QFI ladder (metrology.qfi_numeric) and
    transform_reduced read it.  A state at h > 0 whose covariance or Gram
    blocks overflow float64 (the blocks grow as e^{4r}) raises
    NumericError.
    """
    q = len(rows.orders)
    pair = list(rows.pair)
    with np.errstate(over="ignore", invalid="ignore"):
        own = rows.orders[:, :, pair].reshape(4 * q, 4)
        spect = rows.orders.copy()
        spect[:, :, pair] = 0.0
        spect = spect.reshape(4 * q, -1)
        blocks = (spect @ spect.T + own @ sigma0 @ own.T).reshape(q, 4, q, 4)
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
        if h == 0:
            # not [1, 0, 0, ...] @ coeffs: 0 * inf is nan once a higher
            # order has overflowed
            return GaussianState(2, sigma0)
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
    """4x4 covariance of modes (k, kprime) after the series transform.

    The initial two-mode state lives on (k, kprime); all other modes start in
    vacuum.  This is unsqueezed_state_map at r = 0, where the rows are those
    of S(h) itself, with the initial covariance on the pair columns.
    A negative h raises ValueError; a covariance or Gram block that
    overflows float64 raises NumericError.
    """
    if initial.num_modes != 2:
        raise ValueError("initial state must have exactly two modes")
    _check_mode_pair(series.n_modes, k, kprime)
    rows = [k - 1, kprime - 1]
    alpha2 = None if series.alpha2 is None else series.alpha2[rows]
    unsqueezed = unsqueezed_rows(series.alpha1[rows], series.beta1[rows], 0.0, k, kprime, alpha2)
    return unsqueezed_state_map(unsqueezed, initial.cov)(h)
