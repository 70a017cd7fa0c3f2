"""Bogoliubov series and the reduced two-mode state.

A transformation is held as a perturbative series in the dimensionless
drive amplitude h, in the interaction picture (BogoliubovSeries):
alpha(h) = 1 + h alpha1 (+ h^2 diag(alpha2)), beta(h) = h beta1.

Every two-mode state is built one way, from rows k and k' of the real
symplectic matrix S(h) = 1 + h S1 (+ h^2 S2 on the pair columns), never
from the full 2N x 2N matrix.  ``unsqueezed_state_map`` takes rows k and
k' of the coefficients, forms those rows of S(h) order by order
(symplectic_blocks), mapped by the un-squeezing of a squeezing r, builds
their Gram matrix once, with the vacuum on the spectator columns and a
given covariance on the pair columns, and gives each state as a 4x4 sum.
It serves the states alone: the QFI ladder reads a point's rows in the
frame where the squeezed initial state is the vacuum, and
``cavqfi fidelity`` reads them at r = 0.  The matrix-form QFI forms no
states: it reads coefficients of e^{2 p r} summed over rows k and k' at
r = 0 (metrology.h0_coefficients).
``transform_reduced`` is the r = 0 case: the state of modes k, k' after
the series, for any two-mode initial covariance.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

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


def symplectic_blocks(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Real (2m x 2n) matrix of 2x2 blocks for m x n coefficient inputs.

    The block of the pair (a, b) = (alpha_ij, beta_ij) is
    [[Re(a - b), Im(a + b)], [-Im(a - b), Re(a + b)]].
    """
    diff = alpha - beta
    total = alpha + beta
    m, n = diff.shape
    s = np.empty((2 * m, 2 * n))
    s[0::2, 0::2] = diff.real
    s[0::2, 1::2] = total.imag
    s[1::2, 0::2] = -diff.imag
    s[1::2, 1::2] = total.real
    return s


def unsqueezed_state_map(alpha1, beta1, r: float, k: int, kprime: int, sigma0=_VACUUM, alpha2=None):
    """h -> the state of modes (k, k') after a series, from rows k, k' of it, built once.

    alpha1 and beta1 are (2, N) arrays: rows k and k' (in that order) of
    the first-order matrices, sliced from a series or built alone
    (cavity.build_rows); alpha2, when given, holds (alpha2_k, alpha2_k').
    Rows of another shape, or a mode pair outside 1..N, raise ValueError.

    Rows k, k' of S(h) are 1 + h S1 (+ h^2 S2 on the pair columns), with
    S1 and S2 the symplectic_blocks of the rows and of alpha2.  The state
    is formed where modes squeezed by r start in the vacuum: the
    un-squeezing t = diag(e^{-r}, e^{r}, e^{-r}, e^{r}) changes no fidelity
    and no QFI (Banchi, Braunstein and Pirandola, arXiv:1507.01941).  With
    T = t on the pair columns and 1 elsewhere, the rows are
    t S(h) T^-1 = A0 + h A1 (+ h^2 A2), those of S(h) itself at r = 0.
    sigma0 is the covariance of modes (k, k') in that frame, the vacuum by
    default; every other mode starts in the vacuum.  For own_i the pair
    columns of A_i and spect_i the rest, the Gram block (i, j),
    spect_i spect_j^T + own_i sigma0 own_j^T, is formed once, so each state
    is the 4x4 sum of h^(i+j) times block (i, j), and sigma0 at h = 0.  An
    h that is not finite and >= 0 raises ValueError; a state at h > 0 whose
    covariance or Gram blocks overflow float64 (they grow as e^{4r}) raises
    NumericError.
    """
    n_modes = np.shape(alpha1)[-1]
    if np.shape(alpha1) != (2, n_modes) or np.shape(beta1) != (2, n_modes):
        raise ValueError("alpha1 and beta1 must be rows k, k' of equal length")
    _check_mode_pair(n_modes, k, kprime)
    pair = pair_columns(k, kprime)
    q = 2 if alpha2 is None else 3
    stacked = np.zeros((q, 4, 2 * n_modes))
    stacked[0][:, pair] = np.eye(4)
    stacked[1] = symplectic_blocks(alpha1, beta1)
    if alpha2 is not None:
        stacked[2][:, pair] = symplectic_blocks(np.diag(alpha2), np.zeros((2, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.exp([-r, r, -r, r])
        cols = np.ones(stacked.shape[2])
        cols[pair] = t
        orders = stacked * t[:, None] / cols
        own = orders[:, :, pair].reshape(4 * q, 4)
        orders[:, :, pair] = 0.0
        spect = orders.reshape(4 * q, -1)
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
        if not (math.isfinite(h) and h >= 0):
            raise ValueError(f"h must be finite and >= 0, got {h!r}")
        if h == 0:
            # not [1, 0, 0, ...] @ coeffs: 0 * inf is nan once a higher
            # order has overflowed
            return GaussianState(2, sigma0)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                cov = np.array([h**p for p in range(len(coeffs))]) @ coeffs
            except OverflowError:  # h**p of a Python float leaves float64
                cov = np.array([math.inf])
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
    An h that is not finite and >= 0 raises ValueError; a covariance or
    Gram block that overflows float64 raises NumericError.
    """
    if initial.num_modes != 2:
        raise ValueError("initial state must have exactly two modes")
    _check_mode_pair(series.n_modes, k, kprime)
    rows = [k - 1, kprime - 1]
    alpha2 = None if series.alpha2 is None else series.alpha2[rows]
    state_at = unsqueezed_state_map(
        series.alpha1[rows], series.beta1[rows], 0.0, k, kprime, initial.cov, alpha2
    )
    return state_at(h)
