"""Phase-space representation of zero-mean Gaussian states of a bosonic field.

Conventions: quadratures are interleaved as (x1, p1, x2, p2, ...) with
x_n = (a_n + a_n^dag)/sqrt(2), p_n = -i (a_n - a_n^dag)/sqrt(2), and the
covariance matrix is sigma_ij = <X_i X_j + X_j X_i>, so the vacuum
covariance is exactly the identity.  Every state the package forms has zero
first moments, and for those the fidelity and the QFI depend on the
covariance alone, so a state is its covariance.  Mode indices in the public
API are 1-based, matching the mode labels k, k' used throughout.

SYMMETRY_TOL is the largest asymmetry a covariance may carry.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NumericError

SYMMETRY_TOL = 1e-12


def symplectic_form(num_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode (read-only)."""
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    omega = np.zeros((2 * num_modes, 2 * num_modes))
    omega[0::2, 1::2] = np.eye(num_modes)
    omega[1::2, 0::2] = -np.eye(num_modes)
    return _frozen(omega, float)


def _frozen(arr, dtype):
    """Read-only array of dtype; a read-only array that owns its data is adopted.

    Anything else is copied, so no caller can change the stored array
    through a reference it kept, and no caller's array is frozen.
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
class GaussianState:
    """Zero-indexed arrays, 1-based mode labels at the API surface.

    cov is 2N x 2N real symmetric, held read-only: a read-only array that
    owns its data is adopted, anything else is copied.  Instances are
    immutable; all operations return new states.
    """

    num_modes: int
    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        n = self.num_modes
        if n < 1:
            raise ValueError("num_modes must be >= 1")
        if cov.shape != (2 * n, 2 * n):
            raise ValueError(f"cov must be {2*n}x{2*n}, got {cov.shape}")
        defect = np.max(np.abs(cov - cov.T)) if cov.size else 0.0
        if defect > SYMMETRY_TOL:
            raise ValueError(f"cov is not symmetric (max asymmetry {defect:.3e})")
        object.__setattr__(self, "cov", _frozen(cov, float))


def initial_product_squeezed(r_k: float, r_kprime: float) -> GaussianState:
    """Two single-mode squeezed states in product form.

    Covariance diag(e^{2 r_k}, e^{-2 r_k}, e^{2 r_k'}, e^{-2 r_k'}).  A
    squeezing whose variance overflows float64 (|r| above about 355)
    raises NumericError.
    """
    if not (np.isfinite(r_k) and np.isfinite(r_kprime)):
        raise ValueError("squeezing parameters must be finite")
    with np.errstate(over="ignore"):
        diag = [np.exp(2 * r_k), np.exp(-2 * r_k), np.exp(2 * r_kprime), np.exp(-2 * r_kprime)]
    if not np.isfinite(diag).all():
        raise NumericError(f"squeezed covariance overflows float64 at squeezing ({r_k}, {r_kprime})")
    return GaussianState(2, np.diag(diag))
