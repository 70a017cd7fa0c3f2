"""Numeric tolerances: the fixed settings a result reads, in one place.

The fields are the fidelity's branch clamp and its precision switch, the
finite-difference QFI ladder's steps and plateau test, and the perturbative
validity threshold.  They are implementation tolerances, not inputs of the
physics, and no caller needs another value, so DEFAULT_POLICY is the only
instance and nothing overrides it.  Fixed invariant tolerances of the state
types live in gaussian.py, not here.  The mode truncation is a scenario field
(``n_max``), not a tolerance.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class NumericPolicy:
    # fidelity branch handling
    branch_clamp: float = 1e-10          # clamp Pi^2 - Delta in [-clamp, 0] to 0
    # switch the 4x4 determinant work to mpmath above this covariance magnitude;
    # float64 loses the 1 - F signal once entries square to ~1e8 and beyond
    extended_precision_above: float = 1e4
    extended_dps: int = 40
    # finite-difference QFI ladder
    dh_ladder: tuple = (1e-4, 5e-5, 2.5e-5)
    dh_curvature_target: float = 1e-6    # rescale ladder so H*dh^2 lands here
    dh_curvature_max: float = 1e-4
    plateau_rtol: float = 1e-3           # successive Richardson estimates within 0.1%
    plateau_abs_floor: float = 1e-12     # below this the ladder counts as zero
    # validity of the perturbative expansion: flag when H0 * h^2 >= threshold
    validity_threshold: float = 1e-2


DEFAULT_POLICY = NumericPolicy()
