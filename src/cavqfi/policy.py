"""Numeric policy: tolerances, precision and step-ladder choices in one place.

Every tolerance used by the library is a field here, so tests and the CLI can
pin or override them without touching call sites.  The environment variable
``CAVQFI_NUMERIC_POLICY`` may hold a JSON object whose keys override fields of
the default policy (e.g. ``CAVQFI_NUMERIC_POLICY='{"extended_dps": 60}'``).
The mode truncation is a scenario field (``n_max``), not a policy field.
"""

from __future__ import annotations

import dataclasses
import json
import os

from .errors import ConfigError

ENV_POLICY = "CAVQFI_NUMERIC_POLICY"


@dataclasses.dataclass(frozen=True)
class NumericPolicy:
    # covariance-matrix invariants
    symmetry_tol: float = 1e-12
    uncertainty_floor: float = -1e-10   # min eigenvalue of sigma + i*Omega
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

    def replace(self, **kwargs) -> "NumericPolicy":
        return dataclasses.replace(self, **kwargs)


DEFAULT_POLICY = NumericPolicy()

_FLOAT_FIELDS = {
    f.name for f in dataclasses.fields(NumericPolicy) if f.type in ("float", float)
}


def policy_from_mapping(mapping, base: NumericPolicy = DEFAULT_POLICY) -> NumericPolicy:
    """Build a policy from a dict of overrides; unknown keys are an error."""
    known = {f.name for f in dataclasses.fields(NumericPolicy)}
    bad = set(mapping) - known
    if bad:
        raise ConfigError(f"unknown numeric_policy fields: {sorted(bad)}")
    fixed = {}
    for key, value in mapping.items():
        if key == "dh_ladder":
            value = tuple(float(v) for v in value)
        elif key == "extended_dps":
            value = int(value)
        elif key in _FLOAT_FIELDS:
            value = float(value)
        fixed[key] = value
    return base.replace(**fixed)


def policy_from_env(base: NumericPolicy = DEFAULT_POLICY) -> NumericPolicy:
    """Apply overrides from the CAVQFI_NUMERIC_POLICY environment variable."""
    raw = os.environ.get(ENV_POLICY)
    if not raw:
        return base
    try:
        mapping = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{ENV_POLICY} is not valid JSON: {exc}") from exc
    if not isinstance(mapping, dict):
        raise ConfigError(f"{ENV_POLICY} must hold a JSON object")
    return policy_from_mapping(mapping, base)
