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
import numbers
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


def config_number(value, what, integer=False, minimum=None):
    """A JSON number from a config or CAVQFI_NUMERIC_POLICY, as float (or int).

    Every configured number passes through here.  Booleans, strings, null
    and other types are refused, as are a non-integral value where an
    integer is required and a value below ``minimum``; each raises
    ConfigError naming ``what``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if integer:
        if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
            raise ConfigError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    else:
        try:
            value = float(value)
        except OverflowError as exc:  # a JSON integer beyond the float range
            raise ConfigError(f"{what} is out of range") from exc
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value!r}")
    return value


def policy_from_mapping(mapping, base: NumericPolicy = DEFAULT_POLICY) -> NumericPolicy:
    """Build a policy from a dict of overrides; unknown keys are an error."""
    if not isinstance(mapping, dict):
        raise ConfigError("numeric_policy must be an object")
    types = {f.name: f.type for f in dataclasses.fields(NumericPolicy)}
    bad = set(mapping) - set(types)
    if bad:
        raise ConfigError(f"unknown numeric_policy fields: {sorted(bad)}")
    fixed = {}
    for key, value in mapping.items():
        what = f"numeric_policy.{key}"
        if key == "dh_ladder":
            if not isinstance(value, (list, tuple)) or len(value) != 3:
                raise ConfigError(f"{what} must be a list of 3 numbers")
            fixed[key] = tuple(config_number(v, what) for v in value)
        else:
            fixed[key] = config_number(value, what, integer=types[key] in ("int", int))
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
