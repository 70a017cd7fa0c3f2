"""Per-layer spans recorded from outside the program.

The tracer replaces each public layer function with a timing wrapper at every
``cavqfi`` module attribute that holds it, so calls made through a
``from .x import f`` binding are caught as well as ``module.f`` calls.  A
layer that a later commit deletes or renames is reported as absent and simply
records nothing; the rest of the benchmark does not depend on it.

A span's self time is its duration minus the time its wrapped children took.
Spans live in memory as per-layer sums; nothing is written while tracing.
"""

from __future__ import annotations

import collections
import importlib
import sys
import time

import numpy as np

# metric prefix -> (module, attribute) of the public function it wraps
LAYERS = {
    "cli.evaluate_scenario": ("cavqfi.cli", "evaluate_scenario"),
    "cavity.build_scenario_series": ("cavqfi.cavity", "build_scenario_series"),
    "kernels.time_dependent_coefficients": ("cavqfi.kernels", "time_dependent_coefficients"),
    "kernels.reduced_transform": ("cavqfi.kernels", "reduced_transform"),
    "bogoliubov.transform_reduced": ("cavqfi.bogoliubov", "transform_reduced"),
    "bogoliubov.evaluate_series": ("cavqfi.bogoliubov", "evaluate_series"),
    "metrology.calibrate_phases": ("cavqfi.metrology", "calibrate_phases"),
    "metrology.qfi_analytic_h0": ("cavqfi.metrology", "qfi_analytic_h0"),
    "metrology.mode_sums": ("cavqfi.metrology", "mode_sums"),
    "metrology.qfi_numeric": ("cavqfi.metrology", "qfi_numeric"),
    "metrology.fidelity": ("cavqfi.metrology", "fidelity_two_mode"),
}


def _array_fields(obj):
    fields = getattr(obj, "__dict__", {})
    return {k: v for k, v in fields.items() if isinstance(v, np.ndarray)}


def _coefficient_entries(series):
    # first-order coefficient entries built: every complex array of the
    # returned series except the zeroth-order phases G
    return {
        "entries": sum(
            v.size for k, v in _array_fields(series).items() if k != "G" and v.dtype.kind == "c"
        )
    }


def _returned_bytes(coeffs):
    return {"bytes": sum(v.nbytes for v in _array_fields(coeffs).values())}


def _precision_path(args, kwargs):
    """'mp' or 'float': a fidelity call's precision path, judged from its inputs.

    Applies the policy's extended_precision_above threshold to the largest
    covariance entry, as the program does when it picks the path.
    """
    policy = kwargs.get("policy", args[2] if len(args) > 2 else None)
    if policy is None:
        policy = sys.modules["cavqfi.policy"].DEFAULT_POLICY
    scale = max(float(abs(s.cov).max()) for s in args[:2])
    return "mp" if scale > policy.extended_precision_above else "float"


_MEASURE = {
    "cavity.build_scenario_series": _coefficient_entries,
    "bogoliubov.evaluate_series": _returned_bytes,
}
_CLASSIFY = {"metrology.fidelity": _precision_path}


class LayerStat:
    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra = collections.Counter()


class Tracer:
    """Install with ``install()``, run the work, then ``uninstall()``."""

    def __init__(self):
        self.stats = {name: LayerStat() for name in LAYERS}
        self.errors = collections.Counter()
        self.absent = []
        self._stack = []
        self._patched = []

    def install(self):
        for name, (module_name, attr) in LAYERS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._replace(fn, self._wrap(name, fn))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _replace(self, fn, wrapper):
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "cavqfi" or module_name.startswith("cavqfi.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, fn))

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        errors = self.errors
        measure = _MEASURE.get(name)
        classify = _CLASSIFY.get(name)

        def wrapper(*args, **kwargs):
            tag = classify(args, kwargs) if classify else None
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count each exception once, where it first leaves a layer
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    errors[type(exc).__name__] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - children[0]
                if tag is not None:
                    stat.extra[tag + "_calls"] += 1
                    stat.extra[tag + "_s"] += dt
            if measure:
                stat.extra.update(measure(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class PointTimer:
    """Wall time of each scenario point, taken at ``cli.evaluate_scenario``.

    Used in the untraced run to give per-point latency inside a multi-point
    ``figure2`` or ``sweep`` call.  ``available`` is False when the function
    is gone; callers then fall back to the mean time per point.
    """

    def __init__(self):
        self.durations = []
        self._cli = importlib.import_module("cavqfi.cli")
        self._original = getattr(self._cli, "evaluate_scenario", None)
        self.available = callable(self._original)

    def install(self):
        if not self.available:
            return
        fn = self._original
        durations = self.durations

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - t0)

        self._cli.evaluate_scenario = wrapper

    def uninstall(self):
        if self.available:
            self._cli.evaluate_scenario = self._original
