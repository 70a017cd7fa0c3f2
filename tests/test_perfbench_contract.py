"""The names the benchmark under perfbench/ reaches into the package by.

perfbench traces layers by module attribute and builds its qfi_mix row
checks from public names; a refactor that renames one of them leaves the
benchmark silently measuring less, so the names are pinned here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import cavqfi
from cavqfi import cavity, kernels
from cavqfi.policy import DEFAULT_POLICY

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# layers the tracer still lists although the package no longer has them
# (phase calibration and the spectator mode sums went with the matrix-form H0)
ABSENT_LAYERS = {"metrology.calibrate_phases", "metrology.mode_sums"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    missing = {
        name
        for name, (module_name, attr) in load_tracer().LAYERS.items()
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    }
    assert missing == ABSENT_LAYERS


def test_workload_names_import_from_package():
    for name in (
        "CavityScenario",
        "build_scenario_series",
        "initial_product_squeezed",
        "qfi_numeric",
        "transform_reduced",
    ):
        assert callable(getattr(cavqfi, name)), name
    # the call shapes of the qfi_mix row check
    inspect.signature(cavqfi.qfi_numeric).bind(lambda h: None, 0.0)
    inspect.signature(cavqfi.transform_reduced).bind(None, None, 0.0, 1, 2)


def test_precision_path_threshold():
    # the tracer classifies a fidelity call as mpmath or float64 from this
    assert DEFAULT_POLICY.extended_precision_above == 1e4


def test_series_build_calls_kernel_through_module_attribute(monkeypatch):
    # the tracer's kernels.time_dependent_coefficients spans measure the
    # build only while the build looks the kernel up on the module; it calls
    # it twice per row block, once per row parity, and those calls must
    # cover every opposite-parity entry once and no same-parity entry
    original = kernels.time_dependent_coefficients
    hits = np.zeros((210, 210), dtype=int)
    calls = []

    def counted(*args):
        rows, cols = args[-2:]
        calls.append(rows)
        hits[rows, cols] += 1
        return original(*args)

    monkeypatch.setattr(kernels, "time_dependent_coefficients", counted)
    cavity.build_scenario_series(cavity.CavityScenario(n_max=210))
    step = cavity._BLOCK_ENTRIES // 210
    assert len(calls) == 2 * -(-210 // step) > 2
    n = np.arange(210)
    odd = (n[:, None] + n[None, :]) % 2 == 1
    assert np.array_equal(hits, odd.astype(int))


def test_coefficient_entries_count_first_order_only():
    # cavity.coefficients_built counts the complex arrays of the built series:
    # alpha1 and beta1, n_max^2 entries each (the series has no second order)
    series = cavity.build_scenario_series(cavity.CavityScenario(n_max=50))
    assert load_tracer()._coefficient_entries(series) == {"entries": 2 * 50**2}
