"""The names the benchmark under perfbench/ reaches into the package by.

perfbench traces layers by module attribute and builds its qfi_mix row
checks from public names; a refactor that renames one of them leaves the
benchmark silently measuring less, so the names are pinned here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import cavqfi
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
