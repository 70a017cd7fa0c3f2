"""The names the benchmark under perfbench/ reaches into the package by.

perfbench traces layers by module attribute and builds its qfi_mix row
checks from public names; a refactor that renames one of them leaves the
benchmark silently measuring less, so the names are pinned here.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavqfi
from cavqfi import cavity, cli, kernels
from cavqfi.policy import DEFAULT_POLICY
from conftest import kernel_coverage

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# layers the tracer still lists although the package no longer has them:
# phase calibration and the spectator mode sums went with the matrix-form
# H0; the series evaluated as whole matrices (now a test oracle) and the
# reduced transform kernel went when every two-mode state came to be built
# from one pair-row Gram map, both having recorded 0 calls on every workload
ABSENT_LAYERS = {
    "metrology.calibrate_phases",
    "metrology.mode_sums",
    "bogoliubov.evaluate_series",
    "kernels.reduced_transform",
}


def load_perfbench(name):
    """perfbench/<name>.py as a module (it is not a package).

    The module is registered in sys.modules, where its dataclasses look it up.
    """
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_perfbench("workloads")


def test_every_traced_layer_resolves():
    missing = {
        name
        for name, (module_name, attr) in load_perfbench("tracer").LAYERS.items()
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
    # it once per row, and those calls must cover every opposite-parity
    # entry once, and no other entry
    original = kernels.time_dependent_coefficients
    calls = []

    def counted(*args):
        calls.append(args[-2:])
        return original(*args)

    monkeypatch.setattr(kernels, "time_dependent_coefficients", counted)
    cavity.build_scenario_series(cavity.CavityScenario(n_max=210))
    hits, expected, rows = kernel_coverage(calls, 210)
    assert rows == [[m] for m in range(210)]
    assert np.array_equal(hits, expected)


def test_coefficient_entries_count_first_order_only():
    # cavity.coefficients_built counts the complex arrays of the built series:
    # alpha1 and beta1, n_max^2 entries each (the series has no second order)
    series = cavity.build_scenario_series(cavity.CavityScenario(n_max=50))
    assert load_perfbench("tracer")._coefficient_entries(series) == {"entries": 2 * 50**2}


@pytest.mark.parametrize("key", list(WORKLOADS.QfiMix.POINTS))
def test_qfi_mix_row_check(key):
    # the qfi_mix workload's row check at each of its points: H0 against
    # the fidelity-ladder QFI of the lab-frame transform_reduced (whose
    # states reach e^{2r} and take the mpmath fidelity path at r >= 5),
    # and the reference bound on the acceleration
    point = WORKLOADS.QfiMix.POINTS[key]
    ref = WORKLOADS.REFERENCE_SCENARIO
    scenario = cavity.CavityScenario(
        length=ref["length_m"],
        sound_speed=ref["sound_speed_m_per_s"],
        k=ref["mode_k"],
        kprime=ref["mode_kprime"],
        squeezing=point["squeezing_r"],
        tau=point["duration_s"],
        n_max=point["n_max"],
        n_measurements=ref["n_measurements"],
    )
    row = cli.evaluate_scenario(scenario)
    series = cavqfi.build_scenario_series(scenario)
    initial = cavqfi.initial_product_squeezed(scenario.squeezing, scenario.squeezing)
    ladder = cavqfi.qfi_numeric(
        lambda h: cavqfi.transform_reduced(initial, series, h, scenario.k, scenario.kprime), 0.0
    )
    assert abs(row["qfi"] - ladder) <= 1e-6 * ladder
    if key.startswith("reference"):
        expected = WORKLOADS.REFERENCE_DELTA_A
        assert abs(row["delta_a_m_per_s2"] - expected) <= 1e-6 * expected


def test_traced_qfi_mix_run_is_correct():
    # one traced second of the benchmark's qfi_mix workload, in a child
    # interpreter (about 3 s): every row checks, and the tracer finds every
    # layer but the ones the package no longer has
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "qfi_mix",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["trace.layers_absent"]["value"] == len(ABSENT_LAYERS)


@pytest.mark.parametrize("workload", ["figure2", "wide_truncation"])
def test_untimed_workload_run_is_correct(workload):
    # one untraced second of each sweep workload, in a child interpreter
    # (3 to 5 s): figure2's curve checks and wide_truncation's n_max 1000
    # vs 50 agreement hold on every row, and no call fails
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
