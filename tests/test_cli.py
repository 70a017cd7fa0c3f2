import collections
import copy
import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavqfi import CavityScenario, bogoliubov, cavity, cli, metrology
from cavqfi.cli import SCENARIO_FIELDS, main
from cavqfi.policy import DEFAULT_POLICY, NumericPolicy
from conftest import child_env
from oracles import lattice_qfi, whole_matrix_coefficients


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FAST_SCENARIO = {
    "squeezing_r": 2.0,
    "duration_s": 0.5,
    "n_max": 30,
}


def test_qfi_defaults_exit_zero(tmp_path, capsys):
    out_path = tmp_path / "qfi.json"
    assert main(["qfi", "--out", str(out_path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert "QFI (analytic H0)" in out
    assert "QFI (numeric ladder)" in out
    residual = float(out.split("cross-check residual: ")[1].split()[0])
    payload = json.loads(out_path.read_text())
    assert payload["cross_check_residual"] == pytest.approx(
        abs(payload["qfi"] - payload["qfi_numeric"]) / payload["qfi_numeric"], rel=1e-12
    )
    assert residual == pytest.approx(payload["cross_check_residual"], rel=1e-3)
    assert residual <= 1e-6


@pytest.mark.parametrize(
    "r, tau",
    list(
        itertools.product(
            (2.0, 5.0, 8.0, 9.0, 10.0),
            (30.0, 200.0, 2.00013, 10.293056712267909, 17.8869724053911),
        )
    ),
)
def test_qfi_off_lattice_cross_check(tmp_path, monkeypatch, capsys, r, tau):
    # the grid behind the README's large-squeezing bound, on and off the
    # round-trip lattice; off it a lab-frame ladder at r >= 5 failed its
    # conditioning or plateau checks (exit 1), and the interaction picture
    # keeps it solvable; no fidelity of the ladder needs extended precision
    mp_calls = count_extended_precision_fidelities(monkeypatch)
    out_path = tmp_path / "qfi.json"
    cfg = write_config(tmp_path, {"scenario": {"squeezing_r": r, "duration_s": tau}})
    assert main(["qfi", "--config", cfg, "--out", str(out_path), "--format", "json"]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["cross_check_residual"] <= 1e-6
    assert mp_calls == []


def count_extended_precision_fidelities(monkeypatch):
    """A list that grows by one per call of the mpmath fidelity path."""
    calls = []
    fidelity_mp = metrology._fidelity_mp

    def counted(*args):
        calls.append(1)
        return fidelity_mp(*args)

    monkeypatch.setattr(metrology, "_fidelity_mp", counted)
    return calls


# the interactive points of the benchmark's qfi_mix workload, reference geometry
QFI_MIX_POINTS = (
    {"squeezing_r": 10.0, "duration_s": 30.0, "n_max": 50},
    {"squeezing_r": 8.0, "duration_s": 2.0, "n_max": 50},
    {"squeezing_r": 9.0, "duration_s": 200.0, "n_max": 50},
    {"squeezing_r": 5.0, "duration_s": 10.0, "n_max": 50},
    {"squeezing_r": 10.0, "duration_s": 30.0, "n_max": 200},
    {"squeezing_r": 10.0, "duration_s": 2.00013, "n_max": 50},
)


def test_qfi_reference_ladder_stays_on_float_path(tmp_path, monkeypatch, capsys):
    # the ladder runs on un-squeezed states near the vacuum, and its pilot
    # shrinks a step whose state has grown far from the base state without
    # taking that state's fidelity, so no fidelity needs extended precision
    mp_calls = count_extended_precision_fidelities(monkeypatch)
    out_path = tmp_path / "qfi.json"
    for scenario in QFI_MIX_POINTS:
        cfg = write_config(tmp_path, {"scenario": scenario})
        assert main(["qfi", "--config", cfg, "--out", str(out_path), "--format", "json"]) == 0
        assert json.loads(out_path.read_text())["cross_check_residual"] <= 1e-6
        assert mp_calls == [], scenario
    assert "cross-check residual" in capsys.readouterr().out


def test_qfi_reference_numbers(capsys):
    # reference parameter set: r = 10, modes (1, 2), resonant drive, N = 1e11
    assert main(["qfi"]) == 0
    out = capsys.readouterr().out
    qfi = float(out.split("QFI (analytic H0)   : ")[1].split()[0])
    delta_a = float(out.split("delta_a bound (m/s2): ")[1].split()[0])
    assert 1e15 <= qfi <= 1e17
    assert 3e-14 <= delta_a <= 1e-13


def test_qfi_r2_modest_measurements(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"scenario": {"squeezing_r": 2.0, "n_measurements": 1e4}},
    )
    assert main(["qfi", "--config", cfg]) == 0
    out = capsys.readouterr().out
    delta_a = float(out.split("delta_a bound (m/s2): ")[1].split()[0])
    assert 1e-7 <= delta_a <= 1e-5  # order 1e-6


def test_qfi_no_information_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"squeezing_r": 0.0, "duration_s": 0.0}})
    assert main(["qfi", "--config", cfg]) == 1
    assert "no information" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario",
    [
        {"squeezing_r": 2.0, "duration_s": 0.5, "n_max": 3},
        {"squeezing_r": 2.0, "duration_s": 0.6, "n_max": 3},
        {"squeezing_r": 2.0, "duration_s": 0.0},
    ],
)
def test_qfi_zero_h0_skips_ladder(tmp_path, monkeypatch, capsys, scenario):
    # H0 is 0 at every point (at tau = 0.6 s its two sums cancel to a
    # rounding residue, which counts as zero); the ladder has nothing to
    # cross-check and at n_max 3 it fails to plateau, which hid the
    # no-information exit
    calls = []
    monkeypatch.setattr(cli, "qfi_numeric", lambda *args, **kwargs: calls.append(args))
    cfg = write_config(tmp_path, {"scenario": scenario})
    assert main(["qfi", "--config", cfg]) == 1
    assert "QFI is zero" in capsys.readouterr().err
    assert calls == []


def test_sweep_cancellation_residue_is_no_information(tmp_path):
    # at n_max 3 the two sums of H0 cancel; tau = 0.6 s used to leave a
    # 9.09e-13 residue that was emitted as a QFI with delta_h 3.32
    cfg = write_config(
        tmp_path,
        {
            "scenario": {"squeezing_r": 2.0, "n_max": 3},
            "sweep": {"parameter": "tau", "start": 0.5, "stop": 0.6, "count": 2},
        },
    )
    out = tmp_path / "residue.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == [0.5, 0.6]
    assert [(float(row[2]), float(row[3])) for row in rows] == [(0.0, math.inf)] * 2


def count_calls(monkeypatch, module, name):
    """A list that grows by one per call of module.name, through any package module that binds it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for bound in (bogoliubov, cavity, metrology, cli):
        if getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counted)
    return calls


def test_qfi_ladder_steps_the_state_map(monkeypatch, capsys):
    # the reference qfi call runs its ladder on the un-squeezed state map of
    # its one pair-row value: no lab-frame transform_reduced, and the
    # ladder's four fidelities still go through the metrology module
    # attribute that the benchmark's tracer wraps: three rungs against the
    # h = 0 state, whose self-fidelity is one and is not taken
    maps = count_calls(monkeypatch, bogoliubov, "unsqueezed_state_map")
    lab = count_calls(monkeypatch, bogoliubov, "transform_reduced")
    fidelities = count_calls(monkeypatch, metrology, "fidelity_two_mode")
    assert main(["qfi"]) == 0
    assert (len(maps), len(lab), len(fidelities)) == (1, 0, 3)


def test_every_point_builds_pair_rows_once(tmp_path, monkeypatch, capsys):
    # a point builds rows k and k' alone: one drive_entries call per row
    # and matrix (alpha1, beta1), against the 25 columns of the other
    # parity, for its tau and the two tau probes at once; one H0 call takes
    # all three from their coefficients, the qfi ladder forms one state map
    # of the rows at tau, a sweep point forms none, and no point builds the
    # whole series; the static entries of rows k and k' are formed once per
    # row plan, which a sweep shares across the points of one geometry
    entries = count_calls(monkeypatch, cavity, "drive_entries")
    h0 = count_calls(monkeypatch, metrology, "qfi_analytic_h0")
    maps = count_calls(monkeypatch, bogoliubov, "unsqueezed_state_map")
    whole = count_calls(monkeypatch, cavity, "build_scenario_series")
    statics = count_calls(monkeypatch, cavity, "static_matrices")
    assert main(["qfi"]) == 0
    assert (len(entries), len(h0), len(maps), len(whole), len(statics)) == (4, 1, 1, 0, 2)
    eps = np.finfo(float).eps
    for _, x, _, tau in entries:
        assert tau.ravel().tolist() == [30.0, 30.0 * (1 - 16 * eps), 30.0 * (1 + 16 * eps)]
        assert tau.shape == (3, 1, 1) and x.shape == (1, 25)
    cfg = write_config(
        tmp_path,
        {
            "scenario": {"n_max": 30},
            "sweep": {"parameter": "tau", "start": 0.5, "stop": 2.0, "count": 3},
        },
    )
    # the drive frequency is part of the plan, so an omega sweep plans at
    # each point
    omega_cfg = write_config(
        tmp_path,
        {
            "scenario": FAST_SCENARIO,
            "sweep": {"parameter": "omega", "start": 9000.0, "stop": 9500.0, "count": 3},
        },
        "omega.json",
    )
    for command, config, points, plans in (
        ("figure2", cfg, 9, 1),
        ("sweep", cfg, 3, 1),
        ("sweep", omega_cfg, 3, 3),
    ):
        for calls in (entries, h0, maps, statics):
            calls.clear()
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", config, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == points + 1
        assert (len(entries), len(h0), len(maps), len(whole), len(statics)) == (
            4 * points, points, 0, 0, 2 * plans
        )


def test_readme_qfi_sample_matches_cli(capsys):
    # every line of the README's `cavqfi qfi` sample, in order, is a line
    # of the reference call's output
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("$ cavqfi qfi\n", 1)[1].split("```", 1)[0]
    sample = [line for line in block.splitlines() if line != "..."]
    assert main(["qfi"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(sample) >= 4
    positions = [printed.index(line) for line in sample]
    assert positions == sorted(positions)


def readme_config_text():
    """The README's JSON config block, as text."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("```json\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_loads(tmp_path):
    # the README's JSON config is one the CLI accepts as it stands: every
    # section it shows exists, and its scenario is the reference set with a
    # probe acceleration
    path = tmp_path / "readme.json"
    path.write_text(readme_config_text())
    cfg = cli.load_config(str(path))
    assert cli.scenario_from_config(cfg) == CavityScenario(a_probe=1e-9)
    name, values = cli._sweep_axis(cfg)
    assert name == "tau" and len(values) == 25
    assert (values[0], values[-1]) == pytest.approx((0.1, 10.0), rel=1e-15)


@pytest.mark.parametrize(
    "command, payload",
    [
        ("qfi", {"scenario": {"squeezing_r": 210.0}}),
        ("qfi", {"scenario": {"squeezing_r": 200.0}}),
        ("qfi", {"scenario": {"squeezing_r": 400.0}}),
        ("sweep", {"sweep": {"parameter": "r", "start": 300.0, "stop": 400.0, "count": 3}}),
        ("fidelity", {"scenario": {"squeezing_r": 400.0}, "fidelity": {"state_b": {"amplitude_h": 1e-9}}}),
        ("fidelity", {"scenario": {"squeezing_r": 354.0}, "fidelity": {"state_b": {"amplitude_h": 1e-3}}}),
    ],
)
def test_squeezing_overflow_exit_one(tmp_path, capsys, command, payload):
    # a finite squeezing whose H0 terms (~e^{4r}) overflow float64 is a
    # numeric failure, not a traceback; at r = 210 numpy's overflow warning
    # comes first, and the suite turns warnings into errors.  At r = 200 H0
    # is finite (3.5e298) but N * H0 overflows: a failure, not a bound of
    # zero.  fidelity reads no H0: there the squeezed variance e^{2r}
    # (r = 400) or the transformed covariance (r = 354) overflows, which
    # printed a fidelity of nan
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure:")
    assert "overflows float64" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "h, message",
    [(1e34, "fidelity determinants overflow float64"), (1.4e154, "transformed covariance overflows float64")],
    ids=["1e34", "1.4e154"],
)
def test_fidelity_amplitude_overflow_exit_one(tmp_path, capsys, h, message):
    # at 1e34 the 40-digit determinants round to inf in float64, which
    # printed a fidelity of nan; at 1.4e154, h**2 of a Python float raised
    # OverflowError.  1e32 is still a fidelity.  The suite turns warnings
    # into errors.
    out = tmp_path / "fid.json"
    cfg = write_config(tmp_path, {"fidelity": {"state_a": {"amplitude_h": h}}})
    assert main(["fidelity", "--config", cfg, "--out", str(out), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"numeric failure: {message}\n")
    assert not out.exists()
    cfg = write_config(tmp_path, {"fidelity": {"state_a": {"amplitude_h": 1e32}}})
    assert main(["fidelity", "--config", cfg]) == 0
    assert capsys.readouterr().out == "fidelity            : 5.1427435497170700e-150\n"


# values of another type than a field takes, and numbers at and beyond the
# float64 range and the program's limits, for config mutations
WRONG_TYPES = ("10", "", True, False, None, [], {}, [1.0], {"value": 1.0}, "NaN")
EXTREME_NUMBERS = (
    1.7976931348623157e308, -1e308, 1e300, 1e19, 123456.5, 1e-300, 5e-324, -5e-324,
    0, -0.0, -1, 2**64, -(2**63), 10**30, 100_000, 100_001,
)
NUMBER_TOKEN = re.compile(rb"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def _positions(node):
    """(container, key) of every value inside a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _positions(value)


def mutate_config(rng, text):
    """Bytes of one seeded mutation of the JSON config text.

    Up to two structural mutations: a value of the wrong type, an extreme
    number, the value nested up to 60 containers deep, or an unknown key;
    then, at random, a number token swapped for NaN or an infinity, and
    bytes inserted that break the UTF-8 or the JSON.
    """
    doc = json.loads(text)
    for kind in rng.sample(["type", "number", "nest", "unknown"], rng.randint(0, 2)):
        parent, key = rng.choice(list(_positions(doc)))
        if kind == "type":
            parent[key] = copy.deepcopy(rng.choice(WRONG_TYPES))
        elif kind == "number":
            parent[key] = rng.choice(EXTREME_NUMBERS)
        elif kind == "nest":
            for _ in range(rng.randint(1, 60)):
                parent[key] = [parent[key]] if rng.random() < 0.5 else {"value": parent[key]}
        else:
            objects = [doc] + [value for _, value in _positions(doc) if isinstance(value, dict)]
            rng.choice(objects)[rng.choice(["extra", "scenario", "sweep", "fidelity", "n_max"])] = 1.0
    data = json.dumps(doc, allow_nan=True).encode()
    tokens = list(NUMBER_TOKEN.finditer(data))
    if tokens and rng.random() < 0.3:
        token = rng.choice(tokens)
        nan = rng.choice([b"NaN", b"Infinity", b"-Infinity"])
        data = data[: token.start()] + nan + data[token.end() :]
    if rng.random() < 0.2:
        at = rng.randrange(len(data) + 1)
        junk = rng.choice([b"\xff", b"\x00", b"\xc3\x28", b"\xed\xa0\x80", b"}", b",", b"\"", b"[" * 3])
        data = data[:at] + junk + data[at + rng.randint(0, 2) :]
    return data


def test_mutated_readme_configs_exit_cleanly(tmp_path, capsys):
    # 200 seeded mutations of the README's config, each run through qfi:
    # every one exits 0, 2 with a config error, or 1 with a numeric failure
    # (a squeezing whose H0 overflows, a QFI of zero, an H0 that the tau
    # probes move), and none ends in an exception or a numpy warning, which
    # the suite turns into errors
    rng = random.Random(2915)
    path = tmp_path / "mutated.json"
    expected = {0: "", 1: "numeric failure: ", 2: "config error: "}
    codes = collections.Counter()
    for case in range(200):
        data = mutate_config(rng, readme_config_text())
        path.write_bytes(data)
        code = main(["qfi", "--config", str(path)])
        err = capsys.readouterr().err
        assert code in expected and err.startswith(expected[code]), (case, data, err)
        codes[code] += 1
    # the draw reaches every exit code
    assert set(codes) == {0, 1, 2}, codes


def tau_spread(scenario):
    """|H0| share by which the tau probes move a point's H0, measured as cli.evaluate_scenario does."""
    taus = scenario.tau * cli._TAU_PROBES
    alpha1, beta1 = cavity.build_rows(cavity.row_plan(scenario, (scenario.k, scenario.kprime)), taus)
    coefficients = metrology.h0_coefficients(alpha1, beta1, scenario.k, scenario.kprime, None)
    h0 = metrology.qfi_analytic_h0(coefficients, scenario.squeezing)
    return max(abs(value - h0.value) for value in h0.probes) / abs(h0.value)


@pytest.mark.parametrize(
    "r, spread, extra",
    [
        (50.0, "3.185e-03", {}),
        (65.0, "1.019e+10", {}),
        # one measurement keeps N H0 finite, and a probe's H0 overflows
        (201.0, "inf", {"n_measurements": 1}),
        # the crossover on the reference lattice: r = 45 passes (spread 1.4e-7)
        (46.0, "1.069e-06", {}),
    ],
)
def test_qfi_refuses_h0_that_tau_rounding_moves(tmp_path, capsys, r, spread, extra):
    # on the round-trip lattice H0's e^{4r} coefficient is zero in exact
    # arithmetic, and the rounding of tau leaves a residue that e^{4r}
    # amplifies: at r = 65 the reference point printed H0 1.5e64 with exit
    # 0, and the ladder, which reads the same rows, agreed.  A change of
    # tau by 16 eps moves such an H0 by more than policy.tau_spread_max of
    # itself, and the point is a numeric failure that names tau, r and the
    # spread, with no text and no record
    cfg = write_config(tmp_path, {"scenario": {"squeezing_r": r, **extra}})
    out = tmp_path / "qfi.csv"
    assert main(["qfi", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("numeric failure: H0 = ")
    assert f"at tau = 30.0 s, r = {r!r} is not determined by its inputs" in captured.err
    assert f"moves it by {spread} of itself, above 1e-06" in captured.err


@pytest.mark.parametrize("scenario", [{"squeezing_r": 45.0}, {"squeezing_r": 65.0, "duration_s": 2.00013}])
def test_qfi_keeps_h0_that_tau_rounding_does_not_move(tmp_path, capsys, scenario):
    # below the crossover on the lattice, and off the lattice, where H0's
    # e^{4r} coefficient is not a rounding residue
    assert main(["qfi", "--config", write_config(tmp_path, {"scenario": scenario})]) == 0
    assert "QFI (analytic H0)" in capsys.readouterr().out


def test_h0_overflow_boundary_off_lattice():
    # at tau = 2.00013 s (one measurement, so N H0 stays finite) H0 is
    # finite at r = 178 and overflows float64 at r = 179, the integer
    # squeezings where the orders-based sum first left float64; e^{4r}
    # alone leaves float64 from r = 177.5, so a term weighted by it whole
    # would overflow at r = 178 already
    base = CavityScenario(tau=2.00013, n_measurements=1.0)
    assert 1e300 < cli.evaluate_scenario(dataclasses.replace(base, squeezing=178.0))["qfi"] < math.inf
    with pytest.raises(cli.NumericError, match=r"H0 overflows float64 at squeezing r = 179\.0"):
        cli.evaluate_scenario(dataclasses.replace(base, squeezing=179.0))


def test_tau_spread_margin_on_emitted_grids():
    # the default figure2 grid and the 25-point qfi grid sit orders of
    # magnitude below the refusal threshold; on the reference lattice the
    # spread crosses it between r = 45 and r = 46
    limit = DEFAULT_POLICY.tau_spread_max
    base = CavityScenario()
    figure2 = [
        tau_spread(dataclasses.replace(base, squeezing=r, tau=tau))
        for r in cli.FIGURE2_SQUEEZINGS
        for tau in cli.snapped_tau_grid(base, *cli.FIGURE2_TAU)
    ]
    assert len(figure2) == 75 and max(figure2) <= 1e-14
    grid = [
        tau_spread(dataclasses.replace(base, squeezing=r, tau=tau))
        for r in (2.0, 5.0, 8.0, 9.0, 10.0)
        for tau in (30.0, 200.0, 2.00013, 10.293056712267909, 17.8869724053911)
    ]
    assert max(grid) <= 1e-9
    lattice = [tau_spread(dataclasses.replace(base, squeezing=r)) for r in (40.0, 45.0, 46.0, 50.0)]
    assert lattice[0] < lattice[1] <= limit < lattice[2] < lattice[3]


@pytest.mark.parametrize("out", [True, False])
def test_sweep_with_refused_point_writes_nothing(tmp_path, capsys, out):
    # every point is evaluated before any record is written, so one refused
    # point (r = 65 on the lattice) fails the whole sweep with no output
    cfg = write_config(
        tmp_path, {"sweep": {"parameter": "r", "start": 10.0, "stop": 65.0, "count": 3}}
    )
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg] + (["--out", str(path)] if out else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not path.exists()
    assert captured.err.startswith("numeric failure: ") and "r = 65.0" in captured.err


def test_config_error_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"mode_k": 1, "mode_kprime": 3}})
    assert main(["qfi", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_max", "3.7"),
        ("n_max", 3.7),
        ("mode_k", 1.5),
        ("squeezing_r", "abc"),
        pytest.param("squeezing_r", 10**400, id="squeezing_r-huge_int"),
        # Python's json reads NaN and Infinity
        ("duration_s", float("nan")),
        ("length_m", float("nan")),
        ("duration_s", float("inf")),
        ("squeezing_r", float("inf")),
        ("n_measurements", float("nan")),
    ],
)
def test_scenario_value_malformed_exit_two(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, {"scenario": {field: value}})
    assert main(["qfi", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, message",
    [
        # a truncation past the exact range of the static coefficients'
        # integer cubes; the whole build asked numpy for 149 GiB, and
        # 10^30 modes for an array numpy cannot size
        ({"n_max": 100_001}, "n_max must be at most 100000"),
        ({"n_max": 10**30}, "n_max must be at most 100000"),
        # scales whose frequencies or phases overflow float64: numpy's
        # overflow warning, an error in the suite
        ({"length_m": 5e-324}, "overflow float64"),
        ({"sound_speed_m_per_s": 1e300}, "overflow float64"),
        ({"drive_omega_rad_per_s": 1e308}, "overflow float64"),
        ({"duration_s": 1e308}, "overflow float64"),
        # c_s^2 of h = a L / c_s^2 leaves float64: a ZeroDivisionError
        # with the probe, and (with L as large, which keeps the
        # frequencies in range) a Python OverflowError in the bounds
        ({"sound_speed_m_per_s": 1e-300}, "sound_speed^2 leaves the float64 range"),
        ({"sound_speed_m_per_s": 1e200, "length_m": 1e200}, "sound_speed^2 leaves the float64 range"),
    ],
)
def test_scenario_beyond_float64_exit_two(tmp_path, capsys, scenario, message):
    # each of these ended in a traceback; now the scenario refuses it
    cfg = write_config(tmp_path, {"scenario": {**scenario, "probe_acceleration_m_per_s2": 1e-9}})
    assert main(["qfi", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid scenario: ") and message in err


@pytest.mark.parametrize("command", ["sweep", "figure2"])
@pytest.mark.parametrize("count", [10**15, 10**44], ids=["1e15", "1e44"])
def test_unallocatable_sweep_count_exit_two(tmp_path, capsys, command, count):
    # numpy refuses both grids before allocating anything (7.11 PiB, and a
    # size past its maximum); each ended in a traceback
    cfg = write_config(
        tmp_path, {"sweep": {"parameter": "tau", "start": 1.0, "stop": 2.0, "count": count}}
    )
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "sweep.count" in err


@pytest.mark.parametrize("duration", [1e160, 1e200])
def test_overflowing_h0_rows_exit_one_without_warnings(tmp_path, capsys, duration):
    # the rows of so long a drive square past float64 in h0_coefficients:
    # one numeric-failure line and no RuntimeWarning, which the suite turns
    # into an error
    cfg = write_config(tmp_path, {"scenario": {"duration_s": duration}})
    assert main(["qfi", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric failure: H0 overflows float64 at squeezing r = 10.0\n"


def test_unknown_scenario_field_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"length": 1.0}})
    assert main(["qfi", "--config", cfg]) == 2


def test_removed_options_refused(tmp_path, monkeypatch, capsys):
    # sweeps run serially; there is no --workers flag
    with pytest.raises(SystemExit) as exc:
        main(["figure2", "--workers", "2"])
    assert exc.value.code == 2
    # the numeric tolerances are constants: a numeric_policy section is an
    # unknown config section, not a silent no-op
    cfg = write_config(tmp_path, {"numeric_policy": {"n_max": 100}})
    assert main(["qfi", "--config", cfg]) == 2
    assert "numeric_policy" in capsys.readouterr().err
    # settings that no result read are unknown scenario fields
    for name in ("light_speed_m_per_s", "symmetry_tol", "uncertainty_floor"):
        cfg = write_config(tmp_path, {"scenario": {name: 1.0}})
        assert main(["qfi", "--config", cfg]) == 2
        assert name in capsys.readouterr().err
    # nor does the environment set a tolerance: with CAVQFI_NUMERIC_POLICY set
    # to values that would change the record, or to invalid JSON, the record
    # keeps every digit
    cfg = write_config(tmp_path, {"scenario": FAST_SCENARIO})
    out = tmp_path / "qfi.json"
    records = []
    for raw in (None, '{"extended_dps": 15, "plateau_rtol": 1e-15}', "not json"):
        if raw is None:
            monkeypatch.delenv("CAVQFI_NUMERIC_POLICY", raising=False)
        else:
            monkeypatch.setenv("CAVQFI_NUMERIC_POLICY", raw)
        assert main(["qfi", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        records.append(out.read_text())
    assert records[1:] == records[:1] * 2


# one value per setting, and per tolerance constant of DEFAULT_POLICY (the
# "numeric_policy" rows), that must change what `qfi` or `fidelity` emits (the
# JSON record, the printed lines or the exit code); one missing here fails the
# guard, so a setting or constant that no result reads cannot land unnoticed
GUARD_BASE = {
    "scenario": {"squeezing_r": 2.0, "duration_s": 0.5, "n_max": 8},
    "fidelity": {
        "state_a": {"squeezing_r_k": 6.0, "amplitude_h": 1e-4},
        "state_b": {"squeezing_r_k": 6.0, "amplitude_h": 2e-4},
    },
}
SETTING_CHANGES = {
    ("numeric_policy", "branch_clamp"): 1.0,
    ("numeric_policy", "extended_precision_above"): 1e300,
    ("numeric_policy", "extended_dps"): 15,
    ("numeric_policy", "dh_ladder"): [1e-3, 5e-4, 2.5e-4],
    ("numeric_policy", "dh_curvature_target"): 1e-8,
    ("numeric_policy", "dh_curvature_max"): 1e-7,
    ("numeric_policy", "plateau_rtol"): 1e-15,
    ("numeric_policy", "plateau_abs_floor"): 1e30,
    ("numeric_policy", "validity_threshold"): 0.5,
    # the base point's H0 does not move under the tau probes; below zero
    # every point is refused
    ("numeric_policy", "tau_spread_max"): -1.0,
    ("scenario", "length_m"): 2e-6,
    ("scenario", "sound_speed_m_per_s"): 2e-3,
    ("scenario", "mode_k"): 3,
    ("scenario", "mode_kprime"): 6,
    ("scenario", "squeezing_r"): 3.0,
    ("scenario", "drive_omega_rad_per_s"): 5000.0,
    ("scenario", "duration_s"): 0.7,
    ("scenario", "n_max"): 6,
    ("scenario", "n_measurements"): 1e6,
    ("scenario", "probe_acceleration_m_per_s2"): 1e-10,
}


def _emitted(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, payload, "guard.json")
    seen = []
    for command in ("qfi", "fidelity"):
        out = tmp_path / f"{command}.json"
        out.unlink(missing_ok=True)
        code = main([command, "--config", cfg, "--out", str(out), "--format", "json"])
        record = out.read_text() if out.exists() else None
        seen.append((code, capsys.readouterr().out, record))
    return seen


@pytest.mark.parametrize(
    "section, name",
    [("numeric_policy", f.name) for f in dataclasses.fields(NumericPolicy)]
    + [("scenario", name) for name in SCENARIO_FIELDS],
)
def test_every_setting_changes_an_output(tmp_path, monkeypatch, capsys, section, name):
    assert sorted(SCENARIO_FIELDS.values()) == sorted(
        f.name for f in dataclasses.fields(CavityScenario)
    )
    assert (section, name) in SETTING_CHANGES, f"no output-changing value for {section}.{name}"
    base = _emitted(tmp_path, capsys, GUARD_BASE)
    changed = copy.deepcopy(GUARD_BASE)
    value = SETTING_CHANGES[section, name]
    if section == "numeric_policy":
        # no config sets a tolerance: swap the constant where it is read
        tolerances = dataclasses.replace(DEFAULT_POLICY, **{name: value})
        for module in (cli, metrology):
            monkeypatch.setattr(module, "DEFAULT_POLICY", tolerances)
    else:
        changed[section][name] = value
    assert _emitted(tmp_path, capsys, changed) != base


@pytest.mark.parametrize("path", [True, 7])
def test_output_path_must_be_string(tmp_path, capsys, path):
    # the output path comes from --out alone, which argparse gives as a
    # string (open() would take an integer or a boolean as a file
    # descriptor); a config output section is refused whatever it holds
    cfg = write_config(tmp_path, {"output": {"path": path}})
    assert main(["coeffs", "--nmax", "2", "--config", cfg]) == 2
    assert "unknown config sections: ['output']" in capsys.readouterr().err


def test_validity_flagged(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"scenario": {"probe_acceleration_m_per_s2": 1e-8}},
    )
    assert main(["qfi", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "OUT OF VALIDITY RANGE" in out


def test_validity_ok_for_small_probe(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"scenario": {"probe_acceleration_m_per_s2": 1e-12}},
    )
    assert main(["qfi", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "[OK]" in out


@pytest.mark.parametrize("probe", [None, 1e-9, -1e-9])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zero_qfi_sweep_rows_pinned(tmp_path, fmt, probe):
    # tau = 0: no drive, H0 = 0, so both bounds are inf (null in JSON); the
    # validity margin H0 h^2 is nan (null) with no probe and 0.0 with a
    # probe of either sign; n_max // 2 covers the pair, so the tail is 0.0
    scenario = {"duration_s": 0.0, "n_max": 8}
    if probe is not None:
        scenario["probe_acceleration_m_per_s2"] = probe
    cfg = write_config(
        tmp_path,
        {"scenario": scenario, "sweep": {"parameter": "r", "start": 0.5, "stop": 2.0, "count": 2}},
    )
    out = tmp_path / f"zero.{fmt}"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
    if fmt == "csv":
        zero = "0.0000000000000000e+00"
        margin = "nan" if probe is None else zero
        rows = [
            f"{zero},{r},{zero},inf,inf,{margin},{zero}"
            for r in ("5.0000000000000000e-01", "2.0000000000000000e+00")
        ]
        header = "tau_s,r,qfi,delta_h,delta_a_m_per_s2,validity_margin,tail_estimate"
        expected = "\n".join([header, *rows]) + "\n"
    else:
        margin = None if probe is None else 0.0
        records = [
            {
                "delta_a_m_per_s2": None,
                "delta_h": None,
                "qfi": 0.0,
                "r": r,
                "tail_estimate": 0.0,
                "tau_s": 0.0,
                "validity_margin": margin,
            }
            for r in (0.5, 2.0)
        ]
        expected = json.dumps({"records": records}, indent=2) + "\n"
    assert out.read_text() == expected


# probes at margins H0 h^2 below and above validity_threshold (1e-2) for
# FAST_SCENARIO (H0 = 2.3911502862815087e5), and at it: the largest valid
# acceleration at tau = 0.4 s (H0 = 1.5303361832201655e5) has a margin
# that rounds to exactly 1e-2 (at tau = 0.5 s it rounds to
# 0.009999999999999998, and no probe's margin is 1e-2)
LARGEST_VALID_A = 0.00020450153094523024
AT_THRESHOLD = {"duration_s": 0.4}
AT_THRESHOLD_A = 0.0002556269136815378


@pytest.mark.parametrize(
    "overrides, probe, margin, valid, largest",
    [
        pytest.param({}, 2e-4, 0.009564601145126035, True, LARGEST_VALID_A, id="below"),
        pytest.param(AT_THRESHOLD, AT_THRESHOLD_A, 0.01, False, AT_THRESHOLD_A, id="at"),
        pytest.param({}, 2.1e-4, 0.010544972762501454, False, LARGEST_VALID_A, id="above"),
        pytest.param({}, -2.1e-4, 0.010544972762501454, False, LARGEST_VALID_A, id="above-negative"),
    ],
)
def test_qfi_json_validity_fields(tmp_path, capsys, overrides, probe, margin, valid, largest):
    # a margin equal to the threshold is out of range: the validity domain
    # is H0 h^2 < validity_threshold, strictly
    scenario = {**FAST_SCENARIO, **overrides, "probe_acceleration_m_per_s2": probe}
    cfg = write_config(tmp_path, {"scenario": scenario})
    out = tmp_path / "qfi.json"
    assert main(["qfi", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["validity_margin"] == margin
    assert payload["qfi_valid"] is valid
    assert payload["max_valid_acceleration_m_per_s2"] == largest
    flag = "[OK]" if valid else "[OUT OF VALIDITY RANGE]"
    assert capsys.readouterr().out.rstrip().endswith(flag)


@pytest.mark.parametrize("command", ["qfi", "fidelity"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_format_without_out_refused(tmp_path, capsys, command, fmt):
    # qfi and fidelity print text and write their record only to --out, so
    # a --format with no --out has nothing to format; it used to be ignored
    cfg = write_config(tmp_path, {"scenario": FAST_SCENARIO})
    assert main([command, "--config", cfg, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: --format {fmt} needs --out: {command} writes its record only to a file\n"
    )


@pytest.mark.parametrize("command", ["sweep", "figure2"])
def test_sweep_value_the_scenario_refuses_exit_two(tmp_path, monkeypatch, capsys, command):
    # a swept duration below 0 is refused by CavityScenario; every point is
    # built before any is evaluated, so the refusal is a config error that
    # leaves no point evaluated and no record written
    evaluated = count_calls(monkeypatch, cli, "evaluate_scenario")
    cfg = write_config(tmp_path, {"sweep": {"parameter": "tau", "start": -1, "stop": 1, "count": 3}})
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: invalid scenario: tau must be >= 0\n"
    assert evaluated == []
    assert not out.exists()


@pytest.mark.parametrize("scenario", [{}, {"squeezing_r": 400.0}])
def test_fidelity_states_parsed_before_series(tmp_path, monkeypatch, capsys, scenario):
    # both state sections are read before the series is built, so a config
    # error in state_b comes first, also before state_a's squeezed
    # covariance overflows at r = 400 (a numeric failure, exit 1)
    def refuse(*args):
        raise AssertionError("the series was built before the states were read")

    monkeypatch.setattr(cli, "build_rows", refuse)
    cfg = write_config(
        tmp_path, {"scenario": scenario, "fidelity": {"state_b": {"amplitude_h": -1}}}
    )
    assert main(["fidelity", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: fidelity.state_b.amplitude_h must be >= 0.0, got -1.0\n"
    )


@pytest.mark.parametrize(
    "argv, printed",
    [
        # qfi prints its text before it writes the record
        (["qfi", "--config", "{cfg}", "--out", "{dir}"], True),
        (["coeffs", "--nmax", "2", "--out", "{dir}/missing/x.csv"], False),
        (["coeffs", "--nmax", "2", "--format", "json", "--out", "{dir}/missing/x.json"], False),
    ],
)
def test_unwritable_out_exit_two(tmp_path, capsys, argv, printed):
    cfg = write_config(tmp_path, {"scenario": FAST_SCENARIO})
    argv = [arg.format(cfg=cfg, dir=tmp_path) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cannot write output: ")
    assert captured.err.endswith(f"'{argv[-1]}'\n")
    assert captured.out.startswith("QFI (analytic H0)") is printed


def test_config_not_utf8_exit_two(tmp_path, capsys):
    # RFC 8259 JSON is UTF-8; a UTF-16 byte-order mark is not valid JSON
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["qfi", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: config is not valid JSON: 'utf-8' codec can't decode byte 0xff"
    )


def test_config_integer_over_digit_limit_exit_two(tmp_path, capsys):
    # int() refuses a decimal string over 4300 digits with ValueError
    path = tmp_path / "cfg.json"
    path.write_text('{"scenario": {"n_max": ' + "9" * 5000 + "}}")
    assert main(["qfi", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: config is not valid JSON: Exceeds the limit (4300 digits)"
    )


def test_config_nested_past_recursion_limit_exit_two(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["qfi", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: config is not valid JSON: maximum recursion depth exceeded"
    )


def test_records_commands_write_stdout_in_either_format(capsys):
    # sweep, figure2 and coeffs write their records to stdout without --out,
    # as CSV unless --format says json
    assert main(["coeffs", "--nmax", "2"]) == 0
    assert capsys.readouterr().out.startswith("m,n,alpha1_re,")
    assert main(["coeffs", "--nmax", "2", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["records"]) == 4


@pytest.mark.parametrize(
    "command, section",
    [
        ("fidelity", {"state_c": {"amplitude_h": 1e-3}}),
        ("fidelity", 3),
        ("coeffs", {"statik": True}),
        ("coeffs", True),
        ("sweep", {"parameter": "tau", "start": "abc", "stop": 2.0, "count": 3}),
        ("sweep", {"parameter": "tau", "start": None, "stop": 2.0, "count": 3}),
        ("sweep", {"parameter": "tau", "start": 1.0, "stop": 2.0, "count": "x"}),
        ("sweep", {"parameter": "tau", "start": 1.0, "stop": 2.0, "count": 3.7}),
        ("fidelity", {"state_a": {"amplitude_h": "x"}}),
        ("fidelity", {"state_a": {"amplitude_h": -1}}),
        ("sweep", {"parameter": "tau", "start": float("-inf"), "stop": 2.0, "count": 3}),
        ("fidelity", {"state_b": {"amplitude_h": float("nan")}}),
        ("sweep", {"parameter": ["tau"], "start": 1.0, "stop": 2.0, "count": 3}),
    ],
)
def test_malformed_section_exit_two(tmp_path, capsys, command, section):
    cfg = write_config(tmp_path, {"scenario": {"n_max": 4}, command: section})
    assert main([command, "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "policy",
    [
        5,
        [],
        {"extended_dps": "abc"},
        {"extended_dps": 40.7},
        {"extended_dps": True},
        {"plateau_rtol": "x"},
        {"plateau_rtol": True},
        {"dh_ladder": 5},
        {"dh_ladder": [1e-4]},
        {"dh_ladder": [1e-4, 5e-5, 2.5e-5, 1e-5]},
    ],
    ids=["config-5"] + [f"config-policy{i}" for i in range(1, 10)],
)
def test_malformed_numeric_policy_exit_two(tmp_path, capsys, policy):
    # a numeric_policy section in the config is refused as an unknown
    # section whatever it holds, malformed values included
    payload = {"scenario": {"n_max": 4, "squeezing_r": 2.0}, "numeric_policy": policy}
    assert main(["qfi", "--config", write_config(tmp_path, payload)]) == 2
    assert "unknown config sections: ['numeric_policy']" in capsys.readouterr().err


def test_fidelity_identical_states(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "scenario": FAST_SCENARIO,
            "fidelity": {
                "state_a": {"squeezing_r_k": 1.0, "squeezing_r_kprime": 1.0},
                "state_b": {"squeezing_r_k": 1.0, "squeezing_r_kprime": 1.0},
            },
        },
    )
    assert main(["fidelity", "--config", cfg]) == 0
    out = capsys.readouterr().out
    fid = float(out.split("fidelity            : ")[1].split()[0])
    assert fid == pytest.approx(1.0, abs=1e-10)


def test_fidelity_transformed_pair(tmp_path, capsys):
    # identical transformed states at finite h: the truncated transform is
    # O(h^2) impure, so self-fidelity sits at 1 - O(h^2 coeff^2), not exactly 1
    cfg = write_config(
        tmp_path,
        {
            "scenario": FAST_SCENARIO,
            "fidelity": {
                "state_a": {"squeezing_r_k": 1.0, "squeezing_r_kprime": 1.0, "amplitude_h": 1e-6},
                "state_b": {"squeezing_r_k": 1.0, "squeezing_r_kprime": 1.0, "amplitude_h": 1e-6},
            },
        },
    )
    assert main(["fidelity", "--config", cfg]) == 0
    out = capsys.readouterr().out
    fid = float(out.split("fidelity            : ")[1].split()[0])
    assert fid == pytest.approx(1.0, abs=1e-6)


def test_coeffs_static_values(tmp_path):
    out_path = tmp_path / "coeffs.csv"
    assert main(["coeffs", "--static", "--nmax", "4", "--out", str(out_path)]) == 0
    rows = out_path.read_text().strip().splitlines()
    header = rows[0].split(",")
    table = {}
    for line in rows[1:]:
        parts = line.split(",")
        table[(int(parts[0]), int(parts[1]))] = [float(v) for v in parts[2:]]
    a12 = table[(1, 2)][header.index("alpha1_re") - 2]
    b12 = table[(1, 2)][header.index("beta1_re") - 2]
    assert a12 == pytest.approx(-0.28657958412537813, rel=1e-12)
    assert b12 == pytest.approx(0.010614058671310303, rel=1e-12)
    assert table[(1, 3)][0] == 0.0  # same parity


@pytest.mark.parametrize("value", ["false", 0, None])
def test_coeffs_static_must_be_boolean(tmp_path, capsys, value):
    # the static dump is the boolean flag --static alone; a config coeffs
    # section is refused whatever it holds
    cfg = write_config(tmp_path, {"scenario": {"n_max": 3}, "coeffs": {"static": value}})
    assert main(["coeffs", "--config", cfg]) == 2
    assert "unknown config sections: ['coeffs']" in capsys.readouterr().err


def test_coeffs_dumps_lab_frame(tmp_path):
    # the series is held in the interaction picture; coeffs puts the free
    # rotation back: g_m = e^{-i w_m tau} and row m of each matrix times g_m
    tau = 2.00013
    cfg = write_config(tmp_path, {"scenario": {"duration_s": tau, "n_max": 5}})
    out_path = tmp_path / "coeffs.csv"
    assert main(["coeffs", "--config", cfg, "--out", str(out_path)]) == 0
    table = np.array(
        [[float(v) for v in line.split(",")] for line in out_path.read_text().splitlines()[1:]]
    )
    m = table[:, 0].astype(int)
    g = table[:, 6] + 1j * table[:, 7]
    omegas = np.pi * m * 1e-3 / 1e-6
    assert np.max(np.abs(g - np.exp(-1j * omegas * tau))) <= 1e-15
    oracle = whole_matrix_coefficients(
        CavityScenario(length=1e-6, sound_speed=1e-3, k=1, kprime=2, squeezing=10.0, tau=tau, n_max=5)
    )
    rows, cols = m - 1, table[:, 1].astype(int) - 1
    for column, matrix in zip((2, 4), oracle):
        lab = g * matrix[rows, cols]
        dumped = table[:, column] + 1j * table[:, column + 1]
        assert np.max(np.abs(dumped - lab)) <= 1e-15 * np.max(np.abs(lab))


@pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--static"]])
def test_coeffs_streams_one_row_at_a_time(tmp_path, flags):
    # coeffs forms and writes one row of records at a time, so its traced
    # allocation peak at n_max 60 stays under 1 MB (3.0, 9.1 and 2.9 MB
    # when the whole series and every record were held at once; the peak
    # of those grows as n_max^2, of a row as n_max)
    import tracemalloc

    out = tmp_path / "coeffs.out"
    main(["coeffs", "--nmax", "2", "--out", str(out)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["coeffs", "--nmax", "60", "--out", str(out), *flags]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert out.stat().st_size > 60 * 60 * 100


@pytest.mark.parametrize(
    "flags, digest",
    [
        ([], "3368cee01799683a3a8317f13a6218a269a75a83b41cbf0ff5ed616075276862"),
        (["--format", "json"], "01af442f635729bfa7678ebc891bcea2b6ca74462a1990b872e998dd1bcb522b"),
        (["--static"], "5cf733a4770a2012e7ddf1b6550ddb5d1d72a731e240e8c4b9b31812a72ac3b0"),
    ],
)
def test_coeffs_bytes_pinned(tmp_path, flags, digest):
    # the bytes of the whole-matrix dump, lab-frame and static; the
    # lab-frame digests are those of the one-exponential drive formula
    out = tmp_path / "coeffs.out"
    assert main(["coeffs", "--nmax", "210", "--out", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_fidelity_record_bytes_pinned(tmp_path, capsys):
    # the bytes of one fidelity record, from before its states were formed
    # from rows k and k' alone
    cfg = write_config(
        tmp_path,
        {
            "scenario": {"squeezing_r": 2.0, "n_max": 50, "duration_s": 2.00013},
            "fidelity": {
                "state_a": {"squeezing_r_k": 1.0, "amplitude_h": 1e-4},
                "state_b": {"squeezing_r_kprime": 0.5, "amplitude_h": 2e-4},
            },
        },
    )
    out = tmp_path / "fidelity.json"
    assert main(["fidelity", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "fidelity            : 2.7517443642627354e-01\n"
    digest = "c844f07725e49a93f631d7b11a3b472e20d3b7a32d6144c8e3491dd6b46051b3"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_coeffs_opens_out_before_forming_a_row(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a row was formed before --out was opened")

    monkeypatch.setattr(cli, "build_rows", refuse)
    out = tmp_path / "missing" / "coeffs.json"
    assert main(["coeffs", "--nmax", "2", "--format", "json", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write output: ")


def test_sweep_requires_section(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": FAST_SCENARIO})
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_axis_validation(tmp_path):
    bad = {"scenario": FAST_SCENARIO, "sweep": {"parameter": "tau", "start": 2, "stop": 1, "count": 4}}
    assert main(["sweep", "--config", write_config(tmp_path, bad)]) == 2
    bad["sweep"] = {"parameter": "bogus", "start": 1, "stop": 2, "count": 4}
    assert main(["sweep", "--config", write_config(tmp_path, bad, "b.json")]) == 2
    bad["sweep"] = {"parameter": "tau", "start": 1, "stop": 2, "count": 1}
    assert main(["sweep", "--config", write_config(tmp_path, bad, "c.json")]) == 2


def points_alone(payload):
    """The record lines of a sweep config's points, each from evaluate_scenario
    called alone on its point (which then plans its own rows)."""
    base = cli.scenario_from_config(payload)
    axis, values = cli._sweep_axis(payload)
    field, column = cli._SWEEP_AXES[axis]
    lines = []
    for value in values:
        point = cli.point_scenario(base, **{field: value})
        record = cli.evaluate_scenario(point)
        row = [record[c] for c in cli.CSV_COLUMNS] + ([] if column is None else [value])
        lines.append(",".join(cli._fmt(v) for v in row))
    return lines


def test_sweep_deterministic_and_round_trip(tmp_path):
    payload = {
        "scenario": FAST_SCENARIO,
        "sweep": {"parameter": "tau", "start": 0.1, "stop": 1.0, "count": 5, "spacing": "log"},
    }
    cfg = write_config(tmp_path, payload)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "tau_s,r,qfi,delta_h,delta_a_m_per_s2,validity_margin,tail_estimate"
    values = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(values) == 5
    assert lines[1:] == points_alone(payload)
    # round-trip at full precision: re-format and compare
    for line, row in zip(lines[1:], values):
        for text, val in zip(line.split(","), row):
            assert float(text) == val or (np.isnan(float(text)) and np.isnan(val))


def test_sweep_off_lattice_converged_in_nmax(tmp_path):
    # two off-lattice durations at r = 2 where a per-point phase fit once
    # misfitted at n_max 50 (by 6.2e-4 and by a factor of 3.8); the QFI must
    # not depend on the truncation beyond its converged digits
    cfg = write_config(
        tmp_path,
        {
            "scenario": {"squeezing_r": 2.0},
            "sweep": {
                "parameter": "tau",
                "start": 10.293056712267909,
                "stop": 17.8869724053911,
                "count": 2,
                "spacing": "linear",
            },
        },
    )
    qfis = {}
    for nmax in (50, 200):
        out = tmp_path / f"nmax{nmax}.csv"
        assert main(["sweep", "--config", cfg, "--nmax", str(nmax), "--out", str(out)]) == 0
        qfis[nmax] = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert len(qfis[50]) == 2
    for low, high in zip(qfis[50], qfis[200]):
        assert abs(low - high) <= 1e-8 * abs(high)


def test_sweep_truncation_change_nan_when_half_misses_pair(tmp_path):
    # at n_max 3, n_max // 2 = 1 does not cover the pair (1, 2)
    cfg = write_config(
        tmp_path,
        {
            "scenario": FAST_SCENARIO,
            "sweep": {"parameter": "tau", "start": 0.1, "stop": 1.0, "count": 2},
        },
    )
    out = tmp_path / "nmax3.csv"
    assert main(["sweep", "--config", cfg, "--nmax", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    tails = [float(line.split(",")[6]) for line in lines[1:]]
    assert len(tails) == 2 and all(np.isnan(t) for t in tails)


def test_sweep_over_a_adds_axis_column(tmp_path):
    payload = {
        "scenario": FAST_SCENARIO,
        "sweep": {"parameter": "a", "start": 1e-12, "stop": 1e-9, "count": 3, "spacing": "log"},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "a.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].endswith(",a_probe_m_per_s2")
    assert lines[1:] == points_alone(payload)
    margins = [float(line.split(",")[5]) for line in lines[1:]]
    assert margins[0] < margins[-1]


def test_figure2_subset_matches_sweep(tmp_path):
    # figure2 honors an explicit tau axis; its r = 10 rows are then exactly a
    # tau sweep of the r = 10 scenario (same code path)
    sweep_axis = {"parameter": "tau", "start": 0.5, "stop": 2.0, "count": 4, "spacing": "linear"}
    fig_cfg = write_config(
        tmp_path, {"scenario": {"n_max": 30}, "sweep": sweep_axis}, "fig.json"
    )
    sweep_cfg = write_config(
        tmp_path,
        {"scenario": {"n_max": 30, "squeezing_r": 10.0}, "sweep": sweep_axis},
        "sweep.json",
    )
    fig_out = tmp_path / "fig.csv"
    sweep_out = tmp_path / "sweep.csv"
    assert main(["figure2", "--config", fig_cfg, "--out", str(fig_out)]) == 0
    assert main(["sweep", "--config", sweep_cfg, "--out", str(sweep_out)]) == 0
    fig_rows = fig_out.read_text().strip().splitlines()
    sweep_rows = sweep_out.read_text().strip().splitlines()
    r10 = [line for line in fig_rows[1:] if float(line.split(",")[1]) == 10.0]
    assert r10 == sweep_rows[1:]


def test_sweep_over_omega_axis(tmp_path):
    import math

    # the sum resonance sits at 3000 pi rad/s and is ~1/tau wide, so center
    # the axis on it exactly
    resonance = 3000.0 * math.pi
    payload = {
        "scenario": FAST_SCENARIO,
        "sweep": {
            "parameter": "omega",
            "start": resonance - 1000.0,
            "stop": resonance + 1000.0,
            "count": 3,
            "spacing": "linear",
        },
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "omega.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].endswith(",omega_rad_per_s")
    # each point plans its own drive: rows from one shared plan would differ
    assert lines[1:] == points_alone(payload)
    qfis = [float(line.split(",")[2]) for line in lines[1:]]
    assert qfis[1] > 100 * qfis[0] and qfis[1] > 100 * qfis[2]


def test_figure2_default_grid_snapped(tmp_path):
    # no config: the tau grid must be snapped to multiples of 2 L / c_s
    out = tmp_path / "fig_default.csv"
    assert main(["figure2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    period = 2.0 * 1e-6 / 1e-3
    taus = sorted({float(line.split(",")[0]) for line in lines[1:]})
    assert all(abs(t / period - round(t / period)) < 1e-9 for t in taus)
    assert {float(line.split(",")[1]) for line in lines[1:]} == {8.0, 9.0, 10.0}


def test_h0_matches_lattice_closed_form():
    # every default figure2 point and the reference qfi point lie on the
    # round-trip lattice, where H0 has a three-entry closed form
    # (oracles.lattice_qfi); the first-order series misses it by up to
    # 1.6e-7, the O(h^2) completion it lacks
    scenario = CavityScenario()
    taus = cli.snapped_tau_grid(scenario, *cli.FIGURE2_TAU)
    points = [
        dataclasses.replace(scenario, squeezing=r, tau=tau)
        for r in cli.FIGURE2_SQUEEZINGS
        for tau in taus
    ]
    assert len(points) == 75
    for point in points + [scenario]:
        h0 = cli.evaluate_scenario(point)["qfi"]
        assert h0 == pytest.approx(lattice_qfi(point), rel=1e-6), (point.squeezing, point.tau)


def test_tail_estimate_is_zero_on_the_lattice():
    # on the round-trip lattice every off-resonant drive integral vanishes,
    # so the modes above n_max // 2 carry none of H0; the float rows leave a
    # residue there (1.2e-34 of H0 at the reference point) that lies within
    # its rounding bound, and every default figure2 point and the reference
    # point report 0.0
    scenario = CavityScenario()
    points = [
        dataclasses.replace(scenario, squeezing=r, tau=tau)
        for r in cli.FIGURE2_SQUEEZINGS
        for tau in cli.snapped_tau_grid(scenario, *cli.FIGURE2_TAU)
    ]
    assert len(points) == 75
    for point in points + [scenario]:
        record = cli.evaluate_scenario(point)
        assert record["qfi"] > 0.0
        assert record["tail_estimate"] == 0.0, (point.squeezing, point.tau)


def test_figure2_json_format(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "scenario": {"n_max": 30},
            "sweep": {"parameter": "tau", "start": 0.5, "stop": 1.0, "count": 2, "spacing": "linear"},
        },
    )
    out = tmp_path / "fig.json"
    assert main(["figure2", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 6
    assert {rec["r"] for rec in payload["records"]} == {8.0, 9.0, 10.0}


def test_figure2_does_not_import_scipy_or_mpmath(tmp_path):
    # scipy is a test-only dependency and mpmath serves only the
    # extended-precision fidelity: a figure2 run must load neither
    cfg = write_config(
        tmp_path,
        {
            "scenario": {"n_max": 30},
            "sweep": {"parameter": "tau", "start": 0.5, "stop": 1.0, "count": 2, "spacing": "linear"},
        },
    )
    out = tmp_path / "fig.csv"
    stdout = stdout_of_child(["figure2", "--config", cfg, "--out", str(out)])
    assert stdout.split() == ["0", "False", "False"]
    assert len(out.read_text().strip().splitlines()) == 7


def test_qfi_does_not_import_scipy_or_mpmath():
    # the reference qfi ladder stays on the float64 fidelity, so the
    # extended-precision path and its mpmath import are never reached
    stdout = stdout_of_child(["qfi"])
    assert "QFI (numeric ladder)" in stdout
    assert stdout.split()[-3:] == ["0", "False", "False"]


def stdout_of_child(argv):
    """Stdout of cli.main(argv) in a fresh interpreter, ending in a line
    'exit code, scipy loaded, mpmath loaded'; the exit code of arguments
    that argparse refuses is that of its SystemExit."""
    code = (
        "import sys\n"
        "from cavqfi.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, 'scipy' in sys.modules, 'mpmath' in sys.modules)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_main_calls_in_one_process_match_fresh_interpreters(tmp_path, capsys):
    # main() builds its parser once per process; a run of calls in one
    # process, with refused arguments and a config error among them, must
    # emit what each call emits alone in a fresh interpreter
    assert cli.build_parser() is cli.build_parser()
    bad = write_config(tmp_path, {"scenario": {"mode_k": 1, "mode_kprime": 3}}, "bad.json")
    sweep = write_config(
        tmp_path,
        {"scenario": FAST_SCENARIO, "sweep": {"parameter": "tau", "start": 0.1, "stop": 1.0, "count": 3}},
        "sweep.json",
    )
    fig = write_config(
        tmp_path, {"sweep": {"parameter": "tau", "start": 0.5, "stop": 1.0, "count": 2}}, "fig.json"
    )

    def calls(out_dir):
        out_dir.mkdir()
        return [
            ["qfi", "--format", "json", "--out", str(out_dir / "qfi.json")],
            ["qfi", "--bogus"],
            ["qfi", "--config", bad],
            ["sweep", "--config", sweep],
            ["figure2", "--nmax", "8", "--config", fig, "--out", str(out_dir / "fig.csv")],
            ["qfi"],
        ]

    together, alone = tmp_path / "together", tmp_path / "alone"
    codes = []
    for argv, argv_alone in zip(calls(together), calls(alone)):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        out = capsys.readouterr().out
        *child_out, child_status = stdout_of_child(argv_alone).splitlines(keepends=True)
        assert (str(code), out) == (child_status.split()[0], "".join(child_out)), argv
    assert codes == [0, 2, 2, 0, 0, 0]
    files = {path.name: path.read_bytes() for path in sorted(together.iterdir())}
    assert sorted(files) == ["fig.csv", "qfi.json"]
    assert files == {path.name: path.read_bytes() for path in sorted(alone.iterdir())}


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["--help"], 0, "stdout", "usage: cavqfi"),
        (["qfi"], 0, "stdout", "QFI (analytic H0)   : 7.6467240672644970e+15"),
        (["qfi", "--config", "missing.json"], 2, "stderr", "config error: cannot read config"),
    ],
)
def test_python_m_cavqfi(tmp_path, argv, code, stream, text):
    # the one-process-per-call entry, where the parser is built exactly once
    child = subprocess.run(
        [sys.executable, "-m", "cavqfi", *argv],
        env=child_env(),
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert child.returncode == code, child.stderr
    assert text in getattr(child, stream)


@pytest.mark.parametrize(
    "command, payload, nulls",
    [
        # no probe acceleration: validity_margin is nan
        ("qfi", {"scenario": FAST_SCENARIO}, {"validity_margin"}),
        # zero QFI at n_max 3: delta_h and delta_a are inf, and n_max // 2
        # misses the pair, so tail_estimate is nan
        (
            "sweep",
            {
                "scenario": {"squeezing_r": 2.0, "n_max": 3},
                "sweep": {"parameter": "tau", "start": 0.4, "stop": 0.5, "count": 2},
            },
            {"delta_h", "delta_a_m_per_s2", "validity_margin", "tail_estimate"},
        ),
        (
            "figure2",
            {
                "scenario": {"n_max": 8},
                "sweep": {"parameter": "tau", "start": 0.5, "stop": 1.0, "count": 2},
            },
            {"validity_margin"},
        ),
    ],
)
def test_json_output_is_strict(tmp_path, capsys, command, payload, nulls):
    # RFC 8259 has no NaN or Infinity: strict parsers (jq, JSON.parse) refuse
    # them, so a non-finite float is written as null
    out = tmp_path / "out.json"
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(out), "--format", "json"]) == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    parsed = json.loads(out.read_text(), parse_constant=refuse)
    records = parsed["records"] if "records" in parsed else [parsed]
    for record in records:
        assert {key for key, value in record.items() if value is None} == nulls


def fidelity_config(tmp_path, r):
    return write_config(
        tmp_path,
        {"scenario": {"squeezing_r": r}, "fidelity": {"state_b": {"amplitude_h": 1e-9}}},
    )


@pytest.mark.parametrize(
    "r, expected", [(20.0, 1.1933350731162963e-06), (30.0, 2.4596501573927114e-15)]
)
def test_fidelity_resolved_at_extended_precision(tmp_path, capsys, r, expected):
    # the 40-digit path still resolves these; a 200-digit run agrees
    assert main(["fidelity", "--config", fidelity_config(tmp_path, r)]) == 0
    fid = float(capsys.readouterr().out.split("fidelity            : ")[1].split()[0])
    assert fid == pytest.approx(expected, rel=1e-12)


def test_fidelity_names_extended_precision_limit(tmp_path, capsys):
    # the mpmath path runs at a fixed 40 digits; from r = 34 (entries e^{68})
    # Delta cancels to zero at that precision, and the failure says so
    # rather than blaming Delta alone
    assert main(["fidelity", "--config", fidelity_config(tmp_path, 50.0)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric failure: Delta = 0.000000e+00 is not positive: 40 digits do not "
        "resolve the determinants at covariance scale 2.688e+43\n"
    )
