import copy
import dataclasses
import itertools
import json

import numpy as np
import pytest

from cavqfi import CavityScenario, NumericPolicy
from cavqfi.cli import SCENARIO_FIELDS, main
from conftest import child_env


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
def test_qfi_off_lattice_cross_check(tmp_path, capsys, r, tau):
    # the grid behind the README's large-squeezing bound, on and off the
    # round-trip lattice; off it a lab-frame ladder at r >= 5 failed its
    # conditioning or plateau checks (exit 1), and the interaction picture
    # keeps it solvable
    out_path = tmp_path / "qfi.json"
    cfg = write_config(tmp_path, {"scenario": {"squeezing_r": r, "duration_s": tau}})
    assert main(["qfi", "--config", cfg, "--out", str(out_path), "--format", "json"]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["cross_check_residual"] <= 1e-6


def test_qfi_reference_ladder_stays_on_float_path(monkeypatch, capsys):
    # the ladder runs on un-squeezed states near the vacuum, so at most the
    # first pilot step needs the extended-precision fidelity
    from cavqfi import metrology

    calls = []
    fidelity_mp = metrology._fidelity_mp

    def counted(*args):
        calls.append(1)
        return fidelity_mp(*args)

    monkeypatch.setattr(metrology, "_fidelity_mp", counted)
    assert main(["qfi"]) == 0
    assert "cross-check residual" in capsys.readouterr().out
    assert len(calls) <= 1


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
    ],
)
def test_scenario_value_malformed_exit_two(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, {"scenario": {field: value}})
    assert main(["qfi", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_scenario_field_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"length": 1.0}})
    assert main(["qfi", "--config", cfg]) == 2


def test_removed_options_refused(tmp_path, monkeypatch, capsys):
    from cavqfi.errors import ConfigError
    from cavqfi.policy import DEFAULT_POLICY, policy_from_env

    # sweeps run serially; there is no --workers flag
    with pytest.raises(SystemExit) as exc:
        main(["figure2", "--workers", "2"])
    assert exc.value.code == 2
    # the truncation is scenario.n_max; a policy n_max is an unknown field,
    # not a silent no-op
    cfg = write_config(tmp_path, {"numeric_policy": {"n_max": 100}})
    assert main(["qfi", "--config", cfg]) == 2
    assert "n_max" in capsys.readouterr().err
    monkeypatch.setenv("CAVQFI_NUMERIC_POLICY", '{"n_max": 12}')
    with pytest.raises(ConfigError):
        policy_from_env(DEFAULT_POLICY)
    # settings that no result read are unknown fields in every section and
    # in the environment
    for name in ("light_speed_m_per_s", "symmetry_tol", "uncertainty_floor"):
        monkeypatch.delenv("CAVQFI_NUMERIC_POLICY")
        for section in ("scenario", "numeric_policy"):
            cfg = write_config(tmp_path, {section: {name: 1.0}})
            assert main(["qfi", "--config", cfg]) == 2
            assert name in capsys.readouterr().err
        monkeypatch.setenv("CAVQFI_NUMERIC_POLICY", json.dumps({name: 1.0}))
        with pytest.raises(ConfigError):
            policy_from_env(DEFAULT_POLICY)


# one value per setting that must change what `qfi` or `fidelity` emits (the
# JSON record, the printed lines or the exit code); a setting missing here
# fails the guard, so a setting that no result reads cannot land unnoticed
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
def test_every_setting_changes_an_output(tmp_path, capsys, section, name):
    assert sorted(SCENARIO_FIELDS.values()) == sorted(
        f.name for f in dataclasses.fields(CavityScenario)
    )
    assert (section, name) in SETTING_CHANGES, f"no output-changing value for {section}.{name}"
    changed = copy.deepcopy(GUARD_BASE)
    changed.setdefault(section, {})[name] = SETTING_CHANGES[section, name]
    assert _emitted(tmp_path, capsys, changed) != _emitted(tmp_path, capsys, GUARD_BASE)


@pytest.mark.parametrize("path", [True, 7])
def test_output_path_must_be_string(tmp_path, capsys, path):
    # open() would take an integer or a boolean as a file descriptor
    cfg = write_config(tmp_path, {"output": {"path": path}})
    assert main(["coeffs", "--nmax", "2", "--config", cfg]) == 2
    assert "output.path" in capsys.readouterr().err


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
    ],
)
def test_malformed_section_exit_two(tmp_path, capsys, command, section):
    cfg = write_config(tmp_path, {"scenario": {"n_max": 4}, command: section})
    assert main([command, "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, policy",
    [
        ("config", 5),
        ("config", []),
        ("config", {"extended_dps": "abc"}),
        ("config", {"extended_dps": 40.7}),
        ("config", {"extended_dps": True}),
        ("config", {"plateau_rtol": "x"}),
        ("config", {"plateau_rtol": True}),
        ("config", {"dh_ladder": 5}),
        ("config", {"dh_ladder": [1e-4]}),
        ("config", {"dh_ladder": [1e-4, 5e-5, 2.5e-5, 1e-5]}),
        ("env", {"extended_dps": "x"}),
    ],
)
def test_malformed_numeric_policy_exit_two(tmp_path, monkeypatch, capsys, source, policy):
    # every policy number is a JSON number of the field's type; dh_ladder
    # holds exactly three of them
    payload = {"scenario": {"n_max": 4, "squeezing_r": 2.0}}
    if source == "env":
        monkeypatch.setenv("CAVQFI_NUMERIC_POLICY", json.dumps(policy))
    else:
        payload["numeric_policy"] = policy
    assert main(["qfi", "--config", write_config(tmp_path, payload)]) == 2
    assert "config error" in capsys.readouterr().err


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
    cfg = write_config(tmp_path, {"scenario": {"n_max": 3}, "coeffs": {"static": value}})
    assert main(["coeffs", "--config", cfg]) == 2
    assert "coeffs.static" in capsys.readouterr().err


def test_coeffs_dumps_lab_frame(tmp_path):
    # the series is held in the interaction picture; coeffs puts the free
    # rotation back: g_m = e^{-i w_m tau} and row m of each matrix times g_m
    from cavqfi import build_scenario_series

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
    series = build_scenario_series(
        CavityScenario(length=1e-6, sound_speed=1e-3, k=1, kprime=2, squeezing=10.0, tau=tau, n_max=5)
    )
    rows, cols = m - 1, table[:, 1].astype(int) - 1
    for column, matrix in ((2, series.alpha1), (4, series.beta1)):
        lab = g * matrix[rows, cols]
        dumped = table[:, column] + 1j * table[:, column + 1]
        assert np.max(np.abs(dumped - lab)) <= 1e-15 * np.max(np.abs(lab))


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


def test_sweep_deterministic_and_round_trip(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "scenario": FAST_SCENARIO,
            "sweep": {"parameter": "tau", "start": 0.1, "stop": 1.0, "count": 5, "spacing": "log"},
        },
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "tau_s,r,qfi,delta_h,delta_a_m_per_s2,validity_margin,tail_estimate"
    values = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(values) == 5
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
    cfg = write_config(
        tmp_path,
        {
            "scenario": FAST_SCENARIO,
            "sweep": {"parameter": "a", "start": 1e-12, "stop": 1e-9, "count": 3, "spacing": "log"},
        },
    )
    out = tmp_path / "a.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].endswith(",a_probe_m_per_s2")
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


def test_numeric_policy_env_override(monkeypatch):
    from cavqfi.policy import DEFAULT_POLICY, policy_from_env
    from cavqfi.errors import ConfigError

    monkeypatch.setenv("CAVQFI_NUMERIC_POLICY", '{"extended_dps": 60, "plateau_rtol": 0.002}')
    policy = policy_from_env(DEFAULT_POLICY)
    assert policy.extended_dps == 60
    assert policy.plateau_rtol == 0.002
    monkeypatch.setenv("CAVQFI_NUMERIC_POLICY", '{"bogus_field": 1}')
    with pytest.raises(ConfigError):
        policy_from_env(DEFAULT_POLICY)
    monkeypatch.setenv("CAVQFI_NUMERIC_POLICY", "not json")
    with pytest.raises(ConfigError):
        policy_from_env(DEFAULT_POLICY)


def test_sweep_over_omega_axis(tmp_path):
    import math

    # the sum resonance sits at 3000 pi rad/s and is ~1/tau wide, so center
    # the axis on it exactly
    resonance = 3000.0 * math.pi
    cfg = write_config(
        tmp_path,
        {
            "scenario": FAST_SCENARIO,
            "sweep": {
                "parameter": "omega",
                "start": resonance - 1000.0,
                "stop": resonance + 1000.0,
                "count": 3,
                "spacing": "linear",
            },
        },
    )
    out = tmp_path / "omega.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].endswith(",omega_rad_per_s")
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
    import subprocess
    import sys

    cfg = write_config(
        tmp_path,
        {
            "scenario": {"n_max": 30},
            "sweep": {"parameter": "tau", "start": 0.5, "stop": 1.0, "count": 2, "spacing": "linear"},
        },
    )
    out = tmp_path / "fig.csv"
    code = (
        "import sys; from cavqfi.cli import main; "
        f"code = main(['figure2', '--config', {cfg!r}, '--out', {str(out)!r}]); "
        "print(code, 'scipy' in sys.modules, 'mpmath' in sys.modules)"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["0", "False", "False"]
    assert len(out.read_text().strip().splitlines()) == 7
