"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import scipy.integrate

from cavqfi import (
    CavityScenario,
    build_scenario_series,
    cramer_rao,
    fidelity_two_mode,
    initial_product_squeezed,
    qfi_numeric,
    transform_reduced,
)
from cavqfi.cli import evaluate_scenario, main
from conftest import fock_squeezed_overlap_sq, random_physical_two_mode
from oracles import (
    mach_zehnder_qfi,
    phase_integral,
    resonant_beta_slope,
    series_h0,
    series_symplectic_defect,
    transform_full_oracle,
    vacuum,
)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def default_scenario(**overrides):
    params = dict(
        length=1e-6,
        sound_speed=1e-3,
        k=1,
        kprime=2,
        squeezing=10.0,
        tau=30.0,
        n_measurements=1e11,
    )
    params.update(overrides)
    return CavityScenario(**params)


def scenario_qfi(scenario):
    return evaluate_scenario(scenario)["qfi"]


def test_criterion_1_fidelity_self_consistency():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_self = 0.0
    worst_sym = 0.0
    for i in range(200):
        s1 = random_physical_two_mode(rng, mixed=(i % 3 != 0))
        s2 = random_physical_two_mode(rng, mixed=(i % 2 == 0))
        worst_self = max(worst_self, abs(fidelity_two_mode(s1, s1).fidelity - 1.0))
        f12 = fidelity_two_mode(s1, s2).fidelity
        f21 = fidelity_two_mode(s2, s1).fidelity
        worst_sym = max(worst_sym, abs(f12 - f21))
    elapsed = time.perf_counter() - start
    ok = worst_self <= 1e-10 and worst_sym <= 1e-10 and elapsed < 5.0
    report(
        1,
        ok,
        f"self-fidelity dev {worst_self:.2e}, symmetry dev {worst_sym:.2e} "
        f"over 200 states in {elapsed:.2f}s (tol 1e-10, budget 5s)",
    )


def test_criterion_2_pure_state_overlap_oracle():
    start = time.perf_counter()
    worst_closed = 0.0
    worst_oracle = 0.0
    # the truncated-ladder oracle is exact to ~1e-15 for r <= 1; at r = 2 its
    # own photon-number-60 truncation floor is ~4.5e-7 on the two-mode product
    oracle_tol = {0.1: 1e-8, 0.5: 1e-8, 1.0: 1e-8, 2.0: 1e-6}
    for r in (0.1, 0.5, 1.0, 2.0):
        fid = fidelity_two_mode(vacuum(2), initial_product_squeezed(r, r)).fidelity
        closed = 1.0 / math.cosh(r) ** 2
        rel_closed = abs(fid - closed) / closed
        worst_closed = max(worst_closed, rel_closed)
        fock = fock_squeezed_overlap_sq(r, cutoff=60) ** 2  # two independent modes
        rel_oracle = abs(fid - fock) / closed
        worst_oracle = max(worst_oracle, rel_oracle / oracle_tol[r])
        assert rel_closed <= 1e-8
        assert rel_oracle <= oracle_tol[r]
    elapsed = time.perf_counter() - start
    ok = worst_closed <= 1e-8 and elapsed < 30.0
    report(
        2,
        ok,
        f"vs 1/cosh^2: worst rel {worst_closed:.2e} (tol 1e-8); Fock-ladder "
        f"oracle agrees within its truncation floor; {elapsed:.2f}s (budget 30s)",
    )


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(23)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n_max = int(rng.integers(8, 17))
        k = int(rng.integers(1, 6))
        sep = int(rng.choice([1, 3, 5]))
        kp = k + sep
        scenario = CavityScenario(
            length=1e-6,
            sound_speed=1e-3,
            k=k,
            kprime=kp,
            squeezing=float(rng.uniform(0, 10)),
            tau=float(10 ** rng.uniform(-3, 0)),
            n_max=max(n_max, kp),
        )
        series = build_scenario_series(scenario)
        h = float(rng.uniform(0, 1e-9))
        init = initial_product_squeezed(scenario.squeezing, scenario.squeezing)
        red = transform_reduced(init, series, h, k, kp)
        full = transform_full_oracle(init, series, h, k, kp)
        scale = max(1.0, float(np.abs(full.cov).max()))
        worst = max(worst, float(np.abs(red.cov - full.cov).max()) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    report(
        3,
        ok,
        f"max scaled deviation {worst:.2e} over 200 draws (tol 1e-10) "
        f"in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_4_analytic_numeric_cross_validation():
    start = time.perf_counter()
    worst = 0.0
    # 0.2137 s sits off the stroboscopic lattice, exercising generic phases
    for tau in (0.05, 0.2137, 0.8):
        scenario = default_scenario(tau=tau, squeezing=1.0)
        series = build_scenario_series(scenario)

        for r in (0.0, 0.5, 1.0, 2.0):
            init = initial_product_squeezed(r, r)
            numeric = qfi_numeric(
                lambda h: transform_reduced(init, series, h, 1, 2), 0.0
            )
            analytic = series_h0(series, r, 1, 2).value
            rel = abs(analytic - numeric) / abs(numeric)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 300.0
    report(
        4,
        ok,
        f"worst rel deviation {worst:.2e} over r x tau grid, matrix form vs "
        f"fidelity ladder (tol 1%) in {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_5_headline_qfi():
    qfi = scenario_qfi(default_scenario())
    ok = 1e15 <= qfi <= 1e17
    report(5, ok, f"QFI = {qfi:.4e} for the reference scenario (target 1e16 within one order)")


def test_criterion_6_precision_bound():
    scenario = default_scenario()
    qfi = scenario_qfi(scenario)
    _, delta_a = cramer_rao(qfi, 1e11, scenario.length, scenario.sound_speed)
    ok = 1e-14 <= delta_a <= 3e-13
    report(6, ok, f"delta_a = {delta_a:.3e} m/s^2 with N = 1e11 (window [1e-14, 3e-13])")


def test_criterion_7_mach_zehnder_baseline():
    mz = mach_zehnder_qfi(1.6e7, 1.0)
    qfi = scenario_qfi(default_scenario())
    ratio = qfi / mz
    ok = mz == 2.56e14 and ratio >= 10.0
    report(7, ok, f"H_MZ = {mz:.3e} (exact 2.56e14), advantage ratio {ratio:.1f} (>= 10)")


def test_criterion_8_figure2_properties():
    from cavqfi.cli import FIGURE2_SQUEEZINGS, evaluate_scenario, point_scenario, snapped_tau_grid

    scenario = default_scenario()
    taus = snapped_tau_grid(scenario, 2.0, 200.0, 25)
    curves = {}
    for r in FIGURE2_SQUEEZINGS:
        records = [evaluate_scenario(point_scenario(scenario, squeezing=r, tau=tau)) for tau in taus]
        curves[r] = np.array([rec["delta_a_m_per_s2"] for rec in records])
    decreasing = all(np.all(np.diff(curves[r]) < 0) for r in FIGURE2_SQUEEZINGS)
    ordered = bool(
        np.all(curves[10.0] < curves[9.0]) and np.all(curves[9.0] < curves[8.0])
    )
    slopes = {
        r: float(np.polyfit(np.log(taus), np.log(curves[r]), 1)[0])
        for r in FIGURE2_SQUEEZINGS
    }
    slope_ok = all(abs(s + 1.0) <= 0.05 for s in slopes.values())
    ok = decreasing and ordered and slope_ok
    pretty = {r: f"{s:.4f}" for r, s in sorted(slopes.items())}
    report(
        8,
        ok,
        f"delta_a(tau) strictly decreasing: {decreasing}, ordering r10<r9<r8: "
        f"{ordered}, log-log slopes {pretty} (-1 within 5%)",
    )


def test_criterion_9_resonant_growth_law():
    scenario = default_scenario(tau=0.5)
    slope_ref = resonant_beta_slope(scenario)
    taus = np.linspace(0.1, 1.0, 19)
    mags = []
    for tau in taus:
        series = build_scenario_series(default_scenario(tau=tau))
        mags.append(abs(series.beta1[0, 1]))
    fitted = float(np.polyfit(taus, mags, 1)[0])
    slope_rel = abs(fitted - slope_ref) / slope_ref

    rng = np.random.default_rng(9)
    worst_quad = 0.0
    for _ in range(100):
        omega = rng.uniform(0.5, 60.0)
        tau = rng.uniform(0.05, 4.0)
        x = rng.uniform(-80.0, 80.0)
        closed = phase_integral(x, omega, tau)
        re, _ = scipy.integrate.quad(
            lambda t: math.sin(omega * t) * math.cos(x * t), 0, tau, limit=400
        )
        im, _ = scipy.integrate.quad(
            lambda t: math.sin(omega * t) * math.sin(x * t), 0, tau, limit=400
        )
        worst_quad = max(worst_quad, abs(closed - (re + 1j * im)))
    ok = slope_rel <= 1e-3 and worst_quad <= 1e-10
    report(
        9,
        ok,
        f"fitted beta slope rel dev {slope_rel:.2e} (tol 0.1%), closed-form vs "
        f"quadrature max dev {worst_quad:.2e} over 100 draws (tol 1e-10)",
    )


def test_criterion_10_symplectic_defect_scaling():
    series = build_scenario_series(default_scenario(tau=0.5))
    h = 1e-3
    d1 = series_symplectic_defect(series, h)
    d2 = series_symplectic_defect(series, h / 2)
    d3 = series_symplectic_defect(series, h / 4)
    r12, r23 = d1 / d2, d2 / d3
    ok = abs(r12 - 4.0) <= 0.4 and abs(r23 - 4.0) <= 0.4
    report(
        10,
        ok,
        f"defect ratios under h halving: {r12:.3f}, {r23:.3f} (4 within 10%)",
    )


def test_criterion_11_validity_guard(tmp_path, capsys):
    import json

    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps({"scenario": {"probe_acceleration_m_per_s2": 3e-9}}))
    code = main(["qfi", "--config", str(cfg)])
    out = capsys.readouterr().out
    flagged = "OUT OF VALIDITY RANGE" in out
    a_max = float(out.split("max valid accel     : ")[1].split()[0])
    margin = float(out.split("H0*h^2 = ")[1].split()[0])
    ok = code == 0 and flagged and margin >= 0.01 and a_max <= 1e-8
    report(
        11,
        ok,
        f"CLI flags margin {margin:.3e} >= 0.01; max valid acceleration "
        f"{a_max:.3e} m/s^2 inside the stated domain a << 1e-8",
    )
