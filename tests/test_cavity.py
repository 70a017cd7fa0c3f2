import math

import numpy as np
import pytest
import scipy.integrate

from cavqfi import (
    CavityScenario,
    acceleration_from_h,
    build_scenario_series,
    evaluate_series,
    h_from_acceleration,
    mode_frequency,
    static_first_order,
)
from cavqfi import kernels
from cavqfi.cavity import resonant_beta_slope, static_matrices


def reference_scenario(**overrides):
    params = dict(
        length=1e-6,
        sound_speed=1e-3,
        k=1,
        kprime=2,
        squeezing=10.0,
        tau=0.5,
    )
    params.update(overrides)
    return CavityScenario(**params)


def test_mode_frequencies_match_reference_numbers():
    sc = reference_scenario()
    assert mode_frequency(1, sc) == pytest.approx(2 * np.pi * 500, rel=1e-12)
    assert mode_frequency(2, sc) == pytest.approx(2 * np.pi * 1000, rel=1e-12)


def test_mode_frequency_inverse_in_length():
    sc = reference_scenario()
    sc2 = reference_scenario(length=2e-6)
    assert mode_frequency(1, sc2) == pytest.approx(mode_frequency(1, sc) / 2)


def test_h_acceleration_roundtrip():
    sc = reference_scenario()
    assert h_from_acceleration(1e-9, sc) == pytest.approx(1e-9, rel=1e-12)
    assert h_from_acceleration(0.0, sc) == 0.0
    a = 3.7e-10
    assert acceleration_from_h(h_from_acceleration(a, sc), sc) == pytest.approx(a, rel=1e-15)


def test_h_vanishes_as_sound_speed_grows():
    # restatement of the relativistic limit: h -> 0 when c_s^2 grows at
    # fixed a L, and the evaluated series approaches the trivial transform
    a = 1e-9
    hs = [
        h_from_acceleration(a, reference_scenario(sound_speed=c_s))
        for c_s in (1e-3, 1e-2, 1e-1)
    ]
    assert hs[0] > hs[1] > hs[2]


def test_h_zero_gives_trivial_coefficients():
    sc = reference_scenario()
    series = build_scenario_series(sc)
    coeffs = evaluate_series(series, 0.0)
    assert np.array_equal(coeffs.alpha, np.diag(series.G))
    assert not coeffs.beta.any()


def test_static_first_order_values():
    a1, b1 = static_first_order(1, 2)
    assert a1 == pytest.approx(-0.28657958412537813, rel=1e-12)
    assert b1 == pytest.approx(0.010614058671310303, rel=1e-12)


def test_static_first_order_swap_sign():
    a12, b12 = static_first_order(1, 2)
    a21, b21 = static_first_order(2, 1)
    assert a21 == pytest.approx(-a12, rel=1e-12)
    assert b21 == pytest.approx(b12, rel=1e-12)


def test_static_matrices_parity_zeros():
    alpha, beta = static_matrices(8)
    n = np.arange(1, 9)
    same_parity = (n[:, None] - n[None, :]) % 2 == 0
    assert not alpha[same_parity].any()
    assert not beta[same_parity].any()
    assert alpha[0, 1] == pytest.approx(-0.28657958412537813)


def test_scenario_validation():
    with pytest.raises(ValueError):
        reference_scenario(k=1, kprime=3)  # same parity
    with pytest.raises(ValueError):
        reference_scenario(k=2, kprime=2)
    with pytest.raises(ValueError):
        reference_scenario(length=-1.0)
    with pytest.raises(ValueError):
        reference_scenario(n_max=1)
    with pytest.raises(ValueError):
        reference_scenario(tau=-0.1)


def test_default_drive_is_sum_resonance():
    sc = reference_scenario()
    assert sc.drive_omega == pytest.approx(
        mode_frequency(1, sc) + mode_frequency(2, sc)
    )
    sc2 = reference_scenario(omega=123.0)
    assert sc2.drive_omega == 123.0


def test_tau_zero_series_is_empty():
    sc = reference_scenario(tau=0.0)
    series = build_scenario_series(sc)
    assert not series.alpha1.any()
    assert not series.beta1.any()
    assert np.allclose(series.G, 1.0)


def test_series_invariants_hold():
    series = build_scenario_series(reference_scenario())
    assert np.max(np.abs(np.abs(series.G) - 1.0)) <= 1e-12
    assert not np.diag(series.alpha1).any()
    assert not np.diag(series.beta1).any()
    n = np.arange(1, series.n_modes + 1)
    same_parity = (n[:, None] - n[None, :]) % 2 == 0
    assert not series.alpha1[same_parity].any()
    assert not series.beta1[same_parity].any()


def test_resonant_linear_growth_slope():
    sc = reference_scenario()
    slope_ref = resonant_beta_slope(sc)
    taus = np.linspace(0.1, 1.0, 19)
    mags = []
    for tau in taus:
        series = build_scenario_series(reference_scenario(tau=tau))
        mags.append(abs(series.beta1[0, 1]))
    fitted = np.polyfit(taus, mags, 1)[0]
    assert fitted == pytest.approx(slope_ref, rel=1e-3)


def test_off_resonance_beta_bounded():
    sc = reference_scenario()
    detuned = 1.37 * sc.drive_omega
    mags = [
        abs(build_scenario_series(reference_scenario(tau=tau, omega=detuned)).beta1[0, 1])
        for tau in np.linspace(0.5, 8.0, 12)
    ]
    # no secular growth: excursions stay within a fixed envelope
    _, b_static = static_first_order(1, 2)
    total = mode_frequency(1, sc) + mode_frequency(2, sc)
    bound = b_static * total * (1.0 / abs(detuned - total) + 1.0 / (detuned + total))
    assert max(mags) <= 1.5 * bound
    assert max(mags) < 0.05 * resonant_beta_slope(sc) * 8.0


def test_difference_resonance_grows_alpha():
    sc = reference_scenario()
    w1 = mode_frequency(1, sc)
    w2 = mode_frequency(2, sc)
    taus = np.linspace(0.5, 4.0, 8)
    mags = [
        abs(build_scenario_series(reference_scenario(tau=t, omega=w2 - w1)).alpha1[0, 1])
        for t in taus
    ]
    fitted = np.polyfit(taus, mags, 1)[0]
    a_static, _ = static_first_order(1, 2)
    assert fitted == pytest.approx(abs(a_static) * (w2 - w1) / 2.0, rel=1e-2)


def test_drive_integral_matches_quadrature(rng):
    for _ in range(100):
        omega = rng.uniform(0.5, 60.0)
        tau = rng.uniform(0.05, 4.0)
        x = rng.uniform(-80.0, 80.0)
        closed = kernels.phase_integral(x, omega, tau)
        re, _ = scipy.integrate.quad(
            lambda t: math.sin(omega * t) * math.cos(x * t), 0, tau, limit=400
        )
        im, _ = scipy.integrate.quad(
            lambda t: math.sin(omega * t) * math.sin(x * t), 0, tau, limit=400
        )
        assert abs(closed - (re + 1j * im)) <= 1e-10


def test_drive_integral_exact_resonance_limit():
    # at x = +-omega the generic antiderivative degenerates; the closed form
    # must reproduce int_0^tau sin(omega t) e^{+-i omega t} dt exactly
    omega, tau = 7.3, 2.1
    closed = kernels.phase_integral(omega, omega, tau)
    re, _ = scipy.integrate.quad(lambda t: math.sin(omega * t) * math.cos(omega * t), 0, tau)
    im, _ = scipy.integrate.quad(lambda t: math.sin(omega * t) ** 2, 0, tau)
    assert abs(closed - (re + 1j * im)) <= 1e-12


def test_truncation_convergence_of_transform():
    from cavqfi import initial_product_squeezed, transform_reduced

    init = initial_product_squeezed(10.0, 10.0)
    h = 1e-9
    covs = {}
    for n_max in (50, 100):
        series = build_scenario_series(reference_scenario(n_max=n_max))
        covs[n_max] = transform_reduced(init, series, h, 1, 2).cov
    scale = max(1.0, np.abs(covs[100]).max())
    assert np.abs(covs[50] - covs[100]).max() <= 1e-10 * scale
