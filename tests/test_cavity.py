import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate

from cavqfi import (
    CavityScenario,
    acceleration_from_h,
    build_scenario_series,
    h_from_acceleration,
)
from cavqfi import cavity
from cavqfi.bogoliubov import BogoliubovSeries
from cavqfi.cavity import build_rows, mode_frequencies, row_plan, static_matrices
from oracles import (
    evaluate_series,
    mode_frequency,
    phase_integral,
    resonant_beta_slope,
    static_first_order,
    whole_matrix_coefficients,
    whole_static_matrices,
)


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


def test_mode_frequencies_equal_per_mode_loop():
    wide = reference_scenario(length=3.3e-6, sound_speed=7.1e-4, n_max=1000)
    for sc in (reference_scenario(n_max=3), wide):
        loop = np.array([mode_frequency(n, sc) for n in range(1, sc.n_max + 1)])
        assert mode_frequencies(sc).tobytes() == loop.tobytes()


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
    assert np.array_equal(coeffs.alpha, np.eye(series.n_modes))
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
    # the frequencies of the pair, from the spectrum, with the bits of the
    # per-mode formula
    sc = reference_scenario()
    assert sc.drive_omega == mode_frequency(1, sc) + mode_frequency(2, sc)
    odd = reference_scenario(length=3.3e-6, sound_speed=7.1e-4, k=4, kprime=7, n_max=9)
    assert odd.drive_omega == mode_frequency(4, odd) + mode_frequency(7, odd)
    sc2 = reference_scenario(omega=123.0)
    assert sc2.drive_omega == 123.0


def test_drive_omega_has_the_bits_of_the_spectrum_entries():
    # the scalar sum w_k + w_k' against the two entries of mode_frequencies,
    # over seeded geometries, pairs and truncations up to MAX_MODES
    draw = random.Random(33)
    for _ in range(60):
        n_max = draw.choice([cavity.MAX_MODES, draw.randint(2, cavity.MAX_MODES)])
        k = draw.randint(1, n_max)
        kprime = draw.randrange(1 + k % 2, n_max + 1, 2)  # the other parity
        sc = reference_scenario(
            length=10 ** draw.uniform(-7, -3),
            sound_speed=10 ** draw.uniform(-5, 3),
            k=k,
            kprime=kprime,
            n_max=n_max,
        )
        omegas = mode_frequencies(sc)
        assert np.float64(sc.drive_omega).tobytes() == (omegas[k - 1] + omegas[kprime - 1]).tobytes()


def test_tau_zero_series_is_empty():
    sc = reference_scenario(tau=0.0)
    series = build_scenario_series(sc)
    assert not series.alpha1.any()
    assert not series.beta1.any()
    assert series.alpha2 is None


def test_series_invariants_hold():
    series = build_scenario_series(reference_scenario())
    assert series.alpha2 is None
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
        closed = phase_integral(x, omega, tau)
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
    closed = phase_integral(omega, omega, tau)
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


def opposite_parity(n_max):
    n = np.arange(n_max)
    return (n[:, None] + n[None, :]) % 2 == 1


def assert_oracle_bits(built, oracle, odd):
    """built carries oracle's bits on the opposite-parity entries odd and +0.0 elsewhere.

    tobytes() tells a signed zero from its opposite.  The same-parity
    entries never reach the drive integral and are +0.0, where the oracle's
    sign follows the integral.
    """
    assert built[odd].tobytes() == oracle[odd].tobytes()
    zeros = built[~odd]
    assert not zeros.any()
    assert not np.signbit(zeros.real).any() and not np.signbit(zeros.imag).any()


def test_series_build_equals_whole_matrix_oracle():
    for n_max in (3, 50, 65, 210, 333):
        odd = opposite_parity(n_max)
        for overrides in (
            {},
            dict(tau=2.00013, squeezing=2.0),
            dict(tau=0.0),
            dict(omega=1234.5, k=2, kprime=3),
        ):
            sc = reference_scenario(n_max=n_max, **overrides)
            series = build_scenario_series(sc)
            for built, oracle in zip((series.alpha1, series.beta1), whole_matrix_coefficients(sc)):
                assert_oracle_bits(built, oracle, odd)


@pytest.mark.parametrize("n_max", [3, 50, 210])
def test_static_selection_equals_whole_static_oracle(n_max):
    alpha, beta = whole_static_matrices(n_max)
    last = (n_max - 1) // 39 * 39  # a ragged run of rows down to the last row
    rng = np.random.default_rng(n_max)
    picks = np.sort(rng.choice(n_max, size=min(n_max, 7), replace=False))
    for rows, cols in (
        (slice(None), slice(None)),
        (slice(0, 1), slice(None)),
        (slice(last, None, 2), slice(last + 1, None, 2)),
        (slice(last + 1, None, 2), slice(last, None, 2)),
        (slice(1, None, 3), slice(None, None, -1)),
        (picks, picks[::-1]),
        (np.array([n_max - 1, 0]), slice(None)),
    ):
        a_sel, b_sel = static_matrices(n_max, rows, cols)
        assert a_sel.tobytes() == alpha[rows][:, cols].tobytes()
        assert b_sel.tobytes() == beta[rows][:, cols].tobytes()


def test_first_order_identities_hold_for_random_scenarios():
    # to first order in h, alpha alpha^dag - beta beta^dag = 1 and the
    # symmetry of alpha beta^T read alpha1 = -alpha1^dag and beta1 = beta1^T;
    # the whole-matrix formula keeps both over seeded scenarios, on and off
    # the round-trip lattice and the sum resonance, and the build, which
    # forms the entries on both sides of the diagonal, carries its bits
    rng = np.random.default_rng(2801)
    for _ in range(24):
        n_max = int(rng.integers(3, 301))
        k = int(rng.integers(1, n_max + 1))
        kprime = int(rng.choice(np.arange(1 + k % 2, n_max + 1, 2)))
        length = 10.0 ** rng.uniform(-7.0, -5.0)
        sound_speed = 10.0 ** rng.uniform(-4.0, -2.0)
        round_trip = 2.0 * length / sound_speed
        tau = [0.0, int(rng.integers(1, 50)) * round_trip, rng.uniform(0.0, 50.0) * round_trip][
            int(rng.integers(3))
        ]
        # a drive off every mode sum and difference, or the sum resonance
        w_1 = math.pi * sound_speed / length
        omega = rng.uniform(0.5, 5.0) * w_1 if rng.random() < 0.5 else None
        sc = CavityScenario(
            length=length, sound_speed=sound_speed, k=k, kprime=kprime,
            tau=tau, omega=omega, n_max=n_max,
        )
        alpha1, beta1 = whole_matrix_coefficients(sc)
        assert np.array_equal(alpha1, -alpha1.conj().T)
        assert np.array_equal(beta1, beta1.T)
        series = build_scenario_series(sc)
        odd = opposite_parity(n_max)
        assert series.alpha1[odd].tobytes() == alpha1[odd].tobytes()
        assert series.beta1[odd].tobytes() == beta1[odd].tobytes()


def static_coverage(calls, n_max):
    """What a series build's static_matrices calls covered: (hits, expected, rows).

    calls holds the (rows, cols) selection of each cavity.static_matrices
    call.  hits counts the calls that reached each entry; expected marks the
    opposite-parity entries, the only ones the parity selection rule leaves
    nonzero; rows lists the 0-based rows of each call, in call order.
    """
    hits = np.zeros((n_max, n_max), dtype=int)
    for rows, cols in calls:
        hits[rows, cols] += 1
    n = np.arange(n_max)
    expected = (n[:, None] + n[None, :]) % 2 == 1
    return hits, expected, [n[rows].tolist() for rows, _ in calls]


@pytest.mark.parametrize("n_max", [3, 50, 210, 333])
def test_build_passes_only_opposite_parity_entries(monkeypatch, n_max):
    # one static_matrices call per row, in row order, selects every
    # opposite-parity entry once for the drive integral; the same-parity
    # ones stay +0.0
    original = cavity.static_matrices
    calls = []

    def counted(n_max, rows, cols):
        calls.append((rows, cols))
        return original(n_max, rows, cols)

    monkeypatch.setattr(cavity, "static_matrices", counted)
    build_scenario_series(reference_scenario(n_max=n_max))
    hits, expected, rows = static_coverage(calls, n_max)
    assert rows == [[m] for m in range(n_max)]
    assert np.array_equal(hits, expected)


def test_non_adjacent_pair_rows_equal_whole_matrix_rows():
    # rows k = 3 and k' = 8, built together, carry the bits of those rows
    # of the whole-matrix formula, with +0.0 on the same-parity entries
    sc = reference_scenario(n_max=210, tau=2.00013, k=3, kprime=8)
    rows = [sc.k - 1, sc.kprime - 1]
    built = build_rows(row_plan(sc, (sc.k, sc.kprime)), sc.tau)
    for built_rows, expected in zip(built, whole_matrix_coefficients(sc, rows)):
        assert_oracle_bits(built_rows, expected, opposite_parity(sc.n_max)[rows])


def test_build_allocates_no_square_temporary():
    # the two outputs are the only n_max x n_max arrays the build allocates:
    # its traced peak stays within 1.5x their size (4.5x for the
    # whole-matrix build)
    sc = reference_scenario(n_max=400)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        series = build_scenario_series(sc)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (series.alpha1.nbytes + series.beta1.nbytes)


def test_build_arrays_adopted_not_copied(monkeypatch):
    built = {}

    def capture(n_modes, alpha1, beta1):
        built.update(alpha1=alpha1, beta1=beta1)
        return BogoliubovSeries(n_modes, alpha1, beta1)

    monkeypatch.setattr(cavity, "BogoliubovSeries", capture)
    series = build_scenario_series(reference_scenario(n_max=50))
    assert series.alpha1 is built["alpha1"]
    assert series.beta1 is built["beta1"]
    assert not series.alpha1.flags.writeable and not series.beta1.flags.writeable


@pytest.mark.parametrize("n_max", [3, 50, 91, 210, 1000])
def test_pair_rows_equal_whole_build_rows(n_max):
    # a point's rows k and k', at its tau and at the probes tau (1 -/+ 16 eps)
    # that one broadcast drive_entries call per row and matrix covers, carry
    # the bits of rows k and k' of the whole-matrix formula at each duration,
    # with +0.0 on the same-parity entries; the last two rows are taken at
    # the fixed drive
    eps = np.finfo(float).eps
    odd = opposite_parity(n_max)
    for tau in (0.0, 1e-300, 2.00013, 26.42274984585618, 30.0, 200.0):
        taus = tau * np.array([1.0, 1.0 - 16 * eps, 1.0 + 16 * eps])
        for omega in (None, 1234.5):
            last = [(n_max - 1, n_max)] if omega is not None else []
            for k, kprime in [(1, 2), (2, 3)] + last:
                sc = reference_scenario(n_max=n_max, tau=tau, omega=omega, k=k, kprime=kprime)
                alpha1, beta1 = cavity.build_rows(cavity.row_plan(sc, (k, kprime)), taus)
                assert alpha1.shape == beta1.shape == (3, 2, n_max)
                rows = [k - 1, kprime - 1]
                for i, t in enumerate(taus):
                    oracle = whole_matrix_coefficients(
                        reference_scenario(n_max=n_max, tau=float(t), omega=sc.drive_omega), rows
                    )
                    for built, expected in zip((alpha1[i], beta1[i]), oracle):
                        assert_oracle_bits(built, expected, odd[rows])


def test_phase_integral_resonance_continuity():
    # the closed form must be smooth through x = +-omega
    tau, omega = 1.3, 7.0
    vals = [complex(phase_integral(np.float64(omega + d), omega, tau)) for d in (-1e-9, 0.0, 1e-9)]
    assert abs(vals[0] - vals[1]) < 1e-8
    assert abs(vals[2] - vals[1]) < 1e-8


def mp_drive_integral(x, omega, tau):
    """int_0^tau sin(omega t) e^{i x t} dt at 40 digits, for the float detunings x +- omega.

    The detunings are taken as float64 sums, as cavity.drive_entries forms them, and
    every float is taken exactly, so the difference to drive_entries is the
    rounding of its own arithmetic from the half-phase on.
    """
    with mpmath.workdps(40):
        tau = mpmath.mpf(float(tau))

        def e(y):
            half = mpmath.mpf(float(y)) * tau / 2
            return tau * mpmath.expj(half) * mpmath.sinc(half)

        return complex((e(x + omega) - e(x - omega)) / mpmath.mpc(0, 2))


@pytest.mark.parametrize("tau", [2.00013, 16.3, 149.99913])
def test_drive_integral_matches_mpmath_at_kernel_phases(tau):
    # rows k = 1 and k' = 2 at n_max 1000 against every column: at
    # 149.99913 s the phases y tau reach 4.7e8 rad, past numpy's fast path
    # for sin, cos and exp (about 1e8 rad).  16.3 s is on the round-trip
    # lattice, and the sum resonance x = omega (beta1_12) has h = 0 exactly.
    sc = CavityScenario(n_max=1000, tau=tau)
    omegas, omega = mode_frequencies(sc), sc.drive_omega
    x = np.concatenate([omegas[:2, None] - omegas[None, :], omegas[:2, None] + omegas[None, :]]).ravel()
    assert (x - omega == 0.0).any()
    got = phase_integral(x, omega, tau)
    exact = np.array([mp_drive_integral(v, omega, tau) for v in x])
    assert np.abs(got - exact).max() <= 4 * np.finfo(float).eps * np.abs(exact).max()


def test_drive_integral_is_zero_at_zero_duration():
    # tau = 0: every half-phase is h = 0 and the integral is exactly zero
    x = np.array([-3.0, 0.0, 2.5])
    assert not phase_integral(x, 2.5, 0.0).any()
