import math

import mpmath
import numpy as np
import pytest

from cavqfi import (
    BogoliubovSeries,
    CavityScenario,
    GaussianState,
    H0Result,
    build_scenario_series,
    cramer_rao,
    fidelity_two_mode,
    initial_product_squeezed,
    mach_zehnder_bound,
    mach_zehnder_qfi,
    qfi_analytic_h0,
    qfi_numeric,
    transform_reduced,
    vacuum,
)
from cavqfi.cavity import free_phases
from cavqfi.errors import NoInformationError, NoPlateauError, NumericError
from cavqfi.gaussian import thermal_two_mode
from conftest import canonical_series, random_physical_two_mode, random_symplectic


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_vacuum_vacuum():
    fb = fidelity_two_mode(vacuum(2), vacuum(2))
    assert fb.fidelity == pytest.approx(1.0, abs=1e-14)
    assert fb.gamma == pytest.approx(1.0, abs=1e-14)
    assert fb.delta == pytest.approx(1.0, abs=1e-14)
    assert fb.lambda1 == pytest.approx(0.0, abs=1e-14)


def test_fidelity_vacuum_single_squeezed():
    r = 0.8
    fb = fidelity_two_mode(vacuum(2), initial_product_squeezed(r, 0.0))
    assert fb.fidelity == pytest.approx(1.0 / math.cosh(r), rel=1e-12)


def test_fidelity_vacuum_product_squeezed():
    for r in (0.1, 1.0, 2.0):
        fb = fidelity_two_mode(vacuum(2), initial_product_squeezed(r, r))
        assert fb.fidelity == pytest.approx(1.0 / math.cosh(r) ** 2, rel=1e-12)


def test_fidelity_thermal_self_is_one():
    # mixed-state self-fidelity separates the Uhlmann-consistent form from
    # the 1/(Pi + sqrt(...)) variant, which would return 1/nu^4 here
    st = thermal_two_mode(1.8, 1.8)
    assert fidelity_two_mode(st, st).fidelity == pytest.approx(1.0, abs=1e-12)


def test_fidelity_thermal_vs_vacuum_closed_form():
    # per mode: F = 2/(nu+1); product over modes
    nu1, nu2 = 1.6, 2.4
    st = thermal_two_mode(nu1, nu2)
    expected = (2 / (nu1 + 1)) * (2 / (nu2 + 1))
    assert fidelity_two_mode(vacuum(2), st).fidelity == pytest.approx(expected, rel=1e-12)


def test_fidelity_two_thermal_closed_form():
    # commuting states: F = [prod_modes sqrt((1-x1)(1-x2))/(1-sqrt(x1 x2))]^2
    # with x = (nu-1)/(nu+1)
    nu_a, nu_b = 1.7, 2.9

    def x(nu):
        return (nu - 1) / (nu + 1)

    per_mode = math.sqrt((1 - x(nu_a)) * (1 - x(nu_b))) / (1 - math.sqrt(x(nu_a) * x(nu_b)))
    expected = (per_mode * per_mode) ** 2  # squared amplitude, two modes
    fa = fidelity_two_mode(thermal_two_mode(nu_a, nu_a), thermal_two_mode(nu_b, nu_b))
    assert fa.fidelity == pytest.approx(expected, rel=1e-10)


def test_fidelity_self_and_symmetry_random(rng):
    for _ in range(60):
        s1 = random_physical_two_mode(rng, mixed=True)
        s2 = random_physical_two_mode(rng, mixed=bool(rng.integers(0, 2)))
        assert fidelity_two_mode(s1, s1).fidelity == pytest.approx(1.0, abs=1e-10)
        f12 = fidelity_two_mode(s1, s2).fidelity
        f21 = fidelity_two_mode(s2, s1).fidelity
        assert f12 == pytest.approx(f21, abs=1e-10)
        assert -1e-10 <= f12 <= 1.0 + 1e-10


def test_fidelity_lambda_zero_for_pure(rng):
    for _ in range(10):
        st = random_physical_two_mode(rng, mixed=False)
        fb = fidelity_two_mode(st, st)
        assert abs(fb.lambda1) <= 1e-8


def test_fidelity_rejects_nonzero_means():
    st = GaussianState(2, np.array([0.1, 0, 0, 0]), np.eye(4))
    with pytest.raises(NumericError):
        fidelity_two_mode(st, vacuum(2))


def test_fidelity_rejects_wrong_mode_count():
    from cavqfi.gaussian import vacuum as vac

    with pytest.raises(ValueError):
        fidelity_two_mode(vac(1), vac(1))


def test_fidelity_extended_precision_path():
    # entries beyond the float64 threshold route through mpmath and still
    # reproduce the closed form
    r = 6.0
    fb = fidelity_two_mode(vacuum(2), initial_product_squeezed(r, r))
    assert fb.fidelity == pytest.approx(1.0 / math.cosh(r) ** 2, rel=1e-10)


def test_gamma_equals_delta_for_symplectic_images(rng):
    # structural identity behind the h = 0 closed form: when sigma1 = M M^T
    # with M exactly symplectic, det(Omega s1 Omega s2 - 1) = det(s1 + s2)
    # for any s2 of image form; mixed states genuinely break it
    st1 = random_physical_two_mode(rng, mixed=False)
    for _ in range(10):
        st2 = random_physical_two_mode(rng, mixed=False)
        fb = fidelity_two_mode(st1, st2)
        assert fb.gamma == pytest.approx(fb.delta, rel=1e-9)
    mixed = thermal_two_mode(1.9, 1.9)
    fb = fidelity_two_mode(mixed, mixed)
    assert abs(fb.gamma - fb.delta) > 1.0


# ---------------------------------------------------------------------------
# numeric QFI
# ---------------------------------------------------------------------------


def scenario_series(tau=0.3, **overrides):
    params = dict(length=1e-6, sound_speed=1e-3, k=1, kprime=2, squeezing=1.0, tau=tau)
    params.update(overrides)
    sc = CavityScenario(**params)
    return sc, build_scenario_series(sc)


def lab_frame_copy(scenario, series):
    """The lab-frame series: row m of each matrix times G_m = e^{-i w_m tau}."""
    g = free_phases(scenario)
    return BogoliubovSeries(series.n_modes, g, g[:, None] * series.alpha1, g[:, None] * series.beta1)


@pytest.mark.parametrize("tau", [30.0, 2.00013, 17.8869724053911])
@pytest.mark.parametrize("r", [0.5, 2.0, 5.0])
def test_interaction_and_lab_frames_agree(r, tau):
    # the frames differ by a diagonal unitary applied after the drive, a
    # fixed symplectic map on both states, so H0 and every fidelity match
    sc, series = scenario_series(tau=tau, squeezing=r)
    lab = lab_frame_copy(sc, series)
    h0 = qfi_analytic_h0(series, r, 1, 2)
    assert abs(qfi_analytic_h0(lab, r, 1, 2) - h0) <= 1e-12 * h0
    init = initial_product_squeezed(r, r)
    h = math.sqrt(1e-2 / h0)  # 1 - F near 1e-3

    def fid(s):
        return fidelity_two_mode(
            transform_reduced(init, s, 0.0, 1, 2), transform_reduced(init, s, h, 1, 2)
        ).fidelity

    f = fid(series)
    assert 1e-4 < 1.0 - f < 1e-2
    # the float64 lab-frame covariance rotates entries of size e^{2r} into
    # directions of variance e^{-2r}, so its own roundoff bounds the
    # agreement by eps e^{4r} (1e-7 at r = 5; 7.7e-9 seen off the lattice)
    tol = max(1e-12, np.finfo(float).eps * math.exp(4.0 * r))
    assert abs(fid(lab) - f) <= tol * f


def test_qfi_numeric_constant_map_is_zero():
    st = initial_product_squeezed(0.5, 0.5)
    assert qfi_numeric(lambda h: st, 0.0) == 0.0


def test_qfi_numeric_quadratic_onset(rng):
    # fitted quadratic coefficient of 1 - F stable under dh halving
    _, series = scenario_series()
    init = initial_product_squeezed(1.0, 1.0)

    def state(h):
        return transform_reduced(init, series, h, 1, 2)

    coeffs = []
    for dh in (2e-4, 1e-4, 5e-5):
        f = fidelity_two_mode(state(0.0), state(dh)).fidelity
        coeffs.append(2.0 * (1.0 - f) / dh**2)
    assert coeffs[1] == pytest.approx(coeffs[0], rel=2e-3)
    assert coeffs[2] == pytest.approx(coeffs[1], rel=2e-3)


def test_qfi_numeric_nonnegative_and_diagnostics(rng):
    _, series = scenario_series()
    init = initial_product_squeezed(0.7, 0.7)
    res = qfi_numeric(
        lambda h: transform_reduced(init, series, h, 1, 2), 0.0, return_diagnostics=True
    )
    assert res.value >= 0.0
    assert res.plateau
    assert len(res.ladder) == 3


def test_qfi_numeric_symplectic_basis_invariance(rng):
    _, series = scenario_series()
    init = initial_product_squeezed(1.0, 1.0)
    basis = random_symplectic(rng, 2, scale=0.3)

    def state(h):
        return transform_reduced(init, series, h, 1, 2)

    def rotated(h):
        st = state(h)
        cov = basis @ st.cov @ basis.T
        return GaussianState(2, np.zeros(4), 0.5 * (cov + cov.T))

    q1 = qfi_numeric(state, 0.0)
    q2 = qfi_numeric(rotated, 0.0)
    assert q2 == pytest.approx(q1, rel=1e-6)


def test_qfi_numeric_continuous_in_h():
    _, series = scenario_series(tau=0.3)
    init = initial_product_squeezed(1.0, 1.0)

    def state(h):
        return transform_reduced(init, series, h, 1, 2)

    at_zero = qfi_numeric(state, 0.0)
    at_small = qfi_numeric(state, 1e-10)
    assert at_small == pytest.approx(at_zero, rel=1e-3)


def test_qfi_numeric_no_plateau_carries_ladder(rng):
    noise = np.random.default_rng(0)

    def jittery(h):
        r = 0.4 + 0.1 * noise.random()
        return initial_product_squeezed(r, r)

    with pytest.raises(NoPlateauError) as err:
        qfi_numeric(jittery, 0.0)
    assert len(err.value.ladder) == 3


# ---------------------------------------------------------------------------
# matrix-form analytic QFI
# ---------------------------------------------------------------------------


def test_analytic_zero_series_is_zero():
    from cavqfi import trivial_series

    assert qfi_analytic_h0(trivial_series(4), 0.0, 1, 2) == 0.0
    assert qfi_analytic_h0(trivial_series(4), 2.0, 1, 2) == 0.0
    # a zero H0 reports a zero truncation change, not 0/0
    zero = qfi_analytic_h0(trivial_series(4), 2.0, 1, 2, return_diagnostics=True)
    assert zero == H0Result(0.0, 0.0)


def test_analytic_r0_reduction(rng):
    # at r = 0 the closed form reduces to 2 (f-sums) + 4 |alpha1_kk'|^2 for
    # canonical series, which the numeric ladder confirms independently
    series = canonical_series(rng, 6)
    # f-sums: |alpha1_nk|^2 and |beta1_nk|^2 over spectators n not in {k, k'},
    # in the columns of k and k'
    f_sums = sum(
        np.sum(np.abs(mat[2:, col]) ** 2) for mat in (series.alpha1, series.beta1) for col in (0, 1)
    )
    expected = 2.0 * f_sums + 4.0 * abs(series.alpha1[0, 1]) ** 2
    got = qfi_analytic_h0(series, 0.0, 1, 2)
    assert got == pytest.approx(expected, rel=1e-10)
    numeric = qfi_numeric(
        lambda h: transform_reduced(initial_product_squeezed(0, 0), series, h, 1, 2), 0.0
    )
    assert got == pytest.approx(numeric, rel=1e-5)


def test_analytic_matches_numeric(rng):
    series = canonical_series(rng, 6)
    for r in (0.0, 0.6, 1.4):
        init = initial_product_squeezed(r, r)
        numeric = qfi_numeric(lambda h: transform_reduced(init, series, h, 1, 2), 0.0)
        analytic = qfi_analytic_h0(series, r, 1, 2)
        assert analytic == pytest.approx(numeric, rel=1e-5)


def test_analytic_range_check(rng):
    series = canonical_series(rng, 3)
    with pytest.raises(NumericError):
        qfi_analytic_h0(series, 1.0, 1, 5)


def test_analytic_symmetric_under_pair_swap(rng):
    series = canonical_series(rng, 6)
    for r in (0.0, 0.9):
        forward = qfi_analytic_h0(series, r, 1, 2)
        swapped = qfi_analytic_h0(series, r, 2, 1)
        assert swapped == pytest.approx(forward, rel=1e-12)


def mp_matrix_form_h0(series, r, k, kprime, dps=60):
    """H0 = tr(P^-1 W) - tr((P^-1 V)^2) / 4 evaluated in mpmath, lab frame.

    P, V and W are the h^0, h^1 and h^2 coefficients of
    sigma_ij(h) = sum_n M_in(h) sigma0_n M_jn(h)^T with the 2x2 blocks
    M_in(h) = block(G_i delta_in + h alpha1_in, h beta1_in), summed over
    every mode n of the series; P^-1 is an mpmath inverse.
    """
    with mpmath.workdps(dps):

        def block(a, b):
            a, b = mpmath.mpc(a), mpmath.mpc(b)
            return mpmath.matrix(
                [[mpmath.re(a - b), mpmath.im(a + b)], [-mpmath.im(a - b), mpmath.re(a + b)]]
            )

        pair = (k - 1, kprime - 1)
        e2r = mpmath.exp(2 * mpmath.mpf(r))
        sigma0 = [
            mpmath.diag([e2r, 1 / e2r]) if n in pair else mpmath.eye(2)
            for n in range(series.n_modes)
        ]
        m0 = [[block(series.G[i] if n == i else 0, 0) for n in range(series.n_modes)] for i in pair]
        m1 = [
            [block(series.alpha1[i, n], series.beta1[i, n]) for n in range(series.n_modes)]
            for i in pair
        ]
        p, v, w = mpmath.zeros(4), mpmath.zeros(4), mpmath.zeros(4)
        for bi in range(2):
            for bj in range(2):
                for n in range(series.n_modes):
                    s0 = sigma0[n]
                    parts = (
                        m0[bi][n] * s0 * m0[bj][n].T,
                        m1[bi][n] * s0 * m0[bj][n].T + m0[bi][n] * s0 * m1[bj][n].T,
                        m1[bi][n] * s0 * m1[bj][n].T,
                    )
                    for target, part in zip((p, v, w), parts):
                        for a in range(2):
                            for b in range(2):
                                target[2 * bi + a, 2 * bj + b] += part[a, b]
        p_inv = p**-1
        x = p_inv * v
        pw = p_inv * w
        return sum(pw[i, i] for i in range(4)) - sum((x * x)[i, i] for i in range(4)) / 4


@pytest.mark.parametrize(
    "r, tau, pinned, pinned_rel",
    [
        (10.0, 30.0, 7.646724067264e15, 1e-12),  # reference point, on the round-trip lattice
        (10.0, 2.00013, 7.7147772197e14, 1e-10),
        (10.0, 17.8869724053911, None, None),
        (2.0, 10.293056712267909, None, None),
    ],
)
def test_analytic_matches_mpmath_matrix_form(r, tau, pinned, pinned_rel):
    # off the lattice at r = 10, float64 routes through a lab-frame P fail
    # (P's roundoff exceeds its e^{-2r} eigenvalue); the interaction-frame
    # form must still match the extended-precision evaluation, in its own
    # frame and in the lab frame
    sc, series = scenario_series(tau=tau, squeezing=r)
    exact = mp_matrix_form_h0(series, r, 1, 2)
    got = qfi_analytic_h0(series, r, 1, 2)
    assert abs(got - exact) <= 1e-12 * abs(exact)
    lab_exact = mp_matrix_form_h0(lab_frame_copy(sc, series), r, 1, 2)
    assert abs(got - lab_exact) <= 1e-12 * abs(lab_exact)
    if pinned is not None:
        assert abs(float(exact) - pinned) <= pinned_rel * pinned


def test_analytic_second_order_passive_mixer_on_vacuum(rng):
    # a passive mixer (beta = 0) maps the vacuum to itself, so the exact QFI
    # is zero; that needs the second-order diagonal alpha2 fixed by the
    # Bogoliubov identity, Re(conj(G_m) alpha2_mm) = -sum_n |alpha1_mn|^2 / 2,
    # and the first-order data alone would report a positive QFI
    canon = canonical_series(rng, 6)
    zeros = np.zeros_like(canon.beta1)
    first_order = BogoliubovSeries(6, canon.G, canon.alpha1, zeros)
    completion = np.diag(-0.5 * canon.G * np.sum(np.abs(canon.alpha1) ** 2, axis=1))
    completed = BogoliubovSeries(6, canon.G, canon.alpha1, zeros, alpha2=completion)
    scale = qfi_analytic_h0(first_order, 0.0, 1, 2)
    assert scale > 1.0
    assert abs(qfi_analytic_h0(completed, 0.0, 1, 2)) <= 1e-14 * scale


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_truncation_change_matches_halved_build(r):
    # the n_max // 2 series is the leading block of the n_max series, so the
    # partial sum over the upper columns is exactly H0(n_max) - H0(n_max // 2)
    _, full = scenario_series(tau=2.00013, squeezing=r, n_max=50)
    _, half = scenario_series(tau=2.00013, squeezing=r, n_max=25)
    res = qfi_analytic_h0(full, r, 1, 2, return_diagnostics=True)
    assert res.value == qfi_analytic_h0(full, r, 1, 2)
    dropped = res.value - qfi_analytic_h0(half, r, 1, 2)
    assert res.truncation_change > 0.0
    assert abs(res.truncation_change * res.value - dropped) <= 4 * np.finfo(float).eps * res.value


@pytest.mark.parametrize(
    "r, tau", [(1.0, 0.3), (2.0, 10.293056712267909), (2.0, 17.8869724053911)]
)
def test_truncation_change_bounds_doubling(r, tau):
    _, s50 = scenario_series(tau=tau, squeezing=r, n_max=50)
    _, s100 = scenario_series(tau=tau, squeezing=r, n_max=100)
    res = qfi_analytic_h0(s50, r, 1, 2, return_diagnostics=True)
    h100 = qfi_analytic_h0(s100, r, 1, 2)
    assert abs(h100 - res.value) / res.value <= res.truncation_change


def test_spectator_sum_dominated_by_resonant_spectators():
    _, series = scenario_series(tau=0.4)
    # at the sum resonance of modes (1, 2) the co-resonant mode-mixing
    # channels are (4 -> 1) and (5 -> 2)
    magnitudes = np.abs(series.alpha1[:, 0]) ** 2
    assert magnitudes.argmax() == 3
    magnitudes2 = np.abs(series.alpha1[:, 1]) ** 2
    assert magnitudes2.argmax() == 4
    # spectators of column 1: every mode but k = 1 and k' = 2
    assert magnitudes[3] / np.sum(magnitudes[2:]) > 0.99


def test_static_spectator_sums_dominated_by_nearest_odd():
    # without the drive dressing the cubic decay of the static coefficients
    # makes n = 4 dominate column 1 and n = 3 dominate column 2
    from cavqfi.cavity import static_matrices

    alpha, _ = static_matrices(12)
    spect = [m for m in range(12) if m not in (0, 1)]
    col1 = np.abs(alpha[spect, 0]) ** 2
    col2 = np.abs(alpha[spect, 1]) ** 2
    assert spect[col1.argmax()] == 3  # mode 4
    assert spect[col2.argmax()] == 2  # mode 3


def test_evaluate_series_scaling_of_cavity_entry():
    _, series = scenario_series(tau=0.37)
    from cavqfi import evaluate_series

    h = 1e-9
    coeffs = evaluate_series(series, h)
    assert abs(coeffs.beta[0, 1]) == pytest.approx(h * abs(series.beta1[0, 1]), rel=1e-12)


def test_qfi_numeric_headline_scenario_order_of_magnitude():
    sc, series = scenario_series(tau=30.0, squeezing=10.0)
    init = initial_product_squeezed(10.0, 10.0)
    value = qfi_numeric(lambda h: transform_reduced(init, series, h, 1, 2), 0.0)
    assert 1e15 <= value <= 1e17


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_cramer_rao_reference_numbers():
    est = cramer_rao(1e16, 1e11, 1e-6, 1e-3)
    assert est.delta_h == pytest.approx(3.1622776601683794e-14, rel=1e-12)
    assert est.delta_a == pytest.approx(3.1622776601683794e-14, rel=1e-12)


def test_cramer_rao_quadrupling_measurements_halves_bound():
    est1 = cramer_rao(2.5e8, 1e6, 1e-6, 1e-3)
    est2 = cramer_rao(2.5e8, 4e6, 1e-6, 1e-3)
    assert est2.delta_a == pytest.approx(est1.delta_a / 2.0, rel=1e-12)


def test_cramer_rao_rejects_nonpositive_qfi():
    with pytest.raises(NoInformationError):
        cramer_rao(0.0, 10, 1e-6, 1e-3)
    with pytest.raises(NoInformationError):
        cramer_rao(-5.0, 10, 1e-6, 1e-3)


def test_cramer_rao_validity_flag():
    est = cramer_rao(1e16, 1e11, 1e-6, 1e-3, h=1e-10)
    assert est.qfi_valid
    assert est.validity_margin == pytest.approx(1e-4)
    est2 = cramer_rao(1e16, 1e11, 1e-6, 1e-3, h=1e-8)
    assert not est2.qfi_valid


def test_validity_check_boundary():
    res = cramer_rao(1e16, 1e11, 1e-6, 1e-3, h=1e-9)
    assert res.validity_margin == pytest.approx(1e-2)
    assert not res.qfi_valid  # margin == threshold flags as out of range
    assert cramer_rao(1e16, 1e11, 1e-6, 1e-3, h=1e-10).qfi_valid
    assert cramer_rao(1e16, 1e11, 1e-6, 1e-3, h=1e-10).validity_margin == pytest.approx(1e-4)


def test_mach_zehnder_reference():
    assert mach_zehnder_qfi(1.6e7, 1.0) == 2.56e14
    # raw shot-noise bound ~2e-13 m/s^2; published full-error-budget figures
    # for the same interferometer quote ~5e-12
    raw = mach_zehnder_bound(1.6e7, 1.0, 1e11)
    assert raw == pytest.approx(1.9764235376052372e-13, rel=1e-12)


def test_mach_zehnder_quartic_in_time():
    assert mach_zehnder_qfi(1.6e7, 2.0) == pytest.approx(16 * mach_zehnder_qfi(1.6e7, 1.0))
