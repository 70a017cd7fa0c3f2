import math
import types

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
    h0_coefficients,
    initial_product_squeezed,
    qfi_analytic_h0,
    qfi_numeric,
    transform_reduced,
    unsqueezed_state_map,
)
from cavqfi import cli
from cavqfi.cavity import build_rows, free_phases, mode_frequencies, row_plan
from cavqfi.cli import evaluate_scenario
from cavqfi import metrology
from cavqfi.errors import ConditioningError, NoPlateauError, NumericError
from conftest import canonical_series, random_physical_two_mode, random_symplectic
from oracles import (
    evaluate_series,
    mach_zehnder_bound,
    mach_zehnder_qfi,
    matrix_form_h0,
    series_h0,
    series_state_map,
    series_unsqueezed_rows,
    thermal_two_mode,
    transform_full_oracle,
    trivial_series,
    unsqueezed_rows,
    vacuum,
)


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


def test_fidelity_rejects_wrong_mode_count():
    with pytest.raises(ValueError):
        fidelity_two_mode(vacuum(1), vacuum(1))


def test_fidelity_extended_precision_path():
    # entries beyond the float64 threshold route through mpmath and still
    # reproduce the closed form
    r = 6.0
    fb = fidelity_two_mode(vacuum(2), initial_product_squeezed(r, r))
    assert fb.fidelity == pytest.approx(1.0 / math.cosh(r) ** 2, rel=1e-10)


def test_breakdown_conditioning_guards():
    # the branch clamp is 1e-10 times max(1, |Gamma|, |Delta|): inside it a
    # negative Gamma is roundoff and clamps to 0, beyond it the inputs are
    # ill-conditioned; a non-positive Delta is always refused
    fb = metrology._breakdown(-0.5e-10, 1.0, 1.0, 1.0)
    assert fb.gamma == 0.0
    assert fb.fidelity == 1.0
    with pytest.raises(ConditioningError, match="Gamma"):
        metrology._breakdown(-2e-10, 1.0, 1.0, 1.0)
    with pytest.raises(ConditioningError, match="Gamma"):
        metrology._breakdown(-2e-6, 1.0, 1.0, 1e4)
    for delta in (0.0, -1.0):
        with pytest.raises(ConditioningError, match="Delta"):
            metrology._breakdown(1.0, 0.0, 0.0, delta)


def test_breakdown_lambda_band_collapses_to_zero():
    # pure states sit on the branch point Lambda = 0, where a roundoff
    # residue inside +-1e-10 (times the scale) must vanish exactly
    for lam in (0.9e-10, -0.9e-10, 1e-10, -1e-10):
        fb = metrology._breakdown(1.0, lam, lam, 1.0)
        assert fb.lambda1 == 0.0 and fb.lambda2 == 0.0
        assert fb.fidelity == 1.0
    assert metrology._breakdown(1e4, 0.9e-6, 0.0, 1e4).lambda1 == 0.0
    assert metrology._breakdown(1.0, 2e-10, 0.0, 1.0).lambda1 == 2e-10
    with pytest.raises(ConditioningError, match="Lambda1"):
        metrology._breakdown(1.0, -2e-10, 0.0, 1.0)


@pytest.mark.parametrize(
    "largest, path",
    [(1e4, "_fidelity_float"), (np.nextafter(1e4, np.inf), "_fidelity_mp"), (1e5, "_fidelity_mp")],
)
def test_precision_switch_at_largest_entry(monkeypatch, largest, path):
    # mpmath takes over only above 1e4, judged on the largest entry of either
    # covariance
    calls = []
    for name in ("_fidelity_float", "_fidelity_mp"):
        original = getattr(metrology, name)
        monkeypatch.setattr(
            metrology, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    squeezed = GaussianState(2, np.diag([largest, 1.0 / largest, 1.0, 1.0]))
    fb = fidelity_two_mode(GaussianState(2, np.eye(4)), squeezed)
    assert calls == [path]
    assert fb.fidelity == pytest.approx(2.0 / math.sqrt(largest + 2.0 + 1.0 / largest), rel=1e-9)


def test_fidelity_float_stacked_matches_separate_determinants(rng):
    # the float64 path takes its four determinants in two stacked calls; each
    # must carry the bits of its own call, mixed and pure states alike
    omega = metrology._OMEGA4

    def separate(cov1, cov2):
        gamma = float(np.linalg.det(omega @ cov1 @ omega @ cov2 - np.eye(4))) / 16.0
        lam1 = float(np.linalg.det(cov1 + 1j * omega).real) / 4.0
        lam2 = float(np.linalg.det(cov2 + 1j * omega).real) / 4.0
        delta = float(np.linalg.det(cov1 + cov2)) / 16.0
        return gamma, lam1, lam2, delta

    states = [vacuum(2), initial_product_squeezed(1.3, -0.4), initial_product_squeezed(4.5, 4.5)]
    states += [random_physical_two_mode(rng, mixed=bool(i % 2)) for i in range(40)]
    series = build_scenario_series(CavityScenario(squeezing=10.0, n_max=20))
    state_at = series_state_map(series, 10.0, 1, 2)
    states += [state_at(h) for h in (0.0, 1e-11, 3e-11)]
    for s1 in states:
        for s2 in states:
            stacked = metrology._fidelity_float(s1.cov, s2.cov)
            assert np.array(stacked).tobytes() == np.array(separate(s1.cov, s2.cov)).tobytes()


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


@pytest.mark.parametrize("tau", [30.0, 2.00013, 17.8869724053911])
@pytest.mark.parametrize("r", [0.5, 2.0, 5.0])
def test_interaction_and_lab_frames_agree(r, tau):
    # the frames differ by a diagonal unitary applied after the drive, a
    # fixed symplectic map on both states, so the production H0 and
    # fidelities, which read the interaction picture, match oracles that
    # apply the lab-frame phases G_m = e^{-i w_m tau} explicitly
    sc, series = scenario_series(tau=tau, squeezing=r)
    phases = free_phases(sc)
    h0 = series_h0(series, r, 1, 2).value
    lab_h0 = mp_matrix_form_h0(series, r, 1, 2, phases=phases)
    assert abs(h0 - lab_h0) <= 1e-12 * lab_h0
    init = initial_product_squeezed(r, r)
    h = math.sqrt(1e-2 / h0)  # 1 - F near 1e-3
    f = fidelity_two_mode(
        transform_reduced(init, series, 0.0, 1, 2), transform_reduced(init, series, h, 1, 2)
    ).fidelity
    assert 1e-4 < 1.0 - f < 1e-2
    lab_f = fidelity_two_mode(
        transform_full_oracle(init, series, 0.0, 1, 2, phases),
        transform_full_oracle(init, series, h, 1, 2, phases),
    ).fidelity
    # the float64 lab-frame covariance rotates entries of size e^{2r} into
    # directions of variance e^{-2r}, so its own roundoff bounds the
    # agreement by eps e^{4r} (1e-7 at r = 5)
    tol = max(1e-12, np.finfo(float).eps * math.exp(4.0 * r))
    assert abs(lab_f - f) <= tol * f


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
        return GaussianState(2, 0.5 * (cov + cov.T))

    q1 = qfi_numeric(state, 0.0)
    q2 = qfi_numeric(rotated, 0.0)
    assert q2 == pytest.approx(q1, rel=1e-6)


def test_qfi_numeric_refuses_nonzero_h():
    # the ladder is anchored at the pure initial state, h = 0; no state of
    # the map is taken for any other h
    _, series = scenario_series(tau=0.3)
    init = initial_product_squeezed(1.0, 1.0)
    seen = []

    def state(h):
        seen.append(h)
        return transform_reduced(init, series, h, 1, 2)

    for h in (1e-10, -1e-10, 0.5):
        with pytest.raises(ValueError, match="anchored at h = 0"):
            qfi_numeric(state, h)
    assert seen == []
    assert qfi_numeric(state, 0.0) > 0.0
    assert seen[0] == 0.0


def squeezed_by(c):
    """Mode 1 squeezed by s = c h: QFI 2 c^2, variance e^{2 c h}."""
    return lambda h: GaussianState(2, np.diag([math.exp(2 * c * h), math.exp(-2 * c * h), 1.0, 1.0]))


def cavity_map():
    _, series = scenario_series()
    init = initial_product_squeezed(1.0, 1.0)
    return lambda h: transform_reduced(init, series, h, 1, 2)


@pytest.mark.parametrize(
    "make_map, grown",
    # at c = 1e5 the first pilot step (c dh = 10) grows the variance by
    # e^{20}; the cavity map at r = 1 never grows past the precision switch
    [(lambda: squeezed_by(1e5), True), (cavity_map, False)],
    ids=["grown-pilot-step", "cavity"],
)
def test_qfi_numeric_evaluates_each_state_once(monkeypatch, make_map, grown):
    state_at = make_map()
    seen = []
    fidelities = []

    def counted_state(h):
        seen.append(h)
        return state_at(h)

    def counted_fidelity(s1, s2):
        fidelities.append(max(np.abs(s1.cov).max(), np.abs(s2.cov).max()))
        return fidelity_two_mode(s1, s2)

    monkeypatch.setattr(metrology, "fidelity_two_mode", counted_fidelity)
    res = qfi_numeric(counted_state, 0.0, return_diagnostics=True)
    # the base state once, first; no step's state twice
    assert seen[0] == 0.0 and seen.count(0.0) == 1
    assert len(set(seen)) == len(seen)
    # every evaluation besides the base and the ladder's two lower rungs
    # is a pilot step, and the settled pilot step is the first rung
    pilot = [x for x in seen[1:] if x not in (res.dh_used / 2, res.dh_used / 4)]
    assert res.dh_used in pilot
    assert len(seen) <= 1 + len(pilot) + 3
    # every state but the base costs one fidelity against it (the base
    # needs none: at h = 0 it is pure), a grown step costs a state but no
    # fidelity, and no fidelity the ladder takes needs the
    # extended-precision path
    assert (len(fidelities) < len(seen) - 1) == grown
    assert max(fidelities) <= metrology.DEFAULT_POLICY.extended_precision_above
    if grown:
        # variance growing as e^{2 c dh}, not as dh^2, makes the shrink
        # overshoot to a drop of 4e-9, where float64 roundoff of 1 - F would
        # leave 2.7e-6 of the value; the pilot re-aims once from that drop
        # toward 1e-6 and lands within 2e-8
        assert res.value == pytest.approx(2e10, rel=1e-7)


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
    assert series_h0(trivial_series(4), 0.0, 1, 2).value == 0.0
    assert series_h0(trivial_series(4), 2.0, 1, 2).value == 0.0
    # a zero H0 reports a zero truncation change, not 0/0
    zero = series_h0(trivial_series(4), 2.0, 1, 2)
    assert zero == H0Result(0.0, 0.0)


@pytest.mark.parametrize("second_order", [False, True])
def test_coefficient_h0_matches_matrix_form_oracle(rng, second_order):
    # H0 from the coefficients of e^{2 p r} matches the matrix form summed
    # over the un-squeezed rows themselves within 2N eps (A + B/4 + |2 tr A2|),
    # the rounding bound of either, on random canonical series of several
    # sizes and scales, with and without a second order, in both pair orders
    eps = np.finfo(float).eps
    for _ in range(12):
        n = int(rng.integers(3, 12))
        series = canonical_series(rng, n, scale=10.0 ** rng.uniform(-3.0, 1.0))
        if second_order:
            completion = -0.5 * np.sum(np.abs(series.alpha1) ** 2, axis=1) + 1j * rng.normal(size=n)
            series = BogoliubovSeries(n, series.alpha1, series.beta1, alpha2=completion)
        k, kp = (int(m) for m in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        for pair in ((k, kp), (kp, k)):
            for r in (-1.3, 0.0, 0.6, 2.0, 10.0):
                rows = series_unsqueezed_rows(series, r, *pair)
                a1 = rows.orders[1]
                c1 = a1[:, rows.pair] + a1[:, rows.pair].T
                parts = np.sum(a1 * a1) + np.sum(c1 * c1) / 4
                if second_order:
                    parts += abs(2.0 * np.trace(rows.orders[2][:, rows.pair]))
                expected = matrix_form_h0(rows)
                got = series_h0(series, r, *pair)
                assert abs(got.value - expected.value) <= 2 * n * eps * parts, (n, pair, r)
                assert math.isnan(got.truncation_change) == math.isnan(expected.truncation_change)


def test_analytic_cancellation_residue_is_zero():
    # at n_max 3 the first-order series leaves modes (1, 2) no information:
    # H0's two sums cancel, and the difference left over is rounding of
    # either sign (9.09e-13 of 3602.53 at r = 2, tau = 0.6 s); with partner
    # mode 4 in the truncation the same durations carry information
    for r in (0.0, 2.0, 10.0):
        for tau in np.linspace(0.05, 3.0, 60):
            residue = build_scenario_series(CavityScenario(squeezing=r, tau=tau, n_max=3))
            assert series_h0(residue, r, 1, 2).value == 0.0
            covered = build_scenario_series(CavityScenario(squeezing=r, tau=tau, n_max=4))
            assert series_h0(covered, r, 1, 2).value > 0.0


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
    got = series_h0(series, 0.0, 1, 2).value
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
        analytic = series_h0(series, r, 1, 2).value
        assert analytic == pytest.approx(numeric, rel=1e-5)


def test_analytic_range_check(rng):
    # the mode pair is checked where its rows are taken, once per point
    # (metrology.h0_coefficients, and bogoliubov.unsqueezed_state_map for
    # the states)
    series = canonical_series(rng, 3)
    alpha1, beta1 = series.alpha1[[0, 1]], series.beta1[[0, 1]]
    for take in (
        lambda a, b, k, kp: unsqueezed_state_map(a, b, 1.0, k, kp),
        lambda a, b, k, kp: h0_coefficients(a, b, k, kp, None),
    ):
        with pytest.raises(ValueError, match="outside truncation range"):
            take(alpha1, beta1, 1, 5)
        with pytest.raises(ValueError, match="must differ"):
            take(alpha1, beta1, 2, 2)
        with pytest.raises(ValueError, match="rows k, k' of equal length"):
            take(series.alpha1, series.beta1, 1, 2)


def test_analytic_symmetric_under_pair_swap(rng):
    series = canonical_series(rng, 6)
    for r in (0.0, 0.9):
        forward = series_h0(series, r, 1, 2).value
        swapped = series_h0(series, r, 2, 1).value
        assert swapped == pytest.approx(forward, rel=1e-12)


def mp_matrix_form_h0(series, r, k, kprime, phases=None, dps=60):
    """H0 = tr(P^-1 W) - tr((P^-1 V)^2) / 4 evaluated in mpmath.

    P, V and W are the h^0, h^1 and h^2 coefficients of
    sigma_ij(h) = sum_n M_in(h) sigma0_n M_jn(h)^T with the 2x2 blocks
    M_in(h) = block(G_i (delta_in + h alpha1_in), G_i h beta1_in), summed
    over every mode n of the series; P^-1 is an mpmath inverse.  G is 1
    (the series' own interaction picture) unless lab-frame phases are
    given.
    """
    g = np.ones(series.n_modes, dtype=complex) if phases is None else np.asarray(phases)
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
        m0 = [[block(g[i] if n == i else 0, 0) for n in range(series.n_modes)] for i in pair]
        m1 = [
            [
                block(g[i] * series.alpha1[i, n], g[i] * series.beta1[i, n])
                for n in range(series.n_modes)
            ]
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


def mp_point(r, tau, pinned=None, pinned_rel=None, pair=(1, 2), n_max=50):
    """A point of the 60-digit comparison; off the reference pair and truncation the id names them."""
    parts = [r, tau, pinned, pinned_rel]
    if (pair, n_max) != ((1, 2), 50):
        parts += [f"pair{pair[0]}{pair[1]}", f"nmax{n_max}"]
    return pytest.param(r, tau, pinned, pinned_rel, pair, n_max, id="-".join(map(str, parts)))


@pytest.mark.parametrize(
    "r, tau, pinned, pinned_rel, pair, n_max",
    [
        mp_point(10.0, 30.0, 7.646724067264e15, 1e-12),  # reference point, on the round-trip lattice
        mp_point(10.0, 2.00013, 7.7147772197e14, 1e-10),
        mp_point(10.0, 17.8869724053911),
        mp_point(2.0, 10.293056712267909),
        # a pair away from the first modes, whose resonant partners 15 and 18
        # the truncation covers, at r = 2 and at r = 0
        mp_point(2.0, 17.8869724053911, pair=(4, 7), n_max=20),
        mp_point(0.0, 10.293056712267909, pair=(4, 7), n_max=20),
        # negative squeezing swaps the roles of x and p
        mp_point(-1.3, 2.00013),
    ],
)
def test_analytic_matches_mpmath_matrix_form(r, tau, pinned, pinned_rel, pair, n_max):
    # off the lattice at r = 10, float64 routes through a lab-frame P fail
    # (P's roundoff exceeds its e^{-2r} eigenvalue); the un-squeezed form
    # must still match the extended-precision evaluation, in the
    # interaction picture and in the lab frame
    k, kp = pair
    sc, series = scenario_series(tau=tau, squeezing=r, k=k, kprime=kp, n_max=n_max)
    exact = mp_matrix_form_h0(series, r, k, kp)
    got = series_h0(series, r, k, kp).value
    assert abs(got - exact) <= 1e-12 * abs(exact)
    lab_exact = mp_matrix_form_h0(series, r, k, kp, phases=free_phases(sc))
    assert abs(got - lab_exact) <= 1e-12 * abs(lab_exact)
    if pinned is not None:
        assert abs(float(exact) - pinned) <= pinned_rel * pinned


@pytest.mark.parametrize("n_max", [3, 8])
def test_analytic_within_rounding_bound_of_mpmath(n_max):
    # every H0 is within its own rounding bound 2N eps (A + B/4) of the
    # 60-digit evaluation of the same float64 series: A is the column sum
    # and B/4 the C1 term that it cancels against; at n_max 3 they cancel
    # to a residue that H0 reports as zero
    eps = np.finfo(float).eps
    for r in (0.0, 0.5, 2.0, 5.0, 10.0):
        for tau in (30.0, 200.0, 2.00013, 10.293056712267909, 17.8869724053911):
            _, series = scenario_series(tau=tau, squeezing=r, n_max=n_max)
            rows = series_unsqueezed_rows(series, r, 1, 2)
            a1 = rows.orders[1]
            c1 = a1[:, rows.pair] + a1[:, rows.pair].T
            bound = 2 * n_max * eps * (np.sum(a1 * a1) + np.sum(c1 * c1) / 4)
            exact = float(mp_matrix_form_h0(series, r, 1, 2))
            assert abs(series_h0(series, r, 1, 2).value - exact) <= bound, (r, tau)


def mp_cavity_rows(scenario, dps=60):
    """Rows k and k' of the cavity series from its closed form at dps digits.

    An independent rebuild of cavity.build_rows for rows k, k': the static
    coefficients, the mode frequencies pi n c_s / L and the drive integral
    int_0^tau sin(omega t) e^{i x t} dt, all in mpmath from the scenario's
    float64 values taken exactly.  Returns a stand-in for a series whose
    other rows are zero, which is all mp_matrix_form_h0 reads.
    """
    k, kp, n_max = scenario.k, scenario.kprime, scenario.n_max
    with mpmath.workdps(dps):
        c_s, length = mpmath.mpf(scenario.sound_speed), mpmath.mpf(scenario.length)
        tau = mpmath.mpf(scenario.tau)
        w = [mpmath.pi * n * c_s / length for n in range(n_max + 1)]
        omega = w[k] + w[kp] if scenario.omega is None else mpmath.mpf(scenario.omega)

        def drive(x):
            # int_0^tau e^{i y t} dt = tau e^{i y tau / 2} sinc(y tau / 2), for y = x +/- omega
            e = [tau * mpmath.expj(y * tau / 2) * mpmath.sinc(y * tau / 2) for y in (x + omega, x - omega)]
            return (e[0] - e[1]) / mpmath.mpc(0, 2)

        alpha1 = np.zeros((n_max, n_max), dtype=object)
        beta1 = np.zeros((n_max, n_max), dtype=object)
        for m in (k, kp):
            for n in range(1 + m % 2, n_max + 1, 2):
                root = mpmath.sqrt(m * n)
                alpha_static = -2 * root / (mpmath.pi**2 * (n - m) ** 3)
                beta_static = 2 * root / (mpmath.pi**2 * (m + n) ** 3)
                diff, total = w[m] - w[n], w[m] + w[n]
                alpha1[m - 1, n - 1] = 1j * alpha_static * diff * drive(diff)
                beta1[m - 1, n - 1] = 1j * beta_static * total * drive(total)
    return types.SimpleNamespace(n_modes=n_max, alpha1=alpha1, beta1=beta1)


@pytest.mark.parametrize(
    "overrides",
    [
        {},  # the reference point, on the round-trip lattice
        {"tau": 2.00013},
        {"squeezing": 2.0, "n_max": 200},
    ],
)
def test_emitted_h0_matches_60_digit_rows(overrides):
    # each emitted H0 matches the H0 of rows k and k' rebuilt at 60 digits
    # from the closed form, within its rounding bound 2N eps (A + B/4) plus
    # the spread that the tau probes measure; off the lattice at r = 10 the
    # rounding of the inputs moves H0 by 1.1e-12 of itself, past the bound
    # alone (6.5e-14) but inside the spread (1.8e-10)
    sc = CavityScenario(**overrides)
    emitted = evaluate_scenario(sc)["qfi"]
    alpha1, beta1 = build_rows(row_plan(sc, (sc.k, sc.kprime)), sc.tau * cli._TAU_PROBES)
    h0 = qfi_analytic_h0(h0_coefficients(alpha1, beta1, sc.k, sc.kprime, None), sc.squeezing)
    assert h0.value == emitted
    rows = unsqueezed_rows(alpha1[0], beta1[0], sc.squeezing, sc.k, sc.kprime)
    a1 = rows.orders[1]
    c1 = a1[:, rows.pair] + a1[:, rows.pair].T
    eps = np.finfo(float).eps
    bound = 2 * sc.n_max * eps * (np.sum(a1 * a1) + np.sum(c1 * c1) / 4)
    spread = max(abs(value - emitted) for value in h0.probes)
    exact = mp_matrix_form_h0(mp_cavity_rows(sc), sc.squeezing, sc.k, sc.kprime)
    assert abs(emitted - float(exact)) <= bound + spread


@pytest.mark.parametrize(
    "overrides",
    [
        {"squeezing": 2.0, "n_max": 1000, "tau": 7.3456789},
        {"squeezing": 10.0, "n_max": 50, "tau": 2.00013},
    ],
)
def test_emitted_tail_matches_60_digit_rows_off_the_lattice(overrides):
    # off the lattice the modes above n_max // 2 carry a real part of H0
    # (1.0097e-20 and 3.268e-14 of it here), far above the rounding bound
    # that zeroes the lattice residue; it matches the share in rows k and k'
    # rebuilt at 60 digits within the phase rounding 2 eps |y| tau of the
    # largest drive detuning y (1.8e-9 and 8.4e-12 of it)
    sc = CavityScenario(**overrides)
    emitted = evaluate_scenario(sc)["tail_estimate"]
    rows = mp_cavity_rows(sc)
    with mpmath.workdps(60):
        e2r = mpmath.exp(2 * mpmath.mpf(sc.squeezing))
        upper = 0
        for m in (sc.k - 1, sc.kprime - 1):
            for n in range(sc.n_max // 2, sc.n_max):
                a, b = mpmath.mpc(rows.alpha1[m, n]), mpmath.mpc(rows.beta1[m, n])
                upper += abs(a - mpmath.conj(b)) ** 2 / e2r + abs(a + mpmath.conj(b)) ** 2 * e2r
        exact = float(upper / mp_matrix_form_h0(rows, sc.squeezing, sc.k, sc.kprime))
    omegas = mode_frequencies(sc)
    phase = (omegas[-1] + omegas[sc.kprime - 1] + sc.drive_omega) * sc.tau
    assert exact > 0.0
    assert abs(emitted - exact) <= 2 * np.finfo(float).eps * phase * exact


def test_analytic_second_order_passive_mixer_on_vacuum(rng):
    # a passive mixer (beta = 0) maps the vacuum to itself, so the exact QFI
    # is zero; that needs the second-order diagonal alpha2 whose real part
    # the Bogoliubov identity fixes, Re(alpha2_mm) = -sum_n |alpha1_mn|^2 / 2,
    # and the first-order data alone would report a positive QFI; the
    # imaginary part, a second-order phase, carries no information here
    canon = canonical_series(rng, 6)
    zeros = np.zeros_like(canon.beta1)
    first_order = BogoliubovSeries(6, canon.alpha1, zeros)
    for k, kp in ((1, 2), (5, 3)):
        scale = series_h0(first_order, 0.0, k, kp).value
        assert scale > 1.0
        for _ in range(3):
            completion = -0.5 * np.sum(np.abs(canon.alpha1) ** 2, axis=1) + 1j * rng.normal(size=6)
            completed = BogoliubovSeries(6, canon.alpha1, zeros, alpha2=completion)
            got = series_h0(completed, 0.0, k, kp).value
            assert abs(got) <= 1e-14 * scale


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_truncation_change_matches_halved_build(r):
    # the n_max // 2 series is the leading block of the n_max series, so the
    # partial sum over the upper columns is exactly H0(n_max) - H0(n_max // 2)
    _, full = scenario_series(tau=2.00013, squeezing=r, n_max=50)
    _, half = scenario_series(tau=2.00013, squeezing=r, n_max=25)
    res = series_h0(full, r, 1, 2)
    dropped = res.value - series_h0(half, r, 1, 2).value
    assert res.truncation_change > 0.0
    assert abs(res.truncation_change * res.value - dropped) <= 4 * np.finfo(float).eps * res.value


@pytest.mark.parametrize(
    "r, tau", [(1.0, 0.3), (2.0, 10.293056712267909), (2.0, 17.8869724053911)]
)
def test_truncation_change_bounds_doubling(r, tau):
    _, s50 = scenario_series(tau=tau, squeezing=r, n_max=50)
    _, s100 = scenario_series(tau=tau, squeezing=r, n_max=100)
    res = series_h0(s50, r, 1, 2)
    h100 = series_h0(s100, r, 1, 2).value
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
    delta_h, delta_a = cramer_rao(1e16, 1e11, 1e-6, 1e-3)
    assert delta_h == pytest.approx(3.1622776601683794e-14, rel=1e-12)
    assert delta_a == pytest.approx(3.1622776601683794e-14, rel=1e-12)


def test_cramer_rao_quadrupling_measurements_halves_bound():
    _, delta_a1 = cramer_rao(2.5e8, 1e6, 1e-6, 1e-3)
    _, delta_a4 = cramer_rao(2.5e8, 4e6, 1e-6, 1e-3)
    assert delta_a4 == pytest.approx(delta_a1 / 2.0, rel=1e-12)


def test_cramer_rao_nonpositive_qfi_is_infinite():
    # no information bounds nothing: both bounds are inf, as records emit them
    assert cramer_rao(0.0, 10, 1e-6, 1e-3) == (math.inf, math.inf)
    assert cramer_rao(-5.0, 10, 1e-6, 1e-3) == (math.inf, math.inf)


def test_cramer_rao_refuses_too_few_measurements():
    for qfi in (1e16, 0.0):
        with pytest.raises(ValueError, match="n_measurements must be >= 1"):
            cramer_rao(qfi, 0.5, 1e-6, 1e-3)


def test_cramer_rao_refuses_overflowing_information():
    # N * H beyond float64 would make Delta h = 1 / sqrt(inf) a bound of zero
    with pytest.raises(NumericError, match="overflows float64"):
        cramer_rao(3.5e298, 1e11, 1e-6, 1e-3)
    assert cramer_rao(1e297, 1e11, 1e-6, 1e-3)[0] == 1.0 / math.sqrt(1e308)


def test_mach_zehnder_reference():
    assert mach_zehnder_qfi(1.6e7, 1.0) == 2.56e14
    # raw shot-noise bound ~2e-13 m/s^2; published full-error-budget figures
    # for the same interferometer quote ~5e-12
    raw = mach_zehnder_bound(1.6e7, 1.0, 1e11)
    assert raw == pytest.approx(1.9764235376052372e-13, rel=1e-12)


def test_mach_zehnder_quartic_in_time():
    assert mach_zehnder_qfi(1.6e7, 2.0) == pytest.approx(16 * mach_zehnder_qfi(1.6e7, 1.0))
