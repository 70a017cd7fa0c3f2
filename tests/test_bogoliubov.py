import dataclasses
import math

import numpy as np
import pytest

from cavqfi import (
    BogoliubovSeries,
    CavityScenario,
    build_scenario_series,
    initial_product_squeezed,
    transform_reduced,
    unsqueezed_state_map,
)
from cavqfi.bogoliubov import pair_columns, symplectic_blocks
from cavqfi.errors import NumericError
from conftest import canonical_series
from oracles import (
    BogoliubovCoefficients,
    assemble_symplectic,
    check_physical,
    evaluate_series,
    identity_defects,
    pair_rows,
    series_h0,
    series_state_map,
    series_symplectic_defect,
    series_unsqueezed_rows,
    squeezed_frame_ladder_state,
    symplectic_defect,
    transform_full_oracle,
    trivial_series,
    unsqueezed_rows,
    vacuum,
)


def random_alpha2(rng, n):
    """A random complex diagonal second order."""
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_unsqueezed_rows_match_full_assembly(rng):
    # at r = 0 the orders are rows k, k' of the fully assembled S(h) itself,
    # which is the identity at h = 0; the first and second orders are
    # separated by evaluating at two amplitudes, and the second order lives
    # on the pair columns alone
    n = 6
    canon = canonical_series(rng, n)
    for series in (canon, dataclasses.replace(canon, alpha2=random_alpha2(rng, n))):
        for k, kp in ((2, 5), (4, 1)):
            rows = series_unsqueezed_rows(series, 0.0, k, kp)
            pair = pair_columns(k, kp)
            assert pair == [2 * k - 2, 2 * k - 1, 2 * kp - 2, 2 * kp - 1]
            assert rows.pair == tuple(pair)
            assert rows.orders.shape == (2 if series.alpha2 is None else 3, 4, 2 * n)
            s1 = rows.orders[1]
            s2 = rows.orders[2] if series.alpha2 is not None else np.zeros((4, 2 * n))

            def full_rows(h):
                return assemble_symplectic(evaluate_series(series, h))[pair]

            at0 = full_rows(0.0)
            assert np.array_equal(at0, rows.orders[0])
            assert np.array_equal(at0[:, pair], np.eye(4))
            assert not np.delete(at0, pair, axis=1).any()
            (h1, d1), (h2, d2) = ((h, full_rows(h) - at0) for h in (0.5, 1.0))
            order2 = (d2 / h2 - d1 / h1) / (h2 - h1)
            assert np.abs(d1 / h1 - h1 * order2 - s1).max() <= 1e-13
            assert np.abs(order2 - s2).max() <= 1e-13
            assert not np.delete(s2, pair, axis=1).any()
            for h in (1e-4, 3e-2, 0.5, 2.0):
                full = full_rows(h)
                got = rows.orders[0] + h * s1 + h * h * s2
                assert np.abs(got - full).max() <= 1e-14 * max(1.0, np.abs(full).max())


def test_assemble_identity_coefficients():
    n = 4
    coeffs = BogoliubovCoefficients(n, np.eye(n), np.zeros((n, n)))
    s = assemble_symplectic(coeffs)
    assert np.array_equal(s, np.eye(2 * n))
    assert not s.flags.writeable
    assert symplectic_defect(s) == 0.0


def test_exact_coefficients_are_symplectic(rng):
    # exact transform: per-mode squeezers mixed by phases, built to satisfy
    # alpha alpha^dag - beta beta^dag = 1 and alpha beta^T symmetric
    n = 3
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    sq = rng.uniform(-1, 1, n)
    alpha = np.diag(phases * np.cosh(sq))
    beta = np.diag(phases * np.sinh(sq))
    coeffs = BogoliubovCoefficients(n, alpha, beta)
    uni, sym = identity_defects(coeffs)
    assert uni <= 1e-12 and sym <= 1e-12
    assert symplectic_defect(assemble_symplectic(coeffs)) <= 1e-12


def test_series_validation():
    n = 3
    zeros = np.zeros((n, n), dtype=complex)
    bad = zeros.copy()
    bad[1, 1] = 0.1
    with pytest.raises(ValueError):
        BogoliubovSeries(n, bad, zeros)  # nonzero diagonal
    # the second order is the diagonal of alpha2, one entry per mode
    for alpha2 in (np.ones((n, n)), np.ones(n + 1), np.ones((1, n)), np.ones(())):
        with pytest.raises(ValueError, match="alpha2 must be a length-3 vector"):
            BogoliubovSeries(n, zeros, zeros, alpha2)
    series = BogoliubovSeries(n, zeros, zeros, [1.0, 2.0, 3.0])
    assert series.alpha2.dtype == complex and not series.alpha2.flags.writeable


def test_series_copies_writeable_input():
    n = 3
    alpha1 = np.zeros((n, n), dtype=complex)
    alpha1[0, 1] = 0.5
    beta1 = alpha1.copy()
    series = BogoliubovSeries(n, alpha1, beta1)
    view = alpha1.view()
    view.setflags(write=False)
    from_view = BogoliubovSeries(n, view, beta1)
    alpha1[0, 1] = 7.0
    beta1[0, 1] = 7.0
    assert series.alpha1[0, 1] == series.beta1[0, 1] == 0.5
    # a read-only view does not protect against writes through its base
    assert from_view.alpha1[0, 1] == 0.5
    assert not series.alpha1.flags.writeable


def test_series_adopts_read_only_array():
    n = 3
    owned = np.zeros((n, n), dtype=complex)
    owned.setflags(write=False)
    series = BogoliubovSeries(n, owned, owned)
    assert series.alpha1 is owned and series.beta1 is owned


def test_evaluate_series_zeroth_order(rng):
    series = canonical_series(rng, 4)
    alpha2 = random_alpha2(rng, 4)
    for s in (series, dataclasses.replace(series, alpha2=alpha2)):
        coeffs = evaluate_series(s, 0.0)
        assert np.array_equal(coeffs.alpha, np.eye(4))
        assert not coeffs.beta.any()
    # the second order adds h^2 alpha2 on the diagonal, which alpha1 leaves at 1
    coeffs = evaluate_series(dataclasses.replace(series, alpha2=alpha2), 0.5)
    assert np.array_equal(np.diag(coeffs.alpha), 1.0 + 0.25 * alpha2)


def test_evaluate_series_linearity(rng):
    series = canonical_series(rng, 4)
    h = 3e-4
    c1 = evaluate_series(series, h)
    c2 = evaluate_series(series, 2 * h)
    assert np.allclose(c2.alpha - np.eye(4), 2 * (c1.alpha - np.eye(4)))
    assert np.allclose(c2.beta, 2 * c1.beta)


def test_evaluate_series_rejects_negative_h(rng):
    with pytest.raises(ValueError):
        evaluate_series(canonical_series(rng, 3), -1e-3)


def test_series_defect_scales_quadratically(rng):
    series = canonical_series(rng, 5)
    h = 2e-3
    d1 = series_symplectic_defect(series, h)
    d2 = series_symplectic_defect(series, h / 2)
    d3 = series_symplectic_defect(series, h / 4)
    assert d1 / d2 == pytest.approx(4.0, rel=0.1)
    assert d2 / d3 == pytest.approx(4.0, rel=0.1)


def test_trivial_series_is_identity_on_states(rng):
    series = trivial_series(6)
    init = initial_product_squeezed(0.8, -0.3)
    for h in (0.0, 0.1, 2.0):
        out = transform_reduced(init, series, h, 2, 5)
        assert np.allclose(out.cov, init.cov, atol=1e-14)


def test_transform_vacuum_with_trivial_series():
    out = transform_reduced(vacuum(2), trivial_series(4), 0.7, 1, 2)
    assert np.allclose(out.cov, np.eye(4), atol=1e-14)


def test_particle_creation_raises_trace(rng):
    # beta != 0 populates the modes: tr(cov)/4 > 1; with beta = 0 the
    # transformation is passive and the vacuum stays vacuum
    n = 5
    series = canonical_series(rng, n)
    passive = BogoliubovSeries(n, series.alpha1, np.zeros((n, n), dtype=complex))
    h = 1e-2
    active_out = transform_full_oracle(vacuum(2), series, h, 1, 2)
    passive_out = transform_full_oracle(vacuum(2), passive, h, 1, 2)
    assert np.trace(active_out.cov) / 4.0 > 1.0
    assert np.trace(passive_out.cov) / 4.0 == pytest.approx(1.0, abs=1e-3)


def test_oracle_equivalence_random_draws(rng):
    for _ in range(30):
        n = int(rng.integers(4, 9))
        series = canonical_series(rng, n)
        k = int(rng.integers(1, n))
        kp = int(rng.integers(1, n))
        if k == kp:
            continue
        r1, r2 = rng.uniform(-1.5, 1.5, size=2)
        h = rng.uniform(0, 1e-3)
        init = initial_product_squeezed(r1, r2)
        red = transform_reduced(init, series, h, k, kp)
        full = transform_full_oracle(init, series, h, k, kp)
        scale = max(1.0, np.abs(full.cov).max())
        assert np.abs(red.cov - full.cov).max() <= 1e-12 * scale


@pytest.mark.parametrize("tau", [30.0, 2.00013])
@pytest.mark.parametrize("r", [5.0, 10.0])
def test_oracle_equivalence_strong_squeezing(r, tau):
    # the random draws keep |r| <= 1.5; here both modes start squeezed by
    # r = 5 and 10, with entries up to e^{2r}, under the cavity series on
    # and off the round-trip lattice
    series = build_scenario_series(CavityScenario(squeezing=r, tau=tau, n_max=12))
    init = initial_product_squeezed(r, r)
    for h in (0.0, 1e-9, 1e-7):
        red = transform_reduced(init, series, h, 1, 2)
        full = transform_full_oracle(init, series, h, 1, 2)
        scale = max(1.0, np.abs(full.cov).max())
        assert np.abs(red.cov - full.cov).max() <= 1e-12 * scale, h


def test_oracle_equivalence_second_order(rng):
    # the reduced transform builds only rows k and k' of the coefficients,
    # including the optional h^2 diagonal, and must match the full assembly
    n = 6
    canon = canonical_series(rng, n)
    init = initial_product_squeezed(0.7, -0.4)
    for _ in range(3):
        series = dataclasses.replace(canon, alpha2=random_alpha2(rng, n))
        for k, kp in ((2, 5), (4, 1)):
            for h in (0.0, 3e-4, 0.2):
                red = transform_reduced(init, series, h, k, kp)
                full = transform_full_oracle(init, series, h, k, kp)
                scale = max(1.0, np.abs(full.cov).max())
                assert np.abs(red.cov - full.cov).max() <= 1e-12 * scale


def test_zero_amplitude_is_identity_for_every_series(rng):
    # at h = 0 every series is exactly the identity, whatever its orders:
    # the reduced transform returns the initial covariance and the ladder's
    # map the vacuum, bit for bit
    from conftest import random_physical_two_mode

    for _ in range(10):
        n = int(rng.integers(3, 9))
        k, kp = (int(m) for m in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        series = canonical_series(rng, n, scale=rng.uniform(0.1, 3.0))
        for s in (series, dataclasses.replace(series, alpha2=random_alpha2(rng, n))):
            for init in (initial_product_squeezed(0.8, -0.3), random_physical_two_mode(rng)):
                assert transform_reduced(init, s, 0.0, k, kp).cov.tobytes() == init.cov.tobytes()
            for r in (0.0, 0.7, -1.3, 5.0):
                cov = series_state_map(s, r, k, kp)(0.0).cov
                assert cov.tobytes() == np.eye(4).tobytes()
    # also when the higher Gram orders have overflowed float64 (0 * inf is
    # nan): the undriven state of `cavqfi fidelity` at r = 348
    init = initial_product_squeezed(348.0, 348.0)
    series = build_scenario_series(CavityScenario(squeezing=348.0))
    assert transform_reduced(init, series, 0.0, 1, 2).cov.tobytes() == init.cov.tobytes()


def test_single_mode_squeezer_through_oracle():
    # exact squeezer on mode 1 of a two-mode truncation; series holds it as
    # the first-order matrix with h = 1 (exactness is not required by the
    # transform path, only the matrix algebra)
    s = 0.6
    n = 2
    alpha1 = np.zeros((n, n), dtype=complex)
    beta1 = np.zeros((n, n), dtype=complex)
    alpha1[0, 0] = 0.0  # diagonal must stay zero in the series type
    series = BogoliubovSeries(n, alpha1, beta1)
    coeffs = evaluate_series(series, 0.0)
    alpha = coeffs.alpha.copy()
    beta = coeffs.beta.copy()
    alpha[0, 0] = np.cosh(s)
    beta[0, 0] = np.sinh(s)
    sq = assemble_symplectic(BogoliubovCoefficients(n, alpha, beta))
    cov = sq @ np.eye(2 * n) @ sq.T
    assert np.allclose(cov[0:2, 0:2], np.diag([np.exp(-2 * s), np.exp(2 * s)]))
    assert np.allclose(cov[2:4, 2:4], np.eye(2))


def test_mode_pair_validation(rng):
    series = canonical_series(rng, 4)
    init = vacuum(2)
    with pytest.raises(ValueError):
        transform_reduced(init, series, 0.0, 2, 2)
    with pytest.raises(ValueError):
        transform_reduced(init, series, 0.0, 1, 5)
    with pytest.raises(ValueError):
        transform_full_oracle(init, series, 0.0, 0, 1)


def test_transformed_states_near_physical(rng):
    series = canonical_series(rng, 5)
    init = initial_product_squeezed(1.0, 1.0)
    h = 1e-4
    out = transform_reduced(init, series, h, 1, 2)
    report = check_physical(out)
    # O(h^2) truncation defect is the documented violation scale
    assert report.min_uncertainty_eig >= -100.0 * h * h * np.abs(out.cov).max()


def test_oracle_equivalence_correlated_initial(rng):
    # nonzero phi_kk' block: two-mode-squeezed initial state exercises the
    # cross-block terms of the reduced path
    from conftest import random_physical_two_mode

    series = canonical_series(rng, 6)
    for _ in range(10):
        init = random_physical_two_mode(rng, mixed=False)
        h = rng.uniform(0, 1e-3)
        red = transform_reduced(init, series, h, 2, 4)
        full = transform_full_oracle(init, series, h, 2, 4)
        assert np.abs(red.cov - full.cov).max() <= 1e-12 * max(1.0, np.abs(full.cov).max())
        assert np.abs(init.cov[0:2, 2:4]).max() > 0  # genuinely correlated draw


def with_second_order(series, rng):
    """series plus a second order: a diagonal alpha2 whose real part is the
    unitarity completion and whose imaginary part is random, of the first
    order's size."""
    completion = 0.5 * (np.sum(abs(series.beta1) ** 2, axis=1) - np.sum(abs(series.alpha1) ** 2, axis=1))
    phase = rng.normal(size=series.n_modes) * np.abs(series.alpha1).max()
    return dataclasses.replace(series, alpha2=completion + 1j * phase)


def assert_map_matches_squeezed_frame(series, r, hs, k=1, kp=2):
    state_at = series_state_map(series, r, k, kp)
    for h in hs:
        new = state_at(h).cov
        old = squeezed_frame_ladder_state(series, r, h, k, kp).cov
        # the squeezed-frame route rounds entries of size e^{2r} before scaling
        # them back; 32 eps of the state's size leaves room for that alone
        tol = 32 * np.finfo(float).eps * max(1.0, np.abs(old).max())
        assert np.abs(new - old).max() <= tol, (r, h)
        assert (new == new.T).all()


@pytest.mark.parametrize("second_order", [False, True])
@pytest.mark.parametrize("tau", [30.0, 2.00013])
@pytest.mark.parametrize("n_max", [50, 200])
@pytest.mark.parametrize("r", [2.0, 5.0, 10.0])
def test_unsqueezed_state_map_matches_lab_frame(rng, r, n_max, tau, second_order):
    # the ladder's states: h = 0 and steps around where H h^2 = 1e-6, up to
    # states whose entries have grown past 1e3
    series = build_scenario_series(CavityScenario(squeezing=r, tau=tau, n_max=n_max))
    h_target = 1e-3 / math.sqrt(series_h0(series, r, 1, 2).value)
    if second_order:
        series = with_second_order(series, rng)
    hs = [0.0] + [f * h_target for f in (0.5, 1, 2, 30, 1e3, 1e5)]
    assert_map_matches_squeezed_frame(series, r, hs)
    # at h = 0 the state is exactly the vacuum
    assert (series_state_map(series, r, 1, 2)(0.0).cov == np.eye(4)).all()


def test_unsqueezed_state_map_random_series(rng):
    # a random dense first order on a non-adjacent pair, either sign of r
    series = canonical_series(rng, 6, scale=0.3)
    for s in (series, with_second_order(series, rng)):
        for r in (0.0, 0.7, -1.3):
            assert_map_matches_squeezed_frame(s, r, [0.0, 1e-4, 3e-3], k=2, kp=5)


def test_unsqueezed_state_map_validation(rng):
    series = canonical_series(rng, 4)
    state_at = unsqueezed_state_map(series.alpha1[[0, 1]], series.beta1[[0, 1]], 1.0, 1, 2)
    with pytest.raises(ValueError):
        state_at(-1e-3)
    with pytest.raises(ValueError):
        unsqueezed_state_map(series.alpha1[[0, 1]], series.beta1[[0, 1]], 1.0, 1, 5)
    # the Gram blocks grow as e^{4r} and leave float64 long before r = 400:
    # a driven state is a NumericError, with no numpy warning on the way,
    # while the h = 0 state is the vacuum
    with np.errstate(over="raise", invalid="raise"):
        state_at = series_state_map(canonical_series(rng, 4), 400.0, 1, 2)
        with pytest.raises(NumericError, match="overflows"):
            state_at(1e-9)
        assert state_at(0.0).cov.tobytes() == np.eye(4).tobytes()


def test_amplitude_whose_square_leaves_float64_is_numeric_error(rng):
    # 1.4e154 ** 2 of a Python float raises OverflowError, not inf
    series = canonical_series(rng, 4)
    state_at = unsqueezed_state_map(series.alpha1[[0, 1]], series.beta1[[0, 1]], 0.0, 1, 2)
    with pytest.raises(NumericError, match="transformed covariance overflows float64"):
        state_at(1.4e154)


@pytest.mark.parametrize("h", [math.nan, math.inf, -1.0])
def test_amplitude_must_be_finite_and_nonnegative(rng, h):
    # an amplitude that is not finite and >= 0 is an argument error that
    # names h, not an overflow of the transformed covariance
    series = build_scenario_series(CavityScenario(n_max=8))
    with pytest.raises(ValueError, match="h must be finite and >= 0"):
        transform_reduced(initial_product_squeezed(1, 1), series, h, 1, 2)
    with pytest.raises(ValueError, match="h must be finite and >= 0"):
        series_state_map(canonical_series(rng, 4), 2.0, 1, 2)(h)


def gram_sum(rows, sigma0, h):
    """The covariance at h of the Gram sum of the orders of ``rows``.

    The own (pair) columns act on sigma0 and the spectator columns on the
    vacuum; the coefficient of h^p sums the Gram blocks (i, j) with
    i + j = p and is symmetrized once.
    """
    q, pair = len(rows.orders), list(rows.pair)
    with np.errstate(over="ignore", invalid="ignore"):
        own = rows.orders[:, :, pair].reshape(4 * q, 4)
        spect = rows.orders.copy()
        spect[:, :, pair] = 0.0
        spect = spect.reshape(4 * q, -1)
        blocks = (spect @ spect.T + own @ sigma0 @ own.T).reshape(q, 4, q, 4)
        coeffs = np.zeros((2 * q - 1, 4, 4))
        for i in range(q):
            for j in range(q):
                coeffs[i + j] += blocks[i, :, j]
        coeffs = (0.5 * (coeffs + coeffs.transpose(0, 2, 1))).reshape(-1, 16)
        return (np.array([h**p for p in range(len(coeffs))]) @ coeffs).reshape(4, 4)


@pytest.mark.parametrize("second_order", [False, True])
def test_state_map_is_gram_sum_of_oracle_orders(rng, second_order):
    # the state map forms the un-squeezed orders itself and keeps them; its
    # states equal, bit for bit, the Gram sum of the orders that the oracle
    # forms with the same arithmetic, so the one call changes no entry
    n = 6
    series = canonical_series(rng, n)
    if second_order:
        series = with_second_order(series, rng)
    squeezed = initial_product_squeezed(0.8, -0.3).cov
    for k, kp in ((1, 2), (4, 1)):
        alpha1, beta1, alpha2 = pair_rows(series, k, kp)
        for r in (0.0, 2.0, 10.0):
            orders = unsqueezed_rows(alpha1, beta1, r, k, kp, alpha2)
            for sigma0, state_at in (
                (np.eye(4), unsqueezed_state_map(alpha1, beta1, r, k, kp, alpha2=alpha2)),
                (squeezed, unsqueezed_state_map(alpha1, beta1, r, k, kp, squeezed, alpha2)),
            ):
                for h in (1e-9, 1e-4):
                    assert (state_at(h).cov == gram_sum(orders, sigma0, h)).all(), (k, kp, r, h)


def block(alpha, beta):
    return symplectic_blocks(np.array([[alpha]], dtype=complex), np.array([[beta]], dtype=complex))


def test_symplectic_blocks_identity():
    assert np.array_equal(block(1, 0), np.eye(2))


def test_symplectic_blocks_phase_rotation():
    assert np.allclose(block(1j, 0), [[0.0, 1.0], [-1.0, 0.0]])


def test_symplectic_blocks_single_mode_squeezer():
    s = 0.8
    blk = block(np.cosh(s), np.sinh(s))
    assert np.allclose(blk, np.diag([np.exp(-s), np.exp(s)]))
