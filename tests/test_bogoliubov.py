import numpy as np
import pytest

from cavqfi import (
    BogoliubovCoefficients,
    BogoliubovSeries,
    assemble_symplectic,
    evaluate_series,
    initial_product_squeezed,
    transform_full_oracle,
    transform_reduced,
    trivial_series,
    vacuum,
)
from cavqfi.bogoliubov import (
    pair_columns,
    pair_rows,
    series_symplectic_defect,
    symplectic_defect,
)
from conftest import canonical_series


def test_pair_rows_match_full_assembly(rng):
    # R0, S1 and S2 against rows k, k' of the fully assembled S(h); S1 and
    # S2 are separated by evaluating at two amplitudes
    n = 6
    canon = canonical_series(rng, n)
    second = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2)]
    for alpha2, beta2 in ((None, None), (second[0], None), (None, second[1]), tuple(second)):
        series = BogoliubovSeries(n, canon.G, canon.alpha1, canon.beta1, alpha2, beta2)
        for k, kp in ((2, 5), (4, 1)):
            r0, s1, s2 = pair_rows(series, k, kp)
            pair = pair_columns(k, kp)
            assert pair == [2 * k - 2, 2 * k - 1, 2 * kp - 2, 2 * kp - 1]
            assert (s2 is None) == (alpha2 is None and beta2 is None)
            assert s1.shape == (4, 2 * n) and r0.shape == (4, 4)

            def full_rows(h):
                return assemble_symplectic(evaluate_series(series, h))[pair]

            at0 = full_rows(0.0)
            assert np.array_equal(at0[:, pair], r0)
            assert not np.delete(at0, pair, axis=1).any()
            (h1, d1), (h2, d2) = ((h, full_rows(h) - at0) for h in (0.5, 1.0))
            order2 = (d2 / h2 - d1 / h1) / (h2 - h1)
            assert np.abs(d1 / h1 - h1 * order2 - s1).max() <= 1e-13
            assert np.abs(order2 - (0.0 if s2 is None else s2)).max() <= 1e-13
            for h in (1e-4, 3e-2, 0.5, 2.0):
                rows = h * s1 + (0.0 if s2 is None else h * h * s2)
                rows[:, pair] += r0
                full = full_rows(h)
                assert np.abs(rows - full).max() <= 1e-14 * max(1.0, np.abs(full).max())


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
    uni, sym = coeffs.identity_defects()
    assert uni <= 1e-12 and sym <= 1e-12
    assert symplectic_defect(assemble_symplectic(coeffs)) <= 1e-12


def test_series_validation():
    n = 3
    zeros = np.zeros((n, n), dtype=complex)
    with pytest.raises(ValueError):
        BogoliubovSeries(n, 2.0 * np.ones(n), zeros, zeros)  # |G| != 1
    bad = zeros.copy()
    bad[1, 1] = 0.1
    with pytest.raises(ValueError):
        BogoliubovSeries(n, np.ones(n), bad, zeros)  # nonzero diagonal


def test_evaluate_series_zeroth_order(rng):
    series = canonical_series(rng, 4)
    coeffs = evaluate_series(series, 0.0)
    assert np.array_equal(coeffs.alpha, np.diag(series.G))
    assert not coeffs.beta.any()


def test_evaluate_series_linearity(rng):
    series = canonical_series(rng, 4)
    h = 3e-4
    c1 = evaluate_series(series, h)
    c2 = evaluate_series(series, 2 * h)
    assert np.allclose(c2.alpha - np.diag(series.G), 2 * (c1.alpha - np.diag(series.G)))
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
    passive = BogoliubovSeries(n, series.G, series.alpha1, np.zeros((n, n), dtype=complex))
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


def test_oracle_equivalence_second_order(rng):
    # the reduced transform builds only rows k and k' of the coefficients,
    # including the optional h^2 terms, and must match the full assembly
    n = 6
    canon = canonical_series(rng, n)
    second = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2)]
    for alpha2, beta2 in ((second[0], None), (None, second[1]), tuple(second)):
        series = BogoliubovSeries(n, canon.G, canon.alpha1, canon.beta1, alpha2, beta2)
        init = initial_product_squeezed(0.7, -0.4)
        for h in (0.0, 3e-4, 0.2):
            red = transform_reduced(init, series, h, 2, 5)
            full = transform_full_oracle(init, series, h, 2, 5)
            scale = max(1.0, np.abs(full.cov).max())
            assert np.abs(red.cov - full.cov).max() <= 1e-12 * scale


def test_single_mode_squeezer_through_oracle():
    # exact squeezer on mode 1 of a two-mode truncation; series holds it as
    # the first-order matrix with h = 1 (exactness is not required by the
    # transform path, only the matrix algebra)
    s = 0.6
    n = 2
    alpha1 = np.zeros((n, n), dtype=complex)
    beta1 = np.zeros((n, n), dtype=complex)
    alpha1[0, 0] = 0.0  # diagonal must stay zero in the series type
    g = np.ones(n, dtype=complex)
    series = BogoliubovSeries(n, g, alpha1, beta1)
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
    from cavqfi import check_physical

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


def test_first_moments_transform(rng):
    series = canonical_series(rng, 4)
    init_cov = initial_product_squeezed(0.5, 0.2).cov
    from cavqfi import GaussianState

    init = GaussianState(2, np.array([0.3, -0.1, 0.7, 0.2]), init_cov)
    red = transform_reduced(init, series, 1e-3, 1, 3)
    full = transform_full_oracle(init, series, 1e-3, 1, 3)
    assert np.allclose(red.first_moments, full.first_moments, atol=1e-13)
