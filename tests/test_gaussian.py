import numpy as np
import pytest

from cavqfi import (
    GaussianState,
    check_physical,
    initial_product_squeezed,
    partial_trace,
    purity,
    symplectic_form,
    vacuum,
)
from cavqfi.errors import NumericError
from conftest import random_symplectic


def test_symplectic_form_single_mode():
    om = symplectic_form(1)
    assert np.array_equal(om, [[0.0, 1.0], [-1.0, 0.0]])
    assert not om.flags.writeable


def test_symplectic_form_two_modes_block_diagonal():
    om = symplectic_form(2)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[2, 3] = 1.0
    expected[1, 0] = expected[3, 2] = -1.0
    assert np.array_equal(om, expected)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_symplectic_form_orthogonal(n):
    om = symplectic_form(n)
    assert np.allclose(om @ om.T, np.eye(2 * n))
    assert np.allclose(om @ om, -np.eye(2 * n))


def test_initial_squeezed_vacuum_limit():
    assert np.array_equal(initial_product_squeezed(0, 0).cov, np.eye(4))


def test_initial_squeezed_diagonal():
    st = initial_product_squeezed(1, 1)
    assert np.allclose(np.diag(st.cov), [np.e**2, np.e**-2, np.e**2, np.e**-2])
    assert not st.first_moments.any()


def test_initial_squeezed_extreme_still_physical():
    st = initial_product_squeezed(10, 10)
    assert np.allclose(np.diag(st.cov), [np.e**20, np.e**-20] * 2)
    assert check_physical(st).ok


def test_partial_trace_vacuum():
    st = partial_trace(vacuum(2), [1])
    assert np.array_equal(st.cov, np.eye(2))


def test_partial_trace_product_marginal():
    st = partial_trace(initial_product_squeezed(0.7, 1.3), [2])
    assert np.allclose(np.diag(st.cov), [np.exp(2.6), np.exp(-2.6)])


def test_partial_trace_keep_all_is_identity():
    st = initial_product_squeezed(0.3, -0.4)
    out = partial_trace(st, [1, 2])
    assert np.array_equal(out.cov, st.cov)


def test_partial_trace_order_preserved():
    st = initial_product_squeezed(0.5, 1.0)
    swapped = partial_trace(st, [2, 1])
    assert np.allclose(np.diag(swapped.cov), [np.exp(2.0), np.exp(-2.0), np.exp(1.0), np.exp(-1.0)])


def test_partial_trace_rejects_bad_modes():
    st = vacuum(2)
    with pytest.raises(ValueError):
        partial_trace(st, [3])
    with pytest.raises(ValueError):
        partial_trace(st, [])
    with pytest.raises(ValueError):
        partial_trace(st, [1, 1])


def test_purity_vacuum_and_squeezed():
    assert purity(vacuum(2)) == pytest.approx(1.0, abs=1e-12)
    assert purity(initial_product_squeezed(3, 7)) == pytest.approx(1.0, rel=1e-9)


def test_purity_thermal_quarter():
    st = GaussianState(2, np.zeros(4), 2.0 * np.eye(4))
    assert purity(st) == pytest.approx(0.25, rel=1e-12)


def test_purity_invalid_state_raises():
    st = GaussianState(1, np.zeros(2), np.diag([1.0, -1.0]))
    with pytest.raises(NumericError):
        purity(st)


def test_purity_symplectic_invariance(rng):
    st = initial_product_squeezed(1.2, 0.4)
    for _ in range(5):
        s = random_symplectic(rng, 2)
        transformed = GaussianState(2, np.zeros(4), s @ st.cov @ s.T)
        assert purity(transformed) == pytest.approx(purity(st), rel=1e-9)


def test_vacuum_fixed_point_under_symplectics(rng):
    for _ in range(10):
        s = random_symplectic(rng, 2)
        st = GaussianState(2, np.zeros(4), s @ s.T)
        assert check_physical(st).ok


def test_check_physical_vacuum():
    report = check_physical(vacuum(2))
    assert report.ok
    assert report.violations == ()


def test_check_physical_uncertainty_violation():
    st = GaussianState(2, np.zeros(4), np.diag([0.1, 0.1, 1.0, 1.0]))
    report = check_physical(st)
    assert not report.ok
    assert report.min_uncertainty_eig < -1e-10
    assert any("uncertainty" in v for v in report.violations)


def test_asymmetric_cov_rejected_at_construction():
    cov = np.eye(4)
    cov[0, 1] = 1e-6
    with pytest.raises(ValueError):
        GaussianState(2, np.zeros(4), cov)


def test_constructed_states_satisfy_uncertainty(rng):
    for _ in range(20):
        r1, r2 = rng.uniform(-2, 2, size=2)
        report = check_physical(initial_product_squeezed(r1, r2))
        assert report.min_uncertainty_eig >= -1e-10


def test_traced_pure_product_marginals_are_pure():
    st = initial_product_squeezed(0.9, 1.7)
    for keep in ([1], [2]):
        reduced = partial_trace(st, keep)
        sub = GaussianState(1, reduced.first_moments, reduced.cov)
        assert purity(sub) == pytest.approx(1.0, abs=1e-10)
