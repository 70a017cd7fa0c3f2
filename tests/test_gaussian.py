import numpy as np
import pytest

from cavqfi import GaussianState, initial_product_squeezed, symplectic_form
from conftest import random_symplectic
from oracles import check_physical, partial_trace, vacuum


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


def test_vacuum_fixed_point_under_symplectics(rng):
    for _ in range(10):
        s = random_symplectic(rng, 2)
        st = GaussianState(2, s @ s.T)
        assert check_physical(st).ok


def test_check_physical_vacuum():
    report = check_physical(vacuum(2))
    assert report.ok
    assert report.violations == ()


def test_check_physical_uncertainty_violation():
    st = GaussianState(2, np.diag([0.1, 0.1, 1.0, 1.0]))
    report = check_physical(st)
    assert not report.ok
    assert report.min_uncertainty_eig < -1e-10
    assert any("uncertainty" in v for v in report.violations)


def test_state_leaves_the_callers_array_writeable():
    # a state holds a read-only covariance of its own: a writeable array
    # passed in is copied, neither frozen in place nor shared
    arr = np.eye(4)
    st = GaussianState(2, arr)
    assert arr.flags.writeable
    assert not st.cov.flags.writeable
    arr[0, 0] = 5.0
    assert st.cov[0, 0] == 1.0
    # a read-only array that owns its data is adopted as it is
    assert GaussianState(2, st.cov).cov is st.cov


def test_asymmetric_cov_rejected_at_construction():
    cov = np.eye(4)
    cov[0, 1] = 1e-6
    with pytest.raises(ValueError):
        GaussianState(2, cov)


def test_constructed_states_satisfy_uncertainty(rng):
    for _ in range(20):
        r1, r2 = rng.uniform(-2, 2, size=2)
        report = check_physical(initial_product_squeezed(r1, r2))
        assert report.min_uncertainty_eig >= -1e-10

