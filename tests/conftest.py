import os

import numpy as np
import pytest
import scipy.linalg

from cavqfi import BogoliubovSeries, GaussianState, symplectic_form


def canonical_series(rng, n_modes, scale=1.0):
    """Random first-order series satisfying the O(h) transformation identities.

    The draw is a lab-frame series: free unit phases G_m and the upper
    triangles of alpha1/beta1; the lower triangles follow from
    alpha_nm = -G_n conj(alpha_mn) G_m and beta_nm = (G_n / G_m) beta_mn,
    which is what makes the symplectic defect of the evaluated series
    O(h^2).  The series returned is its interaction-picture form, row m of
    each matrix times conj(G_m): a diagonal unitary, so it stays canonical.
    """
    theta = rng.uniform(0, 2 * np.pi, n_modes)
    g = np.exp(1j * theta)
    a = np.zeros((n_modes, n_modes), dtype=complex)
    b = np.zeros((n_modes, n_modes), dtype=complex)
    for m in range(n_modes):
        for j in range(m + 1, n_modes):
            a[m, j] = scale * (rng.normal() + 1j * rng.normal())
            b[m, j] = scale * (rng.normal() + 1j * rng.normal())
            a[j, m] = -g[j] * np.conj(a[m, j]) * g[m]
            b[j, m] = (g[j] / g[m]) * b[m, j]
    rotate = np.conj(g)[:, None]
    return BogoliubovSeries(n_modes, rotate * a, rotate * b)


def random_symplectic(rng, n_modes, scale=0.5):
    """exp(Omega Q) with symmetric Q generates the symplectic group."""
    dim = 2 * n_modes
    q = rng.normal(size=(dim, dim)) * scale
    q = 0.5 * (q + q.T)
    omega = symplectic_form(n_modes)
    return scipy.linalg.expm(omega @ q)


def random_physical_two_mode(rng, mixed=True):
    """S diag(nu) S^T: Williamson normal form run backwards.

    Mixed draws keep nu >= 1.0001 so the states sit safely away from the
    pure-state branch point of the fidelity formula.
    """
    if mixed:
        nu = 1.0001 + rng.uniform(0.0, 2.0, size=2)
    else:
        nu = np.ones(2)
    core = np.diag(np.repeat(nu, 2))
    s = random_symplectic(rng, 2, scale=0.4)
    cov = s @ core @ s.T
    return GaussianState(2, 0.5 * (cov + cov.T))


def fock_squeezed_overlap_sq(r, cutoff=60):
    """|<0|S(r)|0>|^2 for one mode from the truncated-ladder matrix exponential.

    Independent of the covariance-matrix machinery: builds the squeeze
    generator (r/2)(adag^2 - a^2) on a photon-number ladder truncated at
    ``cutoff`` and exponentiates it onto the vacuum vector.
    """
    n = np.arange(cutoff + 1)
    a = np.diag(np.sqrt(n[1:]), 1)
    gen = 0.5 * r * (a.T @ a.T - a @ a)
    psi = scipy.linalg.expm(gen)[:, 0]
    return float(psi[0] ** 2)


def child_env(**overrides):
    """Environment for a child interpreter that imports this session's cavqfi.

    The parent environment is kept; the directory holding the imported
    ``cavqfi`` package goes first on ``PYTHONPATH``, however the suite was
    started (``PYTHONPATH=src``, an editable install, pytest's ``pythonpath``),
    and ``overrides`` replace any inherited values.
    """
    import cavqfi

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cavqfi.__file__)))
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + inherited if inherited else "")
    env.update(overrides)
    return env


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
