import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.linalg import cholesky, solve_triangular

from mcselect.models import Dataset, fit, generate_data, polynomial_regressors
from mcselect.sampling import random_stream

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

TRUE_COEFFS = (0.1, 0.1, -0.3, 0.4)


def random_spd(rng, d, jitter=0.5):
    """Well-conditioned random SPD matrix, exactly symmetric."""
    a = rng.random((d, d)) - 0.5
    g = a @ a.T + jitter * np.eye(d)
    return 0.5 * (g + g.T)


def fd_hessian(fun, x, h=1e-4):
    """Central-difference Hessian of a scalar function."""
    d = x.size
    H = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            xpp = x.copy(); xpp[i] += h; xpp[j] += h
            xpm = x.copy(); xpm[i] += h; xpm[j] -= h
            xmp = x.copy(); xmp[i] -= h; xmp[j] += h
            xmm = x.copy(); xmm[i] -= h; xmm[j] -= h
            H[i, j] = (fun(xpp) - fun(xpm) - fun(xmp) + fun(xmm)) / (4.0 * h * h)
    return H


def trapezoid_log_integral(log_f, lo, hi, n):
    """log of the trapezoid estimate of the integral of exp(log_f)."""
    grid = np.linspace(lo, hi, n)
    vals = np.asarray(log_f(grid), dtype=float)
    step = (hi - lo) / (n - 1)
    logw = np.full(n, math.log(step))
    logw[0] += math.log(0.5)
    logw[-1] += math.log(0.5)
    stacked = vals + logw
    m = stacked.max()
    return m + math.log(np.sum(np.exp(stacked - m)))


@pytest.fixture(scope="session")
def cubic_fit():
    """Order-4 fit of one simulated N=100 dataset from the default design."""
    rng = random_stream(20240, 0)
    data = generate_data(rng, 4, TRUE_COEFFS, 1.0, 100)
    return fit(data, polynomial_regressors(100, 4))


@pytest.fixture(scope="session")
def intercept_fit():
    """1-D intercept-only fit on N=20 points."""
    rng = random_stream(20241, 0)
    data = generate_data(rng, 1, (0.3,), 1.0, 20)
    return fit(data, polynomial_regressors(20, 1))


class FitStub:
    """Fitted-model stand-in for regions and samplers: a centre, a metric J,
    J's lower factor and that factor's inverse."""

    def __init__(self, center, metric):
        self.theta_hat = np.asarray(center, dtype=float)
        self.dim = self.theta_hat.size
        self.fim = np.asarray(metric, dtype=float)
        self.chol = cholesky(self.fim, lower=True)
        self.chol_inv = solve_triangular(self.chol, np.eye(self.dim), lower=True)


class ConstantLikelihood(FitStub):
    """Duck-typed stand-in whose likelihood is constant everywhere."""

    def __init__(self, dim, value):
        super().__init__(np.zeros(dim), np.eye(dim))
        self.max_loglik = value

    def log_likelihood_batch(self, thetas):
        t = np.asarray(thetas)
        return np.full(t.shape[0], self.max_loglik)

    def log_likelihood_radial(self, q):
        return np.full(np.shape(q), self.max_loglik)
