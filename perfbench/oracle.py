"""Exact log marginal-likelihood targets, computed without the package.

For the linear-Gaussian polynomial family every Monte-Carlo rule has a
closed-form target (d = order, J = Phi'Phi / sigma^2, mll the maximised
log-likelihood, F_d the chi-square CDF, mu = 6 + 2d the package's
documented default radius):

    ue, ueg         mll + (d/2) log 2pi - 1/2 log det J + log F_d(mu) - log vol(E)
    ge              mll - (d/2) log 2 + log F_d(2 mu) - log F_d(mu)
    ub, ub-strat    mll + (d/2) log 2pi - 1/2 log det J + log P(box) - log vol(box)

P(box) is the N(theta_hat, J^-1) mass of the bounding box, from scipy's
Genz integration with a fixed seed: unseeded it moves by ~1e-5 relative
from call to call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

from workloads import grid

LOG_2PI = math.log(2.0 * math.pi)
MVN_SEED = 20220927
TARGET_OF = {"ue": "ue", "ueg": "ue", "ge": "ge", "ub": "ub", "ub-strat": "ub"}


def default_mu(d: int) -> float:
    return 6.0 + 2.0 * d


def max_logliks(y: np.ndarray, max_order: int, sigma2: float) -> list:
    """Maximised log-likelihood of orders 1..max_order, theta_hat by lstsq."""
    x = grid(y.size)
    const = -0.5 * y.size * (LOG_2PI + math.log(sigma2))
    out = []
    for d in range(1, max_order + 1):
        phi = np.vander(x, d, increasing=True)
        theta, *_ = np.linalg.lstsq(phi, y, rcond=None)
        resid = y - phi @ theta
        out.append(const - 0.5 * float(resid @ resid) / sigma2)
    return out


def _design(n_points: int, d: int, sigma2: float) -> dict:
    """The parts of the targets that depend only on the design (N, d)."""
    phi = np.vander(grid(n_points), d, increasing=True)
    r = np.linalg.qr(phi, mode="r")
    # J = R'R / sigma^2, so J^-1 = sigma^2 R^-1 R^-T
    r_inv = np.linalg.inv(r)
    cov = sigma2 * (r_inv @ r_inv.T)
    log_det_j = 2.0 * float(np.sum(np.log(np.abs(np.diag(r))))) - d * math.log(sigma2)
    mu = default_mu(d)
    log_f = float(stats.chi2.logcdf(mu, d))
    log_unit_ball = 0.5 * d * math.log(math.pi) - float(special.gammaln(0.5 * d + 1.0))
    log_vol_e = 0.5 * d * math.log(mu) + log_unit_ball - 0.5 * log_det_j

    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    half = math.sqrt(mu) * np.ones(d)
    mvn = stats.multivariate_normal(mean=np.zeros(d), cov=corr, seed=MVN_SEED)
    p_box = float(mvn.cdf(half, lower_limit=-half))
    log_vol_box = float(np.sum(np.log(2.0 * math.sqrt(mu) * sd)))

    gauss = 0.5 * d * LOG_2PI - 0.5 * log_det_j
    return {
        "ue": gauss + log_f - log_vol_e,
        "ge": -0.5 * d * math.log(2.0) + float(stats.chi2.logcdf(2.0 * mu, d)) - log_f,
        "ub": gauss + math.log(p_box) - log_vol_box,
    }


class Oracle:
    """Exact targets per dataset; design-only parts are computed once per (N, d)."""

    def __init__(self, sigma2: float, max_order: int):
        self.sigma2, self.max_order = sigma2, max_order
        self._designs: dict = {}

    def max_logliks(self, y: np.ndarray) -> list:
        return max_logliks(y, self.max_order, self.sigma2)

    def targets(self, y: np.ndarray) -> list:
        """Per order d = 1..max_order: dict with mll and the ue, ge, ub targets."""
        out = []
        for d, mll in enumerate(self.max_logliks(y), start=1):
            key = (y.size, d)
            if key not in self._designs:
                self._designs[key] = _design(y.size, d, self.sigma2)
            out.append({"mll": mll, **{k: mll + v for k, v in self._designs[key].items()}})
        return out


def closed_form_d1(y: np.ndarray, sigma2: float) -> dict:
    """The d = 1 targets from elementary functions only.

    At d = 1 the ellipsoid is the interval theta_hat +- sqrt(mu / J), the
    bounding box is the same interval, and its Gaussian mass is
    erf(sqrt(mu / 2)); so ue and ub share one target.
    """
    n = y.size
    mu = default_mu(1)
    j = n / sigma2
    rss = float(np.sum((y - y.mean()) ** 2))
    mll = -0.5 * n * (LOG_2PI + math.log(sigma2)) - 0.5 * rss / sigma2
    mass = math.erf(math.sqrt(mu / 2.0))
    target = mll + 0.5 * LOG_2PI - 0.5 * math.log(j) + math.log(mass) - math.log(2.0 * math.sqrt(mu / j))
    mass2 = math.erf(math.sqrt(mu))
    return {
        "mll": mll,
        "ue": target,
        "ub": target,
        "ge": mll - 0.5 * math.log(2.0) + math.log(mass2) - math.log(mass),
    }
