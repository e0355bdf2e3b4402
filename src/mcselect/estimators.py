"""Marginal-likelihood estimators and the penalized-likelihood baselines.

Each Monte-Carlo estimator averages likelihood values (or importance
weights) over draws from a data-centered prior and reports the result in
the log domain together with a delta-method standard error of the log:

    ue        uniform prior on the concentration ellipsoid
    ueg       same prior, but importance-sampled from N(theta_hat, J^-1)
    ge        Gaussian prior truncated to the ellipsoid
    ub        uniform prior on the ellipsoid's bounding box
    ub-strat  ub with the box split into equal-mass strata

aic/bic score -2 max_loglik + gamma * dim with gamma = 2 and log N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import chi2_cdf
from .regions import Box, BoxPartition, Ellipsoid, ellipsoid_log_volume, mahalanobis_sq
from .sampling import (
    sample_ellipsoid_direct,
    sample_gaussian,
    sample_truncated_gaussian,
    sample_uniform_box,
)

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class MarginalEstimate:
    """A log marginal-likelihood estimate with its Monte-Carlo error."""

    log_value: float
    mc_std_error_log: float
    samples_used: int
    method: str


@dataclass(frozen=True)
class CriterionScore:
    """Penalized-likelihood score; smaller is better."""

    value: float
    gamma: float
    method: str


def aic(model) -> CriterionScore:
    return CriterionScore(
        value=-2.0 * model.max_loglik + 2.0 * model.dim, gamma=2.0, method="aic"
    )


def bic(model, n_samples: int) -> CriterionScore:
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2, got {n_samples}")
    gamma = math.log(n_samples)
    return CriterionScore(
        value=-2.0 * model.max_loglik + gamma * model.dim, gamma=gamma, method="bic"
    )


def _check_samples(m: int) -> None:
    if m < 2:
        raise ValueError(f"need at least 2 Monte-Carlo samples, got m={m}")


def _log_mean_and_se(log_weights: np.ndarray) -> tuple[float, float]:
    """Log of the weight mean and the delta-method std error of the log.

    se(log p_hat) ~ sd(w) / (mean(w) sqrt(M)); the common shift cancels.
    """
    shift = float(np.max(log_weights))
    if shift == -math.inf:
        return -math.inf, 0.0
    w = np.exp(log_weights - shift)
    mean_w = float(np.mean(w))
    log_mean = shift + math.log(mean_w)
    se = float(np.std(w, ddof=1)) / (mean_w * math.sqrt(w.size))
    return log_mean, se


def ue_estimate(rng, model, e: Ellipsoid, m: int) -> MarginalEstimate:
    """Average likelihood over a uniform draw on the ellipsoid."""
    _check_samples(m)
    batch = sample_ellipsoid_direct(rng, e, m)
    log_mean, se = _log_mean_and_se(model.log_likelihood_batch(batch.points))
    return MarginalEstimate(log_mean, se, m, "ue")


def _gaussian_log_density(e: Ellipsoid, points: np.ndarray) -> np.ndarray:
    # log N(points; center, J^-1), with (1/2) log det J = sum log diag L
    half_log_det = float(np.sum(np.log(np.diag(e.chol))))
    return half_log_det - 0.5 * e.dim * LOG_2PI - 0.5 * mahalanobis_sq(e, points)


def ueg_estimate(rng, model, e: Ellipsoid, m: int) -> MarginalEstimate:
    """Importance-sampled uniform-ellipsoid estimate.

    Draws come from N(theta_hat, J^-1) without truncation; the uniform
    prior enters through the mass factor

        log p_hat = log rho - log vol(e) + log mean(p / g)

    with rho the chi-square mass of the ellipsoid.  For the linear
    Gaussian family p/g is constant, so the Monte-Carlo error vanishes.
    """
    _check_samples(m)
    batch = sample_gaussian(rng, e, m)
    log_w = model.log_likelihood_batch(batch.points) - _gaussian_log_density(
        e, batch.points
    )
    log_mean, se = _log_mean_and_se(log_w)
    rho = chi2_cdf(model.dim, e.radius)
    log_value = math.log(rho) - ellipsoid_log_volume(e) + log_mean
    return MarginalEstimate(log_value, se, m, "ueg")


def ge_estimate(rng, model, e: Ellipsoid, m: int) -> MarginalEstimate:
    """Average likelihood under the truncated-Gaussian prior."""
    _check_samples(m)
    batch = sample_truncated_gaussian(rng, e, m)
    log_mean, se = _log_mean_and_se(model.log_likelihood_batch(batch.points))
    return MarginalEstimate(log_mean, se, m, "ge")


def ub_estimate(rng, model, box: Box, m: int) -> MarginalEstimate:
    """Average likelihood over a uniform draw on the bounding box."""
    _check_samples(m)
    batch = sample_uniform_box(rng, box, m)
    log_mean, se = _log_mean_and_se(model.log_likelihood_batch(batch.points))
    return MarginalEstimate(log_mean, se, m, "ub")


def _strata_var(w: np.ndarray, weight: float) -> np.ndarray:
    """Variance term (weight sd / sqrt(n))^2 of each row's mean; w is (strata, n)."""
    return (weight * np.std(w, axis=1, ddof=1) / math.sqrt(w.shape[1])) ** 2


def ub_stratified_estimate(rng, model, part: BoxPartition, m: int) -> MarginalEstimate:
    """Stratified version of ub_estimate over an equal-mass partition.

    Each of the K strata gets max(1, round(m/K)) draws; stratum means are
    combined with weight 1/K, which can only reduce the variance relative
    to pooling the same draws.  A single-stratum partition reproduces
    ub_estimate draw for draw.

    The draws come from one (K * per, d) block of uniforms, stratum after
    stratum, and the sums run in stratum order.  With one draw per stratum
    there is no within-stratum variance; the SE then comes from Cochran's
    collapsed strata: adjacent pairs (the last three as a triple when K is
    odd) are treated as strata, which overstates the variance by the spread
    between their means instead of reporting zero.
    """
    _check_samples(m)
    mass = part.mass
    K = part.count
    per = max(1, round(mass * m))
    lo, hi = part.bounds()
    points = rng.random((K * per, part.box.dim))
    points *= np.repeat(hi - lo, per, axis=0)
    points += np.repeat(lo, per, axis=0)
    ll = model.log_likelihood_batch(points)
    shift = float(np.max(ll))
    if shift == -math.inf:
        return MarginalEstimate(-math.inf, 0.0, per * K, "ub-strat")
    w = np.exp(ll - shift).reshape(K, per)
    total = float(np.cumsum(mass * np.mean(w, axis=1))[-1])
    if per >= 2:
        terms = _strata_var(w, mass)
    else:
        y = w[:, 0]
        cut = K - 3 if K % 2 else K
        terms = _strata_var(y[:cut].reshape(-1, 2), 2.0 * mass)
        if cut < K:
            terms = np.append(terms, _strata_var(y[cut:].reshape(1, 3), 3.0 * mass))
    var_total = float(np.cumsum(terms)[-1])
    log_value = shift + math.log(total)
    se = math.sqrt(var_total) / total
    return MarginalEstimate(log_value, se, per * K, "ub-strat")


def stratification_segments(m: int, max_dim: int) -> int:
    """Largest per-axis split L with L^max_dim <= m (at least 1)."""
    if m < 1 or max_dim < 1:
        raise ValueError(f"need m >= 1 and max_dim >= 1, got {m}, {max_dim}")
    L = max(1, int(round(m ** (1.0 / max_dim))))
    while L > 1 and L**max_dim > m:
        L -= 1
    while (L + 1) ** max_dim <= m:
        L += 1
    return L

