"""Marginal-likelihood estimators and the penalized-likelihood baselines.

Each Monte-Carlo estimator averages likelihood values (or importance
weights) over draws from a data-centered prior and reports the result in
the log domain together with a delta-method standard error of the log.
Every rule works on the whitened squared distance q alone (see
FittedModel.log_likelihood_radial), so each takes only what fixes its
prior there, with its signature (rng, model, prior, m):

    ue        uniform prior on the concentration ellipsoid
    ueg       same prior, importance-sampled from N(theta_hat, J^-1): closed form
    ge        Gaussian prior truncated to the ellipsoid
    ub        uniform prior on the ellipsoid's bounding box
    ub-strat  ub with the box split into equal-mass strata

ue, ueg and ge take the radius mu of the ellipsoid
(theta - theta_hat)' J (theta - theta_hat) <= mu.  ub and ub-strat take
the WhitenedBox of its bounding box (Design.box), of one segment for ub,
which is the one-stratum case of ub-strat's kernel.  Each draws from rng
exactly what it uses, and ueg draws nothing.

aic/bic score -2 max_loglik + gamma * dim with gamma = 2 and log N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import chi2_cdf, unit_ball_volume
from .regions import WhitenedBox
from .sampling import AcceptanceTooLow, accept_reject, standard_normal_sq, uniform_box_sq

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


def _check(m: int, mu: float = 1.0) -> None:
    """At least two draws and, for the rules that take one, a positive
    finite radius; the default stands in for the box rules."""
    if m < 2:
        raise ValueError(f"need at least 2 Monte-Carlo samples, got m={m}")
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu}")


def _log_mean_and_se(log_weights: np.ndarray) -> tuple[float, float]:
    """Log of the weight mean and the delta-method std error of the log.

    se(log p_hat) ~ sd(w) / (mean(w) sqrt(M)); the common shift cancels.
    """
    shift = float(np.maximum.reduce(log_weights))
    if shift == -math.inf:
        return -math.inf, 0.0
    w = np.exp(log_weights - shift)
    # the reductions np.mean and np.std(ddof=1) run, without their wrappers
    n = w.size
    mean_w = float(np.add.reduce(w) / n)
    w -= mean_w
    sd = math.sqrt(np.add.reduce(np.square(w, out=w)) / (n - 1))
    return shift + math.log(mean_w), sd / (mean_w * math.sqrt(n))


def ue_estimate(rng, model, mu: float, m: int) -> MarginalEstimate:
    """Average likelihood over a uniform draw on the ellipsoid of radius mu.

    A uniform point of the whitened ball is a direction at radius
    sqrt(mu) U^(1/d), so its q = mu U^(2/d) whatever the direction: only
    the m radii are drawn.
    """
    _check(m, mu)
    d = model.dim
    q = (math.sqrt(mu) * rng.random(m) ** (1.0 / d)) ** 2
    log_mean, se = _log_mean_and_se(model.log_likelihood_radial(q))
    return MarginalEstimate(log_mean, se, m, "ue")


def ueg_estimate(rng, model, mu: float, m: int) -> MarginalEstimate:
    """Importance-sampled uniform-ellipsoid estimate, in closed form.

    Draws from g = N(theta_hat, J^-1) without truncation would enter as

        log p_hat = log F_d(mu) - log vol + log mean(p / g)

    with F_d the chi-square CDF, vol = mu^(d/2) V_d / sqrt(det J) and
    log(p / g) = mll - log sqrt(det J) + (d/2) log 2 pi at every draw for
    the linear Gaussian family.  det J cancels, so the error is zero and
    the value is mll + log F_d(mu) - (d/2) log mu - log V_d + (d/2) log 2 pi,
    and nothing is drawn.
    """
    _check(m, mu)
    d = model.dim
    log_value = (model.max_loglik + math.log(chi2_cdf(d, mu)) - 0.5 * d * math.log(mu)
                 - math.log(unit_ball_volume(d)) + 0.5 * d * LOG_2PI)
    return MarginalEstimate(log_value, 0.0, m, "ueg")


def ge_estimate(rng, model, mu: float, m: int) -> MarginalEstimate:
    """Average likelihood under the Gaussian prior truncated to the ellipsoid
    of radius mu: rejection on the squared norms q = |z|^2 of whitened
    proposals z ~ N(0, I_d), kept when q <= mu.  A stalled sampler's
    AcceptanceTooLow names the order."""
    _check(m, mu)
    d = model.dim
    try:
        batch = accept_reject(rng, lambda r, k: standard_normal_sq(r, k, d)[:, None],
                              lambda q: q[:, 0] <= mu, m)
    except AcceptanceTooLow as err:
        raise AcceptanceTooLow(f"order {d}: {err}") from None
    log_mean, se = _log_mean_and_se(model.log_likelihood_radial(batch.points[:, 0]))
    return MarginalEstimate(log_mean, se, m, "ge")


def ub_estimate(rng, model, box: WhitenedBox, m: int) -> MarginalEstimate:
    """Average likelihood over a uniform draw on the bounding box, given as
    its one-segment WhitenedBox."""
    return _box_estimate(rng, model, box, m, "ub")


def _strata_var(w: np.ndarray, weight: float) -> np.ndarray:
    """Variance term (weight sd / sqrt(n))^2 of each row's mean; w is (strata, n).
    The reductions of np.std(w, axis=1, ddof=1), without its wrapper."""
    n = w.shape[1]
    dev = w - np.add.reduce(w, axis=1, keepdims=True) / n
    sd = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=1) / (n - 1))
    return (weight * sd / math.sqrt(n)) ** 2


def ub_stratified_estimate(rng, model, box: WhitenedBox, m: int) -> MarginalEstimate:
    """Stratified version of ub_estimate over the equal-mass strata of box.

    Each of the K strata gets max(1, round(m/K)) draws; stratum means are
    combined with weight 1/K, which can only reduce the variance relative
    to pooling the same draws.  A single-stratum partition is ub_estimate.

    The draws come from one (K * per, d) block of uniforms, stratum after
    stratum, and the sums run in stratum order.  With one draw per stratum
    there is no within-stratum variance; the SE then comes from Cochran's
    collapsed strata: adjacent pairs (the last three as a triple when K is
    odd) are treated as strata, which overstates the variance by the spread
    between their means instead of reporting zero.
    """
    return _box_estimate(rng, model, box, m, "ub-strat")


def _box_estimate(rng, model, box: WhitenedBox, m: int, method: str) -> MarginalEstimate:
    """The box rules on the whitened box: stratum k's draws are z = u scale +
    corners[k], scored by q = |z|^2; only the collapse checks see theta_hat."""
    _check(m)
    box.check(model.theta_hat)
    K = box.corners.shape[0]
    mass = 1.0 / K
    per = max(1, round(mass * m))
    ll = model.log_likelihood_radial(uniform_box_sq(rng, box, per))
    if K == 1:  # the plain mean: one stratum, so no strata to combine
        return MarginalEstimate(*_log_mean_and_se(ll[0]), per, method)
    shift = float(np.max(ll))
    if shift == -math.inf:
        return MarginalEstimate(-math.inf, 0.0, per * K, method)
    w = np.exp(ll - shift)
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
    return MarginalEstimate(log_value, se, per * K, method)


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

