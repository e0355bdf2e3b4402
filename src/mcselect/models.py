"""Linear-Gaussian regression models on the fixed polynomial family.

A candidate of order n regresses y on powers 0..n-1 of an input grid
equally spaced over [-5, 5].  Noise is i.i.d. Gaussian with a known
variance, so the observed information of the fit is J = (1/sigma^2) Phi' Phi
and the maximized log-likelihood is available in closed form from the
residual sum of squares.

The candidates are nested: the order-d design is the first d columns of
the max-order one, so its J, J's Cholesky factor L and L^-1 are leading
blocks of the max-order ones.  fit_nested factors J and inverts L once for
every order, and each FittedModel carries its blocks of both.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtri

from .numerics import DimensionMismatch, NotPositiveDefinite, cholesky
from .sampling import standard_normal

LOG_2PI = math.log(2.0 * math.pi)


class ParseError(ValueError):
    """A data CSV line could not be interpreted; carries the 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Dataset:
    """Observed responses plus the known noise variance."""

    y: np.ndarray
    noise_variance: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or y.size < 2:
            raise ValueError(f"need a 1-D response vector with >= 2 points, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("responses contain non-finite values")
        if not (self.noise_variance > 0.0 and math.isfinite(self.noise_variance)):
            raise ValueError(f"noise variance must be positive and finite, got {self.noise_variance}")
        object.__setattr__(self, "y", y)

    @property
    def n_points(self) -> int:
        return self.y.size


def polynomial_regressors(n_points: int, order: int) -> np.ndarray:
    """Design matrix with columns base**0 .. base**(order-1).

    base_t = -5 + 10 (t - 1)/(N - 1) for t = 1..N, so the grid runs
    exactly from -5 to 5 regardless of N.
    """
    if n_points < 2:
        raise ValueError(f"need at least 2 points, got {n_points}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    base = -5.0 + 10.0 * np.arange(n_points) / (n_points - 1)
    return np.vander(base, order, increasing=True)


def log_likelihood(data: Dataset, regressors: np.ndarray, theta: np.ndarray) -> float:
    """Gaussian log-density of the data under coefficients theta."""
    phi = np.asarray(regressors, dtype=float)
    th = np.asarray(theta, dtype=float)
    if phi.ndim != 2:
        raise DimensionMismatch(f"regressors must be 2-D, got shape {phi.shape}")
    if phi.shape[0] != data.n_points:
        raise DimensionMismatch(
            f"regressors have {phi.shape[0]} rows but the data has {data.n_points} points"
        )
    if th.shape != (phi.shape[1],):
        raise DimensionMismatch(
            f"theta has shape {th.shape}, expected ({phi.shape[1]},)"
        )
    resid = data.y - phi @ th
    n = data.n_points
    s2 = data.noise_variance
    return float(-0.5 * n * (LOG_2PI + math.log(s2)) - 0.5 * (resid @ resid) / s2)


@dataclass(frozen=True)
class FittedModel:
    """Least-squares fit of one candidate order, with its information matrix.

    fim is the observed information J = (1/sigma^2) Phi' Phi, exactly
    symmetric by construction, chol its lower Cholesky factor L and
    chol_inv the inverse of L; max_loglik is the log-likelihood at theta_hat.
    """

    theta_hat: np.ndarray
    fim: np.ndarray
    chol: np.ndarray
    chol_inv: np.ndarray
    max_loglik: float
    data: Dataset

    @property
    def dim(self) -> int:
        return self.theta_hat.size

    def log_likelihood_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Log-likelihood at each row of thetas, shape (m, dim) -> (m,).

        Evaluated through the residual decomposition
        ll(theta) = max_loglik - (1/2) |(theta - theta_hat) L|^2 with J = L L',
        which is exact for this family, non-negative in the quadratic term,
        and free of cancellation when sigma^2 is tiny.  einsum, unlike a BLAS
        product, gives a row the same bits alone or in a batch.
        """
        t = np.asarray(thetas, dtype=float)
        if t.ndim != 2 or t.shape[1] != self.dim:
            raise DimensionMismatch(f"expected shape (m, {self.dim}), got {t.shape}")
        z = np.einsum("ij,jk->ik", t - self.theta_hat, self.chol)
        return self.max_loglik - 0.5 * np.einsum("ij,ij->i", z, z)


def fit_nested(data: Dataset, regressors: np.ndarray) -> list:
    """Least-squares fits of the first 1, 2, ... columns, from one factor of J.

    Entry d-1 solves J theta = Phi' y / sigma^2 on the first d columns as
    L_d^-T L_d^-1 s, from the leading d x d blocks of J's factor L and of L^-1.
    Entries from the first singular leading block of J on are None.
    """
    phi = np.asarray(regressors, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != data.n_points:
        raise DimensionMismatch(
            f"regressors shape {phi.shape} does not match {data.n_points} data points"
        )
    gram = phi.T @ phi
    fim = 0.5 * (gram + gram.T) / data.noise_variance
    width = k = phi.shape[1]
    while k > 0:
        try:
            L = cholesky(fim[:k, :k])
            break
        except NotPositiveDefinite:
            k -= 1
    if k == 0:
        return [None] * width
    L_inv = dtrtri(L, lower=1)[0]  # info is 0: L's diagonal is positive
    # einsum sums each column over the points in one fixed order, so a
    # column's score has the same bits whatever the number of columns
    score = np.einsum("ij,i->j", phi, data.y) / data.noise_variance
    w = np.einsum("ij,j->i", L_inv, score[:k])
    fits = []
    for d in range(1, k + 1):
        inv = L_inv[:d, :d].copy()
        theta_hat = np.einsum("ji,j->i", inv, w[:d])
        mll = log_likelihood(data, phi[:, :d], theta_hat)
        fits.append(FittedModel(theta_hat, fim[:d, :d].copy(), L[:d, :d].copy(), inv, mll, data))
    return fits + [None] * (width - k)


def fit(data: Dataset, regressors: np.ndarray) -> FittedModel:
    """Least squares via the normal equations; raises NotPositiveDefinite
    when the Gram matrix is singular (e.g. more columns than points)."""
    model = fit_nested(data, regressors)[-1]
    if model is None:
        raise NotPositiveDefinite("the Gram matrix of the regressors is singular")
    return model


def generate_data(rng, order: int, coefficients, sigma2: float, n_points: int) -> Dataset:
    """Simulate the polynomial model: y = Phi coeffs + N(0, sigma2) noise."""
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.shape != (order,):
        raise DimensionMismatch(
            f"got {coeffs.size} coefficients for order {order}"
        )
    phi = polynomial_regressors(n_points, order)
    noise = math.sqrt(sigma2) * standard_normal(rng, n_points)
    return Dataset(phi @ coeffs + noise, sigma2)


def save_dataset_csv(path, data: Dataset) -> None:
    """Write t,y rows (t = 1..N); the noise variance lives in the config."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "y"])
        for t, y in enumerate(data.y, start=1):
            w.writerow([t, f"{y:.17g}"])


def load_dataset_y(path) -> np.ndarray:
    """Read the y column of a t,y CSV written by save_dataset_csv."""
    ys = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and row[0].strip().lower() == "t":
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", lineno)
            try:
                ys.append(float(row[1]))
            except ValueError:
                raise ParseError(f"bad number {row[1]!r}", lineno) from None
    if len(ys) < 2:
        raise ParseError("fewer than 2 data rows", max(len(ys) + 1, 1))
    return np.asarray(ys)
