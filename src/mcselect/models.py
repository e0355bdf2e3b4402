"""Linear-Gaussian regression models on the fixed polynomial family.

A candidate of order n regresses y on powers 0..n-1 of an input grid
equally spaced over [-5, 5].  Noise is i.i.d. Gaussian with a known
variance, so the observed information of the fit is J = (1/sigma^2) Phi' Phi
and the maximized log-likelihood is available in closed form from the
residual sum of squares.

The candidates are nested: the order-d design is the first d columns of
the max-order one.  A Design orthonormalises those columns once per
(N, max_order, sigma^2) by column-sequential modified Gram-Schmidt, which
gives J's Cholesky factor L = R'/sigma and, by one triangular inverse,
L^-1.  Column j of the basis reads only columns <= j, so every order's
blocks have the same bits whatever max_order is.  fit_nested then only
projects y through the basis, and each FittedModel views its blocks.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtri

from .numerics import DimensionMismatch, NotPositiveDefinite
from .sampling import standard_normal

LOG_2PI = math.log(2.0 * math.pi)

# rank rule: a design's full-rank prefix ends at the first column whose
# residual norm after Gram-Schmidt is at most this fraction of its norm
RANK_RTOL = 1e-10


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
    # column by column, the products np.vander makes, in C order
    phi = np.empty((n_points, order))
    phi[:, 0] = 1.0
    for j in range(1, order):
        np.multiply(phi[:, j - 1], base, out=phi[:, j])
    return phi


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

    chol is the lower Cholesky factor L of the observed information
    J = (1/sigma^2) Phi' Phi and chol_inv the inverse of L, both read-only
    views of the design's blocks; max_loglik is the log-likelihood at
    theta_hat.
    """

    theta_hat: np.ndarray
    chol: np.ndarray
    chol_inv: np.ndarray
    max_loglik: float
    data: Dataset

    @property
    def dim(self) -> int:
        return self.theta_hat.size

    @property
    def fim(self) -> np.ndarray:
        """J = L L', exactly symmetric: J_ij and J_ji sum the same products."""
        return np.einsum("ik,jk->ij", self.chol, self.chol)

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


@dataclass(frozen=True)
class Design:
    """Phi's full-rank prefix as basis R (basis orthonormal, column-major),
    with J's factor chol = R'/sigma and its inverse; all read-only.  width
    counts Phi's columns, fitted or not."""

    basis: np.ndarray
    chol: np.ndarray
    chol_inv: np.ndarray
    sigma2: float
    width: int

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


def build_design(regressors: np.ndarray, sigma2: float) -> Design:
    """Column-sequential modified Gram-Schmidt on Phi, then one dtrtri.
    einsum on a contiguous column sums in one fixed order, so column j's
    bits depend only on columns <= j."""
    phi = np.asarray(regressors, dtype=float)
    if phi.ndim != 2:
        raise DimensionMismatch(f"regressors must be 2-D, got shape {phi.shape}")
    n, width = phi.shape
    basis = np.empty((n, width), order="F")
    r = np.zeros((width, width))
    rank = 0
    while rank < width:
        v = phi[:, rank].copy()
        norm = math.sqrt(np.einsum("i,i->", v, v))
        for i in range(rank):
            r[i, rank] = np.einsum("i,i->", basis[:, i], v)
            v -= r[i, rank] * basis[:, i]
        r[rank, rank] = math.sqrt(np.einsum("i,i->", v, v))
        if not r[rank, rank] > RANK_RTOL * norm:
            break
        basis[:, rank] = v / r[rank, rank]
        rank += 1
    chol = r[:rank, :rank].T / math.sqrt(sigma2)
    # info is 0: chol's diagonal is positive
    chol_inv = dtrtri(chol, lower=1)[0] if rank else chol.copy()
    arrays = (basis[:, :rank], np.ascontiguousarray(chol), np.ascontiguousarray(chol_inv))
    for a in arrays:
        a.flags.writeable = False
    return Design(*arrays, float(sigma2), width)


@functools.lru_cache(maxsize=1)
def polynomial_design(n_points: int, max_order: int, sigma2: float) -> Design:
    """The design of one cell, cached: experiment tasks come grouped by N,
    so one slot serves a run while holding one design in memory."""
    return build_design(polynomial_regressors(n_points, max_order), sigma2)


def fit_nested(data: Dataset, design: Design) -> list:
    """Least-squares fits of the first 1, 2, ... columns of the design.

    Projecting y through the basis one column at a time (augmented MGS)
    leaves c = basis' y and each order's residual, so theta_hat_d =
    L_d^-T c_d / sigma and max_loglik come out of one pass.  Entries past
    the design's full-rank prefix are None.
    """
    if (design.basis.shape[0], design.sigma2) != (data.n_points, data.noise_variance):
        raise DimensionMismatch("the design's N or sigma2 does not match the data")
    s2 = data.noise_variance
    peak = -0.5 * data.n_points * (LOG_2PI + math.log(s2))
    resid = data.y.copy()
    w = np.empty(design.rank)
    fits = []
    for d in range(1, design.rank + 1):
        q = design.basis[:, d - 1]
        c = np.einsum("i,i->", q, resid)
        resid -= c * q
        w[d - 1] = c / math.sqrt(s2)
        inv = design.chol_inv[:d, :d]
        theta_hat = np.einsum("ji,j->i", inv, w[:d])
        mll = float(peak - 0.5 * np.einsum("i,i->", resid, resid) / s2)
        fits.append(FittedModel(theta_hat, design.chol[:d, :d], inv, mll, data))
    return fits + [None] * (design.width - design.rank)


def fit(data: Dataset, regressors: np.ndarray) -> FittedModel:
    """Least squares on all columns; raises NotPositiveDefinite when the
    regressors are rank-deficient (e.g. more columns than points)."""
    model = fit_nested(data, build_design(regressors, data.noise_variance))[-1]
    if model is None:
        raise NotPositiveDefinite("the regressors are rank-deficient")
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
    """Read the y column of a t,y CSV; a BOM, blank lines and a header are skipped."""
    ys = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if not ys and row[0].strip().lower() == "t":
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", lineno)
            try:
                ys.append(float(row[1]))
            except ValueError:
                raise ParseError(f"bad number {row[1]!r}", lineno) from None
            if not math.isfinite(ys[-1]):
                raise ParseError(f"non-finite number {row[1]!r}", lineno)
    if len(ys) < 2:
        raise ParseError("fewer than 2 data rows", max(len(ys) + 1, 1))
    return np.asarray(ys)
