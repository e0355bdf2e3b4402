"""Linear-Gaussian regression models on the fixed polynomial family.

A candidate of order n regresses y on powers 0..n-1 of an input grid
equally spaced over [-5, 5].  Noise is i.i.d. Gaussian with a known
variance, so the observed information of the fit is J = (1/sigma^2) Phi' Phi
and the maximized log-likelihood is available in closed form from the
residual sum of squares.

The candidates are nested: the order-d design is the first d columns of
the max-order one.  A Design orthonormalises those columns once per
(N, max_order, sigma^2) by column-sequential modified Gram-Schmidt, which
gives J's Cholesky factor L = R'/sigma and, by forward substitution in
numpy, L^-1.  Column j of the basis and row j of L^-1 read only the
leading (j+1) x (j+1) block, so every order's blocks have the same bits
whatever max_order is.  No run path imports scipy.  fit_nested then only
projects y through the basis, and each FittedModel views its blocks and
keeps its design, whose cached boxes the box rules score.
"""

from __future__ import annotations

import csv
import functools
import math
import mmap
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import DimensionMismatch, NotPositiveDefinite
from .regions import WhitenedBox, box_halfwidths, whiten_box
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
    """Least-squares fit of one candidate order, with its information factor.

    chol is the lower Cholesky factor L of the observed information
    J = (1/sigma^2) Phi' Phi and chol_inv the inverse of L, both read-only
    views of the blocks of design, the Design the fit came from;
    max_loglik is the log-likelihood at theta_hat.
    """

    theta_hat: np.ndarray
    chol: np.ndarray
    chol_inv: np.ndarray
    max_loglik: float
    data: Dataset
    design: Design = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.theta_hat.size

    def log_likelihood_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Log-likelihood at each row of thetas, shape (m, dim) -> (m,): the
        radial one at q = |(theta - theta_hat) L|^2 with J = L L'.  einsum,
        unlike a BLAS product, gives a row the same bits alone or in a batch.
        """
        t = np.asarray(thetas, dtype=float)
        if t.ndim != 2 or t.shape[1] != self.dim:
            raise DimensionMismatch(f"expected shape (m, {self.dim}), got {t.shape}")
        z = np.einsum("ij,jk->ik", t - self.theta_hat, self.chol)
        return self.log_likelihood_radial(np.einsum("ij,ij->i", z, z))

    def log_likelihood_radial(self, q: np.ndarray) -> np.ndarray:
        """ll = max_loglik - q/2 at whitened squared distance q: exact for this
        family and free of cancellation when sigma^2 is tiny."""
        return self.max_loglik - 0.5 * q


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
    _boxes: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def box(self, order: int, mu: float, segments: int) -> WhitenedBox:
        """The whitened bounding box of an order's ellipsoid at radius mu,
        split into segments per axis; built once and dropped with the design."""
        key = (order, mu, segments)
        if key not in self._boxes:
            half = box_halfwidths(self.chol_inv[:order, :order], mu)
            self._boxes[key] = whiten_box(-half, half, self.chol[:order, :order], segments)
        return self._boxes[key]


def build_design(regressors: np.ndarray, sigma2: float) -> Design:
    """Column-sequential modified Gram-Schmidt on Phi, then L^-1 by forward
    substitution.  einsum sums in one fixed order, so column j of the basis
    and row j of L^-1 depend only on the leading (j+1) x (j+1) block."""
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
    chol = np.ascontiguousarray(r[:rank, :rank].T / math.sqrt(sigma2))
    # row i of L L^-1 = I: L[i,i] X[i,i] = 1, L[i,:i] X[:i,:i] + L[i,i] X[i,:i] = 0
    chol_inv = np.zeros((rank, rank))
    for i in range(rank):
        chol_inv[i, i] = 1.0 / chol[i, i]
        chol_inv[i, :i] = -np.einsum("j,jk->k", chol[i, :i], chol_inv[:i, :i]) / chol[i, i]
    arrays = (basis[:, :rank], chol, chol_inv)
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
        fits.append(FittedModel(theta_hat, design.chol[:d, :d], inv, mll, data, design))
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
    """Read the y column of a t,y CSV; a BOM, blank lines and a header are skipped.

    A well-formed file takes one C-level parse; any file that parse refuses
    is read again by the row loop, which accepts or rejects it as before.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            y = _parse_plain(fh)
        except (ValueError, Warning):  # also UnicodeDecodeError
            y = None
    return _load_y_by_rows(path) if y is None else y


def _parse_plain(fh) -> np.ndarray | None:
    """y from plain `t,y` lines by one np.loadtxt pass, or None where the
    row loop could decide otherwise: a blank first line, a row without
    exactly two fields that loadtxt reads as numbers (so no quotes, `1_0`
    or non-ASCII digits, and with comments=None no `0.5#c`), fewer than two
    rows, a non-finite y, or a line that may hold a field over the csv
    module's limit.  Universal newlines turn CRLF and CR into LF, and
    loadtxt gives y float()'s bits.  A pipe is left unread for the loop."""
    if not (fh.seekable() and _within_field_limit(fh.fileno())):
        return None
    first = fh.readline()
    if not first.strip():
        return None
    header = first.split(",", 1)[0].strip().lower() == "t"
    fh.seek(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. loadtxt's "input contained no data"
        rows = np.loadtxt(fh, delimiter=",", comments=None, skiprows=int(header), ndmin=2)
    if rows.shape[0] < 2 or rows.shape[1] != 2 or not np.isfinite(rows[:, 1]).all():
        return None
    return rows[:, 1].copy()


def _within_field_limit(fd: int) -> bool:
    """No run of limit + 1 bytes without a line break, so no field over
    csv.field_size_limit() characters: every aligned block of limit // 2 + 1
    bytes holds a break.  memchr finds one within a line of each block's
    start, so this reads a page per block, not the file."""
    block = csv.field_size_limit() // 2 + 1
    size = os.fstat(fd).st_size
    if size < 2 * block - 1:
        return True
    with mmap.mmap(fd, 0, access=mmap.ACCESS_READ) as mm:
        return all(mm.find(b"\n", i, i + block) >= 0 or mm.find(b"\r", i, i + block) >= 0
                   for i in range(0, size - block + 1, block))


def _load_y_by_rows(path) -> np.ndarray:
    """The reference parser: one csv row at a time, naming the bad line."""
    ys = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for lineno, row in enumerate(reader, start=1):
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
    except csv.Error as err:  # e.g. a field longer than csv.field_size_limit()
        raise ParseError(str(err), reader.line_num) from None
    except UnicodeDecodeError:
        # the codec's offset counts from its read buffer, not the file, so
        # name the first line whose bytes do not survive a UTF-8 round trip
        with open(path, "rb") as fh:
            line = next((i for i, raw in enumerate(fh, start=1)
                         if raw.decode("utf-8", "replace").encode() != raw), 1)
        raise ParseError("not UTF-8 text", line) from None
    if len(ys) < 2:
        raise ParseError("fewer than 2 data rows", max(len(ys) + 1, 1))
    return np.asarray(ys)
