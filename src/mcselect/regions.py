"""Concentration ellipsoids, their bounding boxes, and box partitions.

The prior support for a fitted candidate is the ellipsoid
(theta - theta_hat)' J (theta - theta_hat) <= mu around the estimate,
with J the observed information.  The ellipsoid takes the fitted model's
Cholesky factor L of J and L^-1 instead of factoring or solving again.  The
axis-aligned bounding box has halfwidth sqrt(mu * (J^-1)_kk) along axis k,
and can be split into equal segments per axis for stratified sampling.
A WhitenedBox holds such a split as seen from the center in the whitened
frame z = (theta - center) L, where the likelihood is a function of |z|^2
alone; its shape depends on L and mu, not on the center, so a cell builds
it once (Design.box) and only the collapse checks run at each center.
Every rule and sample-diag work in that frame.  No package code calls the
theta-space Ellipsoid, Box and BoxPartition any more; they stay as the
references of the whitened kernels' tests and of the benchmark's tracer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import DimensionMismatch, unit_ball_volume

PARTITION_CAP = 10**6


class PartitionTooLarge(ValueError):
    """Requested partition would exceed PARTITION_CAP sub-boxes."""


class BoxCollapsed(ArithmeticError, ValueError):
    """A box or sub-box is narrower than float64 resolution at its bounds.

    A numerical failure like NotPositiveDefinite, and a ValueError like the
    bound check of Box, which it runs ahead of.
    """


def default_mu(dim: int) -> float:
    """Radius 6 + 2 d: ellipsoid mass ~0.995+ under the chi-square law."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return 6.0 + 2.0 * dim


@dataclass(frozen=True)
class Ellipsoid:
    """Region (theta - center)' J (theta - center) <= radius.

    chol is the lower Cholesky factor L of J and chol_inv its inverse, both
    taken from the fitted model; samplers, densities and volumes reuse them.
    """

    center: np.ndarray
    radius: float
    chol: np.ndarray = field(repr=False)
    chol_inv: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.center.size


def build_ellipsoid(model, mu: float) -> Ellipsoid:
    """Concentration ellipsoid of a fitted model at squared radius mu."""
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    return Ellipsoid(
        center=np.asarray(model.theta_hat, dtype=float),
        radius=float(mu),
        chol=np.asarray(model.chol, dtype=float),
        chol_inv=np.asarray(model.chol_inv, dtype=float),
    )


def mahalanobis_sq(e: Ellipsoid, thetas: np.ndarray) -> np.ndarray:
    """(theta - c)' J (theta - c) for each row; shape (m, d) -> (m,)."""
    t = np.asarray(thetas, dtype=float)
    if t.ndim != 2 or t.shape[1] != e.dim:
        raise DimensionMismatch(f"expected shape (m, {e.dim}), got {t.shape}")
    # q = |L' (theta - c)|^2 keeps the form non-negative in floating point
    z = (t - e.center) @ e.chol
    return np.einsum("ij,ij->i", z, z)


def ellipsoid_log_volume(e: Ellipsoid) -> float:
    """log of vol = mu^(d/2) V_d / sqrt(det J), with sqrt(det J) = prod diag L."""
    d = e.dim
    return (
        0.5 * d * math.log(e.radius)
        + math.log(unit_ball_volume(d))
        - float(np.sum(np.log(np.diag(e.chol))))
    )


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_k, hi_k] per axis."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionMismatch(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        if lo.size == 0:
            raise ValueError("empty box")
        if not np.all(hi > lo):
            raise ValueError("each upper bound must exceed its lower bound")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo


def box_halfwidths(chol_inv: np.ndarray, mu: float) -> np.ndarray:
    """sqrt(mu (J^-1)_kk) per axis: J^-1 = L^-T L^-1 makes (J^-1)_kk the sum
    of squares of column k of L^-1."""
    return np.sqrt(mu * np.sum(chol_inv * chol_inv, axis=0))


def _require_width(lo, hi, what: str) -> None:
    if not np.all(hi > lo):
        raise BoxCollapsed(f"order {lo.shape[-1]}: {what} is below float64 resolution")


def bounding_box(e: Ellipsoid) -> Box:
    """Tightest axis-aligned box around the ellipsoid.

    Along axis k the ellipsoid reaches center_k +- sqrt(mu (J^-1)_kk).
    Raises BoxCollapsed when a halfwidth vanishes against the center.
    """
    half = box_halfwidths(e.chol_inv, e.radius)
    lo, hi = e.center - half, e.center + half
    _require_width(lo, hi, "the bounding box")
    return Box(lo, hi)


@dataclass(frozen=True)
class BoxPartition:
    """Split of a box into segments-per-axis equal sub-boxes.

    Sub-boxes are indexed 0 .. segments^dim - 1 in row-major order (last
    axis fastest).  bounds() gives all of them as arrays, sub_box() one of
    them as a Box; all have equal volume, so each carries prior mass
    1/count.
    """

    box: Box
    segments: int

    @property
    def count(self) -> int:
        return self.segments ** self.box.dim

    @property
    def mass(self) -> float:
        return 1.0 / self.count

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of every sub-box, each of shape (count, dim), in index order."""
        d, L = self.box.dim, self.segments
        idx = np.indices((L,) * d, dtype=float).reshape(d, -1).T
        return _sub_bounds(self.box.lo, self.box.hi, idx, L)

    def sub_box(self, k: int) -> Box:
        if not 0 <= k < self.count:
            raise IndexError(f"sub-box index {k} out of range [0, {self.count})")
        d, L = self.box.dim, self.segments
        if L == 1:
            return self.box
        idx = np.array(np.unravel_index(k, (L,) * d), dtype=float)
        return Box(*_sub_bounds(self.box.lo, self.box.hi, idx, L))


def _sub_bounds(lo, hi, idx, segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the sub-boxes with per-axis indices idx of [lo, hi] split
    into segments per axis.  They interpolate between the parent bounds, so
    neighbouring sub-boxes share edges exactly and the outer faces coincide
    with the parent's."""
    f0 = idx / segments
    f1 = (idx + 1.0) / segments
    sub_lo = lo * (1.0 - f0) + hi * f0
    sub_hi = lo * (1.0 - f1) + hi * f1
    _require_width(sub_lo, sub_hi, "a sub-box")
    return sub_lo, sub_hi


def partition(box: Box, segments: int) -> BoxPartition:
    """Equal split with segments >= 1 per axis; total count is capped."""
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    count = segments ** box.dim
    if count > PARTITION_CAP:
        raise PartitionTooLarge(
            f"{segments}^{box.dim} = {count} sub-boxes exceeds the cap of {PARTITION_CAP}"
        )
    return BoxPartition(box=box, segments=segments)


@dataclass(frozen=True)
class WhitenedBox:
    """A box center + [lo, hi] split into segments^dim equal strata, in the
    whitened frame z = (theta - center) L.  A uniform u on the unit cube maps
    to z = u scale + corners[k] in stratum k (row-major order, as in
    BoxPartition), with scale = diag((hi - lo) / segments) L.
    """

    lo: np.ndarray
    hi: np.ndarray
    segments: int
    scale: np.ndarray = field(repr=False)
    corners: np.ndarray = field(repr=False)

    def check(self, center: np.ndarray) -> None:
        """bounding_box's and BoxPartition.bounds()'s BoxCollapsed checks at
        this center.  A sub-box's bounds along an axis depend only on its
        index there, so the sub-box check runs on segments x dim bounds."""
        lo, hi = center + self.lo, center + self.hi
        _require_width(lo, hi, "the bounding box")
        _sub_bounds(lo, hi, np.arange(float(self.segments))[:, None], self.segments)


def whiten_box(lo: np.ndarray, hi: np.ndarray, chol: np.ndarray, segments: int) -> WhitenedBox:
    """The strata of the box center + [lo, hi] under J = L L'; the bounding
    box of an ellipsoid at radius mu is lo = -half, hi = half with half =
    box_halfwidths(L^-1, mu)."""
    d = lo.size
    step = (hi - lo) / segments
    idx = np.indices((segments,) * d, dtype=float).reshape(d, -1).T
    corners = np.einsum("ij,jk->ik", lo + idx * step, chol)
    return WhitenedBox(lo, hi, segments, step[:, None] * chol, corners)
