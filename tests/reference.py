"""Theta-space references that the tests compare the package's kernels with.

No package code calls these: the rules score the whitened squared distance
q, and these spell out what q stands for in theta-space.

    fim(model)                 the observed information J = L L'
    exact_tril_inverse(L)      L^-1 of a float lower factor, in rationals
    box_log_volume(box)        log of a Box's volume
    sample_ellipsoid_direct    exact uniform draws on an Ellipsoid
    Routed(*streams)           one generator's random() over several streams

A kernel draws only the uniforms it uses, and a theta-space sampler draws
more (directions, angles, all of a Gaussian).  Routed lets a reference take
the kernel's uniforms from the kernel's stream and the rest from another.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import cycle

import numpy as np

from mcselect.sampling import SampleBatch, standard_normal


def fim(model) -> np.ndarray:
    """J = L L' of a fit, exactly symmetric: J_ij and J_ji sum the same products."""
    return np.einsum("ik,jk->ij", model.chol, model.chol)


def exact_tril_inverse(L) -> list:
    """The exact inverse of the float lower-triangular L, as rows of Fractions:
    forward substitution with no rounding, so it judges a float L^-1."""
    d = len(L)
    a = [[Fraction(float(x)) for x in row] for row in L]
    inv = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        inv[i][i] = 1 / a[i][i]
        for k in range(i):
            inv[i][k] = -sum(a[i][j] * inv[j][k] for j in range(k, i)) / a[i][i]
    return inv


class Routed:
    """Stands in for a generator that only random() is asked of: the k-th
    call draws from streams[k % len(streams)]."""

    def __init__(self, *streams):
        self._next = cycle(streams)

    def random(self, size):
        return next(self._next).random(size)


def box_log_volume(box) -> float:
    return float(np.sum(np.log(box.widths)))


def sample_ellipsoid_direct(rng, e, m: int) -> SampleBatch:
    """m uniform draws on the ellipsoid, without rejection.

    A point of the radius-sqrt(mu) ball is a direction z/|z| with
    z ~ N(0, I_d) times the radius sqrt(mu) U^(1/d); theta = center + L^-T v
    maps the ball onto the ellipsoid (J = L L', and L^-1 is chol_inv).  The
    stream advances by exactly standard_normal(rng, (m, d)) and then
    rng.random(m): 2 ceil(m d / 2) + m uniforms, whatever the point values.
    ue_estimate draws only the m radii.
    """
    if m < 1:
        raise ValueError(f"need at least one sample, got m={m}")
    d = e.dim
    z = standard_normal(rng, (m, d))
    u = rng.random(m)
    norm = np.sqrt(np.einsum("ij,ij->i", z, z))
    # |z| = 0 needs a zero Box-Muller radius (probability 2^-53 per pair);
    # any fixed direction keeps the draw finite and the count unchanged
    flat = norm == 0.0
    z[flat, 0] = 1.0
    norm[flat] = 1.0
    v = z * (math.sqrt(e.radius) * u ** (1.0 / d) / norm)[:, None]
    points = e.center + np.einsum("ij,jk->ik", v, e.chol_inv)
    return SampleBatch(points=points, accepted_count=m, proposed_count=m)
