"""Seeded random streams and the samplers of the priors.

Streams are counter-based (Philox) and keyed by (seed, stream index), so
replications can be dealt out to workers in any order and still produce
identical draws.  Normals come from Box-Muller on the stream's uniforms.

The exact uniform-ellipsoid draw takes a normalised Gaussian direction
(Muller 1959; Marsaglia 1972) at a uniform radius in the ball, mapped onto
the ellipsoid.  The rejection samplers share one accept-reject loop, so a
seed yields the same points however a sampler is composed.  The ue, ueg
and ge kernels take the same uniforms but score only the whitened radius:
ge's proposals are the row norms of standard_normal_sq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regions import Box, Ellipsoid, bounding_box, mahalanobis_sq

# accept-reject gives up once the running acceptance rate sits below the
# floor after a warmup's worth of proposals
ACCEPTANCE_FLOOR = 1e-4
WARMUP_PROPOSALS = 10_000

_MAX_BLOCK = 1 << 16
_RATIO_TOL = 1e-9


class AcceptanceTooLow(RuntimeError):
    """Accept-reject acceptance rate stayed below ACCEPTANCE_FLOOR."""


@dataclass(frozen=True)
class SampleBatch:
    """Points plus raw accept-reject counters for rate diagnostics.

    accepted_count counts every accepted proposal, so it can exceed
    len(points) when the final block overshoots the request.
    """

    points: np.ndarray
    accepted_count: int
    proposed_count: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted_count / self.proposed_count


def random_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, index); same pair, same draws."""
    for name, v in (("seed", seed), ("index", index)):
        if not isinstance(v, (int, np.integer)) or not 0 <= int(v) < 2**64:
            raise ValueError(f"{name} must be an integer in [0, 2^64), got {v!r}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """N(0,1) draws of the given shape via Box-Muller.

    Uses 1 - U for the radial uniform so the log argument stays in (0, 1].
    """
    shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
    n = int(np.prod(shape)) if shape else 1
    if n < 1:
        raise ValueError(f"need at least one draw, got shape {shape}")
    pairs = (n + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:n].reshape(shape)


def standard_normal_sq(rng: np.random.Generator, rows: int, d: int) -> np.ndarray:
    """|z|^2 of each row of z = standard_normal(rng, (rows, d)), from the same
    uniforms.  A Box-Muller pair's squares sum to r^2 = -2 log(1 - U1), so an
    even d skips the angle block and an odd d takes one cos^2 per pair.
    """
    pairs = (rows * d + 1) // 2
    sq = -2.0 * np.log(1.0 - rng.random(pairs))
    if d % 2:
        # a row ends inside a pair: split each r^2 into its two squares
        cos_sq = sq * np.cos(2.0 * np.pi * rng.random(pairs)) ** 2
        sq = np.stack((cos_sq, sq - cos_sq), axis=1).ravel()[: rows * d]
    else:
        skip_uniforms(rng, pairs)
    sq = sq.reshape(rows, -1)
    # a BLAS row sum: np.add.reduce over a short axis costs several times more
    return sq @ np.ones(sq.shape[1])


def skip_uniforms(rng: np.random.Generator, n: int) -> None:
    """Advance rng as rng.random(n) would: a double takes one 64-bit word."""
    rng.bit_generator.random_raw(n, output=False)


def accept_reject(rng: np.random.Generator, propose, density_ratio, m: int) -> SampleBatch:
    """Draw m points: accept a proposal theta with probability density_ratio(theta).

    propose(rng, k) must return a (k, d) block; density_ratio maps such a
    block to values in [0, 1] (an indicator may return booleans).  Raises
    AcceptanceTooLow if, after WARMUP_PROPOSALS proposals, fewer than
    ACCEPTANCE_FLOOR of them stuck.
    """
    if m < 1:
        raise ValueError(f"need at least one sample, got m={m}")
    kept: list[np.ndarray] = []
    accepted = 0
    proposed = 0
    block = min(max(m, 64), _MAX_BLOCK)
    while accepted < m:
        points = np.asarray(propose(rng, block), dtype=float)
        if points.ndim != 2 or points.shape[0] != block:
            raise ValueError(f"proposer returned shape {points.shape} for block {block}")
        ratio = np.asarray(density_ratio(points), dtype=float)
        if ratio.shape != (block,):
            raise ValueError(f"density ratio returned shape {ratio.shape} for block {block}")
        if ratio.max() > 1.0 + _RATIO_TOL or ratio.min() < -_RATIO_TOL:
            bad = ratio[(ratio > 1.0 + _RATIO_TOL) | (ratio < -_RATIO_TOL)][0]
            raise ValueError(f"density ratio {bad:g} outside [0, 1]")
        # u in [0, 1) keeps the same points as against the ratio clipped to
        # [0, 1]: a ratio within the tolerance above 1 always, below 0 never
        keep = rng.random(block) < ratio
        if np.any(keep):
            kept.append(points[keep])
            accepted += int(np.count_nonzero(keep))
        proposed += block
        if proposed >= WARMUP_PROPOSALS and accepted < proposed * ACCEPTANCE_FLOOR:
            raise AcceptanceTooLow(
                f"{accepted}/{proposed} proposals accepted "
                f"(rate below {ACCEPTANCE_FLOOR:g})"
            )
        if accepted < m:
            rate = max(accepted / proposed, ACCEPTANCE_FLOOR)
            want = int(1.1 * (m - accepted) / rate) + 1
            block = min(max(want, 64), _MAX_BLOCK)
    return SampleBatch(
        points=np.concatenate(kept)[:m],
        accepted_count=accepted,
        proposed_count=proposed,
    )


def _box_proposer(box: Box):
    lo, widths, d = box.lo, box.widths, box.dim
    return lambda rng, k: lo + rng.random((k, d)) * widths


def _ellipsoid_indicator(e: Ellipsoid):
    return lambda points: (mahalanobis_sq(e, points) <= e.radius).astype(float)


def sample_uniform_box(rng: np.random.Generator, box: Box, m: int) -> SampleBatch:
    """m i.i.d. uniform points in the box; nothing is rejected."""
    if m < 1:
        raise ValueError(f"need at least one sample, got m={m}")
    points = _box_proposer(box)(rng, m)
    return SampleBatch(points=points, accepted_count=m, proposed_count=m)


def sample_uniform_ellipsoid(rng: np.random.Generator, e: Ellipsoid, m: int) -> SampleBatch:
    """Uniform draws on the ellipsoid: box proposals, membership rejection."""
    return accept_reject(rng, _box_proposer(bounding_box(e)), _ellipsoid_indicator(e), m)


def sample_ellipsoid_direct(rng: np.random.Generator, e: Ellipsoid, m: int) -> SampleBatch:
    """m uniform draws on the ellipsoid, without rejection.

    A point of the radius-sqrt(mu) ball is a direction z/|z| with
    z ~ N(0, I_d) times the radius sqrt(mu) U^(1/d); theta = center + L^-T v
    maps the ball onto the ellipsoid (J = L L', and L^-1 is chol_inv).  The
    stream advances by exactly standard_normal(rng, (m, d)) and then
    rng.random(m): 2 ceil(m d / 2) + m uniforms, whatever the point values.
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


def _gaussian_proposer(e: Ellipsoid):
    center, inv_l, d = e.center, e.chol_inv, e.dim
    return lambda rng, k: center + standard_normal(rng, (k, d)) @ inv_l


def sample_gaussian(rng: np.random.Generator, e: Ellipsoid, m: int) -> SampleBatch:
    """m draws from N(center, J^-1), the Gaussian of the ellipsoid.

    For a fitted model's concentration ellipsoid that is N(theta_hat, J^-1);
    the draw is z L^-1 with z ~ N(0, I_d) and L^-1 the ellipsoid's chol_inv.
    """
    if m < 1:
        raise ValueError(f"need at least one sample, got m={m}")
    points = _gaussian_proposer(e)(rng, m)
    return SampleBatch(points=points, accepted_count=m, proposed_count=m)


def sample_truncated_gaussian(rng: np.random.Generator, e: Ellipsoid, m: int) -> SampleBatch:
    """N(center, J^-1) conditioned on the ellipsoid, by rejection.

    Proposals come from the ellipsoid's center and chol_inv; for a fitted
    model's concentration ellipsoid those are its theta_hat and L^-1.
    """
    return accept_reject(rng, _gaussian_proposer(e), _ellipsoid_indicator(e), m)
