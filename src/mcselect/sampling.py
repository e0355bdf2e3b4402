"""Seeded random streams and the samplers of the priors.

Streams are counter-based (Philox), keyed by (seed, stream index) and
started at a counter slot, so replications can be dealt out to workers in
any order and still produce identical draws, and the slots of one key are
disjoint streams.  Normals come from Box-Muller on the stream's uniforms.
Every sampler draws exactly the uniforms it uses.

The rules and sample-diag draw in the whitened frame z = (theta -
theta_hat) L and keep only q = |z|^2: standard_normal_sq for the Gaussian
and uniform_box_sq for a WhitenedBox.  Rejection runs through one
accept-reject loop on a boolean mask.  The theta-space samplers below
(uniform box, ellipsoid by box rejection, Gaussian and truncated Gaussian)
are the tests' references; no package code calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regions import Box, Ellipsoid, WhitenedBox, bounding_box, mahalanobis_sq

# accept-reject gives up once the running acceptance rate sits below the
# floor after a warmup's worth of proposals
ACCEPTANCE_FLOOR = 1e-4
WARMUP_PROPOSALS = 10_000

_MAX_BLOCK = 1 << 16


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


def random_stream(seed: int, index: int = 0, slot: int = 0) -> np.random.Generator:
    """Independent generator for (seed, index, slot); same triple, same draws.

    Philox's key is [seed, index] and its counter starts at [0, 0, slot, 0],
    so the slots of one key lie 2^128 counter blocks apart and never meet.
    """
    for name, v in (("seed", seed), ("index", index), ("slot", slot)):
        if not isinstance(v, (int, np.integer)) or not 0 <= int(v) < 2**64:
            raise ValueError(f"{name} must be an integer in [0, 2^64), got {v!r}")
    key = np.array([seed, index], dtype=np.uint64)
    counter = np.array([0, 0, slot, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


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
    """|z|^2 of each row of z ~ N(0, I_d), from Box-Muller radii.  A pair's
    squares sum to r^2 = -2 log(1 - U1), so an even d draws the pairs'
    radial uniforms alone, and an odd d also draws one angle per pair,
    whose cos^2 splits r^2.
    """
    pairs = (rows * d + 1) // 2
    sq = -2.0 * np.log(1.0 - rng.random(pairs))
    if d % 2:
        # a row ends inside a pair: split each r^2 into its two squares
        cos_sq = sq * np.cos(2.0 * np.pi * rng.random(pairs)) ** 2
        sq = np.stack((cos_sq, sq - cos_sq), axis=1).ravel()[: rows * d]
    sq = sq.reshape(rows, -1)
    # a BLAS row sum: np.add.reduce over a short axis costs several times more
    return sq @ np.ones(sq.shape[1])


def uniform_box_sq(rng: np.random.Generator, box: WhitenedBox, per: int) -> np.ndarray:
    """|z|^2 of per uniform draws z = u scale + corners[k] in each stratum k
    of box, shape (strata, per), from one (strata * per, d) block of
    uniforms, stratum after stratum."""
    K, d = box.corners.shape
    z = (rng.random((K * per, d)) @ box.scale).reshape(K, per, d)
    z += box.corners[:, None, :]
    # BLAS row sums, as in standard_normal_sq
    return (np.square(z, out=z).reshape(-1, d) @ np.ones(d)).reshape(K, per)


def accept_reject(rng: np.random.Generator, propose, accept, m: int) -> SampleBatch:
    """Draw m points: keep each proposal where accept(points) is True.

    propose(rng, k) must return a (k, d) block; accept maps such a block to
    a boolean mask of shape (k,), so the stream advances by the proposals'
    draws alone.  Raises AcceptanceTooLow if, after WARMUP_PROPOSALS
    proposals, fewer than ACCEPTANCE_FLOOR of them stuck.
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
        keep = np.asarray(accept(points))
        if keep.shape != (block,) or keep.dtype != bool:
            raise ValueError(f"accept returned {keep.dtype} of shape {keep.shape} "
                             f"for block {block}, not a boolean mask")
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
    return lambda points: mahalanobis_sq(e, points) <= e.radius


def sample_uniform_box(rng: np.random.Generator, box: Box, m: int) -> SampleBatch:
    """m i.i.d. uniform points in the box; nothing is rejected."""
    if m < 1:
        raise ValueError(f"need at least one sample, got m={m}")
    points = _box_proposer(box)(rng, m)
    return SampleBatch(points=points, accepted_count=m, proposed_count=m)


def sample_uniform_ellipsoid(rng: np.random.Generator, e: Ellipsoid, m: int) -> SampleBatch:
    """Uniform draws on the ellipsoid: box proposals, membership rejection."""
    return accept_reject(rng, _box_proposer(bounding_box(e)), _ellipsoid_indicator(e), m)


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
