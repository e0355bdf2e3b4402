import math

import numpy as np
import pytest
from scipy import stats

from conftest import FitStub, random_spd
from reference import sample_ellipsoid_direct
from mcselect.numerics import chi2_cdf
from mcselect.regions import Box, bounding_box, build_ellipsoid, mahalanobis_sq
from mcselect.sampling import (
    AcceptanceTooLow,
    accept_reject,
    random_stream,
    sample_gaussian,
    sample_truncated_gaussian,
    sample_uniform_box,
    sample_uniform_ellipsoid,
    standard_normal,
    standard_normal_sq,
)


class TestRandomStream:
    def test_reproducible(self):
        a = random_stream(42, 7).random(1000)
        b = random_stream(42, 7).random(1000)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        a = random_stream(42, 0).random(1000)
        b = random_stream(42, 1).random(1000)
        c = random_stream(43, 0).random(1000)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_stream(-1, 0)
        with pytest.raises(ValueError):
            random_stream(0, 2**64)
        with pytest.raises(ValueError):
            random_stream("seed", 0)
        with pytest.raises(ValueError, match="^slot must be"):
            random_stream(0, 0, -1)
        with pytest.raises(ValueError, match="^slot must be"):
            random_stream(0, 0, 2**64)
        with pytest.raises(ValueError, match="^slot must be"):
            random_stream(0, 0, 1.0)

    def test_slot_zero_is_the_key_alone(self):
        key = np.array([42, 7], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(1000)
        assert np.array_equal(random_stream(42, 7).random(1000), want)
        assert np.array_equal(random_stream(42, 7, 0).random(1000), want)

    @pytest.mark.parametrize("slot", [1, 2, 7, 2**64 - 1])
    def test_slot_is_numpys_jump(self, slot):
        # numpy's Philox.jumped(j) moves the counter j * 2^128 blocks on:
        # an independent reference for the slot's starting counter
        key = np.array([42, 7], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key).jumped(slot)).random(1000)
        assert np.array_equal(random_stream(42, 7, slot).random(1000), want)


class TestStandardNormal:
    def test_shapes(self):
        rng = random_stream(1, 0)
        assert standard_normal(rng, 5).shape == (5,)
        assert standard_normal(rng, (3, 2)).shape == (3, 2)

    def test_deterministic(self):
        a = standard_normal(random_stream(2, 0), 64)
        b = standard_normal(random_stream(2, 0), 64)
        assert np.array_equal(a, b)

    def test_moments(self):
        z = standard_normal(random_stream(3, 0), 200_000)
        assert abs(float(np.mean(z))) < 0.01
        assert abs(float(np.std(z)) - 1.0) < 0.01
        # tail mass sanity: P(|Z| > 2) ~ 0.0455
        assert abs(np.mean(np.abs(z) > 2.0) - 0.0455) < 0.005

    def test_all_finite(self):
        z = standard_normal(random_stream(4, 0), 500_000)
        assert np.all(np.isfinite(z))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            standard_normal(random_stream(5, 0), 0)


class TestStandardNormalSq:
    """Row norms of standard_normal's block from the Box-Muller radii: an even
    d draws only the pairs' radial uniforms, an odd d also draws their angle
    uniforms (rows * d odd included)."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_row_norms(self, d):
        for rows in (1, 2, 3, 63, 64, 333, 1000):
            rng, ref_rng = random_stream(13, 10 * rows + d), random_stream(13, 10 * rows + d)
            z = standard_normal(ref_rng, (rows, d))
            want = np.einsum("ij,ij->i", z, z)
            got = standard_normal_sq(rng, rows, d)
            assert got.shape == (rows,)
            # r^2 - r^2 cos^2 loses relative digits when sin^2 is tiny, not
            # absolute ones
            assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + want))
            pairs = (rows * d + 1) // 2
            advanced = random_stream(13, 10 * rows + d)
            advanced.random(pairs if d % 2 == 0 else 2 * pairs)
            assert rng.random() == advanced.random()


class TestAcceptReject:
    def _unit_box_proposer(self):
        return lambda rng, k: rng.random((k, 1))

    def test_always_accept(self):
        batch = accept_reject(
            random_stream(6, 0), self._unit_box_proposer(), lambda p: np.ones(len(p), bool), 10
        )
        assert batch.points.shape == (10, 1)
        assert batch.acceptance_rate == 1.0
        assert batch.accepted_count == batch.proposed_count

    @pytest.mark.parametrize("m, block", [(10, 64), (100, 100)])
    def test_advances_by_the_proposals(self, m, block):
        # one block of proposals and nothing else: the stream ends where
        # drawing that block leaves it
        rng, ref = random_stream(13, m), random_stream(13, m)
        batch = accept_reject(rng, self._unit_box_proposer(), lambda p: np.ones(len(p), bool), m)
        assert batch.proposed_count == block
        assert np.array_equal(batch.points, ref.random((block, 1))[:m])
        assert np.array_equal(rng.random(9), ref.random(9))

    @pytest.mark.parametrize("accept", [
        lambda p: np.ones(len(p)),  # a 0/1 ratio is not a mask
        lambda p: np.ones(len(p) + 1, bool),
        lambda p: np.ones((len(p), 1), bool),
    ], ids=["float", "long", "column"])
    def test_accept_must_be_a_boolean_mask(self, accept):
        with pytest.raises(ValueError, match="not a boolean mask"):
            accept_reject(random_stream(7, 0), self._unit_box_proposer(), accept, 5)

    def test_zero_ratio_raises_acceptance_too_low(self):
        with pytest.raises(AcceptanceTooLow):
            accept_reject(
                random_stream(9, 0),
                self._unit_box_proposer(),
                lambda p: np.zeros(len(p), bool),
                5,
            )

    def test_indicator_split(self):
        # indicator on the left half keeps only points below the cut
        batch = accept_reject(
            random_stream(11, 0),
            self._unit_box_proposer(),
            lambda p: p[:, 0] < 0.5,
            5_000,
        )
        assert np.all(batch.points[:, 0] < 0.5)
        assert abs(batch.acceptance_rate - 0.5) < 0.02

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            accept_reject(
                random_stream(12, 0), self._unit_box_proposer(),
                lambda p: np.ones(len(p), bool), 0
            )


class TestUniformBox:
    def test_inside_and_deterministic(self):
        box = Box(np.array([-1.0, 2.0]), np.array([1.0, 5.0]))
        a = sample_uniform_box(random_stream(13, 0), box, 5_000)
        b = sample_uniform_box(random_stream(13, 0), box, 5_000)
        assert np.array_equal(a.points, b.points)
        assert np.all(a.points >= box.lo) and np.all(a.points <= box.hi)
        assert a.accepted_count == a.proposed_count == 5_000

    def test_mean_near_center(self):
        box = Box(np.array([0.0]), np.array([1.0]))
        batch = sample_uniform_box(random_stream(14, 0), box, 100_000)
        se = 1.0 / math.sqrt(12.0 * 100_000)
        assert abs(float(np.mean(batch.points)) - 0.5) < 4.0 * se


class TestUniformEllipsoid:
    def test_all_points_inside(self):
        model = FitStub([1.0, -2.0], random_spd(np.random.default_rng(0), 2))
        e = build_ellipsoid(model, 5.0)
        batch = sample_uniform_ellipsoid(random_stream(15, 0), e, 4_000)
        assert batch.points.shape == (4_000, 2)
        assert np.all(mahalanobis_sq(e, batch.points) <= e.radius)
        # direct quadratic form as an independent membership check
        dev = batch.points - e.center
        q = np.einsum("ij,jk,ik->i", dev, model.fim, dev)
        assert np.all(q <= e.radius * (1.0 + 1e-9))

    def test_acceptance_rate_disk(self):
        # disk in its bounding square: pi/4
        e = build_ellipsoid(FitStub([0.0, 0.0], np.eye(2)), 4.0)
        batch = sample_uniform_ellipsoid(random_stream(16, 0), e, 20_000)
        assert abs(batch.acceptance_rate - math.pi / 4.0) < 0.01

    def test_one_dimensional_accepts_everything(self):
        # the bounding box of an interval is the interval itself
        e = build_ellipsoid(FitStub([2.0], [[3.0]]), 8.0)
        batch = sample_uniform_ellipsoid(random_stream(17, 0), e, 50_000)
        assert batch.acceptance_rate == 1.0

    def test_matches_manual_composition(self):
        # the sampler is accept_reject with box proposals and the membership
        # indicator; composing those pieces by hand must reproduce it bitwise
        e = build_ellipsoid(FitStub([1.0, 0.0], [[2.0, 1.0], [1.0, 2.0]]), 6.0)
        box = bounding_box(e)
        lo, widths, d = box.lo, box.widths, box.dim
        manual = accept_reject(
            random_stream(18, 0),
            lambda rng, k: lo + rng.random((k, d)) * widths,
            lambda pts: mahalanobis_sq(e, pts) <= e.radius,
            3_000,
        )
        direct = sample_uniform_ellipsoid(random_stream(18, 0), e, 3_000)
        assert np.array_equal(manual.points, direct.points)
        assert manual.proposed_count == direct.proposed_count

    def test_mean_near_center(self):
        e = build_ellipsoid(FitStub([3.0, -1.0], np.eye(2)), 4.0)
        batch = sample_uniform_ellipsoid(random_stream(19, 0), e, 50_000)
        # uniform on a radius-2 disk: per-axis sd is radius/2 = 1
        se = 1.0 / math.sqrt(50_000)
        assert np.all(np.abs(np.mean(batch.points, axis=0) - e.center) < 5.0 * se)


class _ZeroRadiusStream:
    """Uniform source whose first block is all zeros, so every Box-Muller
    radius, and hence every direction vector z, is exactly zero."""

    def __init__(self):
        self.calls = 0

    def random(self, size):
        self.calls += 1
        return np.zeros(size) if self.calls == 1 else np.full(size, 0.5)


class TestEllipsoidDirect:
    @staticmethod
    def _metric(d, seed=0):
        return random_spd(np.random.default_rng(seed), d, jitter=1.0)

    def _ellipsoid(self, d, seed=0):
        J = self._metric(d, seed)
        return build_ellipsoid(FitStub(np.linspace(-1.0, 2.0, d), J), 6.0 + 2.0 * d)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_all_points_inside(self, d):
        e = self._ellipsoid(d, seed=d)
        batch = sample_ellipsoid_direct(random_stream(27, d), e, 20_000)
        assert batch.points.shape == (20_000, d)
        assert batch.accepted_count == batch.proposed_count == 20_000
        assert np.all(mahalanobis_sq(e, batch.points) <= e.radius)
        dev = batch.points - e.center
        q = np.einsum("ij,jk,ik->i", dev, self._metric(d, seed=d), dev)
        assert np.all(q <= e.radius * (1.0 + 1e-9))

    @pytest.mark.parametrize("d", [1, 3, 6, 8])
    def test_radial_law_is_uniform(self, d):
        # uniform on the ellipsoid <=> (q/mu)^(d/2) ~ U(0, 1)
        e = self._ellipsoid(d, seed=10 + d)
        batch = sample_ellipsoid_direct(random_stream(28, d), e, 20_000)
        v = (mahalanobis_sq(e, batch.points) / e.radius) ** (0.5 * d)
        assert stats.kstest(v, "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_mean_and_covariance(self, d):
        # uniform on {x' J x <= mu} has covariance mu / (d + 2) J^-1
        e = self._ellipsoid(d, seed=20 + d)
        m = 60_000
        batch = sample_ellipsoid_direct(random_stream(29, d), e, m)
        cov_want = e.radius / (d + 2.0) * np.linalg.inv(self._metric(d, seed=20 + d))
        axis_sd = np.sqrt(np.diag(cov_want))
        mean_err = np.abs(np.mean(batch.points, axis=0) - e.center)
        assert np.all(mean_err < 5.0 * axis_sd / math.sqrt(m))
        cov_got = np.atleast_2d(np.cov(batch.points.T))
        assert np.max(np.abs(cov_got - cov_want)) / np.max(np.abs(cov_want)) < 0.03

    def test_deterministic(self):
        e = self._ellipsoid(4)
        a = sample_ellipsoid_direct(random_stream(30, 5), e, 777)
        b = sample_ellipsoid_direct(random_stream(30, 5), e, 777)
        c = sample_ellipsoid_direct(random_stream(30, 6), e, 777)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    @pytest.mark.parametrize("d,m", [(1, 7), (3, 5), (4, 10), (6, 1000)])
    def test_fixed_draw_count(self, d, m):
        # documented: standard_normal(rng, (m, d)) then rng.random(m),
        # i.e. 2 ceil(m d / 2) + m uniforms, whatever the points are
        rng = random_stream(31, d)
        sample_ellipsoid_direct(rng, self._ellipsoid(d), m)
        ref = random_stream(31, d)
        ref.random(2 * ((m * d + 1) // 2) + m)
        assert np.array_equal(rng.random(8), ref.random(8))

    @pytest.mark.parametrize("d", [1, 3])
    def test_zero_direction_stays_finite(self, d):
        e = self._ellipsoid(d)
        batch = sample_ellipsoid_direct(_ZeroRadiusStream(), e, 4)
        assert np.all(np.isfinite(batch.points))
        q = mahalanobis_sq(e, batch.points)
        assert np.allclose(q, e.radius * 0.5 ** (2.0 / d), rtol=1e-12)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            sample_ellipsoid_direct(random_stream(32, 0), self._ellipsoid(2), 0)


class TestGaussian:
    def test_mean_and_covariance(self):
        J = random_spd(np.random.default_rng(1), 3, jitter=1.0)
        model = FitStub([1.0, 2.0, -1.0], J)
        batch = sample_gaussian(random_stream(20, 0), build_ellipsoid(model, 1.0), 60_000)
        cov_want = np.linalg.inv(J)
        axis_sd = np.sqrt(np.diag(cov_want))
        mean_err = np.abs(np.mean(batch.points, axis=0) - model.theta_hat)
        assert np.all(mean_err < 5.0 * axis_sd / math.sqrt(60_000))
        cov_got = np.cov(batch.points.T)
        assert np.max(np.abs(cov_got - cov_want)) / np.max(np.abs(cov_want)) < 0.03

    def test_mahalanobis_is_chi_square(self):
        J = random_spd(np.random.default_rng(2), 4, jitter=1.0)
        model = FitStub(np.zeros(4), J)
        e = build_ellipsoid(model, 1.0)
        batch = sample_gaussian(random_stream(21, 0), e, 50_000)
        q = mahalanobis_sq(e, batch.points)
        for x in (1.0, 4.0, 9.0, 14.0):
            assert abs(float(np.mean(q <= x)) - chi2_cdf(4, x)) < 0.01

    def test_deterministic(self):
        e = build_ellipsoid(FitStub([0.0, 0.0], np.eye(2)), 1.0)
        a = sample_gaussian(random_stream(22, 0), e, 100)
        b = sample_gaussian(random_stream(22, 0), e, 100)
        assert np.array_equal(a.points, b.points)


class TestTruncatedGaussian:
    def test_inside_and_acceptance(self):
        # d=2, mu=10: acceptance ~ P(chi2_2 <= 10) = 1 - e^-5
        model = FitStub([0.5, -0.5], random_spd(np.random.default_rng(3), 2))
        e = build_ellipsoid(model, 10.0)
        batch = sample_truncated_gaussian(random_stream(23, 0), e, 30_000)
        assert np.all(mahalanobis_sq(e, batch.points) <= e.radius)
        assert abs(batch.acceptance_rate - (1.0 - math.exp(-5.0))) < 0.005

    def test_one_dim_acceptance(self):
        # d=1, mu=8: acceptance ~ 0.995
        model = FitStub([1.0], [[2.0]])
        e = build_ellipsoid(model, 8.0)
        batch = sample_truncated_gaussian(random_stream(24, 0), e, 50_000)
        assert abs(batch.acceptance_rate - 0.995) < 0.005

    def test_radial_distribution(self):
        # within the ellipsoid, q follows chi2_d truncated at mu
        model = FitStub(np.zeros(3), np.eye(3))
        mu = 6.0
        e = build_ellipsoid(model, mu)
        batch = sample_truncated_gaussian(random_stream(25, 0), e, 8_000)
        q = np.sort(mahalanobis_sq(e, batch.points))
        rho = chi2_cdf(3, mu)
        want = np.array([chi2_cdf(3, x) / rho for x in q])
        empirical = np.arange(1, q.size + 1) / q.size
        assert np.max(np.abs(empirical - want)) < 0.02

    def test_deterministic(self):
        model = FitStub([0.0, 0.0], np.eye(2))
        e = build_ellipsoid(model, 4.0)
        a = sample_truncated_gaussian(random_stream(26, 0), e, 500)
        b = sample_truncated_gaussian(random_stream(26, 0), e, 500)
        assert np.array_equal(a.points, b.points)
