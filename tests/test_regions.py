import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular

from conftest import TRUE_COEFFS, FitStub, random_spd
from reference import box_log_volume
from mcselect.models import fit, generate_data, polynomial_regressors
from mcselect.numerics import DimensionMismatch
from mcselect.regions import (
    PARTITION_CAP,
    Box,
    BoxCollapsed,
    PartitionTooLarge,
    bounding_box,
    build_ellipsoid,
    default_mu,
    ellipsoid_log_volume,
    mahalanobis_sq,
    partition,
)
from mcselect.sampling import random_stream


def test_default_mu():
    assert default_mu(1) == 8.0
    assert default_mu(2) == 10.0
    assert default_mu(4) == 14.0
    assert default_mu(10) == 26.0
    with pytest.raises(ValueError):
        default_mu(0)


class TestEllipsoid:
    def test_mahalanobis_matches_direct_form(self):
        rng = np.random.default_rng(0)
        J = random_spd(rng, 3)
        c = rng.random(3)
        e = build_ellipsoid(FitStub(c, J), 5.0)
        pts = c + rng.random((40, 3)) - 0.5
        got = mahalanobis_sq(e, pts)
        direct = np.array([(p - c) @ J @ (p - c) for p in pts])
        assert np.allclose(got, direct, rtol=1e-10, atol=1e-12)

    def test_dimension_checks(self):
        e = build_ellipsoid(FitStub([0.0, 0.0], np.eye(2)), 1.0)
        with pytest.raises(DimensionMismatch):
            mahalanobis_sq(e, np.zeros((5, 3)))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_ellipsoid(FitStub([0.0], [[1.0]]), 0.0)

    def test_log_volume_disk(self):
        # identity metric, mu = 10: area pi * 10
        e = build_ellipsoid(FitStub([0.0, 0.0], np.eye(2)), 10.0)
        assert math.isclose(ellipsoid_log_volume(e), math.log(10.0 * math.pi), rel_tol=1e-12)

    def test_log_volume_scaled(self):
        # det J = 4: area = pi * mu / sqrt(det J) = pi
        e = build_ellipsoid(FitStub([0.0, 0.0], np.diag([4.0, 1.0])), 2.0)
        assert math.isclose(ellipsoid_log_volume(e), math.log(math.pi), rel_tol=1e-12)

    def test_log_volume_interval(self):
        # d=1: length 2 sqrt(mu / J)
        e = build_ellipsoid(FitStub([3.0], [[4.0]]), 4.0)
        assert math.isclose(ellipsoid_log_volume(e), math.log(2.0), rel_tol=1e-12)

    def test_log_volume_ball(self):
        e = build_ellipsoid(FitStub([0.0] * 3, np.eye(3)), 1.0)
        assert math.isclose(
            ellipsoid_log_volume(e), math.log(4.0 * math.pi / 3.0), rel_tol=1e-12
        )


class TestBoundingBox:
    def test_identity_metric(self):
        e = build_ellipsoid(FitStub([1.0, -1.0], np.eye(2)), 4.0)
        b = bounding_box(e)
        assert np.allclose(b.lo, [-1.0, -3.0], atol=1e-12)
        assert np.allclose(b.hi, [3.0, 1.0], atol=1e-12)

    def test_diagonal_metric(self):
        e = build_ellipsoid(FitStub([0.0, 0.0], np.diag([4.0, 1.0])), 4.0)
        b = bounding_box(e)
        assert np.allclose(b.widths, [2.0, 4.0], rtol=1e-12)

    def test_collapsed_box_names_the_order(self):
        # halfwidth sqrt(1e-40) = 1e-20 vanishes against a center of 1
        e = build_ellipsoid(FitStub([0.0, 1.0], np.diag([1.0, 1e40])), 1.0)
        with pytest.raises(BoxCollapsed, match="order 2"):
            bounding_box(e)

    def test_correlated_hand_case(self):
        # J = [[2,1],[1,2]], mu = 3: (J^-1)_kk = 2/3, halfwidth sqrt(2)
        e = build_ellipsoid(FitStub([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]]), 3.0)
        b = bounding_box(e)
        assert np.allclose(b.widths, [2.0 * math.sqrt(2.0)] * 2, rtol=1e-12)

    @given(st.integers(1, 5), st.integers(0, 2000))
    @settings(max_examples=40)
    def test_tight_and_enclosing(self, d, seed):
        rng = np.random.default_rng(seed)
        J = random_spd(rng, d)
        c = rng.random(d)
        mu = 1.0 + 4.0 * rng.random()
        e = build_ellipsoid(FitStub(c, J), mu)
        b = bounding_box(e)
        # boundary points theta = c + sqrt(mu) L^-T u for unit u stay inside
        # the box, and the per-axis extremes are attained
        L = cholesky(J, lower=True)
        u = rng.standard_normal((400, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        back = solve_triangular(L, u.T, lower=True, trans="T").T
        pts = c + math.sqrt(mu) * back
        assert np.all(pts >= b.lo - 1e-9)
        assert np.all(pts <= b.hi + 1e-9)
        half = 0.5 * b.widths
        axis_reach = np.sqrt(mu * np.sum(solve_triangular(L, np.eye(d), lower=True) ** 2, axis=0))
        assert np.allclose(axis_reach, half, rtol=1e-9)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            Box(np.array([0.0]), np.array([1.0, 2.0]))

    def test_box_volume_and_membership(self):
        b = Box(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
        assert math.isclose(box_log_volume(b), math.log(4.0), rel_tol=1e-14)


class TestPartition:
    def _box(self):
        return Box(np.array([0.0, -1.0]), np.array([2.0, 1.0]))

    def test_identity_partition(self):
        part = partition(self._box(), 1)
        assert part.count == 1
        assert part.mass == 1.0
        sub = part.sub_box(0)
        assert np.array_equal(sub.lo, part.box.lo)
        assert np.array_equal(sub.hi, part.box.hi)

    def test_quadrants(self):
        part = partition(self._box(), 2)
        assert part.count == 4
        assert part.mass == 0.25
        # row-major, last axis fastest: sub-box 1 is low-x, high-y
        sub = part.sub_box(1)
        assert np.allclose(sub.lo, [0.0, 0.0], atol=1e-15)
        assert np.allclose(sub.hi, [1.0, 1.0], atol=1e-15)

    def test_edges_shared_exactly(self):
        b = Box(np.array([0.1]), np.array([0.9]))
        part = partition(b, 4)
        for k in range(3):
            assert part.sub_box(k).hi[0] == part.sub_box(k + 1).lo[0]
        assert part.sub_box(0).lo[0] == b.lo[0]
        assert part.sub_box(3).hi[0] == b.hi[0]

    def test_tiles_volume(self):
        part = partition(self._box(), 3)
        total = sum(np.prod(part.sub_box(k).widths) for k in range(part.count))
        assert math.isclose(total, np.prod(part.box.widths), rel_tol=1e-12)

    def test_masses_sum_to_one(self):
        part = partition(self._box(), 5)
        assert math.isclose(part.mass * part.count, 1.0, rel_tol=1e-15)

    def test_cap(self):
        b = Box(np.zeros(6), np.ones(6))
        with pytest.raises(PartitionTooLarge):
            partition(b, 11)  # 11^6 > 1e6
        part = partition(b, 10)  # exactly the cap
        assert part.count == PARTITION_CAP

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            partition(self._box(), 0)

    def test_out_of_range_index(self):
        part = partition(self._box(), 2)
        with pytest.raises(IndexError):
            part.sub_box(4)

    @pytest.mark.parametrize("segments", [1, 2, 3])
    def test_bounds_match_sub_boxes(self, segments):
        b = Box(np.array([0.1, -2.0, 3.0]), np.array([0.9, 1.5, 7.0]))
        part = partition(b, segments)
        lo, hi = part.bounds()
        assert lo.shape == hi.shape == (part.count, 3)
        for k in range(part.count):
            sub = part.sub_box(k)
            assert np.array_equal(lo[k], sub.lo)
            assert np.array_equal(hi[k], sub.hi)

    def test_collapsed_sub_box_rejected(self):
        # at 1e16 the float spacing is 2, so eighths of a width-4 box collapse
        part = partition(Box(np.array([1e16]), np.array([1e16 + 4.0])), 8)
        with pytest.raises(ValueError):
            part.bounds()
        with pytest.raises(ValueError):
            part.sub_box(0)


class TestCoverage:
    def test_ellipsoid_covers_truth_at_expected_rate(self):
        # known-variance Gaussian errors make the coverage exactly
        # P(chi2_4 <= 14) ~ 0.9927 at any N; check a 2000-rep estimate
        truth = np.asarray(TRUE_COEFFS)
        hits = 0
        reps = 2000
        for r in range(reps):
            rng = random_stream(915, r)
            data = generate_data(rng, 4, truth, 1.0, 50)
            f = fit(data, polynomial_regressors(50, 4))
            e = build_ellipsoid(f, default_mu(4))
            hits += bool(mahalanobis_sq(e, truth[None, :])[0] <= e.radius)
        assert 0.985 <= hits / reps <= 0.999
