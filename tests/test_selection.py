import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import trapezoid_log_integral
from mcselect.estimators import MarginalEstimate, ub_estimate
from mcselect.models import fit, generate_data, polynomial_regressors
from mcselect.regions import bounding_box, build_ellipsoid, default_mu
from mcselect.sampling import random_stream, sample_uniform_box
from mcselect.selection import (
    EmptyCandidates,
    select_criterion,
    select_map,
)


def _est(v):
    return MarginalEstimate(v, 0.0, 10, "ue")


class TestSelectMap:
    def test_picks_largest(self):
        out = select_map([_est(-10.0), _est(-9.0), _est(-9.5)])
        assert out.selected_order == 2
        assert out.scores == [-10.0, -9.0, -9.5]

    def test_tie_goes_to_smallest_order(self):
        out = select_map([_est(-4.0), _est(-4.0)])
        assert out.selected_order == 1

    def test_single_candidate(self):
        assert select_map([_est(-1.0)]).selected_order == 1

    def test_excluded_candidates_skipped(self):
        out = select_map([None, _est(-2.0), None])
        assert out.selected_order == 2
        assert out.scores == [None, -2.0, None]

    def test_all_excluded(self):
        with pytest.raises(EmptyCandidates):
            select_map([None, None])

    def test_empty(self):
        with pytest.raises(EmptyCandidates):
            select_map([])

    @given(
        # eighths: v + shift is exact, so ties survive the shift (a generic
        # float shift can round a strict gap of ~1 ulp into a tie)
        st.lists(st.integers(-800, 800).map(lambda k: k / 8.0),
                 min_size=1, max_size=8),
        st.integers(-400, 400).map(lambda k: k / 8.0),
    )
    @settings(max_examples=100)
    def test_shift_invariance(self, vals, shift):
        base = select_map([_est(v) for v in vals]).selected_order
        moved = select_map([_est(v + shift) for v in vals]).selected_order
        assert base == moved


class TestSelectCriterion:
    def test_picks_smallest(self):
        out = select_criterion([310.0, 305.0, 306.0])
        assert out.selected_order == 2

    def test_tie_goes_to_smallest_order(self):
        assert select_criterion([5.0, 5.0, 7.0]).selected_order == 1

    def test_monotone_scores(self):
        assert select_criterion([4.0, 3.0, 2.0, 1.0]).selected_order == 4

    def test_accepts_criterion_scores(self):
        from mcselect.estimators import CriterionScore

        scores = [CriterionScore(10.0, 2.0, "aic"), CriterionScore(8.0, 2.0, "aic")]
        out = select_criterion(scores, rule="aic")
        assert out.selected_order == 2
        assert out.scores == [10.0, 8.0]

    def test_excluded_skipped(self):
        assert select_criterion([None, 4.0, 3.0]).selected_order == 3

    def test_all_excluded(self):
        with pytest.raises(EmptyCandidates):
            select_criterion([None])


class TestDecisionConsistency:
    def test_mc_and_quadrature_decide_alike(self):
        # With enough samples the MC decision must almost always match the
        # decision made from deterministically integrated marginals.
        agree = 0
        seeds = 300
        m = 40_000
        for s in range(seeds):
            rng = random_stream(777, s)
            data = generate_data(rng, 1, (0.3,), 1.0, 20)
            quad_scores = []
            mc_scores = []
            for order in (1, 2):
                f = fit(data, polynomial_regressors(20, order))
                mu = default_mu(order)
                box = bounding_box(build_ellipsoid(f, mu))
                mc_scores.append(ub_estimate(rng, f, f.design.box(order, mu, 1), m))
                quad_scores.append(_quad_box_marginal(f, box))
            mc_pick = select_map(mc_scores).selected_order
            quad_pick = 1 + int(np.argmax(quad_scores))
            agree += mc_pick == quad_pick
        assert agree / seeds >= 0.98


def _quad_box_marginal(model, box):
    """Deterministic uniform-box marginal via tensor-grid trapezoid."""
    d = model.dim
    if d == 1:
        log_p = lambda g: model.log_likelihood_batch(g[:, None])
        q = trapezoid_log_integral(log_p, box.lo[0], box.hi[0], 4_097)
        return q - box.log_volume()
    assert d == 2
    n = 257
    g0 = np.linspace(box.lo[0], box.hi[0], n)
    g1 = np.linspace(box.lo[1], box.hi[1], n)
    pts = np.stack(np.meshgrid(g0, g1, indexing="ij"), axis=-1).reshape(-1, 2)
    ll = model.log_likelihood_batch(pts).reshape(n, n)
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    weight = np.log(np.outer(w, w)).ravel()
    steps = (box.hi - box.lo) / (n - 1)
    vals = ll.ravel() + weight
    mshift = vals.max()
    integral = mshift + math.log(np.sum(np.exp(vals - mshift))) + math.log(steps[0] * steps[1])
    return integral - box.log_volume()
