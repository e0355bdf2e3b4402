import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from conftest import TRUE_COEFFS, ConstantLikelihood, trapezoid_log_integral
from reference import box_log_volume, fim, sample_ellipsoid_direct
from mcselect.estimators import (
    _log_mean_and_se,
    _strata_var,
    aic,
    bic,
    ge_estimate,
    stratification_segments,
    ub_estimate,
    ub_stratified_estimate,
    ue_estimate,
    ueg_estimate,
)
from mcselect.models import build_design, fit, fit_nested, generate_data, polynomial_regressors
from mcselect.numerics import chi2_cdf
from mcselect.regions import (
    BoxCollapsed,
    box_halfwidths,
    bounding_box,
    build_ellipsoid,
    default_mu,
    ellipsoid_log_volume,
    mahalanobis_sq,
    partition,
    whiten_box,
)
from mcselect.sampling import (
    random_stream,
    sample_gaussian,
    sample_truncated_gaussian,
    sample_uniform_box,
)

LOG_2PI = math.log(2.0 * math.pi)


class TestCriteria:
    def test_aic_arithmetic(self):
        model = ConstantLikelihood(3, -10.0)
        score = aic(model)
        assert score.value == 26.0
        assert score.gamma == 2.0
        assert score.method == "aic"

    def test_bic_arithmetic(self):
        model = ConstantLikelihood(2, -10.0)
        score = bic(model, 100)
        assert math.isclose(score.value, 20.0 + 2.0 * math.log(100.0), rel_tol=1e-14)
        assert math.isclose(score.gamma, math.log(100.0), rel_tol=1e-15)

    def test_bic_needs_enough_points(self):
        with pytest.raises(ValueError):
            bic(ConstantLikelihood(1, 0.0), 1)

    def test_fewer_points_weaker_penalty(self):
        model = ConstantLikelihood(4, -5.0)
        assert bic(model, 10).value < bic(model, 1000).value


def _stub_box(model, mu, segments):
    """The WhitenedBox that Design.box would build for a stand-in's factor."""
    half = box_halfwidths(model.chol_inv, mu)
    return whiten_box(-half, half, model.chol, segments)


class TestConstantLikelihoodExactness:
    """With a flat likelihood every prior-average estimator is exact."""

    def test_prior_average_estimators_are_exact(self):
        c = -3.25
        model = ConstantLikelihood(2, c)
        ue = ue_estimate(random_stream(30, 0), model, 10.0, 64)
        ge = ge_estimate(random_stream(30, 1), model, 10.0, 64)
        ub = ub_estimate(random_stream(30, 2), model, _stub_box(model, 10.0, 1), 64)
        strat = ub_stratified_estimate(random_stream(30, 3), model, _stub_box(model, 10.0, 2), 64)
        # one draw per stratum, with 25 strata: pairs plus the final triple
        single = ub_stratified_estimate(random_stream(30, 4), model, _stub_box(model, 10.0, 5), 25)
        assert single.samples_used == 25
        for est in (ue, ge, ub, strat, single):
            assert est.log_value == c
            assert est.mc_std_error_log == 0.0

    def test_shifted_constant(self):
        model = ConstantLikelihood(1, -700.0)
        est = ub_estimate(random_stream(31, 0), model, _stub_box(model, 8.0, 1), 32)
        assert est.log_value == -700.0
        assert est.mc_std_error_log == 0.0


@pytest.fixture(scope="module")
def one_dim_fit():
    rng = random_stream(812, 0)
    data = generate_data(rng, 1, (0.4,), 1.0, 20)
    return fit(data, polynomial_regressors(20, 1))


class TestAgainstQuadrature:
    """1-D estimators against a deterministic quadrature of the integrand."""

    def _quad_uniform(self, model, mu, n=131_073):
        half = math.sqrt(mu / fim(model)[0, 0])
        lo, hi = model.theta_hat[0] - half, model.theta_hat[0] + half
        log_p = lambda g: model.log_likelihood_batch(g[:, None])
        q = trapezoid_log_integral(log_p, lo, hi, n)
        return q - math.log(2.0 * half)

    def _quad_truncated_gauss(self, model, mu, n=131_073):
        j = fim(model)[0, 0]
        half = math.sqrt(mu / j)
        lo, hi = model.theta_hat[0] - half, model.theta_hat[0] + half
        rho = chi2_cdf(1, mu)

        def log_pq(g):
            ll = model.log_likelihood_batch(g[:, None])
            lng = 0.5 * math.log(j / (2.0 * math.pi)) - 0.5 * j * (g - model.theta_hat[0]) ** 2
            return ll + lng

        return trapezoid_log_integral(log_pq, lo, hi, n) - math.log(rho)

    def test_quadrature_is_converged(self, one_dim_fit):
        a = self._quad_uniform(one_dim_fit, default_mu(1), n=131_073)
        b = self._quad_uniform(one_dim_fit, default_mu(1), n=262_145)
        assert abs(a - b) < 1e-10

    def test_ue_matches(self, one_dim_fit):
        want = self._quad_uniform(one_dim_fit, default_mu(1))
        est = ue_estimate(random_stream(32, 0), one_dim_fit, default_mu(1), 40_000)
        assert abs(est.log_value - want) < 4.0 * est.mc_std_error_log

    def test_ub_matches(self, one_dim_fit):
        # in one dimension the bounding box is the ellipsoid interval
        want = self._quad_uniform(one_dim_fit, default_mu(1))
        box = one_dim_fit.design.box(1, default_mu(1), 1)
        est = ub_estimate(random_stream(33, 0), one_dim_fit, box, 40_000)
        assert abs(est.log_value - want) < 4.0 * est.mc_std_error_log

    def test_ueg_matches(self, one_dim_fit):
        # importance-sampled version of the same uniform-prior integral
        want = self._quad_uniform(one_dim_fit, default_mu(1))
        est = ueg_estimate(random_stream(34, 0), one_dim_fit, default_mu(1), 1_000)
        assert abs(est.log_value - want) < 1e-8

    def test_ge_matches(self, one_dim_fit):
        want = self._quad_truncated_gauss(one_dim_fit, default_mu(1))
        est = ge_estimate(random_stream(35, 0), one_dim_fit, default_mu(1), 40_000)
        assert abs(est.log_value - want) < 4.0 * est.mc_std_error_log


@pytest.fixture(scope="module")
def fits_by_dim():
    """Fits of orders 1..8 to one simulated N=100 dataset."""
    data = generate_data(random_stream(813, 0), 4, TRUE_COEFFS, 1.0, 100)
    return {d: fit(data, polynomial_regressors(100, d)) for d in range(1, 9)}


def _ue_exact_log(model, mu):
    """Exact ue target: the Gaussian integral over the ellipsoid / its volume."""
    d = model.dim
    e = build_ellipsoid(model, mu)
    return (
        model.max_loglik
        + 0.5 * d * LOG_2PI
        - 0.5 * np.linalg.slogdet(fim(model))[1]
        + math.log(chi2_cdf(d, e.radius))
        - ellipsoid_log_volume(e)
    )


def _ge_exact_log(model, mu):
    """Exact ge target: mll - (d/2) log 2 + log F_d(2 mu) - log F_d(mu)."""
    d = model.dim
    return (
        model.max_loglik
        - 0.5 * d * math.log(2.0)
        + math.log(chi2_cdf(d, 2.0 * mu))
        - math.log(chi2_cdf(d, mu))
    )


def _ub_exact_log(model, box):
    """Exact ub target: the Gaussian integral over the box / its volume.

    P(box) under N(theta_hat, J^-1) comes from Genz's algorithm, seeded.
    """
    d = model.dim
    gauss = multivariate_normal(model.theta_hat, np.linalg.inv(fim(model)), seed=0)
    p_box = gauss.cdf(box.hi, lower_limit=box.lo)
    return (
        model.max_loglik
        + 0.5 * d * LOG_2PI
        - 0.5 * np.linalg.slogdet(fim(model))[1]
        + math.log(p_box)
        - box_log_volume(box)
    )


def _assert_calibrated(estimate, exact, key, d, seeds=40):
    """z = (estimate - exact) / SE over seeds: centred near 0, spread near 1."""
    z = []
    for s in range(seeds):
        est = estimate(random_stream(key, 100 * d + s))
        assert est.mc_std_error_log > 0.0
        z.append((est.log_value - exact) / est.mc_std_error_log)
    assert abs(float(np.mean(z))) < 0.6
    assert 0.6 <= float(np.std(z, ddof=1)) <= 1.5


class TestUeCalibration:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_z_scores(self, fits_by_dim, d):
        f, mu = fits_by_dim[d], default_mu(d)
        _assert_calibrated(lambda rng: ue_estimate(rng, f, mu, 1000), _ue_exact_log(f, mu), 48, d)


class TestGeCalibration:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_z_scores(self, fits_by_dim, d):
        f, mu = fits_by_dim[d], default_mu(d)
        _assert_calibrated(lambda rng: ge_estimate(rng, f, mu, 1000), _ge_exact_log(f, mu), 49, d)


class TestUbCalibration:
    """ub and ub-strat at d = 1..4; from d = 5 the likelihood's peak fills a
    small part of the box and the z-scores are heavy-tailed (sd ~2-6)."""

    @pytest.mark.parametrize("d", range(1, 5))
    def test_ub_z_scores(self, fits_by_dim, d):
        f = fits_by_dim[d]
        box = bounding_box(build_ellipsoid(f, default_mu(d)))
        whitened = f.design.box(d, default_mu(d), 1)
        _assert_calibrated(
            lambda rng: ub_estimate(rng, f, whitened, 1000), _ub_exact_log(f, box), 50, d
        )

    @pytest.mark.parametrize("d", range(1, 5))
    def test_ub_strat_z_scores(self, fits_by_dim, d):
        # three segments per axis: the split of the default design
        # (1000 samples, max_order 6), with >= 2 draws per stratum here
        f = fits_by_dim[d]
        box = bounding_box(build_ellipsoid(f, default_mu(d)))
        strata = f.design.box(d, default_mu(d), stratification_segments(1000, 6))
        _assert_calibrated(
            lambda rng: ub_stratified_estimate(rng, f, strata, 1000), _ub_exact_log(f, box), 51, d
        )


class TestUegExactness:
    def test_zero_error_on_linear_gaussian(self, cubic_fit):
        est = ueg_estimate(random_stream(36, 0), cubic_fit, default_mu(4), 500)
        assert est.mc_std_error_log < 1e-10

    def test_agrees_with_ue(self, cubic_fit):
        ue = ue_estimate(random_stream(37, 0), cubic_fit, default_mu(4), 4_000)
        ueg = ueg_estimate(random_stream(37, 1), cubic_fit, default_mu(4), 4_000)
        assert abs(ue.log_value - ueg.log_value) < 4.0 * ue.mc_std_error_log


def _log_mean_and_se_reference(log_weights):
    """_log_mean_and_se through np.max, np.mean and np.std."""
    shift = float(np.max(log_weights))
    if shift == -math.inf:
        return -math.inf, 0.0
    w = np.exp(log_weights - shift)
    mean_w = float(np.mean(w))
    log_mean = shift + math.log(mean_w)
    se = float(np.std(w, ddof=1)) / (mean_w * math.sqrt(w.size))
    return log_mean, se


class TestLogMeanAndSe:
    def test_bit_identical_to_numpy_wrappers(self):
        rng = random_stream(53, 0)
        for trial in range(600):
            n = (2, 3, 7, 64, 1000, 21_000)[trial % 6]
            scale = 10.0 ** rng.integers(-3, 4)
            log_w = rng.normal(-100.0 * rng.random(), scale, n)
            if trial % 5 == 0:
                log_w[rng.integers(n)] = -math.inf
            if trial % 7 == 0:
                log_w[:] = log_w[0]
            assert _log_mean_and_se(log_w) == _log_mean_and_se_reference(log_w)

    def test_all_zero_weights(self):
        assert _log_mean_and_se(np.full(4, -math.inf)) == (-math.inf, 0.0)


def _gaussian_log_density(e, points):
    """log N(points; center, J^-1), with (1/2) log det J = sum log diag L."""
    half_log_det = float(np.sum(np.log(np.diag(e.chol))))
    return half_log_det - 0.5 * e.dim * LOG_2PI - 0.5 * mahalanobis_sq(e, points)


def _ue_theta(rng, model, e, m):
    points = sample_ellipsoid_direct(rng, e, m).points
    return _log_mean_and_se_reference(model.log_likelihood_batch(points))


def _ueg_theta(rng, model, e, m):
    points = sample_gaussian(rng, e, m).points
    log_w = model.log_likelihood_batch(points) - _gaussian_log_density(e, points)
    log_mean, se = _log_mean_and_se_reference(log_w)
    return math.log(chi2_cdf(e.dim, e.radius)) - ellipsoid_log_volume(e) + log_mean, se


def _ge_theta(rng, model, e, m):
    points = sample_truncated_gaussian(rng, e, m).points
    return _log_mean_and_se_reference(model.log_likelihood_batch(points))


@pytest.fixture(scope="module")
def fits_by_n_and_dim():
    """Fits of orders 1..8 to one simulated dataset at each N in 20, 100, 1000."""
    fits = {}
    for n in (20, 100, 1000):
        data = generate_data(random_stream(814, n), 4, TRUE_COEFFS, 1.0, n)
        fits.update({(n, d): fit(data, polynomial_regressors(n, d)) for d in range(1, 9)})
    return fits


class TestRadialKernels:
    """ue, ueg and ge score the whitened distance q; their theta-space
    references evaluate the likelihood at the points of the samplers that
    take the same uniforms, so value and stream position must agree."""

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("n", [20, 100, 1000])
    def test_match_theta_space(self, fits_by_n_and_dim, n, d):
        f = fits_by_n_and_dim[(n, d)]
        e = build_ellipsoid(f, default_mu(d))
        kernels = ((ue_estimate, _ue_theta), (ueg_estimate, _ueg_theta), (ge_estimate, _ge_theta))
        for k, (kernel, reference) in enumerate(kernels):
            for m in (2, 333, 1000):
                index = ((n * 10 + d) * 10 + k) * 10_000 + m
                rng, ref_rng = random_stream(54, index), random_stream(54, index)
                est = kernel(rng, f, default_mu(d), m)
                want, want_se = reference(ref_rng, f, e, m)
                assert abs(est.log_value - want) <= 1e-12 * max(1.0, abs(want))
                assert abs(est.mc_std_error_log - want_se) <= 1e-10
                assert est.samples_used == m
                assert rng.random() == ref_rng.random()

    def test_ueg_is_its_closed_form(self, cubic_fit):
        est = ueg_estimate(random_stream(55, 0), cubic_fit, default_mu(4), 500)
        want = _ue_exact_log(cubic_fit, default_mu(4))
        assert abs(est.log_value - want) <= 1e-12 * abs(want)
        assert est.mc_std_error_log == 0.0


@pytest.fixture(scope="module")
def fits_by_cell():
    """Fits of orders 1..6 to one simulated dataset per (N, sigma2)."""
    fits = {}
    for n in (20, 100, 1000, 50_000):
        for s2 in (1.0, 0.37):
            data = generate_data(random_stream(817, n), 4, TRUE_COEFFS, s2, n)
            fits[(n, s2)] = fit_nested(data, build_design(polynomial_regressors(n, 6), s2))
    return fits


class TestEllipsoidRulesNeverSeeJ:
    """ue, ueg and ge read the radius and the whitened draws, never J: from
    one stream key, log_value - max_loglik is the same in every cell.  So
    their penalties pen(d) = -2 (log p - mll) depend on d and mu alone."""

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("estimate", [ue_estimate, ueg_estimate, ge_estimate],
                             ids=["ue", "ueg", "ge"])
    def test_same_offset_at_every_n_and_sigma2(self, fits_by_cell, estimate, d):
        offsets = []
        for fits in fits_by_cell.values():
            f = fits[d - 1]
            est = estimate(random_stream(60, d), f, default_mu(d), 1000)
            offsets.append((est.log_value - f.max_loglik, max(1.0, abs(f.max_loglik))))
        for offset, scale in offsets[1:]:
            assert abs(offset - offsets[0][0]) <= 1e-12 * scale

    @pytest.mark.parametrize("d", range(1, 7))
    def test_ueg_is_mll_less_half_the_penalty(self, fits_by_cell, d):
        mu = default_mu(d)
        pen = (d * math.log(mu / 2.0) - 2.0 * math.lgamma(0.5 * d + 1.0)
               - 2.0 * math.log(chi2_cdf(d, mu)))
        for fits in fits_by_cell.values():
            f = fits[d - 1]
            want = f.max_loglik - 0.5 * pen
            est = ueg_estimate(random_stream(61, d), f, mu, 1000)
            assert abs(est.log_value - want) <= 1e-12 * abs(want)


class TestPriorOrdering:
    """Mass concentration orders the estimators on a peaked likelihood."""

    def test_ge_above_ue_and_ub_below_ue(self, cubic_fit):
        mu = default_mu(4)
        box = cubic_fit.design.box(4, mu, 1)
        ue_vals, ge_vals, ub_vals = [], [], []
        for s in range(200):
            ue_vals.append(ue_estimate(random_stream(38, s), cubic_fit, mu, 200).log_value)
            ge_vals.append(ge_estimate(random_stream(39, s), cubic_fit, mu, 200).log_value)
            ub_vals.append(ub_estimate(random_stream(40, s), cubic_fit, box, 200).log_value)
        mean_ue = float(np.mean(ue_vals))
        assert float(np.mean(ge_vals)) > mean_ue + 0.5
        assert float(np.mean(ub_vals)) < mean_ue - 0.3


class TestStratifiedUb:
    def test_single_stratum_identical_to_plain(self, cubic_fit):
        box = cubic_fit.design.box(4, default_mu(4), 1)
        plain = ub_estimate(random_stream(41, 0), cubic_fit, box, 500)
        strat = ub_stratified_estimate(random_stream(41, 0), cubic_fit, box, 500)
        # one code path: ub is the one-stratum case of the box kernel
        assert strat.log_value == plain.log_value
        assert strat.mc_std_error_log == plain.mc_std_error_log
        assert strat.samples_used == plain.samples_used

    def test_reduces_variance(self, cubic_fit):
        box = cubic_fit.design.box(4, default_mu(4), 1)
        part = cubic_fit.design.box(4, default_mu(4), stratification_segments(1000, 4))
        plain, strat = [], []
        for s in range(300):
            plain.append(ub_estimate(random_stream(42, s), cubic_fit, box, 1000).log_value)
            strat.append(
                ub_stratified_estimate(random_stream(43, s), cubic_fit, part, 1000).log_value
            )
        assert np.var(strat) <= np.var(plain)

    def test_sample_allocation(self, cubic_fit):
        part = cubic_fit.design.box(4, default_mu(4), 5)
        est = ub_stratified_estimate(random_stream(44, 0), cubic_fit, part, 1000)
        # 625 strata at max(1, round(1000/625)) = 2 draws each
        assert est.samples_used == 1250
        assert est.method == "ub-strat"


def _ub_strat_loop(rng, model, part, m):
    """Per-stratum reference for ub_stratified_estimate: one Box and one
    likelihood call per stratum, sums accumulated stratum by stratum.  At
    one draw per stratum the SE comes from collapsed strata, written out
    group by group: adjacent pairs, the last three as a triple if K is odd.
    """
    mass = part.mass
    per = max(1, round(mass * m))
    lls = []
    for k in range(part.count):
        batch = sample_uniform_box(rng, part.sub_box(k), per)
        lls.append(model.log_likelihood_batch(batch.points))
    shift = max(float(np.max(a)) for a in lls)
    ws = [np.exp(a - shift) for a in lls]
    total = 0.0
    for w in ws:
        total += mass * float(np.mean(w))
    if per >= 2:
        groups = [(w, mass) for w in ws]
    else:
        K = part.count
        cut = K - 3 if K % 2 else K
        groups = [(np.concatenate(ws[i : i + 2]), 2.0 * mass) for i in range(0, cut, 2)]
        if cut < K:
            groups.append((np.concatenate(ws[cut:]), 3.0 * mass))
    var_total = 0.0
    for g, weight in groups:
        var_total += (weight * float(np.std(g, ddof=1)) / math.sqrt(g.size)) ** 2
    return shift + math.log(total), math.sqrt(var_total) / total, per * part.count


def _assert_box_kernel_matches(est, want, want_se, want_used, rng, ref_rng):
    """The whitened box kernel against its theta-space reference: tolerances
    for the rounding of z = u scale + corner against theta - theta_hat, and
    the same sample count and stream position."""
    assert abs(est.log_value - want) <= 1e-12 * max(1.0, abs(want))
    assert abs(est.mc_std_error_log - want_se) <= 1e-10
    assert est.samples_used == want_used
    assert rng.random() == ref_rng.random()


class TestStratifiedVectorised:
    """The vectorised kernel against the per-stratum loop.  The two tests
    named bit_identical kept their names when the kernel moved to the
    whitened frame; they now hold it to _assert_box_kernel_matches."""

    @pytest.mark.parametrize("per", [1, 2, 5])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_bit_identical_to_loop(self, fits_by_dim, d, per):
        f, segments = fits_by_dim[d], 3 if d <= 4 else 2
        part = partition(bounding_box(build_ellipsoid(f, default_mu(d))), segments)
        m = per * part.count
        for s in range(3):
            rng, ref_rng = random_stream(49, 10 * d + s), random_stream(49, 10 * d + s)
            est = ub_stratified_estimate(rng, f, f.design.box(d, default_mu(d), segments), m)
            _assert_box_kernel_matches(est, *_ub_strat_loop(ref_rng, f, part, m), rng, ref_rng)

    def test_default_design_bit_identical(self, fits_by_dim):
        # 1000 samples at order 6: 3 segments, 729 strata, one draw each
        f = fits_by_dim[6]
        part = partition(bounding_box(build_ellipsoid(f, default_mu(6))), 3)
        rng, ref_rng = random_stream(50, 0), random_stream(50, 0)
        est = ub_stratified_estimate(rng, f, f.design.box(6, default_mu(6), 3), 1000)
        _assert_box_kernel_matches(est, *_ub_strat_loop(ref_rng, f, part, 1000), rng, ref_rng)

    @pytest.mark.parametrize("segments", [2, 3])
    def test_one_draw_per_stratum_has_positive_se(self, cubic_fit, segments):
        part = cubic_fit.design.box(4, default_mu(4), segments)
        count = segments**4
        est = ub_stratified_estimate(random_stream(51, segments), cubic_fit, part, count)
        assert est.samples_used == count
        assert est.mc_std_error_log > 0.0

    def test_collapsed_se_tracks_the_spread(self, cubic_fit):
        # collapsed strata overstate the variance, but stay on its scale
        part = cubic_fit.design.box(4, default_mu(4), 5)
        ests = [
            ub_stratified_estimate(random_stream(52, s), cubic_fit, part, 625)
            for s in range(200)
        ]
        sd = float(np.std([est.log_value for est in ests], ddof=1))
        mean_se = float(np.mean([est.mc_std_error_log for est in ests]))
        assert 0.8 * sd <= mean_se <= 3.0 * sd


@pytest.fixture(scope="module")
def designs_and_fits():
    """Order-8 design and fits for one simulated dataset at each N."""
    out = {}
    for n in (20, 100, 1000, 50_000):
        design = build_design(polynomial_regressors(n, 8), 1.0)
        data = generate_data(random_stream(815, n), 4, TRUE_COEFFS, 1.0, n)
        out[n] = design, fit_nested(data, design)
    return out


class TestWhitenedBoxKernel:
    """ub and ub-strat on a cell's cached WhitenedBox against theta-space
    references: sample_uniform_box then log_likelihood_batch for ub, the
    per-stratum loop for ub-strat."""

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("n", [20, 100, 1000, 50_000])
    def test_match_theta_space(self, designs_and_fits, n, d):
        design, fits = designs_and_fits[n]
        f = fits[d - 1]
        mu = default_mu(d)
        box = bounding_box(build_ellipsoid(f, mu))
        for segments in (1, 2, 3):
            part = partition(box, segments)
            for per in (1, 2, 5):
                m = per * part.count
                if m < 2:
                    continue
                index = ((n * 10 + d) * 10 + segments) * 10 + per
                rng, ref_rng = random_stream(56, index), random_stream(56, index)
                est = ub_estimate(rng, f, design.box(d, mu, 1), m)
                points = sample_uniform_box(ref_rng, box, m).points
                want = _log_mean_and_se_reference(f.log_likelihood_batch(points))
                _assert_box_kernel_matches(est, *want, m, rng, ref_rng)
                rng, ref_rng = random_stream(57, index), random_stream(57, index)
                est = ub_stratified_estimate(rng, f, design.box(d, mu, segments), m)
                _assert_box_kernel_matches(est, *_ub_strat_loop(ref_rng, f, part, m), rng, ref_rng)


def _collapse_reference(e, segments):
    """The message bounding_box(e) or partition(box, segments).bounds() raises."""
    try:
        partition(bounding_box(e), segments).bounds()
    except BoxCollapsed as err:
        return str(err)
    return None


class TestCollapsePredicates:
    def test_same_verdict_and_message_as_theta_space(self):
        seen = set()
        for n in (20, 100):
            for k in range(20, 41):
                sigma2 = 10.0**-k
                design = build_design(polynomial_regressors(n, 6), sigma2)
                data = generate_data(random_stream(816, 100 * n + k), 4, TRUE_COEFFS, sigma2, n)
                for f in fit_nested(data, design):
                    d, mu = f.dim, default_mu(f.dim)
                    for segments in (1, 2, 3):
                        want = _collapse_reference(build_ellipsoid(f, mu), segments)
                        try:
                            ub_stratified_estimate(
                                random_stream(58, k), f, design.box(d, mu, segments), 4
                            )
                            got = None
                        except BoxCollapsed as err:
                            got = str(err)
                        assert got == want, (n, k, d, segments)
                        seen.add(want and ("sub-box" if "sub-box" in want else "box"))
        # the grid reaches both checks and boxes that pass them
        assert seen == {None, "box", "sub-box"}


def _strata_var_reference(w, weight):
    return (weight * np.std(w, axis=1, ddof=1) / math.sqrt(w.shape[1])) ** 2


class TestStrataVar:
    def test_bit_identical_to_np_std(self):
        rng = random_stream(59, 0)
        for trial in range(600):
            strata = (1, 2, 3, 64, 243, 729)[trial % 6]
            per = (2, 3, 5, 17, 100, 333)[(trial // 6) % 6]
            # the kernel's weights: exp(ll - max ll), so in (0, 1]
            w = np.exp(-np.abs(rng.normal(0.0, 10.0 ** rng.integers(-3, 3), (strata, per))))
            if trial % 7 == 0:
                w[:] = w[0, 0]
            weight = 1.0 / strata * (1 + trial % 3)
            assert np.array_equal(_strata_var(w, weight), _strata_var_reference(w, weight))


class TestStratificationSegments:
    def test_values(self):
        assert stratification_segments(1000, 4) == 5
        assert stratification_segments(1000, 1) == 1000
        assert stratification_segments(200, 6) == 2
        assert stratification_segments(63, 6) == 1
        assert stratification_segments(8, 2) == 2
        assert stratification_segments(1, 3) == 1

    def test_bound_holds(self):
        for m in (2, 17, 100, 5000):
            for d in (1, 2, 3, 6):
                L = stratification_segments(m, d)
                assert L**d <= m
                assert (L + 1) ** d > m

    def test_invalid(self):
        with pytest.raises(ValueError):
            stratification_segments(0, 2)


class TestEstimateNeverExceedsPeak:
    def test_randomized_configurations(self):
        # the marginal averages likelihood values, so its log can never
        # top the maximized log-likelihood
        for trial in range(60):
            rng = random_stream(900, trial)
            d = 1 + trial % 3
            n = 5 + (trial * 7) % 26
            sigma2 = 0.3 + 2.7 * rng.random()
            coeffs = tuple(rng.random(d) - 0.5)
            data = generate_data(rng, d, coeffs, sigma2, n)
            f = fit(data, polynomial_regressors(n, d))
            mu = default_mu(d)
            ests = [
                ue_estimate(rng, f, mu, 16),
                ueg_estimate(rng, f, mu, 16),
                ge_estimate(rng, f, mu, 16),
                ub_estimate(rng, f, f.design.box(d, mu, 1), 16),
                ub_stratified_estimate(rng, f, f.design.box(d, mu, 2), 16),
            ]
            for est in ests:
                assert est.log_value <= f.max_loglik + 1e-9


class TestValidation:
    def test_need_two_samples(self, intercept_fit):
        box = intercept_fit.design.box(1, 8.0, 1)
        with pytest.raises(ValueError):
            ue_estimate(random_stream(46, 0), intercept_fit, 8.0, 1)
        with pytest.raises(ValueError):
            ueg_estimate(random_stream(46, 0), intercept_fit, 8.0, 1)
        with pytest.raises(ValueError):
            ge_estimate(random_stream(46, 0), intercept_fit, 8.0, 1)
        with pytest.raises(ValueError):
            ub_estimate(random_stream(46, 0), intercept_fit, box, 1)
        with pytest.raises(ValueError):
            ub_stratified_estimate(random_stream(46, 0), intercept_fit, box, 1)

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("estimate", [ue_estimate, ueg_estimate, ge_estimate],
                             ids=["ue", "ueg", "ge"])
    def test_radius_must_be_positive_and_finite(self, intercept_fit, estimate, mu):
        # the check build_ellipsoid makes, before any draw
        with pytest.raises(ValueError, match="^mu must be positive and finite"):
            build_ellipsoid(intercept_fit, mu)
        rng = random_stream(48, 0)
        with pytest.raises(ValueError, match="^mu must be positive and finite"):
            estimate(rng, intercept_fit, mu, 10)
        assert rng.random() == random_stream(48, 0).random()

    def test_metadata_fields(self, intercept_fit):
        est = ue_estimate(random_stream(47, 0), intercept_fit, 8.0, 10)
        assert est.method == "ue"
        assert est.samples_used == 10
        assert est.mc_std_error_log >= 0.0
