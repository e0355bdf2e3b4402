"""Acceptance gate: nine end-to-end checks at fixed tolerances.

Each test is one numbered criterion; `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion (add -s for the measured numbers).
"""

import math
import time

import numpy as np

from conftest import TRUE_COEFFS, ConstantLikelihood, FitStub, trapezoid_log_integral
from reference import fim
from mcselect.cli import main as cli_main
from mcselect.estimators import (
    ge_estimate,
    ub_estimate,
    ub_stratified_estimate,
    ue_estimate,
    ueg_estimate,
)
from mcselect.experiments import config_from_dict, run_experiment
from mcselect.models import fit, generate_data, polynomial_regressors
from mcselect.numerics import chi2_cdf
from mcselect.regions import (
    box_halfwidths,
    build_ellipsoid,
    default_mu,
    whiten_box,
)
from mcselect.sampling import (
    random_stream,
    sample_truncated_gaussian,
    sample_uniform_ellipsoid,
)

import json


def test_criterion_1_ellipsoid_coverage():
    """Default-radius ellipsoid covers the truth at its chi-square rate."""
    start = time.perf_counter()
    truth = np.asarray(TRUE_COEFFS)
    reps = 10_000
    hits = 0
    phi = polynomial_regressors(100, 4)
    for r in range(reps):
        rng = random_stream(101, r)
        data = generate_data(rng, 4, truth, 1.0, 100)
        f = fit(data, phi)
        z = (truth - f.theta_hat) @ f.chol
        hits += bool(z @ z <= default_mu(4))
    frac = hits / reps
    elapsed = time.perf_counter() - start
    assert 0.985 <= frac <= 0.999, f"coverage {frac}"
    assert elapsed < 120.0
    print(f"criterion 1 PASS: coverage {frac:.4f} in [0.985, 0.999] ({elapsed:.1f}s)")


def _order_selection_report(n_points, seed):
    cfg = config_from_dict({
        "experiment": "fixed", "sigma2": 1.0, "max_order": 6,
        "rules": ["aic", "bic", "ub"], "samples": 1000,
        "n_values": [n_points], "replications": 300, "true_order": 4,
        "true_coefficients": list(TRUE_COEFFS), "seed": seed,
    })
    return run_experiment(cfg)


def test_criterion_2_rule_ordering_at_n100():
    """At N=100 the box-prior marginal beats BIC, which beats AIC."""
    start = time.perf_counter()
    report = _order_selection_report(100, 2026)
    freq = {r: report.prob_correct(r, 100, 4) for r in ("aic", "bic", "ub")}
    elapsed = time.perf_counter() - start
    assert freq["ub"] >= freq["bic"] - 0.03, freq
    assert freq["bic"] >= freq["aic"] + 0.02, freq
    assert elapsed < 600.0
    print(
        "criterion 2 PASS: N=100 correct-selection "
        f"ub {freq['ub']:.3f} >= bic {freq['bic']:.3f} - 0.03 >= "
        f"aic {freq['aic']:.3f} + 0.02 - 0.03 ({elapsed:.1f}s)"
    )


def test_criterion_3_rule_ordering_at_n1000():
    """At N=1000 AIC plateaus while BIC and the marginal approach 1."""
    start = time.perf_counter()
    report = _order_selection_report(1000, 2026)
    freq = {r: report.prob_correct(r, 1000, 4) for r in ("aic", "bic", "ub")}
    elapsed = time.perf_counter() - start
    assert 0.72 <= freq["aic"] <= 0.90, freq
    assert freq["bic"] >= 0.93, freq
    assert freq["ub"] >= 0.93, freq
    assert elapsed < 900.0
    print(
        "criterion 3 PASS: N=1000 aic {aic:.3f} in [0.72, 0.90], "
        "bic {bic:.3f} >= 0.93, ub {ub:.3f} >= 0.93 ({t:.1f}s)".format(
            t=elapsed, **freq
        )
    )


def test_criterion_4_unbiasedness_against_quadrature():
    """Estimator means match a deterministic quadrature of the marginal."""
    rng = random_stream(104, 0)
    data = generate_data(rng, 1, (0.4,), 1.0, 20)
    f = fit(data, polynomial_regressors(20, 1))
    mu = default_mu(1)
    j = fim(f)[0, 0]
    half = math.sqrt(mu / j)
    lo, hi = f.theta_hat[0] - half, f.theta_hat[0] + half

    log_p = lambda g: f.log_likelihood_batch(g[:, None])
    quad_u = trapezoid_log_integral(log_p, lo, hi, 131_073) - math.log(2 * half)
    check = trapezoid_log_integral(log_p, lo, hi, 262_145) - math.log(2 * half)
    assert abs(quad_u - check) < 1e-10  # the oracle itself has converged

    def log_pg(g):
        lng = 0.5 * math.log(j / (2 * math.pi)) - 0.5 * j * (g - f.theta_hat[0]) ** 2
        return log_p(g) + lng

    rho = chi2_cdf(1, mu)
    quad_g = trapezoid_log_integral(log_pg, lo, hi, 131_073) - math.log(rho)

    runs, m = 2000, 200
    estimators = {
        "ue": (ue_estimate, mu, quad_u),
        "ueg": (ueg_estimate, mu, quad_u),
        "ge": (ge_estimate, mu, quad_g),
        "ub": (ub_estimate, f.design.box(1, mu, 1), quad_u),
    }
    msgs = []
    for name, (fn, prior, target) in estimators.items():
        logs = np.array([
            fn(random_stream(104, 1 + s), f, prior, m).log_value
            for s in range(runs)
        ])
        w = np.exp(logs - target)  # ratios to the quadrature value
        err = abs(float(np.mean(w)) - 1.0)
        se = float(np.std(w, ddof=1)) / math.sqrt(runs)
        # 1e-8 floor: the oracle itself is only good to ~1e-10, which the
        # zero-variance importance-sampling case would otherwise resolve
        assert err <= 4.0 * se + 1e-8, (name, err, se)
        msgs.append(f"{name} |mean-1| {err:.2e} <= 4se {4 * se:.2e}")
    print("criterion 4 PASS: " + "; ".join(msgs))


def test_criterion_5_importance_sampling_exactness():
    """Gaussian importance weights are constant for this family."""
    rng = random_stream(105, 0)
    data = generate_data(rng, 4, TRUE_COEFFS, 1.0, 100)
    f = fit(data, polynomial_regressors(100, 4))
    est = ueg_estimate(random_stream(105, 1), f, default_mu(4), 1000)
    assert est.mc_std_error_log < 1e-10
    print(f"criterion 5 PASS: ueg mc_std_error_log {est.mc_std_error_log:.2e} < 1e-10")


def test_criterion_6_estimates_never_exceed_peak():
    """Averaged likelihoods stay below the maximized likelihood."""
    start = time.perf_counter()
    trials = 10_000
    violations = 0
    designs = {}
    for t in range(trials):
        rng = random_stream(106, t)
        d = 1 + t % 4
        n = 5 + (t * 7) % 36
        sigma2 = 0.25 + 3.75 * rng.random()
        coeffs = tuple(rng.random(d) - 0.5)
        phi = designs.get((n, d))
        if phi is None:
            phi = designs[(n, d)] = polynomial_regressors(n, d)
        data = generate_data(rng, d, coeffs, sigma2, n)
        f = fit(data, phi)
        mu = default_mu(d)
        cap = f.max_loglik + 1e-9
        ests = (
            ue_estimate(rng, f, mu, 8),
            ueg_estimate(rng, f, mu, 8),
            ge_estimate(rng, f, mu, 8),
            ub_estimate(rng, f, f.design.box(d, mu, 1), 8),
            ub_stratified_estimate(rng, f, f.design.box(d, mu, 2), 8),
        )
        violations += sum(est.log_value > cap for est in ests)
    elapsed = time.perf_counter() - start
    assert violations == 0
    print(
        f"criterion 6 PASS: 0 violations of log_value <= max_loglik + 1e-9 "
        f"in {trials} randomized configurations ({elapsed:.1f}s)"
    )


def test_criterion_7_stratification_reduces_variance():
    """Equal-mass stratification never hurts; exact on a flat likelihood."""
    rng = random_stream(107, 0)
    data = generate_data(rng, 4, TRUE_COEFFS, 1.0, 100)
    f = fit(data, polynomial_regressors(100, 4))
    box, part = f.design.box(4, default_mu(4), 1), f.design.box(4, default_mu(4), 5)
    plain, strat = [], []
    for s in range(500):
        plain.append(ub_estimate(random_stream(107, 1 + s), f, box, 1000).log_value)
        strat.append(
            ub_stratified_estimate(random_stream(107, 1 + s), f, part, 1000).log_value
        )
    v_plain = float(np.var(plain, ddof=1))
    v_strat = float(np.var(strat, ddof=1))
    assert v_strat <= v_plain

    const = ConstantLikelihood(2, -4.0)
    half = box_halfwidths(const.chol_inv, 10.0)
    cbox, cpart = (whiten_box(-half, half, const.chol, k) for k in (1, 2))
    cp = [ub_estimate(random_stream(108, s), const, cbox, 50).log_value for s in range(50)]
    cs = [
        ub_stratified_estimate(random_stream(109, s), const, cpart, 50).log_value
        for s in range(50)
    ]
    assert float(np.var(cp)) == 0.0 and float(np.var(cs)) == 0.0
    print(
        f"criterion 7 PASS: var log ub-strat {v_strat:.4f} <= var log ub {v_plain:.4f} "
        "over 500 seeds; both exactly 0 on a constant likelihood"
    )


def test_criterion_8_rejection_acceptance_rates():
    """Empirical acceptance rates match the geometric/probability masses."""
    disk = build_ellipsoid(FitStub([0.0, 0.0], np.eye(2)), 4.0)
    batch = sample_uniform_ellipsoid(random_stream(110, 0), disk, 78_540)
    rate = batch.acceptance_rate
    assert batch.proposed_count >= 50_000
    assert abs(rate - math.pi / 4.0) <= 0.01, rate

    model = FitStub([0.0, 0.0], np.eye(2))
    e = build_ellipsoid(model, 10.0)
    tbatch = sample_truncated_gaussian(random_stream(110, 1), e, 97_000)
    trate = tbatch.acceptance_rate
    want = 1.0 - math.exp(-5.0)
    assert abs(trate - want) <= 0.005, trate
    print(
        f"criterion 8 PASS: box rejection {rate:.4f} ~ pi/4 "
        f"({batch.proposed_count} proposals); gaussian rejection {trate:.4f} ~ "
        f"{want:.4f}"
    )


def test_criterion_9_artifacts_independent_of_workers(tmp_path):
    """Same seed gives byte-identical CSVs for any worker count."""
    cfg = {
        "experiment": "fixed", "sigma2": 1.0, "max_order": 4,
        "rules": ["aic", "bic", "ub", "ub-strat"], "samples": 200,
        "n_values": [60], "replications": 30, "true_order": 3,
        "true_coefficients": [0.2, -0.1, 0.3], "seed": 909,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for i, jobs in enumerate((1, 3, 1)):
        out = tmp_path / f"run{i}"
        code = cli_main([
            "experiment", "--config", str(cfg_path),
            "--out", str(out), "--jobs", str(jobs),
        ])
        assert code == 0
        outs.append(out)
    for name in ("histogram.csv", "prob_correct.csv", "avg_prob.csv"):
        blobs = [(o / name).read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2], name
    print(
        "criterion 9 PASS: histogram/prob_correct/avg_prob CSVs byte-identical "
        "across --jobs 1, 3, 1"
    )
