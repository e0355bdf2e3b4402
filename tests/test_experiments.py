import hashlib
import json
import math
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from conftest import TRUE_COEFFS
from mcselect import experiments, models
from mcselect.experiments import (
    ConfigError,
    config_from_dict,
    run_diagnostics,
    run_experiment,
    select_once,
    write_report,
)
from mcselect.models import Dataset, generate_data
from mcselect.regions import PartitionTooLarge
from mcselect.sampling import random_stream


def fixed_config(**over):
    raw = {
        "experiment": "fixed",
        "sigma2": 1.0,
        "max_order": 3,
        "rules": ["aic", "bic", "ub"],
        "samples": 200,
        "n_values": [40],
        "replications": 10,
        "true_order": 2,
        "true_coefficients": [0.4, -0.2],
        "seed": 11,
    }
    raw.update(over)
    return config_from_dict(raw)


def random_config(**over):
    raw = {
        "experiment": "random",
        "sigma2": 1.0,
        "max_order": 2,
        "rules": ["bic", "ub"],
        "samples": 150,
        "n_values": [30],
        "replications": 4,
        "coef_draws": 3,
        "coef_halfwidth": 0.5,
        "seed": 12,
    }
    raw.update(over)
    return config_from_dict(raw)


class TestConfigValidation:
    def test_valid_fixed(self):
        cfg = fixed_config()
        assert cfg.experiment == "fixed"
        assert cfg.rules == ("aic", "bic", "ub")
        assert cfg.mu_for(2) == 10.0

    def test_missing_key_named(self):
        raw = fixed_config().to_dict()
        raw.pop("sigma2")
        with pytest.raises(ConfigError, match="sigma2"):
            config_from_dict(raw)

    def test_unknown_key_named(self):
        raw = fixed_config().to_dict()
        raw["sigma"] = 1.0
        with pytest.raises(ConfigError, match="sigma"):
            config_from_dict(raw)

    def test_unknown_rule_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="ub-strat"):
            fixed_config(rules=["dic"])

    def test_rule_case_insensitive(self):
        assert fixed_config(rules=["AIC", "Ub"]).rules == ("aic", "ub")

    def test_duplicate_rules(self):
        with pytest.raises(ConfigError, match="duplicate"):
            fixed_config(rules=["aic", "aic"])

    def test_duplicate_n_values(self):
        # both cells would tally into one N and report twice the replications
        with pytest.raises(ConfigError, match="n_values contains duplicates"):
            fixed_config(n_values=[40, 40], replications=5)

    def test_bad_types(self):
        with pytest.raises(ConfigError, match="samples"):
            fixed_config(samples="many")
        with pytest.raises(ConfigError, match="sigma2"):
            fixed_config(sigma2=-1.0)
        with pytest.raises(ConfigError, match="n_values"):
            fixed_config(n_values=[1])

    def test_coefficient_count(self):
        with pytest.raises(ConfigError, match="true_coefficients"):
            fixed_config(true_coefficients=[0.1])

    def test_true_order_range(self):
        with pytest.raises(ConfigError, match="true_order"):
            fixed_config(true_order=5)

    def test_mu_length(self):
        with pytest.raises(ConfigError, match="mu"):
            fixed_config(mu=[8.0])
        cfg = fixed_config(mu=[8.0, 10.0, 12.0])
        assert cfg.mu_for(3) == 12.0

    def test_mu_rejects_booleans(self):
        # true is an int to Python; read as a radius it would be mu = 1.0
        with pytest.raises(ConfigError, match="mu"):
            fixed_config(mu=[True, 10.0, 12.0])

    def test_random_requirements(self):
        raw = random_config().to_dict()
        raw.pop("coef_draws")
        with pytest.raises(ConfigError, match="coef_draws"):
            config_from_dict(raw)

    def test_experiment_kind(self):
        raw = fixed_config().to_dict()
        raw["experiment"] = "sweep"
        with pytest.raises(ConfigError, match="experiment"):
            config_from_dict(raw)

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            fixed_config(seed=-2)

    def test_select_kind_minimal(self):
        cfg = config_from_dict(
            {
                "experiment": "select",
                "sigma2": 1.0,
                "max_order": 4,
                "rules": ["aic"],
                "samples": 100,
                "seed": 1,
            }
        )
        assert cfg.experiment == "select"


class TestRunFixed:
    def test_deterministic_and_tallies(self):
        cfg = fixed_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.counts == b.counts
        assert a.totals == b.totals
        for rule in cfg.rules:
            assert sum(a.counts[rule][40][2]) == 10
            assert a.totals[rule][40][2] == 10

    @pytest.mark.parametrize("rules, samples", [
        (["aic", "bic", "ub"], 200),
        (["aic", "bic", "ue", "ueg", "ge", "ub", "ub-strat"], 60),
    ], ids=["three-rules", "seven-rules"])
    def test_parallel_matches_serial(self, rules, samples):
        cfg = fixed_config(replications=8, rules=rules, samples=samples)
        serial = run_experiment(cfg, jobs=1)
        parallel = run_experiment(cfg, jobs=3)
        assert serial.counts == parallel.counts
        assert serial.failures == parallel.failures
        assert serial.mean_mc_std_error_log == parallel.mean_mc_std_error_log

    def test_near_noise_free_never_underfits(self):
        # With the configured noise variance entering the likelihood, nested
        # likelihood-ratio gaps are pivotal: shrinking sigma2 cannot change
        # any decision (the same standardized noise gives the same fits up
        # to scale), it only guarantees that underfitting never happens.
        base = dict(
            n_values=[100],
            replications=50,
            max_order=6,
            true_order=4,
            true_coefficients=[0.1, 0.1, -0.3, 0.4],
            rules=["aic", "bic", "ub"],
            samples=200,
            seed=21,
        )
        tiny = run_experiment(fixed_config(sigma2=1e-20, **base))
        unit = run_experiment(fixed_config(sigma2=1.0, **base))
        assert tiny.counts == unit.counts
        for rule in ("aic", "bic", "ub"):
            counts = tiny.counts[rule][100][4]
            assert sum(counts[:3]) == 0  # orders below the truth never win
        assert tiny.prob_correct("bic", 100, 4) >= 0.9
        assert tiny.prob_correct("ub", 100, 4) >= 0.9
        assert tiny.prob_correct("aic", 100, 4) >= 0.6

    def test_mc_rules_report_standard_error(self):
        cfg = fixed_config(rules=["ub", "ue", "bic"], replications=4)
        report = run_experiment(cfg)
        assert report.mean_mc_std_error_log["ub"] > 0.0
        assert report.mean_mc_std_error_log["ue"] > 0.0
        assert report.mean_mc_std_error_log["bic"] is None

    def test_singular_orders_excluded_not_fatal(self):
        # N=3 cannot support the order-4 design; selection continues on 1..3
        cfg = fixed_config(
            n_values=[3],
            max_order=4,
            true_order=2,
            true_coefficients=[0.4, -0.2],
            replications=6,
            rules=["bic", "ub"],
            seed=31,
        )
        report = run_experiment(cfg)
        assert report.excluded.get(4) == 6
        assert report.failures == {"bic": 0, "ub": 0}
        for rule in cfg.rules:
            assert sum(report.counts[rule][3][2]) == 6
            assert report.counts[rule][3][2][3] == 0  # order 4 never selected

    def test_collapsed_box_fails_only_its_rule(self):
        # at sigma2 1e-40 the order-1 box is below float64 resolution at
        # theta_hat, so ub is excluded in every replication; bic needs no box
        report = run_experiment(fixed_config(sigma2=1e-40, rules=["bic", "ub"], replications=5))
        assert report.failures == {"bic": 0, "ub": 5}
        assert report.excluded == {}
        assert sum(report.counts["bic"][40][2]) == 5
        assert report.mean_mc_std_error_log["ub"] is None

    def test_unresolved_seed_rejected(self):
        cfg = fixed_config()
        cfg = cfg.with_seed(None)
        with pytest.raises(ConfigError, match="seed"):
            run_experiment(cfg)

    def test_stratification_cap_checked_upfront(self):
        cfg = fixed_config(
            rules=["ub-strat"], max_order=3, true_order=2,
            stratification_segments=101,
        )
        with pytest.raises(PartitionTooLarge):
            run_experiment(cfg)


class _SerialPool:
    """ProcessPoolExecutor stand-in that records its size and maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestWorkerCap:
    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        return _SerialPool

    def _cpus(self, monkeypatch, n):
        monkeypatch.setattr(experiments.os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)

    def test_capped_by_task_count(self, pool, monkeypatch):
        self._cpus(monkeypatch, 64)
        cfg = fixed_config(replications=4)
        report = run_experiment(cfg, jobs=500)
        assert pool.sizes == [4]
        assert report.counts == run_experiment(cfg, jobs=1).counts

    def test_capped_by_usable_cpus(self, pool, monkeypatch):
        self._cpus(monkeypatch, 3)
        run_experiment(fixed_config(replications=10), jobs=500)
        assert pool.sizes == [3]

    def test_one_worker_runs_in_process(self, pool, monkeypatch):
        self._cpus(monkeypatch, 1)
        run_experiment(fixed_config(replications=10), jobs=500)
        assert pool.sizes == []

    def test_cpu_count_without_affinity(self, pool, monkeypatch):
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        run_experiment(fixed_config(replications=10), jobs=500)
        assert pool.sizes == [2]


class TestSharedFactor:
    """One design per cell (N, max_order, sigma2): its regressors and its one
    triangular inverse are built on the first dataset of the cell only.  No
    Cholesky and no triangular solve run, and each Monte-Carlo rule builds
    one ellipsoid per order, while aic and bic build none."""

    def _count(self, monkeypatch, module, name, calls=None):
        calls = [] if calls is None else calls
        orig = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("rules, ellipsoids", [
        (["aic", "bic"], 0),
        (["aic", "bic", "ub"], 6),
        (["aic", "bic", "ue", "ueg", "ge", "ub", "ub-strat"], 30),
    ])
    def test_calls_per_dataset(self, monkeypatch, rules, ellipsoids):
        regressors = self._count(monkeypatch, models, "polynomial_regressors")
        designs = self._count(monkeypatch, models, "build_design")
        built = self._count(monkeypatch, experiments, "build_ellipsoid")
        # the scipy attribute and every mcselect binding of each kernel, so a
        # module that imports one by name is counted too
        kernels = {}
        for home, name in ((scipy.linalg, "cholesky"), (scipy.linalg, "solve_triangular"),
                           (scipy.linalg.lapack, "dtrtri")):
            calls = kernels[name] = []
            bound = [m for key, m in sorted(sys.modules.items())
                     if key.startswith("mcselect") and hasattr(m, name)]
            for module in [home] + bound:
                self._count(monkeypatch, module, name, calls)

        def counts():
            return (len(kernels["cholesky"]), len(regressors), len(kernels["dtrtri"]),
                    len(kernels["solve_triangular"]), len(designs))

        raw = {"experiment": "select", "sigma2": 1.0, "max_order": 6,
               "rules": rules, "samples": 50, "seed": 3}
        models.polynomial_design.cache_clear()
        select_once(Dataset(np.sin(np.arange(100.0)), 1.0), config_from_dict(raw))
        assert counts() == (0, 1, 1, 0, 1)
        assert len(built) == ellipsoids
        # a second dataset of the same cell reuses the design
        select_once(Dataset(np.cos(np.arange(100.0)), 1.0), config_from_dict(raw))
        assert counts() == (0, 1, 1, 0, 1)
        assert len(built) == 2 * ellipsoids
        # a new sigma2 is a new cell: exactly one more design
        raw["sigma2"] = 0.37
        select_once(Dataset(np.sin(np.arange(100.0)), 0.37), config_from_dict(raw))
        assert counts() == (0, 2, 2, 0, 2)


class TestRunRandom:
    def test_average_is_mean_of_per_order(self):
        cfg = random_config()
        report = run_experiment(cfg)
        for rule in cfg.rules:
            per_order = [report.prob_correct(rule, 30, t) for t in (1, 2)]
            assert math.isclose(
                report.avg_prob_correct(rule, 30), float(np.mean(per_order)), abs_tol=1e-12
            )

    def test_total_trials(self):
        cfg = random_config()
        report = run_experiment(cfg)
        # 2 true orders x 3 coefficient draws x 4 replications
        assert sum(report.totals["ub"][30].values()) == 24

    def test_single_candidate_degenerate(self):
        cfg = random_config(max_order=1, rules=["aic", "ub"])
        report = run_experiment(cfg)
        assert report.avg_prob_correct("aic", 30) == 1.0
        assert report.avg_prob_correct("ub", 30) == 1.0

    def test_coefficients_within_halfwidth(self):
        # replications see the same drawn coefficients for every N
        cfg = random_config(n_values=[20, 30], replications=2)
        a = run_experiment(cfg)
        assert sum(a.totals["ub"][20].values()) == sum(a.totals["ub"][30].values()) == 12

    def test_parallel_matches_serial(self):
        cfg = random_config()
        assert run_experiment(cfg, jobs=1).counts == run_experiment(cfg, jobs=2).counts


class TestStreamLayout:
    """Pins the (seed, index) layout of replications and coefficient draws.

    The digests were taken from criterion-only runs, so they move only if
    the task enumeration or the data generation changes, not when an
    estimator does.
    """

    def _digest(self, tmp_path, raw):
        paths = write_report(run_experiment(config_from_dict(raw)), tmp_path)
        with open(paths["prob_correct"], "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    _BASE = {"sigma2": 1.0, "rules": ["aic", "bic"], "samples": 100,
             "n_values": [20, 40], "seed": 7}

    def test_fixed(self, tmp_path):
        raw = dict(self._BASE, experiment="fixed", max_order=4, replications=15,
                   true_order=3, true_coefficients=[0.2, -0.3, 0.1])
        assert self._digest(tmp_path, raw) == (
            "09d91b434bec7e13536e2c2e80d318a8670fa46436b831912d3b7ac7abd44059"
        )

    def test_random(self, tmp_path):
        raw = dict(self._BASE, experiment="random", max_order=3, replications=4,
                   coef_draws=3, coef_halfwidth=0.5)
        assert self._digest(tmp_path, raw) == (
            "d5f8b33523b13c8e286b633a056a94d3b9af36a594de4f31527a0c9ef2318f3a"
        )


class TestScorePins:
    """Pins every rule's per-order scores on a small panel of datasets.

    The digest moves whenever the stream order, an estimator or a region
    changes, which the criterion-only digests above and CSV tallies can
    miss.  Scores are hashed at 11 significant digits, so last-bit
    differences between CPUs do not move it.
    """

    def test_every_rule(self):
        rules = ["aic", "bic", "ue", "ueg", "ge", "ub", "ub-strat"]
        lines = []
        for n in (20, 100):
            for s2 in (1.0, 0.37):
                for j in (0, 1):
                    data = generate_data(random_stream(900 + j, n), 4, TRUE_COEFFS, s2, n)
                    cfg = config_from_dict({
                        "experiment": "select", "sigma2": s2, "max_order": 6,
                        "rules": rules, "samples": 200, "seed": 11 + j,
                    })
                    for rule, out in select_once(data, cfg).items():
                        for order, score in enumerate(out.scores, start=1):
                            lines.append(f"{n},{s2},{j},{rule},{order},"
                                         f"{out.selected_order},{score:.10e}")
        assert len(lines) == 336
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "95717d4759c8e6a519005600c856c43d399f355f40af9111e8e8769bda7c422b"
        )


class TestSelectOnce:
    def test_typical_design_recovers_order(self):
        rng = random_stream(51, 0)
        data = generate_data(rng, 4, (0.1, 0.1, -0.3, 0.4), 1.0, 100)
        cfg = config_from_dict(
            {
                "experiment": "select",
                "sigma2": 1.0,
                "max_order": 6,
                "rules": ["aic", "bic", "ub", "ue", "ueg", "ge", "ub-strat"],
                "samples": 1000,
                "seed": 5,
            }
        )
        outcomes = select_once(data, cfg)
        assert set(outcomes) == set(cfg.rules)
        for rule in ("bic", "ub", "ub-strat"):
            assert outcomes[rule].selected_order == 4
        for rule in cfg.rules:
            assert 1 <= outcomes[rule].selected_order <= 6

    def test_constant_data_picks_intercept(self):
        data = Dataset(np.full(30, 1.7), 1.0)
        cfg = config_from_dict(
            {
                "experiment": "select",
                "sigma2": 1.0,
                "max_order": 3,
                "rules": ["aic", "bic", "ub", "ue", "ge", "ueg"],
                "samples": 500,
                "seed": 6,
            }
        )
        outcomes = select_once(data, cfg)
        for rule, out in outcomes.items():
            assert out.selected_order == 1, rule

    def test_mc_scores_carry_standard_errors(self):
        data = Dataset(np.sin(np.arange(25.0)), 1.0)
        cfg = config_from_dict(
            {
                "experiment": "select",
                "sigma2": 1.0,
                "max_order": 2,
                "rules": ["ub"],
                "samples": 64,
                "seed": 7,
            }
        )
        out = select_once(data, cfg)["ub"]
        ses = out.extra["mc_std_error_log"]
        assert len(ses) == 2
        assert all(s >= 0.0 for s in ses)


class TestDiagnostics:
    def test_rates_and_coverage(self):
        cfg = config_from_dict(
            {
                "experiment": "fixed",
                "sigma2": 1.0,
                "max_order": 2,
                "rules": ["ub"],
                "samples": 4_000,
                "n_values": [40],
                "replications": 600,
                "true_order": 2,
                "true_coefficients": [0.3, -0.2],
                "seed": 41,
            }
        )
        diag = run_diagnostics(cfg)
        rows = {r["order"]: r for r in diag["samplers"]}
        # an interval's bounding box is itself: every proposal lands inside
        assert rows[1]["box_rejection_acceptance"] == 1.0
        # d=2 at the default radius: rho = P(chi2_2 <= 10) = 1 - e^-5
        rho = rows[2]["ellipsoid_mass_rho"]
        assert math.isclose(rho, 1.0 - math.exp(-5.0), abs_tol=1e-12)
        assert abs(rows[2]["gaussian_rejection_acceptance"] - rho) < 0.02
        assert abs(rows[2]["box_rejection_acceptance"] - math.pi / 4.0) < 0.03
        cov = diag["coverage"]
        assert cov["order"] == 2
        assert 0.97 <= cov["fraction"] <= 1.0

    def test_box_rejection_below_floor_at_order_7(self):
        # box acceptance at order 7 sits under the 1e-4 floor; that order's
        # box figures become null with the reason, and the run goes on
        cfg = fixed_config(max_order=7, true_order=4, n_values=[100],
                           true_coefficients=[0.1, 0.1, -0.3, 0.4],
                           samples=200, replications=20, seed=5)
        diag = run_diagnostics(cfg)
        rows = {r["order"]: r for r in diag["samplers"]}
        assert sorted(rows) == list(range(1, 8))
        assert rows[7]["box_rejection_acceptance"] is None
        assert rows[7]["box_rejection_proposals"] is None
        assert "proposals accepted" in rows[7]["below_floor"]["box_rejection"]
        assert rows[7]["gaussian_rejection_acceptance"] > 0.9
        assert rows[1]["below_floor"] == {}
        assert rows[1]["box_rejection_acceptance"] == 1.0
        assert diag["coverage"]["replications"] == 20

    def test_requires_fixed_kind(self):
        with pytest.raises(ConfigError):
            run_diagnostics(random_config())


class TestWriteReport:
    def test_artifacts(self, tmp_path):
        cfg = fixed_config(replications=5)
        report = run_experiment(cfg)
        paths = write_report(report, tmp_path)
        hist = (tmp_path / "histogram.csv").read_text().splitlines()
        assert hist[0].startswith("# config: ")
        embedded = json.loads(hist[0][len("# config: "):])
        assert embedded["seed"] == 11
        assert hist[1] == "rule,n_points,true_order,selected_order,count,frequency"
        # 3 rules x 1 N x 1 true order x 3 candidate orders
        assert len(hist) == 2 + 9

        prob = (tmp_path / "prob_correct.csv").read_text().splitlines()
        assert prob[1] == "rule,n_points,true_order,prob_correct,total"
        assert len(prob) == 2 + 3

        avg = (tmp_path / "avg_prob.csv").read_text().splitlines()
        assert avg[1] == "rule,n_points,avg_prob_correct,total"

        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["config"]["samples"] == 200
        assert "prob_correct" in loaded and "wall_time_seconds" in loaded
        assert set(paths) == {"histogram", "prob_correct", "avg_prob", "report"}

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = fixed_config(replications=4)
        write_report(run_experiment(cfg), tmp_path / "a")
        write_report(run_experiment(cfg), tmp_path / "b")
        for name in ("histogram.csv", "prob_correct.csv", "avg_prob.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_frequencies_sum_to_one(self, tmp_path):
        cfg = fixed_config(replications=7)
        report = run_experiment(cfg)
        for rule in cfg.rules:
            freqs = [report.frequency(rule, 40, 2, k) for k in (1, 2, 3)]
            assert math.isclose(sum(freqs), 1.0, rel_tol=1e-12)
