import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool
import scipy.linalg
import scipy.linalg.lapack

from conftest import TRUE_COEFFS
from mcselect import experiments, models, regions
from mcselect.experiments import (
    ConfigError,
    ExperimentConfig,
    NoViableCandidate,
    candidate_fits,
    close_pool,
    config_from_dict,
    run_diagnostics,
    run_experiment,
    score_candidates,
    select_once,
    write_report,
)
from mcselect.models import Dataset, generate_data
from mcselect.regions import BoxCollapsed, PartitionTooLarge
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


def _report_dict(report):
    """The whole report less its wall time, which is all that may differ."""
    d = report.to_dict()
    del d["wall_time_seconds"]
    return d


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

    def test_schema_table_covers_every_field(self):
        # a field without a table entry could never be set from a config
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(experiments._FIELDS) == fields

    @pytest.mark.parametrize("kind, dropped", [
        ("fixed", {"coef_draws", "coef_halfwidth"}),
        ("random", {"true_order", "true_coefficients"}),
        ("select", {"n_values", "replications", "true_order", "true_coefficients",
                    "coef_draws", "coef_halfwidth"}),
    ], ids=["fixed", "random", "select"])
    def test_kind_keeps_only_its_keys(self, kind, dropped):
        # every key set validly: a kind echoes the keys it uses, and the
        # ones it does not use hold the dataclass defaults
        raw = {
            "experiment": kind, "sigma2": 1.0, "max_order": 3, "rules": ["aic"],
            "samples": 100, "n_values": [40], "replications": 5, "true_order": 2,
            "true_coefficients": [0.4, -0.2], "coef_draws": 2, "coef_halfwidth": 0.5,
            "stratification_segments": 2, "mu": [8.0, 10.0, 12.0], "seed": 3,
        }
        defaults = {
            f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(ExperimentConfig)
            if f.default is not dataclasses.MISSING
        }
        echoed = config_from_dict(raw).to_dict()
        assert echoed == {k: defaults[k] if k in dropped else v for k, v in raw.items()}

    def test_max_order_cap(self):
        cap = experiments.MAX_ORDER
        assert fixed_config(max_order=cap).max_order == cap
        with pytest.raises(ConfigError, match=f"max_order must be <= {cap}, got {cap + 1}$"):
            fixed_config(max_order=cap + 1)

    def test_huge_max_order_rejected_in_a_child(self):
        # the cap must act before anything scales with max_order: ub-strat's
        # partition check does not return at 2**64 and overflows at 10**400,
        # and Phi takes N * max_order floats; the child turns a hang into a
        # timeout
        src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
        code = """if True:
            import json
            from mcselect.experiments import ConfigError, config_from_dict
            base = {"sigma2": 1.0, "samples": 100, "n_values": [40], "replications": 2,
                    "true_order": 2, "true_coefficients": [0.4, -0.2],
                    "coef_draws": 2, "coef_halfwidth": 0.5}
            out = []
            for kind in ("fixed", "random", "select"):
                for rules in (["aic"], ["aic", "ub-strat"]):
                    for exp in ((2, 64), (10, 400)):
                        raw = dict(base, experiment=kind, rules=rules, max_order=exp[0] ** exp[1])
                        try:
                            config_from_dict(raw)
                            out.append("accepted")
                        except ConfigError as err:
                            out.append(str(err))
            print(json.dumps(out))
        """
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        want = [f"max_order must be <= {experiments.MAX_ORDER}, got {b ** e}"
                for _ in range(6) for b, e in ((2, 64), (10, 400))]
        assert json.loads(proc.stdout) == want


    def test_samples_cap_in_a_child(self):
        # the cap must act before stratification_segments, which raises
        # OverflowError at 10**400; the child turns a hang into a timeout
        src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
        code = """if True:
            import json
            from mcselect.experiments import MAX_SAMPLES, config_from_dict
            base = {"sigma2": 1.0, "max_order": 3, "n_values": [40], "replications": 2,
                    "true_order": 2, "true_coefficients": [0.4, -0.2],
                    "coef_draws": 2, "coef_halfwidth": 0.5}
            out = []
            for kind in ("fixed", "random", "select"):
                for rules in (["aic"], ["aic", "ub-strat"]):
                    for samples in (MAX_SAMPLES, MAX_SAMPLES + 1, 10**400):
                        raw = dict(base, experiment=kind, rules=rules, samples=samples)
                        try:
                            out.append(config_from_dict(raw).samples == samples)
                        except ValueError as err:  # ConfigError, PartitionTooLarge
                            out.append(f"{type(err).__name__}: {err}")
            print(json.dumps(out))
        """
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        cap = experiments.MAX_SAMPLES
        over = [f"ConfigError: samples must be <= {cap}, got {v}" for v in (cap + 1, 10**400)]
        # 464 segments per axis for 10**8 draws at order 3
        strat = ("PartitionTooLarge: 464^3 sub-boxes exceeds the cap of 1000000; "
                 "lower stratification_segments or max_order")
        want = [True, *over, strat, *over] * 3
        assert json.loads(proc.stdout) == want


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

    @pytest.mark.parametrize("over, expect", [
        ({"rules": ["aic", "bic", "ub"]}, {}),
        ({"rules": list(experiments.RULES), "samples": 60}, {}),
        ({"n_values": [3, 40], "max_order": 4, "replications": 6, "seed": 31,
          "rules": list(experiments.RULES), "samples": 60}, {"excluded_orders": {4: 6}}),
        ({"n_values": [3, 40], "max_order": 4, "replications": 6, "seed": 31,
          "rules": ["bic", "ub"], "sigma2": 1e-40},
         {"excluded_orders": {4: 6}, "failures": {"bic": 0, "ub": 12}}),
    ], ids=["three-rules", "seven-rules", "excluded-orders", "collapsed-box"])
    def test_parallel_matches_serial(self, over, expect):
        cfg = fixed_config(**{"replications": 8, **over})
        serial = _report_dict(run_experiment(cfg, jobs=1))
        assert serial == _report_dict(run_experiment(cfg, jobs=3))
        assert {k: serial[k] for k in expect} == expect

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

    def test_stalled_rejection_fails_only_its_rule(self):
        # at radius 0.001 ge's rejection stalls at order 3 in every replication
        report = run_experiment(fixed_config(rules=["aic", "ge"], mu=[0.001] * 3, replications=4))
        assert report.failures == {"aic": 0, "ge": 4}
        assert sum(report.counts["aic"][40][2]) == 4
        assert report.mean_mc_std_error_log["ge"] is None

    def test_no_finite_order_fails_every_rule(self, monkeypatch):
        def huge(rng, order, coefficients, sigma2, n_points):
            return Dataset(np.where(np.arange(n_points) % 2, -1e200, 1e200), sigma2)

        monkeypatch.setattr(experiments, "generate_data", huge)
        report = run_experiment(fixed_config(rules=["aic", "ue", "ub"], replications=2))
        assert report.failures == {"aic": 2, "ue": 2, "ub": 2}
        assert report.excluded == {1: 2, 2: 2, 3: 2}
        assert report.mean_mc_std_error_log == {"aic": None, "ue": None, "ub": None}

    def test_unresolved_seed_rejected(self):
        cfg = fixed_config()
        cfg = cfg.with_seed(None)
        with pytest.raises(ConfigError, match="seed"):
            run_experiment(cfg)

    def test_stratification_cap_checked_upfront(self):
        with pytest.raises(PartitionTooLarge):
            fixed_config(
                rules=["ub-strat"], max_order=3, true_order=2,
                stratification_segments=101,
            )


class TestTallyRecount:
    """run_experiment's tallies equal a recount that reruns every task
    through random_stream, generate_data and score_candidates.  N = 3
    excludes order 4, and at radius 0.001 ge's rejection stalls at order 3
    in every replication, so every kind of tally is exercised."""

    BASE = {"sigma2": 1.0, "max_order": 4, "rules": ["aic", "ue", "ge", "ub"],
            "samples": 60, "n_values": [3, 30], "mu": [0.001] * 4, "seed": 19}
    KINDS = {
        "fixed": {"experiment": "fixed", "replications": 3, "true_order": 2,
                  "true_coefficients": [0.4, -0.2]},
        "random": {"experiment": "random", "replications": 1, "coef_draws": 2,
                   "coef_halfwidth": 0.5},
    }

    @staticmethod
    def _tasks(cfg):
        """(N, true order, coefficients) of each task in stream order: N,
        then true order, then coefficient draw, then replication."""
        if cfg.experiment == "fixed":
            draws = [(cfg.true_order, cfg.true_coefficients)]
        else:
            m, h = cfg.coef_draws, cfg.coef_halfwidth
            draws = [(t, -h + 2.0 * h * random_stream(cfg.seed, 2**48 + (t - 1) * m + j).random(t))
                     for t in range(1, cfg.max_order + 1) for j in range(m)]
        grid = itertools.product(cfg.n_values, draws, range(cfg.replications))
        return [(n, t, coeffs) for n, (t, coeffs), _ in grid]

    def _recount(self, cfg):
        counts = {rule: {n: {} for n in cfg.n_values} for rule in cfg.rules}
        failures = dict.fromkeys(cfg.rules, 0)
        excluded = {}
        ses = {rule: [] for rule in cfg.rules}
        for i, (n, t, coeffs) in enumerate(self._tasks(cfg)):
            data = generate_data(random_stream(cfg.seed, i), t, coeffs, cfg.sigma2, n)
            outcomes = score_candidates(data, cfg, i, candidate_fits(data, cfg))
            for order, score in enumerate(outcomes["aic"].scores, start=1):
                if score is None:
                    excluded[order] = excluded.get(order, 0) + 1
            for rule, out in outcomes.items():
                row = counts[rule][n].setdefault(t, [0] * cfg.max_order)
                if out.selected_order is None:
                    failures[rule] += 1
                else:
                    row[out.selected_order - 1] += 1
                ses[rule] += [s for s in out.extra.get("mc_std_error_log", ()) if s is not None]
        mean = {rule: sum(v) / len(v) if v else None for rule, v in ses.items()}
        return counts, failures, excluded, mean

    @pytest.mark.parametrize("kind", KINDS)
    def test_report_equals_recount(self, kind):
        cfg = config_from_dict({**self.BASE, **self.KINDS[kind]})
        counts, failures, excluded, mean = self._recount(cfg)
        n_tasks = len(self._tasks(cfg))
        assert failures == {"aic": 0, "ue": 0, "ge": n_tasks, "ub": 0}
        assert excluded == {4: n_tasks // 2}
        assert mean["aic"] is None and mean["ge"] is None
        for jobs in (1, 2):
            report = run_experiment(cfg, jobs=jobs)
            assert report.counts == counts
            assert report.failures == failures
            assert report.excluded == excluded
            assert set(report.mean_mc_std_error_log) == set(mean)
            for rule, want in mean.items():
                got = report.mean_mc_std_error_log[rule]
                if want is None:
                    assert got is None, rule
                else:
                    assert got == pytest.approx(want, rel=1e-14, abs=0.0), rule


class _SerialPool:
    """ProcessPoolExecutor stand-in that records its size and maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, items, chunksize=1):
        return map(fn, items)

    def shutdown(self, wait=True):
        pass


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


def _gone(pids, timeout=30.0) -> bool:
    """True once no process of pids is left, not even unreaped."""
    deadline = time.monotonic() + timeout
    while True:
        left = []
        for pid in pids:
            try:
                os.kill(pid, 0)
                left.append(pid)
            except ProcessLookupError:
                pass
        if not left or time.monotonic() > deadline:
            return not left
        time.sleep(0.05)


def _die(args):
    """A replication that kills its worker."""
    os._exit(3)


def _parallel_run_in_child(cfg, conn):
    """Target of a forked child: one parallel run, checked against a serial
    one, then the child's own workers are sent back."""
    same = _report_dict(run_experiment(cfg, jobs=2)) == _report_dict(run_experiment(cfg))
    conn.send((same, sorted(p.pid for p in multiprocessing.active_children())))
    conn.close()


class TestKeptPool:
    """A process keeps one pool: later runs with its worker count reuse its
    workers, another count or a dead worker gets a fresh pool, and the
    process still exits and leaves no worker behind."""

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        # the worker count is then the jobs value on any host
        monkeypatch.setattr(experiments.os, "sched_getaffinity",
                            lambda pid: set(range(4)), raising=False)

    @staticmethod
    def _workers():
        return sorted(p.pid for p in multiprocessing.active_children())

    def test_runs_reuse_the_workers(self):
        cfg = fixed_config(replications=8)
        serial = _report_dict(run_experiment(cfg, jobs=1))
        assert self._workers() == []
        first = _report_dict(run_experiment(cfg, jobs=2))
        pids = self._workers()
        second = _report_dict(run_experiment(cfg.with_seed(7), jobs=2))
        assert len(pids) == 2 and self._workers() == pids
        assert first == serial
        assert second == _report_dict(run_experiment(cfg.with_seed(7), jobs=1))

    def test_new_worker_count_joins_the_old_workers(self):
        cfg = fixed_config(replications=8)
        run_experiment(cfg, jobs=2)
        old = self._workers()
        assert _report_dict(run_experiment(cfg, jobs=3)) == _report_dict(run_experiment(cfg))
        assert _gone(old, timeout=0.0)
        assert len(self._workers()) == 3

    @pytest.mark.parametrize("wait", [True, False], ids=["seen-by-the-pool", "next-run-at-once"])
    def test_killed_worker_gets_a_fresh_pool(self, wait):
        cfg = fixed_config(replications=8)
        run_experiment(cfg, jobs=2)
        old = self._workers()
        os.kill(old[0], signal.SIGKILL)
        if wait:
            # the pool sees the death, marks itself broken and ends the rest
            assert _gone(old)
        assert _report_dict(run_experiment(cfg, jobs=2)) == _report_dict(run_experiment(cfg))
        assert _gone(old, timeout=5.0)
        assert len(self._workers()) == 2 and set(self._workers()).isdisjoint(old)

    def test_worker_dying_in_a_fresh_pool_raises(self, monkeypatch):
        monkeypatch.setattr(experiments, "_replication_task", _die)
        with pytest.raises(BrokenProcessPool):
            run_experiment(fixed_config(replications=8), jobs=2)
        assert self._workers() == []

    def test_close_pool_ends_the_workers(self):
        cfg = fixed_config(replications=8)
        run_experiment(cfg, jobs=2)
        old = self._workers()
        close_pool()
        assert self._workers() == [] and _gone(old, timeout=0.0)
        assert _report_dict(run_experiment(cfg, jobs=2)) == _report_dict(run_experiment(cfg))
        assert set(self._workers()).isdisjoint(old)

    def test_forked_child_forks_its_own_pool(self):
        # the child inherits a copy of the kept pool without its threads; it
        # must neither use that copy nor hang at exit joining its own workers
        cfg = fixed_config(replications=8)
        run_experiment(cfg, jobs=2)
        parent_workers = self._workers()
        recv, send = multiprocessing.Pipe(duplex=False)
        child = multiprocessing.get_context("fork").Process(
            target=_parallel_run_in_child, args=(cfg, send))
        child.start()
        pids = []
        try:
            assert recv.poll(60), "the child's parallel run did not finish"
            same, pids = recv.recv()
            child.join(60)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
                for pid in pids:  # its workers, orphaned now
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
        assert same and len(pids) == 2 and set(pids).isdisjoint(parent_workers)
        assert _gone(pids, timeout=5.0)
        assert self._workers() == parent_workers

    def test_process_exits_and_leaves_no_worker(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
        code = """if True:
            import json, multiprocessing, os
            from mcselect import experiments
            os.sched_getaffinity = lambda pid: set(range(4))
            raw = {"experiment": "fixed", "sigma2": 1.0, "max_order": 3,
                   "rules": ["aic", "ub"], "samples": 100, "n_values": [40],
                   "replications": 8, "true_order": 2,
                   "true_coefficients": [0.4, -0.2], "seed": 5}
            experiments.run_experiment(experiments.config_from_dict(raw), jobs=2)
            print(json.dumps([p.pid for p in multiprocessing.active_children()]))
        """
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        pids = json.loads(proc.stdout)
        assert len(pids) == 2
        assert _gone(pids, timeout=5.0)


class TestSharedFactor:
    """One design per cell (N, max_order, sigma2): its regressors are built
    on the first dataset of the cell only.  No scipy kernel runs: no
    Cholesky, no dtrtri and no triangular solve.  No rule builds an
    ellipsoid: ue, ueg and ge make one radius-only estimate per order and
    dataset; ub and ub-strat build one whitened box per order on the cell's
    first dataset only; aic and bic need neither."""

    def _count(self, monkeypatch, module, name, calls=None):
        calls = [] if calls is None else calls
        orig = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("rules, radial, boxes", [
        (["aic", "bic"], 0, 0),
        (["aic", "bic", "ub"], 0, 6),
        # 50 samples at max_order 6 leave ub-strat one segment: ub's boxes
        (["aic", "bic", "ue", "ueg", "ge", "ub", "ub-strat"], 18, 6),
    ])
    def test_calls_per_dataset(self, monkeypatch, rules, radial, boxes):
        regressors = self._count(monkeypatch, models, "polynomial_regressors")
        designs = self._count(monkeypatch, models, "build_design")
        by_radius = []
        for name in ("ue_estimate", "ueg_estimate", "ge_estimate"):
            self._count(monkeypatch, experiments, name, by_radius)
        whitened = self._count(monkeypatch, models, "whiten_box")
        # the home attribute and every mcselect binding of each kernel, so a
        # module that imports one by name is counted too
        kernels = {}
        for home, name in ((scipy.linalg, "cholesky"), (scipy.linalg, "solve_triangular"),
                           (scipy.linalg.lapack, "dtrtri"), (regions, "build_ellipsoid")):
            calls = kernels[name] = []
            bound = [m for key, m in sorted(sys.modules.items())
                     if key.startswith("mcselect") and m is not home and hasattr(m, name)]
            for module in [home] + bound:
                self._count(monkeypatch, module, name, calls)
        built = kernels["build_ellipsoid"]

        def counts():
            return (len(kernels["cholesky"]), len(regressors), len(kernels["dtrtri"]),
                    len(kernels["solve_triangular"]), len(designs))

        raw = {"experiment": "select", "sigma2": 1.0, "max_order": 6,
               "rules": rules, "samples": 50, "seed": 3}
        models.polynomial_design.cache_clear()
        select_once(Dataset(np.sin(np.arange(100.0)), 1.0), config_from_dict(raw))
        assert counts() == (0, 1, 0, 0, 1)
        assert (len(built), len(by_radius), len(whitened)) == (0, radial, boxes)
        # a second dataset of the same cell reuses the design and its boxes
        select_once(Dataset(np.cos(np.arange(100.0)), 1.0), config_from_dict(raw))
        assert counts() == (0, 1, 0, 0, 1)
        assert (len(built), len(by_radius), len(whitened)) == (0, 2 * radial, boxes)
        # a new sigma2 is a new cell: exactly one more design
        raw["sigma2"] = 0.37
        select_once(Dataset(np.sin(np.arange(100.0)), 0.37), config_from_dict(raw))
        assert counts() == (0, 2, 0, 0, 2)
        assert len(whitened) == 2 * boxes

    @pytest.mark.parametrize("rule", ["ub", "ub-strat"])
    def test_box_rules_score_a_fit_by_its_own_design(self, rule):
        # a fit() fit carries a design of its own: its order-2 box is built
        # from the same factor bits as the cell's, so the estimates agree
        cfg = config_from_dict({"experiment": "select", "sigma2": 1.0, "max_order": 3,
                                "rules": [rule], "samples": 50, "seed": 3})
        data = Dataset(np.sin(np.arange(40.0)), 1.0)
        nested = models.fit_nested(data, models.polynomial_design(40, 3, 1.0))[1]
        own = models.fit(data, models.polynomial_regressors(40, 2))
        assert own.design is not nested.design and own.design.width == 2
        want = experiments.RULES[rule](random_stream(60, 0), nested, cfg)
        assert experiments.RULES[rule](random_stream(60, 0), own, cfg) == want
        # 50 samples at max_order 3: ub-strat has 3 x 3 strata of 6 draws
        assert want.samples_used == (50 if rule == "ub" else 54)


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

    @pytest.mark.parametrize("over, excluded", [
        ({}, {}),
        ({"n_values": [3, 30], "max_order": 4, "coef_draws": 1,
          "rules": ["aic", "ue", "ub"]}, {4: 16}),
    ], ids=["default", "excluded-orders"])
    def test_parallel_matches_serial(self, over, excluded):
        cfg = random_config(**over)
        serial = _report_dict(run_experiment(cfg, jobs=1))
        assert serial == _report_dict(run_experiment(cfg, jobs=2))
        assert serial["excluded_orders"] == excluded


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

    The digest moves whenever a rule's stream, an estimator or a region
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
            "d3fd6c3448e115bcac9fb386d8a58883ee6c70c40f03de57818e2d40e1333558"
        )


class TestRuleStreams:
    """Each rule draws from a stream of its own, so its scores do not depend
    on which other rules run, or in what order."""

    SEVEN = ["aic", "bic", "ue", "ueg", "ge", "ub", "ub-strat"]

    @pytest.mark.parametrize("rule", ["ue", "ge", "ub", "ub-strat"])
    def test_select_once_alone_last_or_reversed(self, rule):
        data = generate_data(random_stream(7, 0), 4, TRUE_COEFFS, 0.37, 100)
        others = [r for r in self.SEVEN if r != rule]
        seen = []
        for rules in ([rule], others + [rule], self.SEVEN[::-1]):
            cfg = config_from_dict({"experiment": "select", "sigma2": 0.37, "max_order": 6,
                                    "rules": rules, "samples": 200, "seed": 7})
            out = select_once(data, cfg)[rule]
            seen.append((out.scores, out.extra["mc_std_error_log"], out.selected_order))
        assert seen[1] == seen[0]
        assert seen[2] == seen[0]

    def test_experiment_rows_of_a_rule_alone_and_among_others(self, tmp_path):
        rows = []
        for k, rules in enumerate((["ub"], ["aic", "ue", "ge", "ub"])):
            cfg = fixed_config(rules=rules, max_order=4, n_values=[20, 40], replications=20,
                               samples=100)
            report = run_experiment(cfg)
            paths = write_report(report, tmp_path / str(k))
            csv_rows = {}
            for name in ("histogram", "prob_correct", "avg_prob"):
                with open(paths[name]) as fh:
                    csv_rows[name] = [line for line in fh if line.startswith("ub,")]
            rows.append((csv_rows, report.failures["ub"], report.mean_mc_std_error_log["ub"]))
        assert all(rows[0][0].values())
        assert rows[1] == rows[0]


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

    # at radius 0.001 ge's truncated Gaussian accepts about 1 proposal in
    # 66 000 at order 3, under the acceptance floor
    STALLED = {"experiment": "select", "sigma2": 0.37, "max_order": 6,
               "samples": 500, "seed": 7, "mu": [0.001] * 6}

    def test_stalled_rejection_excludes_only_its_rule(self):
        data = generate_data(random_stream(7, 0), 4, TRUE_COEFFS, 0.37, 100)
        outcomes = select_once(data, config_from_dict({**self.STALLED, "rules": ["aic", "ge"]}))
        assert outcomes["aic"].selected_order is not None
        assert "excluded" not in outcomes["aic"].extra
        assert outcomes["ge"].selected_order is None
        assert outcomes["ge"].scores == [None] * 6
        assert outcomes["ge"].extra["excluded"].startswith("order 3: ")
        assert outcomes["ge"].extra["excluded"].endswith("(rate below 0.0001)")

    def test_non_finite_order_excluded_for_every_rule(self):
        # y = 1e160 t: order 1's residual sum of squares overflows, order 2
        # fits it; no rule scores order 1, and every rule still selects
        y = 1e160 * models.polynomial_regressors(50, 2)[:, 1]
        cfg = config_from_dict({"experiment": "select", "sigma2": 1.0, "max_order": 4,
                                "rules": ["aic", "bic", "ue", "ueg", "ge"],
                                "samples": 100, "seed": 7})
        for rule, out in select_once(Dataset(y, 1.0), cfg).items():
            assert out.scores[0] is None and out.selected_order >= 2, rule
            assert all(math.isfinite(v) for v in out.scores[1:]), rule

    def test_no_finite_order_is_no_viable_candidate(self):
        data = Dataset(np.where(np.arange(50) % 2, -1e200, 1e200), 1.0)
        cfg = config_from_dict({"experiment": "select", "sigma2": 1.0, "max_order": 6,
                                "rules": ["aic", "ub"], "samples": 100, "seed": 7})
        with pytest.raises(NoViableCandidate, match="^every rule was excluded: aic: no order "
                           "has a finite maximum log-likelihood; ub: no order"):
            select_once(data, cfg)

    def test_every_rule_excluded_is_no_viable_candidate(self):
        data = generate_data(random_stream(7, 0), 4, TRUE_COEFFS, 0.37, 100)
        with pytest.raises(NoViableCandidate, match="^every rule was excluded: ge: "):
            select_once(data, config_from_dict({**self.STALLED, "rules": ["ge"]}))


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

    @staticmethod
    def _tiny_noise(sigma2):
        return fixed_config(sigma2=sigma2, max_order=6, true_order=4, n_values=[100],
                            true_coefficients=[0.1, 0.1, -0.3, 0.4], samples=2000,
                            replications=5, seed=7)

    @staticmethod
    def _sampler_figures(diag):
        keys = [f"{name}_{what}" for name in ("box_rejection", "gaussian_rejection")
                for what in ("acceptance", "proposals")]
        return [[row[k] for k in keys] for row in diag["samplers"]]

    @pytest.fixture(scope="class")
    def at_unit_noise(self):
        return self._sampler_figures(run_diagnostics(self._tiny_noise(1.0)))

    @pytest.mark.parametrize("sigma2", [0.37, 1e-20, 1e-26, 1e-28])
    def test_same_figures_at_every_noise_level(self, at_unit_noise, sigma2):
        # the whitened box and radii do not depend on sigma2, and neither
        # does the stream: theta-space proposals offset by theta_hat lost
        # precision from about 1e-20 on
        assert self._sampler_figures(run_diagnostics(self._tiny_noise(sigma2))) == at_unit_noise
        assert at_unit_noise[0][0] == 1.0  # the order-1 box is its interval

    def test_collapsed_box_still_raises(self):
        with pytest.raises(BoxCollapsed, match="^order 2: the bounding box"):
            run_diagnostics(self._tiny_noise(1e-29))


class TestOneFrame:
    """No package entry point calls theta-space code: with every theta-space
    function and region constructor patched to raise, a seven-rule
    select_once, a small run_experiment and run_diagnostics still run."""

    NAMES = {
        "numerics": ("cholesky", "cholesky_solve", "log_det"),
        "models": ("log_likelihood", "fit"),
        "regions": ("build_ellipsoid", "mahalanobis_sq", "ellipsoid_log_volume",
                    "bounding_box", "partition"),
        "sampling": ("sample_uniform_box", "sample_uniform_ellipsoid", "sample_gaussian",
                     "sample_truncated_gaussian", "_box_proposer", "_ellipsoid_indicator",
                     "_gaussian_proposer"),
    }

    @pytest.fixture(autouse=True)
    def theta_space_raises(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("theta-space code ran")

        package = [m for key, m in sorted(sys.modules.items())
                   if key == "mcselect" or key.startswith("mcselect.")]
        for module, names in self.NAMES.items():
            home = sys.modules[f"mcselect.{module}"]
            for name in names:
                orig = getattr(home, name)
                for m in package:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            monkeypatch.setattr(m, key, boom)
        for cls in (regions.Ellipsoid, regions.Box, regions.BoxPartition):
            monkeypatch.setattr(cls, "__init__", boom)
        monkeypatch.setattr(models.FittedModel, "log_likelihood_batch", boom)
        with pytest.raises(AssertionError, match="theta-space code ran"):
            models.fit(Dataset(np.ones(5), 1.0), np.ones((5, 1)))

    SEVEN = ["aic", "bic", "ue", "ueg", "ge", "ub", "ub-strat"]

    def test_select_once(self):
        data = generate_data(random_stream(7, 0), 4, TRUE_COEFFS, 0.37, 100)
        cfg = config_from_dict({"experiment": "select", "sigma2": 0.37, "max_order": 6,
                                "rules": self.SEVEN, "samples": 200, "seed": 7})
        outcomes = select_once(data, cfg)
        assert all(out.selected_order is not None for out in outcomes.values())

    def test_run_experiment(self):
        report = run_experiment(fixed_config(rules=self.SEVEN, replications=3))
        assert report.failures == dict.fromkeys(self.SEVEN, 0)

    def test_run_diagnostics(self):
        diag = run_diagnostics(fixed_config(replications=3))
        assert diag["coverage"]["replications"] == 3


class TestWriteReport:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_refused_before_writing(self, tmp_path, value):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            experiments.write_json(path, {"scores": [1.0, value]})
        assert not path.exists()

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
