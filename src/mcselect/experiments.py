"""Order-selection experiments over simulated polynomial data.

Two experiment kinds share one engine:

    fixed    one true coefficient vector, replicated noise, any list of N
    random   true coefficients drawn uniformly per order, averaged over
             orders, coefficient draws, and noise replications

Every replication owns counter-based streams keyed by (seed, task index),
so results are independent of worker count and arrival order.  Its data
come from counter slot 0 and each rule draws from a slot of its own (see
RULES), so a rule's result does not depend on which other rules run.  A
replication sends back the orders it excluded and one record per rule:
(selected order or None, sum of the rule's log SEs, their count).  One
loop folds the records in task order into the tallies, so the CSV
artifacts are byte-identical for any --jobs value.

A process keeps one worker pool.  Its workers are forked at the first
run that needs two or more of them and are reused by every later run
with the same worker count, until the process exits or close_pool() is
called; a run with another count joins them before it forks new ones.
Being forked, the workers run the package as it was at that first
parallel run: code patched into it afterwards is not seen by them.
"""

from __future__ import annotations

import json
import math
import multiprocessing.util
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace
from itertools import product

import numpy as np

from .estimators import (
    CriterionScore,
    aic,
    bic,
    ge_estimate,
    stratification_segments,
    ub_estimate,
    ub_stratified_estimate,
    ue_estimate,
    ueg_estimate,
)
from .models import Dataset, fit_nested, generate_data, polynomial_design
from .numerics import chi2_cdf
from .regions import PARTITION_CAP, BoxCollapsed, PartitionTooLarge, default_mu
from .sampling import (
    AcceptanceTooLow,
    accept_reject,
    random_stream,
    standard_normal_sq,
    uniform_box_sq,
)
from .selection import SelectionOutcome, select_criterion, select_map


# rule -> scorer(rng, fit, config).  Criterion rules return a CriterionScore
# and ignore the stream; the rest return a MarginalEstimate under the prior
# of the fit's order: the config's radius, or for the box rules the
# whitened bounding box that the fit's design builds once per cell.
# Estimators are looked up by name at call time, so a wrapper patched onto
# this module (a tracer, a test double) sees every call.  Rule r of task i
# draws from random_stream(seed, i, slot) with slot 1 + r's position here,
# orders ascending; slot 0 holds the task's data.  A new rule goes last, so
# no existing rule's stream moves.
RULES = {
    "aic": lambda rng, f, c: aic(f),
    "bic": lambda rng, f, c: bic(f, f.data.n_points),
    "ue": lambda rng, f, c: ue_estimate(rng, f, c.mu_for(f.dim), c.samples),
    "ueg": lambda rng, f, c: ueg_estimate(rng, f, c.mu_for(f.dim), c.samples),
    "ge": lambda rng, f, c: ge_estimate(rng, f, c.mu_for(f.dim), c.samples),
    "ub": lambda rng, f, c: ub_estimate(
        rng, f, f.design.box(f.dim, c.mu_for(f.dim), 1), c.samples
    ),
    "ub-strat": lambda rng, f, c: ub_stratified_estimate(
        rng, f, f.design.box(f.dim, c.mu_for(f.dim), c.strat_segments()), c.samples
    ),
}
_SLOT = {rule: slot for slot, rule in enumerate(RULES, start=1)}
VALID_EXPERIMENTS = ("fixed", "random", "select")

# streams >= this index feed coefficient draws; replication streams count
# up from 0, so the two regions cannot collide at any realistic scale
_COEF_STREAM_BASE = 2**48


class ConfigError(ValueError):
    """A config file or override is missing, unknown, or ill-typed."""


class NoViableCandidate(RuntimeError):
    """Nothing can be selected: every rule was excluded."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment settings; the JSON config schema is `_FIELDS`."""

    experiment: str
    sigma2: float
    max_order: int
    rules: tuple
    samples: int
    n_values: tuple = ()
    replications: int = 0
    true_order: int | None = None
    true_coefficients: tuple | None = None
    coef_draws: int | None = None
    coef_halfwidth: float | None = None
    stratification_segments: int | None = None
    mu: tuple | None = None
    seed: int | None = None

    def mu_for(self, order: int) -> float:
        return self.mu[order - 1] if self.mu is not None else default_mu(order)

    def strat_segments(self) -> int:
        if self.stratification_segments is not None:
            return self.stratification_segments
        return stratification_segments(self.samples, self.max_order)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


# config key -> (JSON type, the kinds that require it).  A kind keeps the
# keys it requires and the optional ones, which no kind requires; a key
# only other kinds require is type-checked and then dropped.
_FIELDS = {
    "experiment": (str, VALID_EXPERIMENTS),
    "sigma2": ((int, float), VALID_EXPERIMENTS),
    "max_order": (int, VALID_EXPERIMENTS),
    "rules": (list, VALID_EXPERIMENTS),
    "samples": (int, VALID_EXPERIMENTS),
    "n_values": (list, ("fixed", "random")),
    "replications": (int, ("fixed", "random")),
    "true_order": (int, ("fixed",)),
    "true_coefficients": (list, ("fixed",)),
    "coef_draws": (int, ("random",)),
    "coef_halfwidth": ((int, float), ("random",)),
    "stratification_segments": (int, ()),
    "mu": (list, ()),
    "seed": (int, ()),
}
_MINIMUM = {"max_order": 1, "samples": 2, "replications": 1, "coef_draws": 1,
            "stratification_segments": 1}
# The rank rule ends every design on the [-5, 5] grid by column 37 (at
# max_order 48: rank 20 at N = 20, 36 at N = 100, 37 from N = 1000 to
# 100 000), so an order past this cap could only be excluded.  The cap
# keeps Phi's N * max_order floats and ub-strat's L**max_order small.
MAX_ORDER = 64
# At this cap one order's draw block is already 0.8 * d GB (10**8 rows of d
# float64s); a huge value would also overflow ub-strat's segment count.
MAX_SAMPLES = 10**8


def _finite_number(v) -> bool:
    """Not a boolean, NaN or infinite; a huge int compares without overflow."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < math.inf


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config; every complaint names the offending key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    kind = raw.get("experiment")
    if kind not in VALID_EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(VALID_EXPERIMENTS)}, got {kind!r}"
        )
    missing = [k for k, (_, kinds) in _FIELDS.items() if kind in kinds and raw.get(k) is None]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")

    for key, val in raw.items():
        if val is None:
            continue
        want = _FIELDS[key][0]
        if isinstance(val, bool) or not isinstance(val, want):
            raise ConfigError(f"config key {key!r} has invalid type {type(val).__name__}")
    cfg = {k: raw.get(k) for k, (_, kinds) in _FIELDS.items() if kind in kinds or not kinds}

    for key in ("sigma2", "coef_halfwidth"):
        if key in cfg:
            if not (cfg[key] > 0 and math.isfinite(cfg[key])):
                raise ConfigError(f"{key} must be positive and finite, got {cfg[key]}")
            cfg[key] = float(cfg[key])
    for key, low in _MINIMUM.items():
        if cfg.get(key) is not None and cfg[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {cfg[key]}")
    for key, high in (("max_order", MAX_ORDER), ("samples", MAX_SAMPLES)):
        if cfg[key] > high:
            raise ConfigError(f"{key} must be <= {high}, got {cfg[key]}")

    rules = cfg["rules"] = tuple(str(r).lower() for r in cfg["rules"])
    if not rules:
        raise ConfigError("rules must not be empty")
    bad = [r for r in rules if r not in RULES]
    if bad:
        raise ConfigError(
            f"unknown rules: {', '.join(bad)}; valid rules are {', '.join(RULES)}"
        )
    if len(set(rules)) != len(rules):
        raise ConfigError("rules contains duplicates")

    if "n_values" in cfg:
        n_values = cfg["n_values"] = tuple(cfg["n_values"])
        if not n_values or any(not isinstance(n, int) or n < 2 for n in n_values):
            raise ConfigError("n_values must be a non-empty list of integers >= 2")
        if len(set(n_values)) != len(n_values):
            raise ConfigError("n_values contains duplicates")

    if "true_order" in cfg:
        true_order = cfg["true_order"]
        if not 1 <= true_order <= cfg["max_order"]:
            raise ConfigError(
                f"true_order must be in [1, max_order={cfg['max_order']}], got {true_order}"
            )
        coeffs = cfg["true_coefficients"]
        if len(coeffs) != true_order or not all(_finite_number(c) for c in coeffs):
            raise ConfigError(f"true_coefficients must be {true_order} finite numbers")
        cfg["true_coefficients"] = tuple(float(c) for c in coeffs)

    mu = cfg["mu"]
    if mu is not None:
        if len(mu) != cfg["max_order"]:
            raise ConfigError(
                f"mu must list one radius per order (expected {cfg['max_order']}, got {len(mu)})"
            )
        if not all(_finite_number(v) and v > 0 for v in mu):
            raise ConfigError("mu entries must be positive finite numbers")
        cfg["mu"] = tuple(float(v) for v in mu)

    seed = cfg["seed"]
    if seed is not None and not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")

    config = ExperimentConfig(**cfg)
    L = config.strat_segments() if "ub-strat" in rules else 1
    if L**config.max_order > PARTITION_CAP:
        raise PartitionTooLarge(
            f"{L}^{config.max_order} sub-boxes exceeds the cap of {PARTITION_CAP}; "
            "lower stratification_segments or max_order"
        )
    return config


def draw_seed() -> int:
    """Fresh OS-entropy seed, printable and reusable."""
    return int(np.random.SeedSequence().entropy % 2**64)


def candidate_fits(data: Dataset, config: ExperimentConfig) -> list:
    """Fits of orders 1..max_order from the cell's cached design.  None
    marks an order excluded from every rule: one past the design's
    full-rank prefix, or one whose max_loglik is not finite (a residual sum
    of squares that overflows)."""
    return [f if f is not None and math.isfinite(f.max_loglik) else None for f in fit_nested(
        data, polynomial_design(data.n_points, config.max_order, data.noise_variance))]


def score_candidates(data: Dataset, config: ExperimentConfig, index: int, fits: list) -> dict:
    """Apply every configured rule to every candidate order of one dataset.

    Returns rule -> SelectionOutcome.  index is the dataset's task index:
    each rule draws from its own stream of (config.seed, index), as RULES
    lays out.  fits is candidate_fits(data, config); orders it marks None
    are excluded from every rule (None scores).  With no order left, or
    where a rule's box collapses or its rejection sampler stalls, the rule
    is excluded as a whole: its selected_order is None and extra["excluded"]
    gives the reason.
    """
    if all(f is None for f in fits):
        reason = "no order has a finite maximum log-likelihood"
        return {rule: SelectionOutcome(rule, None, [None] * len(fits), {"excluded": reason})
                for rule in config.rules}
    outcomes: dict[str, SelectionOutcome] = {}
    for rule in config.rules:
        scorer, rng = RULES[rule], random_stream(config.seed, index, _SLOT[rule])
        try:
            scored = [None if f is None else scorer(rng, f, config) for f in fits]
        except (BoxCollapsed, AcceptanceTooLow) as err:
            outcomes[rule] = SelectionOutcome(
                rule, None, [None] * len(fits), {"excluded": str(err)}
            )
            continue
        if isinstance(next(s for s in scored if s is not None), CriterionScore):
            outcomes[rule] = select_criterion(scored, rule=rule)
            continue
        ses = [None if est is None else est.mc_std_error_log for est in scored]
        outcomes[rule] = select_map(scored, rule=rule, extra={"mc_std_error_log": ses})
    return outcomes


def _replication_task(args) -> tuple:
    """One dataset: generate, fit, select under every rule.  Top-level so
    process pools can pickle it by reference.  Returns (the orders excluded
    from every rule, rule -> record), the record being (selected order or
    None, sum of the rule's log SEs, their count); a criterion or excluded
    rule has no SEs.  Any further per-rule statistic belongs in this
    record."""
    (config, stream_index, n_points, true_order, coeffs) = args
    rng = random_stream(config.seed, stream_index)
    data = generate_data(rng, true_order, coeffs, config.sigma2, n_points)
    fits = candidate_fits(data, config)
    records = {}
    for rule, out in score_candidates(data, config, stream_index, fits).items():
        ses = [v for v in out.extra.get("mc_std_error_log", ()) if v is not None]
        records[rule] = (out.selected_order, float(np.sum(ses)), len(ses))
    return [order for order, f in enumerate(fits, start=1) if f is None], records


@dataclass
class ExperimentReport:
    """Tallied selection counts plus run metadata.

    counts[rule][n_points][true_order] is a length-max_order list: entry
    i counts replications whose selected order was i+1.
    """

    config: dict
    counts: dict
    totals: dict
    failures: dict
    excluded: dict
    mean_mc_std_error_log: dict
    wall_time_seconds: float = 0.0

    def frequency(self, rule: str, n_points: int, true_order: int, order: int) -> float:
        c = self.counts[rule][n_points][true_order]
        total = self.totals[rule][n_points][true_order]
        return c[order - 1] / total

    def prob_correct(self, rule: str, n_points: int, true_order: int) -> float:
        return self.frequency(rule, n_points, true_order, true_order)

    def avg_prob_correct(self, rule: str, n_points: int) -> float:
        """Correct-selection count over all cells, divided by all trials."""
        per_true = self.counts[rule][n_points]
        hits = sum(c[t - 1] for t, c in per_true.items())
        return hits / sum(self.totals[rule][n_points].values())

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "counts": self.counts,
            "totals": self.totals,
            "failures": self.failures,
            "excluded_orders": self.excluded,
            "mean_mc_std_error_log": self.mean_mc_std_error_log,
            "prob_correct": {
                rule: {
                    str(n): {str(t): self.prob_correct(rule, n, t) for t in per_n}
                    for n, per_n in per_rule.items()
                }
                for rule, per_rule in self.counts.items()
            },
            "avg_prob_correct": {
                rule: {str(n): self.avg_prob_correct(rule, n) for n in per_rule}
                for rule, per_rule in self.counts.items()
            },
            "wall_time_seconds": self.wall_time_seconds,
        }


# the process's kept pool: (worker count, executor, its exit hook)
_pool = None


def close_pool() -> None:
    """Shut down the worker pool that parallel runs keep, and wait until
    its workers have exited.  The next parallel run forks a new pool."""
    global _pool
    if _pool is not None:
        _pool[2]()  # the exit hook, run now: shuts the executor down once
        _pool = None


def _forget_pool() -> None:
    """In a forked child: the copied pool is the parent's, without its
    threads, so the child forks a pool of its own when it needs one."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_tasks(tasks, jobs: int):
    # a fork-started pool forks every worker at the first submit, so never
    # ask for more workers than there are tasks or usable CPUs.  A pool of
    # another size is joined first, so no fork runs beside its manager thread
    global _pool
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(jobs, len(tasks), cpus)
    if workers <= 1:
        return [_replication_task(t) for t in tasks]
    if _pool is not None and _pool[0] != workers:
        close_pool()
    kept = _pool is not None
    if not kept:
        pool = ProcessPoolExecutor(max_workers=workers)
        # a multiprocessing child joins its children at exit before it stops
        # its threads, so the pool shuts down first, and ahead of the call
        # queue's feeder (exit priority 10), which carries the stop signals
        hook = multiprocessing.util.Finalize(None, pool.shutdown, exitpriority=20)
        _pool = (workers, pool, hook)
    chunk = max(1, len(tasks) // (workers * 8))
    try:
        return list(_pool[1].map(_replication_task, tasks, chunksize=chunk))
    except BrokenProcessPool:
        close_pool()
        if not kept:
            raise
    # a worker of the kept pool died since its last run: run on a fresh pool
    return _run_tasks(tasks, jobs)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run all replications of a fixed or random experiment."""
    if config.experiment not in ("fixed", "random"):
        raise ConfigError(f"cannot run experiment kind {config.experiment!r}")
    if config.seed is None:
        raise ConfigError("config seed must be resolved before running")
    start = time.perf_counter()

    # a fixed experiment is a random one with a single true order and a
    # single coefficient draw; task i owns stream i, enumerated
    # N -> true order -> coefficient draw -> replication
    if config.experiment == "fixed":
        draws = [(config.true_order, config.true_coefficients)]
    else:
        m, h = config.coef_draws, config.coef_halfwidth
        draws = [
            (t, tuple(-h + 2.0 * h * random_stream(
                config.seed, _COEF_STREAM_BASE + (t - 1) * m + j
            ).random(t)))
            for t in range(1, config.max_order + 1)
            for j in range(m)
        ]
    grid = product(config.n_values, draws, range(config.replications))
    tasks = [(config, i, n, t, coeffs) for i, (n, (t, coeffs), _) in enumerate(grid)]

    results = _run_tasks(tasks, jobs)

    # every cell holds the same number of replications, failures included
    true_orders = dict.fromkeys(t for t, _ in draws)
    per_cell = config.replications * (config.coef_draws or 1)
    counts = {
        rule: {n: {t: [0] * config.max_order for t in true_orders} for n in config.n_values}
        for rule in config.rules
    }
    totals = {
        rule: {n: dict.fromkeys(true_orders, per_cell) for n in config.n_values}
        for rule in config.rules
    }
    failures = dict.fromkeys(config.rules, 0)
    se = {rule: [0.0, 0] for rule in config.rules}  # sum and count of log SEs
    excluded: dict[int, int] = {}
    for (_, _, n_points, true_order, _), (excluded_orders, records) in zip(tasks, results):
        for order in excluded_orders:
            excluded[order] = excluded.get(order, 0) + 1
        for rule, (sel, se_sum, se_count) in records.items():
            if sel is None:
                failures[rule] += 1
            else:
                counts[rule][n_points][true_order][sel - 1] += 1
            se[rule][0] += se_sum
            se[rule][1] += se_count
    return ExperimentReport(
        config=config.to_dict(),
        counts=counts,
        totals=totals,
        failures=failures,
        excluded=excluded,
        mean_mc_std_error_log={r: s / c if c else None for r, (s, c) in se.items()},
        wall_time_seconds=time.perf_counter() - start,
    )


def select_once(data: Dataset, config: ExperimentConfig) -> dict:
    """Apply every configured rule to one observed dataset."""
    if config.seed is None:
        raise ConfigError("config seed must be resolved before running")
    outcomes = score_candidates(data, config, 0, candidate_fits(data, config))
    if all("excluded" in out.extra for out in outcomes.values()):
        raise NoViableCandidate("every rule was excluded: " + "; ".join(
            f"{rule}: {out.extra['excluded']}" for rule, out in outcomes.items()
        ))
    return outcomes


def run_diagnostics(config: ExperimentConfig) -> dict:
    """Sampler acceptance rates and ellipsoid coverage on the true design.

    Fits one simulated dataset and reports, per candidate order, the
    empirical acceptance rate of box rejection and Gaussian rejection next
    to the chi-square mass rho of the ellipsoid.  Both run in the whitened
    frame with the rules' own draws from their own streams: ub's uniform on
    the cell's whitened bounding box and ge's standard normals, each kept
    when q = |z|^2 <= mu.
    A collapsed bounding box raises BoxCollapsed, as it excludes ub.  A
    sampler whose acceptance falls below the floor gets null acceptance and
    proposals, and its AcceptanceTooLow message under below_floor.  Coverage
    refits the true order from the same design on fresh replications and
    counts how often |(truth - theta_hat) L|^2 <= mu.
    """
    if config.experiment != "fixed":
        raise ConfigError("sampler diagnostics need a 'fixed' experiment config")
    if config.seed is None:
        raise ConfigError("config seed must be resolved before running")
    n_points = config.n_values[0]
    data = generate_data(random_stream(config.seed, 0), config.true_order,
                         config.true_coefficients, config.sigma2, n_points)
    design = polynomial_design(n_points, config.max_order, config.sigma2)
    fits = fit_nested(data, design)
    box_rng = random_stream(config.seed, 0, _SLOT["ub"])
    gauss_rng = random_stream(config.seed, 0, _SLOT["ge"])
    per_order = []
    for order, f in enumerate(fits, start=1):
        if f is None:
            per_order.append({"order": order, "singular": True})
            continue
        mu = config.mu_for(order)
        box = design.box(order, mu, 1)
        box.check(f.theta_hat)
        row = {"order": order, "mu": mu,
               "ellipsoid_mass_rho": chi2_cdf(order, mu), "below_floor": {}}
        proposals = (
            ("box_rejection", box_rng, lambda r, k: uniform_box_sq(r, box, k).T),
            ("gaussian_rejection", gauss_rng,
             lambda r, k: standard_normal_sq(r, k, order)[:, None]),
        )
        for name, rng, propose in proposals:
            try:
                batch = accept_reject(rng, propose, lambda q: q[:, 0] <= mu, config.samples)
            except AcceptanceTooLow as err:
                row[f"{name}_acceptance"] = row[f"{name}_proposals"] = None
                row["below_floor"][name] = str(err)
                continue
            row[f"{name}_acceptance"] = batch.acceptance_rate
            row[f"{name}_proposals"] = batch.proposed_count
        per_order.append(row)

    truth = np.asarray(config.true_coefficients, dtype=float)
    mu = config.mu_for(config.true_order)
    hits = valid = 0
    for r in range(config.replications):
        rep_rng = random_stream(config.seed, 1 + r)
        rep_data = generate_data(
            rep_rng, config.true_order, truth, config.sigma2, n_points
        )
        f = fit_nested(rep_data, design)[config.true_order - 1]
        if f is None:
            continue
        valid += 1
        z = (truth - f.theta_hat) @ f.chol
        hits += bool(z @ z <= mu)
    return {
        "config": config.to_dict(),
        "samplers": per_order,
        "coverage": {
            "order": config.true_order,
            "replications": valid,
            "fraction": hits / valid if valid else 0.0,
        },
    }


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_json(path, payload) -> None:
    """Write payload as indented, key-sorted JSON with a final newline.
    A NaN or infinity raises ValueError before the file is opened: strict
    parsers reject them."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_report(report: ExperimentReport, outdir) -> dict:
    """Write histogram.csv, prob_correct.csv, avg_prob.csv, report.json.

    The CSVs are a pure function of config and tallies (no timing), so a
    repeated run with the same seed reproduces them byte for byte.
    """
    os.makedirs(outdir, exist_ok=True)
    cfg_line = "# config: " + json.dumps(
        report.config, sort_keys=True, separators=(",", ":")
    ) + "\n"

    hist_rows = []
    prob_rows = []
    avg_rows = []
    for rule in report.counts:
        for n_points, per_true in report.counts[rule].items():
            for true_order, c in per_true.items():
                total = report.totals[rule][n_points][true_order]
                for order, cnt in enumerate(c, start=1):
                    hist_rows.append((rule, n_points, true_order, order, cnt, cnt / total))
                prob_rows.append(
                    (rule, n_points, true_order,
                     report.prob_correct(rule, n_points, true_order), total)
                )
            avg_rows.append(
                (rule, n_points, report.avg_prob_correct(rule, n_points),
                 sum(report.totals[rule][n_points].values()))
            )

    tables = (
        ("histogram", "rule,n_points,true_order,selected_order,count,frequency", hist_rows),
        ("prob_correct", "rule,n_points,true_order,prob_correct,total", prob_rows),
        ("avg_prob", "rule,n_points,avg_prob_correct,total", avg_rows),
    )
    paths = {}
    for name, header, rows in tables:
        paths[name] = os.path.join(outdir, f"{name}.csv")
        with open(paths[name], "w", newline="") as fh:
            fh.write(f"{cfg_line}{header}\n")
            fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
    paths["report"] = os.path.join(outdir, "report.json")
    write_json(paths["report"], report.to_dict())
    return paths
