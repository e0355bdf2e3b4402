"""Order-selection experiments over simulated polynomial data.

Two experiment kinds share one engine:

    fixed    one true coefficient vector, replicated noise, any list of N
    random   true coefficients drawn uniformly per order, averaged over
             orders, coefficient draws, and noise replications

Every replication owns a counter-based stream keyed by (seed, task index),
so results are independent of worker count and arrival order: the merge
happens in task order and the CSV artifacts are byte-identical for any
--jobs value.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .estimators import (
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
from .regions import (
    PARTITION_CAP,
    BoxCollapsed,
    PartitionTooLarge,
    bounding_box,
    build_ellipsoid,
    default_mu,
    partition,
)
from .sampling import AcceptanceTooLow, random_stream
from .selection import SelectionOutcome, select_criterion, select_map


def _ellipsoid(f, c):
    """The fit's concentration ellipsoid at the config's radius for its order."""
    return build_ellipsoid(f, c.mu_for(f.dim))


# rule -> scorer(rng, fit, config).  Criterion rules return a CriterionScore
# and ignore the stream; the rest build the region their prior lives on
# from the fit and return a MarginalEstimate.  Estimators and region
# builders are looked up by name at call time, so a wrapper patched onto
# this module (a tracer, a test double) sees every call.  A collapsed box
# excludes only the rule that built it.
RULES = {
    "aic": lambda rng, f, c: aic(f),
    "bic": lambda rng, f, c: bic(f, f.data.n_points),
    "ue": lambda rng, f, c: ue_estimate(rng, f, _ellipsoid(f, c), c.samples),
    "ueg": lambda rng, f, c: ueg_estimate(rng, f, _ellipsoid(f, c), c.samples),
    "ge": lambda rng, f, c: ge_estimate(rng, f, _ellipsoid(f, c), c.samples),
    "ub": lambda rng, f, c: ub_estimate(rng, f, bounding_box(_ellipsoid(f, c)), c.samples),
    "ub-strat": lambda rng, f, c: ub_stratified_estimate(
        rng, f, partition(bounding_box(_ellipsoid(f, c)), c.strat_segments()), c.samples
    ),
}
CRITERION_RULES = frozenset({"aic", "bic"})
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
    """Validated experiment settings; mirrors the JSON config schema."""

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


_FIELD_TYPES = {
    "experiment": str,
    "sigma2": (int, float),
    "max_order": int,
    "rules": list,
    "samples": int,
    "n_values": list,
    "replications": int,
    "true_order": int,
    "true_coefficients": list,
    "coef_draws": int,
    "coef_halfwidth": (int, float),
    "stratification_segments": int,
    "mu": list,
    "seed": int,
}
_ALWAYS_REQUIRED = ("experiment", "sigma2", "max_order", "rules", "samples")
_KIND_REQUIRED = {
    "fixed": ("n_values", "replications", "true_order", "true_coefficients"),
    "random": ("n_values", "replications", "coef_draws", "coef_halfwidth"),
    "select": (),
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config; every complaint names the offending key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    kind = raw.get("experiment")
    if kind not in VALID_EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(VALID_EXPERIMENTS)}, got {kind!r}"
        )
    missing = [k for k in _ALWAYS_REQUIRED + _KIND_REQUIRED[kind] if raw.get(k) is None]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")

    for key, val in raw.items():
        if val is None:
            continue
        want = _FIELD_TYPES[key]
        if isinstance(val, bool) or not isinstance(val, want):
            raise ConfigError(f"config key {key!r} has invalid type {type(val).__name__}")

    if not (raw["sigma2"] > 0 and math.isfinite(raw["sigma2"])):
        raise ConfigError(f"sigma2 must be positive and finite, got {raw['sigma2']}")
    if raw["max_order"] < 1:
        raise ConfigError(f"max_order must be >= 1, got {raw['max_order']}")
    if raw["samples"] < 2:
        raise ConfigError(f"samples must be >= 2, got {raw['samples']}")

    rules = [str(r).lower() for r in raw["rules"]]
    if not rules:
        raise ConfigError("rules must not be empty")
    bad = [r for r in rules if r not in RULES]
    if bad:
        raise ConfigError(
            f"unknown rules: {', '.join(bad)}; valid rules are {', '.join(RULES)}"
        )
    if len(set(rules)) != len(rules):
        raise ConfigError("rules contains duplicates")

    n_values = tuple(raw.get("n_values") or ())
    if kind != "select":
        if not n_values or any(not isinstance(n, int) or n < 2 for n in n_values):
            raise ConfigError("n_values must be a non-empty list of integers >= 2")
        if len(set(n_values)) != len(n_values):
            raise ConfigError("n_values contains duplicates")
        if raw["replications"] < 1:
            raise ConfigError(f"replications must be >= 1, got {raw['replications']}")

    true_order = raw.get("true_order")
    true_coefficients = raw.get("true_coefficients")
    if kind == "fixed":
        if not 1 <= true_order <= raw["max_order"]:
            raise ConfigError(
                f"true_order must be in [1, max_order={raw['max_order']}], got {true_order}"
            )
        if len(true_coefficients) != true_order or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool)
            and math.isfinite(c)
            for c in true_coefficients
        ):
            raise ConfigError(
                f"true_coefficients must be {true_order} finite numbers"
            )
        coeffs = [float(c) for c in true_coefficients]
        true_coefficients = tuple(coeffs)
    if kind == "random":
        if raw["coef_draws"] < 1:
            raise ConfigError(f"coef_draws must be >= 1, got {raw['coef_draws']}")
        if not (raw["coef_halfwidth"] > 0 and math.isfinite(raw["coef_halfwidth"])):
            raise ConfigError(
                f"coef_halfwidth must be positive and finite, got {raw['coef_halfwidth']}"
            )

    mu = raw.get("mu")
    if mu is not None:
        if len(mu) != raw["max_order"]:
            raise ConfigError(
                f"mu must list one radius per order (expected {raw['max_order']}, got {len(mu)})"
            )
        if any(
            isinstance(v, bool)
            or not (isinstance(v, (int, float)) and v > 0 and math.isfinite(v))
            for v in mu
        ):
            raise ConfigError("mu entries must be positive finite numbers")
        mu = tuple(float(v) for v in mu)

    strat = raw.get("stratification_segments")
    if strat is not None and strat < 1:
        raise ConfigError(f"stratification_segments must be >= 1, got {strat}")

    seed = raw.get("seed")
    if seed is not None and not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")

    return ExperimentConfig(
        experiment=kind,
        sigma2=float(raw["sigma2"]),
        max_order=raw["max_order"],
        rules=tuple(rules),
        samples=raw["samples"],
        n_values=n_values,
        replications=raw.get("replications") or 0,
        true_order=true_order if kind == "fixed" else None,
        true_coefficients=true_coefficients if kind == "fixed" else None,
        coef_draws=raw.get("coef_draws") if kind == "random" else None,
        coef_halfwidth=float(raw["coef_halfwidth"]) if kind == "random" else None,
        stratification_segments=strat,
        mu=mu,
        seed=seed,
    )


def draw_seed() -> int:
    """Fresh OS-entropy seed, printable and reusable."""
    return int(np.random.SeedSequence().entropy % 2**64)


def _check_partition_feasible(config: ExperimentConfig) -> None:
    if "ub-strat" in config.rules:
        L = config.strat_segments()
        if L**config.max_order > PARTITION_CAP:
            raise PartitionTooLarge(
                f"{L}^{config.max_order} sub-boxes exceeds the cap of {PARTITION_CAP}; "
                "lower stratification_segments or max_order"
            )


def score_candidates(data: Dataset, config: ExperimentConfig, rng) -> dict:
    """Fit every order and apply every configured rule to one dataset.

    Returns rule -> SelectionOutcome.  All orders are fitted from the
    cell's cached design; orders past its full-rank prefix are excluded
    from every rule (None scores).  Order 1 always fits: its column is all
    ones.  A rule whose box collapses is excluded as a whole: its
    selected_order is None and extra["excluded"] gives the reason.
    Monte-Carlo rules consume the stream in config order, orders ascending.
    """
    fits = fit_nested(data, polynomial_design(data.n_points, config.max_order, data.noise_variance))
    outcomes: dict[str, SelectionOutcome] = {}
    for rule in config.rules:
        scorer = RULES[rule]
        try:
            scored = [None if f is None else scorer(rng, f, config) for f in fits]
        except BoxCollapsed as err:
            outcomes[rule] = SelectionOutcome(
                rule, None, [None] * len(fits), {"excluded": str(err)}
            )
            continue
        if rule in CRITERION_RULES:
            outcomes[rule] = select_criterion(scored, rule=rule)
            continue
        ses = [None if est is None else est.mc_std_error_log for est in scored]
        outcomes[rule] = select_map(scored, rule=rule, extra={"mc_std_error_log": ses})
    return outcomes


def _replication_task(args) -> dict:
    """One dataset: generate, fit, select under every rule.  Top-level so
    process pools can pickle it by reference."""
    (config, stream_index, n_points, true_order, coeffs) = args
    rng = random_stream(config.seed, stream_index)
    data = generate_data(rng, true_order, coeffs, config.sigma2, n_points)
    rank = polynomial_design(n_points, config.max_order, config.sigma2).rank
    excluded = list(range(rank + 1, config.max_order + 1))
    outcomes = score_candidates(data, config, rng)
    se: dict[str, tuple] = {}
    for rule, out in outcomes.items():
        if "mc_std_error_log" in out.extra:
            vals = [v for v in out.extra["mc_std_error_log"] if v is not None]
            se[rule] = (float(np.sum(vals)), len(vals))
    return {
        "selected": {rule: out.selected_order for rule, out in outcomes.items()},
        "se": se,
        "excluded": excluded,
    }


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
        return c[order - 1] / total if total else 0.0

    def prob_correct(self, rule: str, n_points: int, true_order: int) -> float:
        return self.frequency(rule, n_points, true_order, true_order)

    def avg_prob_correct(self, rule: str, n_points: int) -> float:
        """Correct-selection count over all cells, divided by all trials."""
        per_true = self.counts[rule][n_points]
        hits = sum(c[t - 1] for t, c in per_true.items())
        total = sum(self.totals[rule][n_points].values())
        return hits / total if total else 0.0

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


def _run_tasks(tasks, jobs: int):
    # a fork-started pool forks every worker at the first submit, so never
    # ask for more workers than there are tasks or usable CPUs
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(jobs, len(tasks), cpus)
    if workers <= 1:
        return [_replication_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 8))
        return list(pool.map(_replication_task, tasks, chunksize=chunk))


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run all replications of a fixed or random experiment."""
    if config.experiment not in ("fixed", "random"):
        raise ConfigError(f"cannot run experiment kind {config.experiment!r}")
    if config.seed is None:
        raise ConfigError("config seed must be resolved before running")
    _check_partition_feasible(config)
    start = time.perf_counter()

    # a fixed experiment is a random one with a single true order and a
    # single coefficient draw, so both share the stream index
    # ((ni * T + ti) * m + j) * R + r, which is ni * R + r when fixed
    R = config.replications
    if config.experiment == "fixed":
        draws = {config.true_order: [config.true_coefficients]}
    else:
        m, h = config.coef_draws, config.coef_halfwidth
        draws = {
            t: [
                tuple(-h + 2.0 * h * random_stream(
                    config.seed, _COEF_STREAM_BASE + (t - 1) * m + j
                ).random(t))
                for j in range(m)
            ]
            for t in range(1, config.max_order + 1)
        }
    T = len(draws)
    tasks = []
    cells = []  # (n_points, true_order) aligned with tasks
    for ni, n_points in enumerate(config.n_values):
        for ti, (true_order, coef_list) in enumerate(draws.items()):
            for j, coeffs in enumerate(coef_list):
                base = ((ni * T + ti) * len(coef_list) + j) * R
                for r in range(R):
                    tasks.append((config, base + r, n_points, true_order, coeffs))
                    cells.append((n_points, true_order))

    results = _run_tasks(tasks, jobs)

    counts = {
        rule: {
            n: {t: [0] * config.max_order for t in draws}
            for n in config.n_values
        }
        for rule in config.rules
    }
    totals = {
        rule: {n: {t: 0 for t in draws} for n in config.n_values}
        for rule in config.rules
    }
    failures = {rule: 0 for rule in config.rules}
    excluded: dict[int, int] = {}
    se_sum = {rule: 0.0 for rule in config.rules}
    se_cnt = {rule: 0 for rule in config.rules}

    for (n_points, true_order), res in zip(cells, results):
        for order in res["excluded"]:
            excluded[order] = excluded.get(order, 0) + 1
        for rule in config.rules:
            sel = res["selected"][rule]
            totals[rule][n_points][true_order] += 1
            if sel is None:
                failures[rule] += 1
            else:
                counts[rule][n_points][true_order][sel - 1] += 1
            if rule in res["se"]:
                s, c = res["se"][rule]
                se_sum[rule] += s
                se_cnt[rule] += c

    mean_se = {
        rule: (se_sum[rule] / se_cnt[rule] if se_cnt[rule] else None)
        for rule in config.rules
    }
    return ExperimentReport(
        config=config.to_dict(),
        counts=counts,
        totals=totals,
        failures=failures,
        excluded=excluded,
        mean_mc_std_error_log=mean_se,
        wall_time_seconds=time.perf_counter() - start,
    )


def select_once(data: Dataset, config: ExperimentConfig) -> dict:
    """Apply every configured rule to one observed dataset."""
    if config.seed is None:
        raise ConfigError("config seed must be resolved before running")
    _check_partition_feasible(config)
    rng = random_stream(config.seed, 0)
    outcomes = score_candidates(data, config, rng)
    if all("excluded" in out.extra for out in outcomes.values()):
        raise NoViableCandidate("every rule was excluded: " + "; ".join(
            f"{rule}: {out.extra['excluded']}" for rule, out in outcomes.items()
        ))
    return outcomes


def run_diagnostics(config: ExperimentConfig) -> dict:
    """Sampler acceptance rates and ellipsoid coverage on the true design.

    Fits one simulated dataset and reports, per candidate order, the
    empirical acceptance rate of the box-rejection and Gaussian-rejection
    samplers next to the chi-square mass rho of the ellipsoid.  A sampler
    whose acceptance falls below the floor gets null acceptance and
    proposals, and its AcceptanceTooLow message under below_floor.  Coverage
    refits the true order from the same design on fresh replications and
    counts how often the concentration ellipsoid contains the truth.
    """
    from .numerics import chi2_cdf
    from .regions import contains
    from .sampling import sample_truncated_gaussian, sample_uniform_ellipsoid

    if config.experiment != "fixed":
        raise ConfigError("sampler diagnostics need a 'fixed' experiment config")
    if config.seed is None:
        raise ConfigError("config seed must be resolved before running")
    n_points = config.n_values[0]
    rng = random_stream(config.seed, 0)
    data = generate_data(
        rng, config.true_order, config.true_coefficients, config.sigma2, n_points
    )
    design = polynomial_design(n_points, config.max_order, config.sigma2)
    fits = fit_nested(data, design)
    per_order = []
    for order, f in enumerate(fits, start=1):
        if f is None:
            per_order.append({"order": order, "singular": True})
            continue
        e = _ellipsoid(f, config)
        row = {"order": order, "mu": e.radius,
               "ellipsoid_mass_rho": chi2_cdf(order, e.radius), "below_floor": {}}
        samplers = (
            ("box_rejection", sample_uniform_ellipsoid),
            ("gaussian_rejection", sample_truncated_gaussian),
        )
        for name, sampler in samplers:
            try:
                batch = sampler(rng, e, config.samples)
            except AcceptanceTooLow as err:
                row[f"{name}_acceptance"] = row[f"{name}_proposals"] = None
                row["below_floor"][name] = str(err)
                continue
            row[f"{name}_acceptance"] = batch.acceptance_rate
            row[f"{name}_proposals"] = batch.proposed_count
        per_order.append(row)

    truth = np.asarray(config.true_coefficients, dtype=float)
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
        if contains(_ellipsoid(f, config), truth):
            hits += 1
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


def _write_csv(path, config_line: str, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(config_line)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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
                    hist_rows.append(
                        (rule, n_points, true_order, order, cnt,
                         cnt / total if total else 0.0)
                    )
                prob_rows.append(
                    (rule, n_points, true_order,
                     report.prob_correct(rule, n_points, true_order), total)
                )
            avg_rows.append(
                (rule, n_points, report.avg_prob_correct(rule, n_points),
                 sum(report.totals[rule][n_points].values()))
            )

    paths = {
        "histogram": os.path.join(outdir, "histogram.csv"),
        "prob_correct": os.path.join(outdir, "prob_correct.csv"),
        "avg_prob": os.path.join(outdir, "avg_prob.csv"),
        "report": os.path.join(outdir, "report.json"),
    }
    _write_csv(
        paths["histogram"],
        cfg_line,
        ["rule", "n_points", "true_order", "selected_order", "count", "frequency"],
        hist_rows,
    )
    _write_csv(
        paths["prob_correct"],
        cfg_line,
        ["rule", "n_points", "true_order", "prob_correct", "total"],
        prob_rows,
    )
    _write_csv(
        paths["avg_prob"],
        cfg_line,
        ["rule", "n_points", "avg_prob_correct", "total"],
        avg_rows,
    )
    with open(paths["report"], "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
