"""Command-line entry points.

    mcselect select DATA.csv --config cfg.json [--out DIR]
    mcselect experiment --config cfg.json [--out DIR] [--jobs K]
    mcselect sample-diag --config cfg.json [--out DIR]

Exit codes: 0 success, 2 bad usage, config or --out, 3 unreadable data file,
4 numerical failure (every rule excluded, or a sample-diag box collapsed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import (
    ConfigError,
    ExperimentConfig,
    NoViableCandidate,
    config_from_dict,
    draw_seed,
    run_diagnostics,
    run_experiment,
    select_once,
    write_json,
    write_report,
)
from .models import Dataset, ParseError, load_dataset_y
from .regions import BoxCollapsed, PartitionTooLarge


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mcselect",
        description="Monte-Carlo marginal-likelihood model selection",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, jobs=False):
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--samples", type=int, default=None,
                        help="override Monte-Carlo samples per estimate")
        sp.add_argument("--rules", default=None,
                        help="comma-separated rule override, e.g. aic,bic,ub")
        if jobs:
            sp.add_argument("--jobs", type=int, default=1,
                            help="worker processes (default 1; results identical)")

    ps = sub.add_parser("select", help="select an order for an observed dataset")
    ps.add_argument("data", help="CSV file with t,y rows")
    common(ps)
    pe = sub.add_parser("experiment", help="run a replicated simulation study")
    common(pe, jobs=True)
    pd = sub.add_parser("sample-diag", help="sampler acceptance and coverage checks")
    common(pd)
    return p


def _load_config(args) -> ExperimentConfig:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as err:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config: {err}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if isinstance(raw, dict):  # anything else is config_from_dict's to reject
        if args.samples is not None:
            raw["samples"] = args.samples
        if args.rules is not None:
            raw["rules"] = [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.seed is not None:
            raw["seed"] = args.seed
    return config_from_dict(raw)


def _resolve_seed(config: ExperimentConfig) -> ExperimentConfig:
    if config.seed is not None:
        return config
    seed = draw_seed()
    print(f"seed: {seed} (drawn from OS entropy; pass --seed {seed} to reproduce)")
    return config.with_seed(seed)


def _cmd_select(args, config: ExperimentConfig) -> int:
    try:
        y = load_dataset_y(args.data)
    except OSError as err:  # missing, a directory, unreadable
        print(f"error: {err}", file=sys.stderr)
        return 3
    outcomes = select_once(Dataset(y, config.sigma2), config)
    results = {}
    for rule, out in outcomes.items():
        entry = {"selected_order": out.selected_order, "scores": out.scores}
        entry.update(out.extra)
        results[rule] = entry
        if "excluded" in out.extra:
            print(f"{rule}: excluded, {out.extra['excluded']}")
        else:
            print(f"{rule}: order {out.selected_order}")
    path = os.path.join(args.out, "selection.json")
    write_json(path, {
        "config": config.to_dict(),
        "data_path": os.path.abspath(args.data),
        "n_points": int(y.size),
        "results": results,
    })
    print(f"wrote {path}")
    return 0


def _cmd_experiment(args, config: ExperimentConfig) -> int:
    report = run_experiment(config, jobs=max(1, args.jobs))
    paths = write_report(report, args.out)
    for rule in config.rules:
        parts = [
            f"N={n} {report.avg_prob_correct(rule, n):.3f}"
            for n in config.n_values
        ]
        print(f"{rule}: prob correct " + "  ".join(parts))
    print(f"wall time {report.wall_time_seconds:.1f}s")
    print("wrote " + "  ".join(sorted(paths.values())))
    return 0


def _cmd_sample_diag(args, config: ExperimentConfig) -> int:
    diag = run_diagnostics(config)
    for row in diag["samplers"]:
        if row.get("singular"):
            print(f"order {row['order']}: singular fit, skipped")
            continue
        box, gauss = (
            "below floor" if rate is None else f"{rate:.4f}"
            for rate in (row["box_rejection_acceptance"], row["gaussian_rejection_acceptance"])
        )
        print(
            f"order {row['order']}: rho {row['ellipsoid_mass_rho']:.4f}  "
            f"box acceptance {box}  gaussian acceptance {gauss}"
        )
    cov = diag["coverage"]
    print(
        f"coverage: order {cov['order']} ellipsoid contains the truth in "
        f"{cov['fraction']:.4f} of {cov['replications']} replications"
    )
    path = os.path.join(args.out, "diagnostics.json")
    write_json(path, diag)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        config = _resolve_seed(_load_config(args))
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as err:  # an existing file, or a path through one
            raise ConfigError(f"cannot use --out {args.out}: {err}") from None
        if args.command == "select":
            return _cmd_select(args, config)
        if args.command == "experiment":
            return _cmd_experiment(args, config)
        return _cmd_sample_diag(args, config)
    except (ConfigError, PartitionTooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (NoViableCandidate, BoxCollapsed) as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
