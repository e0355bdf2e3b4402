#!/usr/bin/env python3
"""Run the standard-seed list and compare its artifacts with the golden file.

    python scripts/standard_runs.py --check [--jobs K]
    python scripts/standard_runs.py --update [--jobs K]

Every run imports mcselect from this checkout's src/.  The list: the three
scripts in quick mode at seeds 7 and 2026, the seven-rule order histogram
at 40 replications, the CI `mcselect experiment`, and a seven-rule
`select` and a `sample-diag`.  A CSV must match its sha256 byte for byte.
A JSON artifact must be strict JSON (no NaN or Infinity) and, without
wall_time_seconds and data_path, must match number by number within
JSON_RTOL relative: BLAS may round generate_data's
product differently on another machine.  --check exits 1 and names every
artifact that moved; --update rewrites tests/golden/artifacts.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "artifacts.json")
JSON_RTOL = 1e-11
DROPPED = ("wall_time_seconds", "data_path")
SEVEN_RULES = "aic,bic,ue,ueg,ge,ub,ub-strat"

# the configs of the CI steps "Artifacts identical across --jobs" and
# "select and sample-diag through the installed script"
EXPERIMENT = {
    "experiment": "fixed", "sigma2": 0.37, "max_order": 8,
    "rules": ["aic", "ue", "ueg", "ge", "ub", "ub-strat"],
    "n_values": [200, 5, 30, 60], "replications": 20, "samples": 200,
    "true_order": 4, "true_coefficients": [0.1, 0.1, -0.3, 0.4], "seed": 7,
}
SELECT = {
    "experiment": "select", "sigma2": 0.37, "max_order": 6,
    "rules": SEVEN_RULES.split(","), "samples": 500, "seed": 7,
}
MAKE_DATA = """
import sys
from mcselect.models import generate_data, save_dataset_csv
from mcselect.sampling import random_stream
data = generate_data(random_stream(7, 0), 4, (0.1, 0.1, -0.3, 0.4), 0.37, 100)
save_dataset_csv(sys.argv[1], data)
"""


def runs(tmp: str, jobs: int) -> list:
    """(name, argv) of every standard run; each writes into tmp/name."""
    py = sys.executable
    out = []
    for seed in (7, 2026):
        for script in ("run_order_histogram", "run_average_prob", "run_prob_correct"):
            out.append((f"{script}_seed{seed}",
                        [py, f"{ROOT}/scripts/{script}.py", "--seed", str(seed)]))
    out.append(("run_order_histogram_all_rules",
                [py, f"{ROOT}/scripts/run_order_histogram.py", "--seed", "7",
                 "--rules", SEVEN_RULES, "--replications", "40"]))
    out = [(name, argv + ["--jobs", str(jobs)]) for name, argv in out]
    cli = [py, "-m", "mcselect"]
    experiment, select = os.path.join(tmp, "experiment.json"), os.path.join(tmp, "select.json")
    out += [
        ("experiment", cli + ["experiment", "--config", experiment, "--jobs", str(jobs)]),
        ("select", cli + ["select", os.path.join(tmp, "data.csv"), "--config", select]),
        ("sample_diag", cli + ["sample-diag", "--config", experiment]),
    ]
    return out


def _not_strict(name: str):
    raise ValueError(f"{name} is not strict JSON")


def collect(jobs: int) -> dict:
    """Run the list and return artifact path -> sha256 (CSV) or JSON payload."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    artifacts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path, cfg in (("experiment.json", EXPERIMENT), ("select.json", SELECT)):
            with open(os.path.join(tmp, path), "w") as fh:
                json.dump(cfg, fh)
        subprocess.run([sys.executable, "-c", MAKE_DATA, os.path.join(tmp, "data.csv")],
                       env=env, check=True)
        for name, argv in runs(tmp, jobs):
            outdir = os.path.join(tmp, name)
            print(f"run {name}", flush=True)
            subprocess.run(argv + ["--out", outdir], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            for fname in sorted(os.listdir(outdir)):
                with open(os.path.join(outdir, fname), "rb") as fh:
                    raw = fh.read()
                if fname.endswith(".csv"):
                    artifacts[f"{name}/{fname}"] = hashlib.sha256(raw).hexdigest()
                else:
                    payload = json.loads(raw, parse_constant=_not_strict)
                    for key in DROPPED:
                        payload.pop(key, None)
                    artifacts[f"{name}/{fname}"] = payload
    return artifacts


def differences(want, got, where: str = "") -> list:
    """Where got departs from want: numbers beyond JSON_RTOL relative,
    anything else by equality."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want for d in differences(want[k], got[k], f"{where}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in differences(a, b, f"{where}[{i}]")]
    if (isinstance(want, float) and isinstance(got, (int, float))
            and not isinstance(got, bool)):
        if want == got or math.isclose(want, got, rel_tol=JSON_RTOL, abs_tol=0.0):
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{where}: {want!r} != {got!r}"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the golden file")
    mode.add_argument("--update", action="store_true", help="rewrite the golden file")
    p.add_argument("--jobs", type=int, default=1, help="worker processes per run")
    a = p.parse_args(argv)

    artifacts = collect(a.jobs)
    if a.update:
        import numpy
        import scipy
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as fh:
            json.dump({
                "platform": {"machine": platform.machine(), "system": platform.platform(),
                             "python": platform.python_version(),
                             "numpy": numpy.__version__, "scipy": scipy.__version__},
                "json_rtol": JSON_RTOL,
                "artifacts": artifacts,
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(artifacts)} artifacts to {GOLDEN}")
        return 0

    with open(GOLDEN) as fh:
        golden = json.load(fh)["artifacts"]
    moved = 0
    for name in sorted(golden.keys() | artifacts.keys()):
        diffs = differences(golden.get(name), artifacts.get(name))
        if diffs:
            moved += 1
            print(f"MOVED {name}: {len(diffs)} difference(s), first {diffs[0][:200]}")
    total = len(golden.keys() | artifacts.keys())
    print(f"{total - moved} of {total} artifacts match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
