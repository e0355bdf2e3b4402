#!/usr/bin/env python3
"""mcselect benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Workloads, metrics and the reasons for both are in perfbench/README.md and
BENCHMARK.json.  With --trace 0 the last stdout line carries every
end-to-end metric, with --trace 1 every per-layer metric; the lines before
it (prefixed "# ") record the environment, the output digests and the
oracle's per-rule readings.  Exit status 1 means an output check failed,
2 that the checkout is not runnable.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170.0
ORACLE_RESERVE_S = 30.0
SETUP_REPEATS = 5
RATE_BLOCKS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS")


def info(label: str, payload) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    print(f"# {label} {text}", flush=True)


def fail(message: str, code: int = 2) -> None:
    print(f"error: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def git_sha(root: str) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repo."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "git_sha": git_sha(root),
        "platform": platform.platform(),
    }


def program_env(src: str) -> dict:
    """The caller's environment with src/ first on PYTHONPATH; nothing else set."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def measure_setup(env: dict, repeats: int) -> list:
    """Wall time of fresh interpreters importing mcselect and mcselect.cli."""
    cmd = [sys.executable, "-c", "import mcselect, mcselect.cli"]
    times = []
    for k in range(repeats + 1):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            fail(f"importing mcselect failed: {done.stderr.decode(errors='replace').strip()}")
        if k:  # the first start also writes bytecode caches
            times.append(elapsed)
    return times


def run_program(spec: dict, env: dict, workdir: str, timeout: float) -> dict:
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(workdir, "program.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "program.py"), spec_path],
                                env=env, stdout=log, stderr=subprocess.STDOUT, cwd=workdir)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"program process exceeded {timeout:.0f} s; see {log_path}", 3)
    if code != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        fail(f"program process exited with {code}:\n{tail}", 3)
    with open(spec["result"]) as fh:
        return json.load(fh)


# ---- end-to-end statistics ------------------------------------------------
def time_blocks(records: list, blocks: int) -> list:
    """Split the timed operations into consecutive blocks of equal run time;
    returns (seconds, replications, operations) per non-empty block."""
    total = sum(r["s"] for r in records)
    sums = [[0.0, 0, 0] for _ in range(blocks)]
    clock = 0.0
    for r in records:
        b = min(int(blocks * clock / total), blocks - 1)
        sums[b][0] += r["s"]
        sums[b][1] += r["reps"]
        sums[b][2] += 1
        clock += r["s"]
    return [tuple(x) for x in sums if x[2]]


def tail(values: list) -> tuple:
    """(value, percentile): highest percentile with >= 10 samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


# ---- output checks and the exact-target oracle -----------------------------
MC_RULES = tuple(oracle.TARGET_OF)


def tolerance(mll: float) -> float:
    """1e-9 nats plus float64 rounding of a log-likelihood of size |mll|."""
    return 1e-9 + 1e-14 * abs(mll)


class Checker:
    """Hard output checks plus the oracle's readings.

    Readings of the reference panel feed oracle_err_nats; readings of a
    select run's own leading calls are reported beside them.
    """

    def __init__(self):
        self.exact = oracle.Oracle(workloads.SIGMA2, workloads.MAX_ORDER)
        self.errors: list = []
        self.panel: list = []  # (rule, d, estimate, target, se)
        self.calls: list = []

    def check(self, label: str, y, scores: dict, ses: dict, readings=None) -> None:
        """Hard checks on every MC estimate; with a readings list, also
        compare each estimate with its exact target."""
        if readings is not None:
            per_order = self.exact.targets(y)
        else:
            per_order = [{"mll": m} for m in self.exact.max_logliks(y)]
        for rule, vals in scores.items():
            if rule not in MC_RULES:
                continue
            for d, est in enumerate(vals, start=1):
                t = per_order[d - 1]
                if est is None or not math.isfinite(est):
                    self.errors.append(f"{label} {rule} d={d}: estimate {est} is not finite")
                    continue
                if est > t["mll"] + tolerance(t["mll"]):
                    self.errors.append(f"{label} {rule} d={d}: estimate {est!r} exceeds "
                                       f"the max log-likelihood {t['mll']!r}")
                if readings is None:
                    continue
                target = t[oracle.TARGET_OF[rule]]
                se = (ses.get(rule) or [None] * len(vals))[d - 1]
                readings.append((rule, d, est, target, se))
                if rule == "ueg" and abs(est - target) > tolerance(t["mll"]):
                    self.errors.append(f"{label} ueg d={d}: {est!r} is {est - target:+.3e} nats "
                                       f"from its exact target {target!r}")


def summarize(readings: list) -> dict:
    """Per rule and order: [median signed error, median SE, count]."""
    groups: dict = {}
    for rule, d, est, target, se in readings:
        groups.setdefault(f"{rule}.d{d}", []).append((est - target, se))
    out = {}
    for key, rows in sorted(groups.items()):
        ses = [se for _, se in rows if se is not None]
        out[key] = [float(f"{statistics.median(e for e, _ in rows):.4g}"),
                    float(f"{statistics.median(ses):.4g}") if ses else None, len(rows)]
    return out


def abs_errors(readings: list, rule=None) -> list:
    return [abs(e - t) for r, _, e, t, _ in readings if rule is None or r == rule]


def check_panel(wl, checker: Checker) -> None:
    """select_once with the workload's rules on every reference-panel dataset."""
    from mcselect.experiments import config_from_dict, select_once
    from mcselect.models import Dataset

    for label, y, config_seed in workloads.panel(wl):
        config = config_from_dict(workloads.select_config(wl, config_seed))
        try:
            outcomes = select_once(Dataset(y, workloads.SIGMA2), config)
        except Exception as err:  # any failure here is a failed check
            checker.errors.append(f"{label}: select_once raised {type(err).__name__}: {err}")
            continue
        checker.check(label, y, {r: o.scores for r, o in outcomes.items()},
                      {r: o.extra.get("mc_std_error_log") for r, o in outcomes.items()},
                      readings=checker.panel)


def check_select(wl, seed: int, records: list, checker: Checker) -> str:
    """Hard checks on every call's selection.json; the leading calls are also
    compared with their exact targets.  Returns the selected-orders digest."""
    import hashlib

    done = set()
    for r in records:
        if r["rc"] != 0 or r["call"] in done:
            continue
        done.add(r["call"])
        y = workloads.select_dataset(seed, r["call"], r["n"])
        leading = r["call"] < wl.checked_calls
        checker.check(f"call {r['call']} (N={r['n']})", y, r["scores"], r["se"],
                      readings=checker.calls if leading else None)
    first = {r["call"]: r for r in records if r["call"] < wl.checked_calls}
    orders = [[c, first[c]["n"], first[c].get("selected")] for c in sorted(first)]
    return hashlib.sha256(json.dumps(orders, sort_keys=True).encode()).hexdigest()


# ---- main -----------------------------------------------------------------
def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mcselect benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    a = p.parse_args(argv)
    started = time.time()

    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mcselect", "__init__.py")):
        fail(f"no package source at {src}/mcselect; run from a checkout of the repository")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path.insert(0, src)
    import mcselect

    if not os.path.abspath(mcselect.__file__).startswith(os.path.join(src, "")):
        fail(f"imported mcselect from {mcselect.__file__}, not from {src}")

    wl = workloads.get(a.workload, a.tiny)
    tag = f"{a.workload}-s{a.seed}-t{a.trace}" + ("-tiny" if a.tiny else "")
    workdir = os.path.join(root, ".perfbench", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    info("run", {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                 "trace": a.trace, "tiny": a.tiny})
    info("env", environment(root))
    env = program_env(src)
    stages = {}
    mark = time.time()
    setup = [] if a.trace else measure_setup(env, 2 if a.tiny else SETUP_REPEATS)
    stages["setup"], mark = time.time() - mark, time.time()

    deadline = started + TIME_LIMIT_S - ORACLE_RESERVE_S
    spec = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
            "tiny": a.tiny, "workdir": workdir, "deadline": deadline,
            "result": os.path.join(workdir, "result.json")}
    result = run_program(spec, env, workdir, timeout=max(deadline - time.time() + 15.0, 10.0))
    stages["program"], mark = time.time() - mark, time.time()

    records = [r for phase in result["phases"].values() for r in phase]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for r in records:
        if r["error"]:
            info("failure", f"op {r.get('job', r.get('call'))}: {r['error']}")

    checker = Checker()
    checker.errors.extend(result["check_errors"])
    digests = dict(result["digests"])
    check_panel(wl, checker)
    stages["oracle_panel"], mark = time.time() - mark, time.time()
    if wl.kind == "select":
        digests["selected_orders"] = check_select(wl, a.seed, records, checker)
        stages["check_calls"] = time.time() - mark
    info("harness_s", {k: round(v, 2) for k, v in stages.items()})
    ops_needed = max(wl.checked_calls, 1)
    first_phase = next(iter(result["phases"].values()))
    if len(first_phase) < ops_needed:
        checker.errors.append(f"only {len(first_phase)} operations ran before the deadline")
    info("digests", digests)
    info("oracle-panel", summarize(checker.panel))
    if checker.calls:
        info("oracle-calls", summarize(checker.calls))
    for e in checker.errors[:20]:
        info("check-failed", e)
    correct = not checker.errors

    errs = abs_errors(checker.panel)
    if a.trace:
        values = dict(result["layers"])
        for rule in MC_RULES:
            rule_errs = abs_errors(checker.panel, rule)
            values[f"estimators.{rule}.err_nats"] = statistics.median(rule_errs) if rule_errs else 0.0
        info("trace", {"spans": result["spans"], "operations": result["operations"],
                       "absent": result["absent"], "hook_errors": result["hook_errors"],
                       "spans_file": os.path.join(workdir, "spans.csv")})
        wanted = bench["per_layer"]
    else:
        timed = result["phases"]["timed"]
        if not timed:
            fail("no timed operation completed before the deadline", 3)
        lat = [1000.0 * r["s"] for r in timed]
        tail_ms, tail_pct = tail(lat)
        blocks = time_blocks(timed, RATE_BLOCKS)
        if wl.kind == "experiment":
            # under --jobs 2 single job times are bimodal (the pool's BLAS
            # threads either collide or not), so a plain median flips between
            # the modes; the mean job time per block does not
            p50_ms = statistics.median(1000.0 * secs / ops for secs, _, ops in blocks)
        else:
            p50_ms = statistics.median(lat)
        values = {
            "setup_s": statistics.median(setup),
            "replications_per_s": statistics.median(reps / secs for secs, reps, _ in blocks),
            "latency_p50_ms": p50_ms,
            "latency_tail_ms": tail_ms,
            "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
            "oracle_err_nats": statistics.median(errs) if errs else 0.0,
        }
        info("detail", {
            "setup_s_samples": setup,
            "operations": len(timed),
            "replications": sum(r["reps"] for r in timed),
            "timed_s": sum(r["s"] for r in timed),
            "overall_replications_per_s": sum(r["reps"] for r in timed) / sum(r["s"] for r in timed),
            "latency_tail_percentile": tail_pct,
            "latency_samples": len(lat),
            "oracle_estimates": len(errs),
        })
        info("metric", f"failed_fraction {failed / attempted if attempted else 1.0:.6g} ratio")
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not computed: {missing}")
    for m in wanted:
        info("metric", f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
