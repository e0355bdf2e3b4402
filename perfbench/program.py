"""The program process: one workload's timed loop in a fresh interpreter.

run.py starts `python3 program.py SPEC.json` with the checkout's src/ on
PYTHONPATH and reads the result file named in the spec.  Besides the
package this process imports only the benchmark's input generation and,
in a traced run, tracer.py, so its peak RSS is the program's own.

Untraced (trace 0): one untimed warm-up operation, then operations until
`seconds` of timed work.  Traced (trace 1): a quarter of the budget of
operations at --jobs 1, each run traced and then again untraced, so the
tracing overhead compares like with like; for a pooled workload the same
operations then run untraced at the workload's --jobs (pool speed-up).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time

import workloads

TRACE_SHARE = 0.25
CSV_NAMES = ("histogram.csv", "prob_correct.csv", "avg_prob.csv")


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class ExperimentOps:
    """One operation = run_experiment + write_report on a fresh job seed."""

    def __init__(self, wl, seed: int, workdir: str):
        from mcselect import experiments

        self.wl, self.seed, self.workdir = wl, seed, workdir
        self._experiments = experiments  # looked up per call, so tracing sees the calls
        self.digests: dict = {}
        self.check_errors: list = []
        self.capacity = sys.maxsize

    def __call__(self, job: int, jobs: int) -> dict:
        wl = self.wl
        exp = self._experiments
        config = exp.config_from_dict(workloads.experiment_config(wl, workloads.job_seed(self.seed, job)))
        outdir = os.path.join(self.workdir, f"job{job}")
        attempted = len(wl.rules) * wl.replications * len(wl.n_values)
        error = None
        t0 = time.perf_counter()
        try:
            report = exp.run_experiment(config, jobs=jobs)
            exp.write_report(report, outdir)
        except Exception as err:  # an aborted job fails all of its operations
            error = f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        if error is not None:
            shutil.rmtree(outdir, ignore_errors=True)
            return {"job": job, "s": seconds, "reps": 0, "attempted": attempted,
                    "failed": attempted, "error": error}
        self._check_totals(job, outdir)
        if job == 0 and not self.digests:
            self.digests = {n: _sha256(os.path.join(outdir, n)) for n in CSV_NAMES}
        shutil.rmtree(outdir, ignore_errors=True)
        return {"job": job, "s": seconds, "reps": wl.replications * len(wl.n_values),
                "attempted": attempted, "failed": int(sum(report.failures.values())),
                "error": None}

    def _check_totals(self, job: int, outdir: str) -> None:
        """Every (rule, N) row of the CSVs must total the replications run."""
        wl = self.wl
        want = {(r, n) for r in wl.rules for n in wl.n_values}
        for name, total_col in (("prob_correct.csv", 4), ("avg_prob.csv", 3)):
            seen = set()
            with open(os.path.join(outdir, name)) as fh:
                rows = [ln.rstrip("\n").split(",") for ln in fh if not ln.startswith("#")][1:]
            for row in rows:
                seen.add((row[0], int(row[1])))
                if int(row[total_col]) != wl.replications:
                    self.check_errors.append(
                        f"job {job} {name}: total {row[total_col]} for {row[0]} N={row[1]}, "
                        f"expected {wl.replications}")
            if seen != want:
                self.check_errors.append(f"job {job} {name}: rows {sorted(seen)} != {sorted(want)}")


class SelectOps:
    """One operation = one in-process `mcselect select` call on a fresh CSV."""

    def __init__(self, wl, seed: int, workdir: str):
        from mcselect import cli

        self.wl, self.seed, self.workdir = wl, seed, workdir
        self._cli = cli  # looked up per call, so tracing sees the calls
        self.sizes = workloads.select_sizes(wl, seed)
        self.capacity = self.sizes.size  # every call gets a design of its own
        self.config_path = os.path.join(workdir, "select_config.json")
        with open(self.config_path, "w") as fh:
            json.dump(workloads.select_config(wl, workloads.mix(seed, 5)), fh)
        self.digests: dict = {}
        self.check_errors: list = []

    def __call__(self, call: int, jobs: int) -> dict:
        n = 1000 if call < 0 else int(self.sizes[call])
        csv_path = os.path.join(self.workdir, f"data{call}.csv")
        outdir = os.path.join(self.workdir, f"out{call}")
        workloads.write_csv(csv_path, workloads.select_dataset(self.seed, call, n))
        argv = ["select", csv_path, "--config", self.config_path, "--out", outdir]
        error = None
        t0 = time.perf_counter()
        try:
            rc = self._cli.main(argv)
        except Exception as err:  # a crashed call is a failed operation
            rc, error = None, f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        rec = {"call": call, "n": n, "s": seconds, "reps": 1, "attempted": 1,
               "failed": int(rc != 0), "rc": rc, "error": error}
        sel_path = os.path.join(outdir, "selection.json")
        if rc == 0:
            with open(sel_path) as fh:
                results = json.load(fh)["results"]
            rec["json_bytes"] = os.path.getsize(sel_path)
            rec["selected"] = {r: v["selected_order"] for r, v in results.items()}
            rec["scores"] = {r: v["scores"] for r, v in results.items()}
            rec["se"] = {r: v["mc_std_error_log"] for r, v in results.items()
                         if "mc_std_error_log" in v}
        os.remove(csv_path)
        shutil.rmtree(outdir, ignore_errors=True)
        return rec


def run_ops(op, jobs: int, budget_s: float, min_ops: int, deadline: float,
            count: int | None = None) -> list:
    """Operations 0, 1, ... until budget_s of timed work (or exactly count)."""
    records: list = []
    timed = 0.0
    while time.time() < deadline and len(records) < op.capacity:
        if count is not None:
            if len(records) >= count:
                break
        elif timed >= budget_s and len(records) >= min_ops:
            break
        rec = op(len(records), jobs)
        records.append(rec)
        timed += rec["s"]
    return records


def _rate(records) -> float:
    secs = sum(r["s"] for r in records)
    return sum(r["reps"] for r in records) / secs if secs > 0 else 0.0


def peak_rss_kib() -> int:
    """Largest resident set of this process or any finished child (pool workers).

    This process's own peak comes from VmHWM: Linux carries the spawning
    process's peak across exec into RUSAGE_SELF's ru_maxrss, which would
    report the harness's memory.  Pool workers are forked without exec, so
    RUSAGE_CHILDREN is theirs.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    wl = workloads.get(spec["workload"], spec["tiny"])
    seed, seconds, deadline = spec["seed"], spec["seconds"], spec["deadline"]
    workdir = spec["workdir"]
    ops_cls = ExperimentOps if wl.kind == "experiment" else SelectOps
    op = ops_cls(wl, seed, workdir)
    min_ops = max(wl.checked_calls, 1)
    result: dict = {}

    op(-1, 1 if spec["trace"] else wl.jobs)  # untimed warm-up
    if not spec["trace"]:
        records = run_ops(op, wl.jobs, seconds, min_ops, deadline)
        result["peak_rss_kib"] = peak_rss_kib()
        result["phases"] = {"timed": records}
    else:
        from tracer import Tracer

        tracer = Tracer(wl.kind)
        plain: list = []

        def traced_then_plain(i: int, jobs: int) -> dict:
            tracer.install()
            try:
                rec = op(i, jobs)
            finally:
                tracer.uninstall()
            plain.append(op(i, jobs))
            return rec

        traced_then_plain.capacity = op.capacity
        traced = run_ops(traced_then_plain, 1, TRACE_SHARE * seconds, min_ops, deadline)
        n = len(traced)
        phases = {"traced": traced, "untraced_jobs1": plain}
        traced_s = sum(r["s"] for r in traced)
        layers = tracer.metrics(traced_s)
        plain_s = sum(r["s"] for r in plain)
        layers["trace.overhead_frac"] = traced_s / plain_s - 1.0 if len(plain) == n and plain_s else 0.0
        layers["experiments.pool.speedup"] = 0.0
        if wl.jobs > 1:
            pooled = run_ops(op, wl.jobs, 0.0, 0, deadline, count=n)
            phases[f"untraced_jobs{wl.jobs}"] = pooled
            if len(pooled) == n:
                layers["experiments.pool.speedup"] = _rate(pooled) / _rate(plain)
        sizes = [r["json_bytes"] for r in traced if "json_bytes" in r]
        layers["cli.selection_json.bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
        result.update(phases=phases, layers=layers, absent=tracer.absent,
                      spans=len(tracer.names), operations=tracer.op_count,
                      hook_errors=tracer.counters.get("hook_errors", 0))
        tracer.write_csv(os.path.join(workdir, "spans.csv"))

    result["digests"] = op.digests
    result["check_errors"] = op.check_errors
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
