#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

From the root of a checkout.  For every workload it makes two untraced
runs with one seed and one traced run.  It asserts:

- each run exits 0 and its outputs pass their checks;
- every metric of BENCHMARK.json is printed with its unit;
- the result-drift digests are identical across the two same-seed runs;
- the oracle agrees with the d = 1 closed form;
- the benchmark refuses to run (non-zero exit, no result line) in a
  directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def run(workload: str, trace: int, cwd: str = ROOT) -> tuple:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout.splitlines(), done.stderr


def info_line(lines: list, label: str) -> dict:
    prefix = f"# {label} "
    return json.loads(next(ln[len(prefix):] for ln in lines if ln.startswith(prefix)))


def check_metrics(lines: list, wanted: list, what: str) -> None:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True, f"{what}: outputs failed their checks"
    assert result["attempted"] >= 1 and result["failed"] == 0, f"{what}: {result}"
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, f"{what}: metric names differ"
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{what}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
            f"{what}: {m['name']} = {got['value']}"


def test_closed_form_d1() -> None:
    exact = oracle.Oracle(workloads.SIGMA2, workloads.MAX_ORDER)
    for n in (20, 100, 5000):
        for call in range(3):
            y = workloads.select_dataset(SEED, call, n)
            got = exact.targets(y)[0]
            want = oracle.closed_form_d1(y, workloads.SIGMA2)
            for key in ("mll", "ue", "ge", "ub"):
                tol = 1e-9 + 1e-13 * abs(want["mll"])
                assert abs(got[key] - want[key]) <= tol, \
                    f"N={n} {key}: oracle {got[key]!r} vs closed form {want[key]!r}"


def test_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _err = run("mc-all-rules", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert code != 0, "ran without the package source"
    assert not any(ln.startswith("{") for ln in lines), "printed a result without the package"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    test_closed_form_d1()
    print("ok  oracle matches the d = 1 closed form", flush=True)
    test_bare_directory()
    print("ok  refuses to run without the package source", flush=True)
    for workload in sorted(workloads.WORKLOADS):
        digests = []
        for attempt in range(2):
            code, lines, err = run(workload, 0)
            assert code == 0, f"{workload}: exit {code}\n{err}"
            check_metrics(lines, bench["end_to_end"], f"{workload} trace 0")
            assert any(ln.startswith("# metric failed_fraction ") for ln in lines), workload
            digests.append(info_line(lines, "digests"))
        assert digests[0] == digests[1] and digests[0], f"{workload}: digests differ {digests}"
        print(f"ok  {workload}: end-to-end metrics, checks, repeatable digests", flush=True)
        code, lines, err = run(workload, 1)
        assert code == 0, f"{workload} traced: exit {code}\n{err}"
        check_metrics(lines, bench["per_layer"], f"{workload} trace 1")
        trace = info_line(lines, "trace")
        assert trace["absent"] == [] and trace["hook_errors"] == 0 and trace["spans"] > 0, trace
        print(f"ok  {workload}: per-layer metrics from {trace['spans']} spans", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
