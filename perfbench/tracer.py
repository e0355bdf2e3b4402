"""Span tracing of the package's public functions, installed from outside.

Tracer.install() replaces each traced function at its module attribute in
every mcselect module that imported the name (plus two class methods), so
the program's own code is untouched.  Each call records one span: name,
start, end, parent span and the operation id (a replication or a select
call).  Spans stay in memory until write_csv().  A traced name that the
package no longer defines is reported as absent, not as an error.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time

# module -> traced public names; "Class.method" patches the class attribute
TARGETS = {
    "numerics": ("cholesky", "cholesky_solve", "log_det", "chi2_cdf"),
    "models": ("polynomial_regressors", "log_likelihood", "fit", "generate_data",
               "load_dataset_y", "FittedModel.log_likelihood_batch"),
    "regions": ("build_ellipsoid", "mahalanobis_sq", "ellipsoid_log_volume",
                "bounding_box", "partition", "BoxPartition.sub_box"),
    "sampling": ("random_stream", "standard_normal", "accept_reject", "sample_uniform_box",
                 "sample_uniform_ellipsoid", "sample_gaussian", "sample_truncated_gaussian"),
    "estimators": ("aic", "bic", "ue_estimate", "ueg_estimate", "ge_estimate",
                   "ub_estimate", "ub_stratified_estimate"),
    "selection": ("select_map", "select_criterion"),
    "experiments": ("_replication_task", "score_candidates", "run_experiment",
                    "select_once", "write_report"),
    "cli": ("main",),
}

RULE_OF = {
    "estimators.ue_estimate": "ue",
    "estimators.ueg_estimate": "ueg",
    "estimators.ge_estimate": "ge",
    "estimators.ub_estimate": "ub",
    "estimators.ub_stratified_estimate": "ub-strat",
}
MC_RULES = ("ue", "ueg", "ge", "ub", "ub-strat")
DIMS = range(1, 7)

# a span with the first of these names that the package still defines
# starts a new operation: one replication, or one select call
OP_ROOTS = {
    "experiment": ("experiments._replication_task", "experiments.score_candidates"),
    "select": ("cli.main",),
}


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self, kind: str):
        self.op_roots = OP_ROOTS[kind]
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []
        self.stack: list = []
        self.op = -1
        self.op_count = 0
        self.absent: list = []
        self.counters: dict = {}
        self.est: list = []  # (rule, dim, seconds, se, samples_used, requested)
        self._undo: list = []
        self._op_root = None

    # ---- patching -------------------------------------------------------
    def install(self) -> None:
        self.absent = []
        for module, attrs in TARGETS.items():
            try:
                mod = importlib.import_module(f"mcselect.{module}")
            except ImportError:
                mod = None
            for attr in attrs:
                name = _span_name(module, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None) if mod else None
                    orig = cls.__dict__.get(meth) if cls is not None else None
                    if orig is None:
                        self.absent.append(name)
                        continue
                    setattr(cls, meth, self._wrap(name, orig))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, attr, None) if mod else None
                if orig is None:
                    self.absent.append(name)
                    continue
                wrapped = self._wrap(name, orig)
                for mname, m in list(sys.modules.items()):
                    if m is None or not (mname == "mcselect" or mname.startswith("mcselect.")):
                        continue
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapped)
                            self._undo.append((m, k, orig))
        self._op_root = next((r for r in self.op_roots if r not in self.absent), None)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == self._op_root:
                self.op = self.op_count
                self.op_count += 1
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            self.starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self.stack.pop()
            if hook is not None:
                try:
                    hook(self, idx, args, result)
                except Exception:  # a changed signature must not fail the program
                    self.count("hook_errors", 1)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def enclosing_rule(self, idx: int):
        p = self.parents[idx]
        while p >= 0:
            rule = RULE_OF.get(self.names[p])
            if rule is not None:
                return rule
            p = self.parents[p]
        return None

    # ---- output ---------------------------------------------------------
    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, (n, s, e, p, o) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.ops)
            ):
                fh.write(f"{i},{n},{s - t0:.9f},{e - t0:.9f},{p},{o}\n")

    def metrics(self, wall_s: float) -> dict:
        """Per-layer figures; additive ones are per operation."""
        n = len(self.names)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        self_s: dict = {}
        calls: dict = {}
        inclusive: dict = {}
        root_s = 0.0
        for i, name in enumerate(self.names):
            self_s[name] = self_s.get(name, 0.0) + dur[i] - covered[i]
            calls[name] = calls.get(name, 0) + 1
            inclusive.setdefault(name, []).append(dur[i])
            if self.parents[i] < 0:
                root_s += dur[i]
        ops = max(self.op_count, 1)

        def per_op_ms(name):
            return 1000.0 * self_s.get(name, 0.0) / ops

        def per_op_calls(name):
            return calls.get(name, 0) / ops

        def per_op(key):
            return self.counters.get(key, 0) / ops

        def p50_ms(name):
            xs = inclusive.get(name)
            return 1000.0 * statistics.median(xs) if xs else 0.0

        m = {
            "sampling.accept_reject.proposed": per_op("accept_reject.proposed"),
            "sampling.accept_reject.accepted": per_op("accept_reject.accepted"),
            "sampling.accept_reject.self_ms": per_op_ms("sampling.accept_reject"),
            "sampling.standard_normal.draws": per_op("standard_normal.draws"),
            "sampling.standard_normal.self_ms": per_op_ms("sampling.standard_normal"),
            "sampling.sample_uniform_box.calls": per_op_calls("sampling.sample_uniform_box"),
            "sampling.random_stream.calls": per_op_calls("sampling.random_stream"),
        }
        for rule in ("ue", "ge"):
            for d in DIMS:
                prop = self.counters.get(f"useful.{rule}.{d}.proposed", 0)
                acc = self.counters.get(f"useful.{rule}.{d}.accepted", 0)
                m[f"sampling.{rule}.d{d}.useful_ratio"] = acc / prop if prop else 0.0
        by_rule_dim: dict = {}
        for rule, d, secs, _se, _used, _req in self.est:
            by_rule_dim.setdefault((rule, d), []).append(secs)
        for rule in MC_RULES:
            for d in DIMS:
                xs = by_rule_dim.get((rule, d))
                m[f"estimators.{rule}.d{d}.p50_ms"] = 1000.0 * statistics.median(xs) if xs else 0.0
        strat = [e for e in self.est if e[0] == "ub-strat"]
        m["estimators.ub-strat.samples_used_ratio"] = (
            min(used / req for *_x, used, req in strat) if strat else 0.0
        )
        m["estimators.ub-strat.zero_se"] = sum(1 for e in strat if e[3] == 0.0) / ops
        m.update({
            "regions.sub_box.calls": per_op_calls("regions.sub_box"),
            "regions.sub_box.self_ms": per_op_ms("regions.sub_box"),
            "regions.mahalanobis_sq.rows": per_op("mahalanobis_sq.rows"),
            "regions.mahalanobis_sq.self_ms": per_op_ms("regions.mahalanobis_sq"),
            "regions.build_ellipsoid.calls": per_op_calls("regions.build_ellipsoid"),
            "regions.build_ellipsoid.self_ms": per_op_ms("regions.build_ellipsoid"),
            "regions.bounding_box.calls": per_op_calls("regions.bounding_box"),
            "regions.bounding_box.self_ms": per_op_ms("regions.bounding_box"),
            "models.fit.calls": per_op_calls("models.fit"),
            "models.fit.self_ms": per_op_ms("models.fit"),
            "models.polynomial_regressors.calls": per_op_calls("models.polynomial_regressors"),
            "models.generate_data.self_ms": per_op_ms("models.generate_data"),
            "models.log_likelihood_batch.rows": per_op("log_likelihood_batch.rows"),
            "models.log_likelihood_batch.self_ms": per_op_ms("models.log_likelihood_batch"),
            "models.load_dataset_y.self_ms": per_op_ms("models.load_dataset_y"),
            "models.load_dataset_y.bytes": per_op("load_dataset_y.bytes"),
            "numerics.cholesky.calls": per_op_calls("numerics.cholesky"),
            "numerics.cholesky.self_ms": per_op_ms("numerics.cholesky"),
            "numerics.chi2_cdf.calls": per_op_calls("numerics.chi2_cdf"),
            "numerics.log_det.calls": per_op_calls("numerics.log_det"),
            "experiments.score_candidates.self_ms": per_op_ms("experiments.score_candidates"),
            "experiments.score_candidates.p50_ms": p50_ms("experiments.score_candidates"),
            "experiments.score_candidates.tail_ms": _tail_ms(inclusive.get("experiments.score_candidates", [])),
            "experiments.write_report.ms": p50_ms("experiments.write_report"),
            "experiments.write_report.bytes": (
                self.counters.get("write_report.bytes", 0) / calls["experiments.write_report"]
                if calls.get("experiments.write_report") else 0.0
            ),
            "selection.select_map.self_ms": per_op_ms("selection.select_map"),
            "selection.select_criterion.self_ms": per_op_ms("selection.select_criterion"),
            "cli.main.self_ms": per_op_ms("cli.main"),
            "trace.unaccounted_frac": 1.0 - root_s / wall_s if wall_s > 0 else 0.0,
        })
        return m


def _tail_ms(durations) -> float:
    """Highest percentile with at least ten samples beyond it (max if fewer)."""
    xs = sorted(durations)
    if not xs:
        return 0.0
    return 1000.0 * xs[max(len(xs) - 11, 0)] if len(xs) > 10 else 1000.0 * xs[-1]


# ---- hooks: counts measured where the work happens ------------------------
def _accept_reject(tr: Tracer, idx: int, args, batch) -> None:
    tr.count("accept_reject.proposed", batch.proposed_count)
    tr.count("accept_reject.accepted", batch.accepted_count)
    rule = tr.enclosing_rule(idx)
    if rule in ("ue", "ge"):
        d = batch.points.shape[1]
        tr.count(f"useful.{rule}.{d}.proposed", batch.proposed_count)
        tr.count(f"useful.{rule}.{d}.accepted", batch.accepted_count)


def _rows(key):
    def hook(tr: Tracer, idx: int, args, result) -> None:
        tr.count(key, len(result))
    return hook


def _estimate(tr: Tracer, idx: int, args, est) -> None:
    # every estimator's signature is (rng, model, region, m)
    model, m = args[1], args[3]
    tr.est.append((RULE_OF[tr.names[idx]], model.dim, tr.ends[idx] - tr.starts[idx],
                   est.mc_std_error_log, est.samples_used, m))


def _file_bytes(key):
    def hook(tr: Tracer, idx: int, args, result) -> None:
        tr.count(key, os.path.getsize(args[0]))
    return hook


def _report_bytes(tr: Tracer, idx: int, args, paths) -> None:
    tr.count("write_report.bytes", sum(os.path.getsize(p) for p in paths.values()))


_HOOKS = {
    "sampling.accept_reject": _accept_reject,
    "sampling.standard_normal": lambda tr, idx, args, out: tr.count("standard_normal.draws", out.size),
    "regions.mahalanobis_sq": _rows("mahalanobis_sq.rows"),
    "models.log_likelihood_batch": _rows("log_likelihood_batch.rows"),
    "models.load_dataset_y": _file_bytes("load_dataset_y.bytes"),
    "experiments.write_report": _report_bytes,
    **{name: _estimate for name in RULE_OF},
}
