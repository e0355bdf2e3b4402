import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mcselect import cli
from mcselect.cli import main
from mcselect.models import Dataset, save_dataset_csv
from mcselect.sampling import random_stream
from mcselect.models import generate_data


@pytest.fixture
def select_config(tmp_path):
    cfg = {
        "experiment": "select",
        "sigma2": 1.0,
        "max_order": 6,
        "rules": ["aic", "bic", "ub"],
        "samples": 500,
        "seed": 9,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def data_csv(tmp_path):
    data = generate_data(random_stream(61, 0), 4, (0.1, 0.1, -0.3, 0.4), 1.0, 100)
    path = tmp_path / "data.csv"
    save_dataset_csv(path, data)
    return path


@pytest.fixture
def experiment_config(tmp_path):
    cfg = {
        "experiment": "fixed",
        "sigma2": 1.0,
        "max_order": 3,
        "rules": ["aic", "bic", "ub"],
        "samples": 150,
        "n_values": [40],
        "replications": 8,
        "true_order": 2,
        "true_coefficients": [0.4, -0.2],
        "seed": 13,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSelectCommand:
    def test_happy_path(self, tmp_path, select_config, data_csv, capsys):
        out = tmp_path / "out"
        code = main(["select", str(data_csv), "--config", str(select_config),
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "bic: order" in printed
        saved = json.loads((out / "selection.json").read_text())
        assert saved["config"]["seed"] == 9
        assert saved["n_points"] == 100
        assert saved["results"]["bic"]["selected_order"] == 4
        assert len(saved["results"]["ub"]["scores"]) == 6
        assert len(saved["results"]["ub"]["mc_std_error_log"]) == 6

    def test_missing_config_key(self, tmp_path, data_csv, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "select", "max_order": 2,
                                   "rules": ["aic"], "samples": 10}))
        code = main(["select", str(data_csv), "--config", str(bad)])
        assert code == 2
        assert "sigma2" in capsys.readouterr().err

    def test_unknown_rule_lists_valid(self, tmp_path, select_config, data_csv, capsys):
        code = main(["select", str(data_csv), "--config", str(select_config),
                     "--rules", "aic,wic"])
        assert code == 2
        err = capsys.readouterr().err
        assert "wic" in err and "ub-strat" in err

    def test_config_not_json(self, tmp_path, data_csv, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code = main(["select", str(data_csv), "--config", str(bad)])
        assert code == 2
        assert "JSON" in capsys.readouterr().err

    def test_malformed_data_exit_3(self, tmp_path, select_config, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y\n1,2.0\n2,oops\n")
        code = main(["select", str(bad), "--config", str(select_config)])
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    def test_field_over_csv_limit_exit_3(self, tmp_path, select_config, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('t,y\n1,2.0\n2,"0.' + "0" * 199_997 + '5"\n3,1.0\n')
        code = main(["select", str(bad), "--config", str(select_config)])
        assert code == 3
        assert "line 3: field larger than field limit" in capsys.readouterr().err

    def test_unquoted_field_over_csv_limit_exit_3(self, tmp_path, select_config, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y\n1,2.0\n2,0." + "0" * 199_997 + "5\n3,1.0\n")
        code = main(["select", str(bad), "--config", str(select_config)])
        assert code == 3
        assert "line 3: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "1e999"])
    def test_non_finite_data_exit_3(self, tmp_path, select_config, capsys, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,y\n1,2.0\n2,{value}\n3,1.0\n")
        code = main(["select", str(bad), "--config", str(select_config)])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 3" in err and value in err

    @pytest.mark.parametrize("content, line", [
        ("t,y\n1,2.0\n2,1.5\n".encode("utf-16"), 1),
        (b"t,y\n1,2.0\n2,1.5\xb0\n3,1.0\n", 3),
        # past the text reader's first buffer, so the line is counted from
        # the file, not from the buffer the codec failed in
        (b"t,y\n" + b"1,2.0\n" * 5000 + b"2,1.5\xb0\n", 5002),
    ], ids=["utf-16", "latin-1", "latin-1-deep"])
    def test_not_utf8_data_exit_3(self, tmp_path, select_config, capsys, content, line):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        code = main(["select", str(bad), "--config", str(select_config)])
        assert code == 3
        assert f"line {line}: not UTF-8 text" in capsys.readouterr().err

    def test_directory_as_data_exit_3(self, tmp_path, select_config):
        assert main(["select", str(tmp_path), "--config", str(select_config)]) == 3

    @pytest.mark.parametrize("make", [
        lambda p: p.mkdir(),
        lambda p: p.write_bytes('{"experiment": "select"}'.encode("utf-16")),
    ], ids=["directory", "utf-16"])
    def test_unreadable_config_exit_2(self, tmp_path, data_csv, make):
        make(tmp_path / "cfg")
        assert main(["select", str(data_csv), "--config", str(tmp_path / "cfg")]) == 2

    def test_missing_data_exit_3(self, tmp_path, select_config, capsys):
        code = main(["select", str(tmp_path / "none.csv"),
                     "--config", str(select_config)])
        assert code == 3

    def _results(self, tmp_path, select_config, path):
        out = tmp_path / f"out-{path.stem}"
        code = main(["select", str(path), "--config", str(select_config),
                     "--out", str(out)])
        assert code == 0
        return json.loads((out / "selection.json").read_text())["results"]

    @pytest.mark.parametrize("prefix", ["\ufeff", "\n", "\ufeff\n  \n"])
    def test_bom_or_blank_lines_before_header(self, tmp_path, select_config,
                                              data_csv, prefix):
        # a spreadsheet export starts with a byte-order mark; the header is
        # still the first row that holds anything
        text = data_csv.read_text()
        shifted = tmp_path / "shifted.csv"
        shifted.write_text(prefix + text, encoding="utf-8")
        assert self._results(tmp_path, select_config, shifted) == self._results(
            tmp_path, select_config, data_csv
        )

    def test_header_after_data_exit_3(self, tmp_path, select_config, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2.0\n2,1.0\nt,y\n3,1.5\n")
        code = main(["select", str(bad), "--config", str(select_config)])
        assert code == 3
        assert "line 3: bad number 'y'" in capsys.readouterr().err

    def test_partition_cap_exit_2(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "strat.json"
        cfg.write_text(json.dumps({
            "experiment": "select", "sigma2": 1.0, "max_order": 6,
            "rules": ["ub-strat"], "samples": 100, "seed": 1,
            "stratification_segments": 11,
        }))
        code = main(["select", str(data_csv), "--config", str(cfg)])
        assert code == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, override", [
        ([1, 2], ["--samples", "5"]),
        ("fixed", ["--seed", "3"]),
    ], ids=["list", "string"])
    def test_non_object_config_exit_2(self, tmp_path, data_csv, capsys,
                                      payload, override):
        cfg = tmp_path / "notobj.json"
        cfg.write_text(json.dumps(payload))
        code = main(["select", str(data_csv), "--config", str(cfg), *override])
        assert code == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_seed_override(self, tmp_path, select_config, data_csv):
        out = tmp_path / "o2"
        code = main(["select", str(data_csv), "--config", str(select_config),
                     "--seed", "123", "--out", str(out)])
        assert code == 0
        saved = json.loads((out / "selection.json").read_text())
        assert saved["config"]["seed"] == 123

    def test_random_seed_announced(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "noseed.json"
        cfg.write_text(json.dumps({
            "experiment": "select", "sigma2": 1.0, "max_order": 2,
            "rules": ["aic"], "samples": 10,
        }))
        out = tmp_path / "o3"
        code = main(["select", str(data_csv), "--config", str(cfg), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "seed:" in printed
        saved = json.loads((out / "selection.json").read_text())
        assert saved["config"]["seed"] is not None


class TestCollapsedBox:
    """On this N = 100 order-4 data, sigma2 = 1e-40 puts every box halfwidth
    below float64 resolution at theta_hat, and 1e-28 still leaves the order-2
    box wide enough but not its three-segment strata."""

    def _run(self, tmp_path, data_csv, rules, sigma2):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({
            "experiment": "select", "sigma2": sigma2, "max_order": 6,
            "rules": rules, "samples": 1000, "seed": 2,
        }))
        return main(["select", str(data_csv), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("rules", [["ub"], ["ub-strat"]], ids=["ub", "ub-strat"])
    def test_box_rules_exit_4(self, tmp_path, data_csv, capsys, rules):
        assert self._run(tmp_path, data_csv, rules, 1e-40) == 4
        assert "order 1: the bounding box" in capsys.readouterr().err

    def test_collapsed_strata_exit_4(self, tmp_path, data_csv, capsys):
        assert self._run(tmp_path, data_csv, ["ub-strat"], 1e-28) == 4
        assert "order 2: a sub-box" in capsys.readouterr().err

    def test_rules_without_a_box_exit_0(self, tmp_path, data_csv, capsys):
        rules = ["aic", "bic", "ue", "ueg", "ge"]
        assert self._run(tmp_path, data_csv, rules, 1e-40) == 0, capsys.readouterr().err

    def test_collapsed_box_excludes_only_its_rule(self, tmp_path, data_csv, capsys):
        assert self._run(tmp_path, data_csv, ["aic", "bic", "ub"], 1e-40) == 0, \
            capsys.readouterr().err
        results = json.loads((tmp_path / "o" / "selection.json").read_text())["results"]
        for rule in ("aic", "bic"):
            assert results[rule]["selected_order"] is not None
            assert "excluded" not in results[rule]
        assert results["ub"]["selected_order"] is None
        assert results["ub"]["scores"] == [None] * 6
        assert "order 1: the bounding box" in results["ub"]["excluded"]


class TestStalledRejection:
    """At radius 0.001, ge's truncated-Gaussian rejection falls under the
    acceptance floor at order 3: ge is excluded, the other rules select."""

    def _run(self, tmp_path, data_csv, rules):
        cfg = tmp_path / "stall.json"
        cfg.write_text(json.dumps({
            "experiment": "select", "sigma2": 1.0, "max_order": 6, "rules": rules,
            "samples": 500, "seed": 7, "mu": [0.001] * 6,
        }))
        return main(["select", str(data_csv), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])

    def test_stalled_rule_is_excluded(self, tmp_path, data_csv, capsys):
        assert self._run(tmp_path, data_csv, ["aic", "ge"]) == 0, capsys.readouterr().err
        assert "ge: excluded, " in capsys.readouterr().out
        results = json.loads((tmp_path / "o" / "selection.json").read_text())["results"]
        assert results["aic"]["selected_order"] is not None
        assert results["ge"]["selected_order"] is None
        assert results["ge"]["excluded"].startswith("order 3: ")
        assert results["ge"]["excluded"].endswith("(rate below 0.0001)")

    def test_only_rule_stalled_exits_4(self, tmp_path, data_csv, capsys):
        assert self._run(tmp_path, data_csv, ["ge"]) == 4
        assert "every rule was excluded: ge: " in capsys.readouterr().err
        assert not (tmp_path / "o" / "selection.json").exists()


class TestNonFiniteFit:
    """50 rows of y = +-1e200 overflow every order's residual sum of squares
    at sigma2 = 1, so no order has a finite max_loglik: every rule is
    excluded, and no selection.json with Infinity in it is written."""

    def test_exit_4_and_no_selection(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("t,y\n" + "".join(
            f"{t},{1e200 if t % 2 else -1e200}\n" for t in range(1, 51)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "select", "sigma2": 1.0, "max_order": 6, "samples": 200,
            "rules": ["aic", "bic", "ue", "ueg", "ge", "ub", "ub-strat"], "seed": 7,
        }))
        assert main(["select", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.count("no order has a finite maximum log-likelihood") == 7
        assert not (tmp_path / "o" / "selection.json").exists()


class TestHighOrderUniformEllipsoid:
    """Order 8 with ue runs to completion.  Box rejection accepts about 1
    proposal in 66 000 there, under the acceptance floor, so a ue that
    sampled that way would abort the whole run with exit code 4."""

    RULES = ["aic", "bic", "ue", "ub-strat"]

    def test_select(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "order8.json"
        cfg.write_text(json.dumps({
            "experiment": "select", "sigma2": 1.0, "max_order": 8,
            "rules": self.RULES, "samples": 1000, "seed": 4,
        }))
        out = tmp_path / "o8"
        code = main(["select", str(data_csv), "--config", str(cfg), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        results = json.loads((out / "selection.json").read_text())["results"]
        for rule in ("ue", "ub-strat"):
            assert len(results[rule]["scores"]) == 8
            assert all(math.isfinite(v) for v in results[rule]["scores"])
            assert all(
                math.isfinite(v) and v > 0.0 for v in results[rule]["mc_std_error_log"]
            )

    def test_experiment(self, tmp_path, capsys):
        cfg = tmp_path / "exp8.json"
        cfg.write_text(json.dumps({
            "experiment": "fixed", "sigma2": 1.0, "max_order": 8,
            "rules": self.RULES, "samples": 1000, "n_values": [100],
            "replications": 3, "true_order": 4,
            "true_coefficients": [0.1, 0.1, -0.3, 0.4], "seed": 5,
        }))
        out = tmp_path / "e8"
        code = main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == {rule: 0 for rule in self.RULES}
        for rule in ("ue", "ub-strat"):
            assert math.isfinite(report["mean_mc_std_error_log"][rule])
            assert report["mean_mc_std_error_log"][rule] > 0.0
            assert report["totals"][rule]["100"]["4"] == 3


class TestExperimentCommand:
    def test_happy_path(self, tmp_path, experiment_config, capsys):
        out = tmp_path / "results"
        code = main(["experiment", "--config", str(experiment_config),
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "prob correct" in printed
        for name in ("histogram.csv", "prob_correct.csv", "avg_prob.csv", "report.json"):
            assert (out / name).exists()
        hist = (out / "histogram.csv").read_text().splitlines()
        assert hist[0].startswith("# config: ")

    def test_jobs_do_not_change_artifacts(self, tmp_path, experiment_config):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--config", str(experiment_config),
                     "--out", str(a), "--jobs", "1"]) == 0
        assert main(["experiment", "--config", str(experiment_config),
                     "--out", str(b), "--jobs", "3"]) == 0
        for name in ("histogram.csv", "prob_correct.csv", "avg_prob.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_select_kind_rejected(self, tmp_path, select_config, capsys):
        code = main(["experiment", "--config", str(select_config)])
        assert code == 2

    def test_missing_config_flag(self, capsys):
        assert main(["experiment"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


class TestSampleDiagCommand:
    def test_happy_path(self, tmp_path, capsys):
        cfg = tmp_path / "diag.json"
        cfg.write_text(json.dumps({
            "experiment": "fixed", "sigma2": 1.0, "max_order": 2,
            "rules": ["ub"], "samples": 2000, "n_values": [40],
            "replications": 300, "true_order": 2,
            "true_coefficients": [0.3, -0.2], "seed": 17,
        }))
        out = tmp_path / "diag_out"
        code = main(["sample-diag", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "coverage" in printed
        saved = json.loads((out / "diagnostics.json").read_text())
        rows = {r["order"]: r for r in saved["samplers"]}
        assert rows[1]["box_rejection_acceptance"] == 1.0
        assert 0.95 <= saved["coverage"]["fraction"] <= 1.0

    def test_order_7_box_rejection_below_floor(self, tmp_path, capsys):
        cfg = tmp_path / "diag7.json"
        cfg.write_text(json.dumps({
            "experiment": "fixed", "sigma2": 1.0, "max_order": 7,
            "rules": ["ub"], "samples": 200, "n_values": [100],
            "replications": 20, "true_order": 4,
            "true_coefficients": [0.1, 0.1, -0.3, 0.4], "seed": 5,
        }))
        out = tmp_path / "diag7_out"
        code = main(["sample-diag", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "order 7:" in printed and "box acceptance below floor" in printed
        saved = json.loads((out / "diagnostics.json").read_text())
        rows = {r["order"]: r for r in saved["samplers"]}
        assert rows[7]["box_rejection_acceptance"] is None
        assert "box_rejection" in rows[7]["below_floor"]

    @pytest.mark.parametrize("sigma2", [1e-26, 1e-28])
    def test_order_1_box_is_its_ellipsoid_at_tiny_sigma2(self, tmp_path, capsys, sigma2):
        # a theta-space box, offset by theta_hat, lost precision here (0.993
        # at 1e-26); the whitened one accepts every order-1 proposal
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({
            "experiment": "fixed", "sigma2": sigma2, "max_order": 6,
            "rules": ["ub"], "samples": 2000, "n_values": [100],
            "replications": 5, "true_order": 4,
            "true_coefficients": [0.1, 0.1, -0.3, 0.4], "seed": 7,
        }))
        out = tmp_path / "tiny_out"
        assert main(["sample-diag", "--config", str(cfg), "--out", str(out)]) == 0
        saved = json.loads((out / "diagnostics.json").read_text())
        assert saved["samplers"][0]["box_rejection_acceptance"] == 1.0

    def test_needs_fixed_config(self, tmp_path, select_config, capsys):
        code = main(["sample-diag", "--config", str(select_config)])
        assert code == 2

    def test_partition_cap_exit_2(self, tmp_path, experiment_config, capsys):
        cfg = json.loads(experiment_config.read_text())
        cfg.update(rules=["ub-strat"], stratification_segments=101)
        path = tmp_path / "strat.json"
        path.write_text(json.dumps(cfg))
        code = main(["sample-diag", "--config", str(path), "--out", str(tmp_path / "d")])
        assert code == 2
        assert "cap" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestUnusableOut:
    """An --out that cannot be a directory fails before any work."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "taken"
        path.write_text("a file, not a directory\n")
        return path

    def _check(self, capsys, code, out):
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot use --out" in err and str(out) in err

    @pytest.mark.parametrize("nested", [False, True], ids=["file", "through-file"])
    def test_select(self, blocker, select_config, data_csv, capsys, nested):
        out = blocker / "x" if nested else blocker
        code = main(["select", str(data_csv), "--config", str(select_config),
                     "--out", str(out)])
        self._check(capsys, code, out)

    def test_experiment_runs_nothing(self, blocker, experiment_config, capsys,
                                     monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("run_experiment called with an unusable --out")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        code = main(["experiment", "--config", str(experiment_config),
                     "--out", str(blocker)])
        self._check(capsys, code, blocker)

    def test_sample_diag(self, blocker, experiment_config, capsys):
        out = blocker / "x"
        code = main(["sample-diag", "--config", str(experiment_config),
                     "--out", str(out)])
        self._check(capsys, code, out)


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path, experiment_config):
        out = tmp_path / "sub"
        proc = subprocess.run(
            [sys.executable, "-m", "mcselect", "experiment",
             "--config", str(experiment_config), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mcselect", "select"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
