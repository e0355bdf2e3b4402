import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
import mcselect
from mcselect.numerics import (
    DimensionMismatch,
    EmptyInput,
    NotPositiveDefinite,
    chi2_cdf,
    cholesky,
    cholesky_solve,
    log_det,
    unit_ball_volume,
)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        L = cholesky(np.diag([4.0, 9.0]))
        assert np.allclose(L, np.diag([2.0, 3.0]), atol=1e-15)

    def test_hand_case(self):
        # [[2,1],[1,2]]: L11 = sqrt(2), L21 = 1/sqrt(2), L22 = sqrt(3/2)
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        L = cholesky(m)
        assert L[0, 1] == 0.0
        assert math.isclose(L[0, 0], math.sqrt(2.0), rel_tol=1e-14)
        assert math.isclose(L[1, 0], 1.0 / math.sqrt(2.0), rel_tol=1e-14)
        assert math.isclose(L[1, 1], math.sqrt(1.5), rel_tol=1e-14)
        assert np.allclose(L @ L.T, m, atol=1e-14)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_exactly_singular_raises(self):
        # integer entries make the final pivot exactly zero
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[4.0, 2.0], [2.0, 1.0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.ones((2, 3)))

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            cholesky(np.empty((0, 0)))

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_roundtrip_random_spd(self, d, seed):
        m = random_spd(np.random.default_rng(seed), d)
        L = cholesky(m)
        assert np.all(np.triu(L, 1) == 0.0)
        err = np.max(np.abs(L @ L.T - m)) / np.max(np.abs(m))
        assert err < 1e-12

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_solve_roundtrip(self, d, seed):
        rng = np.random.default_rng(seed)
        m = random_spd(rng, d)
        x = rng.random(d)
        b = m @ x
        got = cholesky_solve(cholesky(m), b)
        assert np.allclose(got, x, atol=1e-8)


class TestLogDet:
    def test_identity(self):
        assert log_det(np.eye(3)) == 0.0

    def test_diagonal(self):
        assert math.isclose(log_det(np.diag([4.0, 9.0])), math.log(36.0), rel_tol=1e-14)

    def test_hand_case(self):
        # det [[2,1],[1,2]] = 3
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert math.isclose(log_det(m), math.log(3.0), rel_tol=1e-14)

    @given(st.integers(1, 7), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_against_slogdet(self, d, seed):
        m = random_spd(np.random.default_rng(seed), d)
        sign, ld = np.linalg.slogdet(m)
        assert sign == 1.0
        assert math.isclose(log_det(m), ld, rel_tol=1e-10, abs_tol=1e-10)


_RUN_WITHOUT_SCIPY = """
import json, os, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from mcselect.cli import main
from mcselect.models import generate_data, save_dataset_csv
from mcselect.sampling import random_stream

tmp = sys.argv[1]
data = os.path.join(tmp, "data.csv")
save_dataset_csv(data, generate_data(random_stream(7, 0), 4, (0.1, 0.1, -0.3, 0.4), 0.37, 100))
rules = ["aic", "bic", "ue", "ueg", "ge", "ub", "ub-strat"]
configs = {
    "select": {"experiment": "select", "sigma2": 0.37, "max_order": 6,
               "rules": rules, "samples": 200, "seed": 7},
    "fixed": {"experiment": "fixed", "sigma2": 1.0, "max_order": 3, "rules": rules,
              "samples": 100, "n_values": [20, 40], "replications": 4,
              "true_order": 2, "true_coefficients": [0.4, -0.2], "seed": 13},
}
for name, cfg in configs.items():
    with open(os.path.join(tmp, name + ".json"), "w") as fh:
        json.dump(cfg, fh)
runs = [
    ["select", data, "--config", os.path.join(tmp, "select.json")],
    ["experiment", "--config", os.path.join(tmp, "fixed.json"), "--jobs", "1"],
    ["experiment", "--config", os.path.join(tmp, "fixed.json"), "--jobs", "2"],
    ["sample-diag", "--config", os.path.join(tmp, "fixed.json")],
]
codes = [main(argv + ["--out", os.path.join(tmp, str(k))]) for k, argv in enumerate(runs)]
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_import_and_runs_load_no_scipy(tmp_path):
    # design build, rules and CLI are numpy only: scipy is a dependency just
    # for the exported cholesky, cholesky_solve and log_det, which no run
    # path calls, so neither importing the package nor running it loads it
    src = os.path.dirname(os.path.dirname(os.path.abspath(mcselect.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, mcselect, mcselect.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # each command, parallel workers included, with every scipy import
    # failing: select, experiment at --jobs 1 and 2, and sample-diag
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0, 0, 0], "loaded": []}


class TestChi2Cdf:
    def test_two_dof_closed_form(self):
        # for d=2 the CDF is 1 - exp(-x/2)
        assert math.isclose(chi2_cdf(2, 10.0), 1.0 - math.exp(-5.0), abs_tol=1e-12)
        assert math.isclose(chi2_cdf(2, 1.0), 1.0 - math.exp(-0.5), abs_tol=1e-12)

    def test_reference_masses(self):
        # default-radius masses used throughout: d=1 at 8, d=10 at 26
        assert abs(chi2_cdf(1, 8.0) - 0.995) < 5e-4
        assert abs(chi2_cdf(10, 26.0) - 0.996) < 5e-4
        assert abs(chi2_cdf(4, 14.0) - 0.9927) < 5e-4

    def test_even_dof_poisson_identity(self):
        # P(chi2_2k <= x) = 1 - exp(-x/2) sum_{j<k} (x/2)^j / j!
        for k in (1, 2, 3, 5):
            for x in (0.5, 3.0, 14.0, 40.0):
                half = x / 2.0
                tail = sum(half**j / math.factorial(j) for j in range(k))
                want = 1.0 - math.exp(-half) * tail
                assert math.isclose(chi2_cdf(2 * k, x), want, abs_tol=1e-9)

    def test_against_scipy(self):
        for d in (1, 2, 3, 4, 6, 10, 25):
            for x in (0.01, 0.5, 2.0, 8.0, 14.0, 26.0, 80.0):
                want = scipy.special.gammainc(d / 2.0, x / 2.0)
                assert math.isclose(chi2_cdf(d, x), want, abs_tol=1e-10)

    def test_edges(self):
        assert chi2_cdf(3, 0.0) == 0.0
        assert chi2_cdf(3, -1.0) == 0.0
        assert chi2_cdf(3, math.inf) == 1.0

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            chi2_cdf(0, 1.0)
        with pytest.raises(ValueError):
            chi2_cdf(1.5, 1.0)

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            chi2_cdf(2, math.nan)

    @given(st.integers(1, 20), st.floats(0.0, 200.0), st.floats(0.0, 200.0))
    @settings(max_examples=100)
    def test_monotone_in_x(self, d, a, b):
        lo, hi = sorted((a, b))
        pa, pb = chi2_cdf(d, lo), chi2_cdf(d, hi)
        assert 0.0 <= pa <= pb <= 1.0

    def test_series_vs_upper_tail_consistency(self):
        # the series and the upper-tail sum meet at x = 2 (a + 1), a = df/2
        for df in (1, 2, 5, 14):
            x = 2.0 * (df / 2.0 + 1.0)
            below = chi2_cdf(df, x - 1e-9)
            above = chi2_cdf(df, x + 1e-9)
            assert abs(below - above) < 1e-8


class TestUnitBallVolume:
    def test_small_dims(self):
        assert unit_ball_volume(1) == 2.0
        assert unit_ball_volume(2) == math.pi
        assert math.isclose(unit_ball_volume(3), 4.0 * math.pi / 3.0, rel_tol=1e-14)
        assert math.isclose(unit_ball_volume(4), math.pi**2 / 2.0, rel_tol=1e-14)

    def test_closed_form(self):
        for d in range(1, 13):
            want = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
            assert math.isclose(unit_ball_volume(d), want, rel_tol=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)

