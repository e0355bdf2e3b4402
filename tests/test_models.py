import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TRUE_COEFFS, fd_hessian
from reference import exact_tril_inverse, fim
from mcselect import models
from mcselect.models import (
    Dataset,
    ParseError,
    build_design,
    fit,
    fit_nested,
    generate_data,
    load_dataset_y,
    log_likelihood,
    polynomial_design,
    polynomial_regressors,
    save_dataset_csv,
)
from mcselect.numerics import DimensionMismatch, NotPositiveDefinite
from mcselect.sampling import random_stream

LOG_2PI = math.log(2.0 * math.pi)


class TestDataset:
    def test_basic(self):
        d = Dataset([1.0, 2.0, 3.0], 0.5)
        assert d.n_points == 3
        assert d.noise_variance == 0.5

    def test_too_short(self):
        with pytest.raises(ValueError):
            Dataset([1.0], 1.0)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            Dataset([1.0, math.nan], 1.0)

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            Dataset([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            Dataset([1.0, 2.0], -1.0)


class TestPolynomialRegressors:
    def test_order_one_is_ones(self):
        phi = polynomial_regressors(5, 1)
        assert phi.shape == (5, 1)
        assert np.array_equal(phi, np.ones((5, 1)))

    def test_grid_endpoints_and_center(self):
        phi = polynomial_regressors(101, 2)
        assert phi[0, 1] == -5.0
        assert phi[-1, 1] == 5.0
        assert phi[50, 1] == 0.0

    def test_grid_step(self):
        phi = polynomial_regressors(100, 2)
        assert math.isclose(phi[1, 1], -5.0 + 10.0 / 99.0, rel_tol=1e-15)

    def test_columns_are_powers(self):
        phi = polynomial_regressors(7, 4)
        base = phi[:, 1]
        assert np.allclose(phi[:, 2], base**2, rtol=1e-15)
        assert np.allclose(phi[:, 3], base**3, rtol=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            polynomial_regressors(1, 2)
        with pytest.raises(ValueError):
            polynomial_regressors(10, 0)


class TestLogLikelihood:
    def test_zero_residual(self):
        data = Dataset([0.0, 0.0], 1.0)
        phi = np.ones((2, 1))
        assert math.isclose(log_likelihood(data, phi, np.array([0.0])), -LOG_2PI)

    def test_hand_case(self):
        # y = (1, 3), theta = 2: residuals (-1, 1), ll = -log 2pi - 1
        data = Dataset([1.0, 3.0], 1.0)
        phi = np.ones((2, 1))
        got = log_likelihood(data, phi, np.array([2.0]))
        assert math.isclose(got, -LOG_2PI - 1.0, rel_tol=1e-14)

    def test_variance_scaling(self):
        data = Dataset([1.0, 3.0], 4.0)
        phi = np.ones((2, 1))
        want = -0.5 * 2 * (LOG_2PI + math.log(4.0)) - 2.0 / 8.0
        got = log_likelihood(data, phi, np.array([2.0]))
        assert math.isclose(got, want, rel_tol=1e-14)

    def test_shape_mismatches(self):
        data = Dataset([1.0, 3.0], 1.0)
        with pytest.raises(DimensionMismatch):
            log_likelihood(data, np.ones((3, 1)), np.array([2.0]))
        with pytest.raises(DimensionMismatch):
            log_likelihood(data, np.ones((2, 1)), np.array([2.0, 0.0]))


class TestFit:
    def test_intercept_hand_case(self):
        # y = (1, 3): theta_hat = 2, J = 2/sigma2, mll = -log 2pi - 1
        data = Dataset([1.0, 3.0], 1.0)
        f = fit(data, np.ones((2, 1)))
        assert np.allclose(f.theta_hat, [2.0], atol=1e-14)
        assert np.allclose(fim(f), [[2.0]], atol=1e-14)
        assert math.isclose(f.max_loglik, -LOG_2PI - 1.0, rel_tol=1e-14)
        assert f.dim == 1

    def test_recovers_exact_polynomial(self):
        phi = polynomial_regressors(50, 4)
        coeffs = np.array(TRUE_COEFFS)
        data = Dataset(phi @ coeffs, 1.0)
        f = fit(data, phi)
        assert np.allclose(f.theta_hat, coeffs, atol=1e-10)
        assert math.isclose(f.max_loglik, -0.5 * 50 * LOG_2PI, rel_tol=1e-12)

    def test_information_matrix_oracle(self):
        # J must equal (1/sigma2) sum_t phi_t phi_t'
        phi = polynomial_regressors(20, 3)
        data = Dataset(np.sin(np.arange(20.0)), 0.7)
        f = fit(data, phi)
        direct = np.zeros((3, 3))
        for t in range(20):
            direct += np.outer(phi[t], phi[t])
        direct /= 0.7
        assert np.allclose(fim(f), direct, rtol=1e-12)
        assert np.array_equal(fim(f), fim(f).T)

    def test_estimate_maximizes(self):
        rng = random_stream(5, 0)
        data = generate_data(rng, 3, (0.2, -0.1, 0.05), 1.0, 40)
        phi = polynomial_regressors(40, 3)
        f = fit(data, phi)
        for delta in (0.01, -0.02):
            for k in range(3):
                worse = f.theta_hat.copy()
                worse[k] += delta
                assert log_likelihood(data, phi, worse) < f.max_loglik

    def test_singular_design_raises(self):
        # three points cannot identify four polynomial coefficients
        data = Dataset([0.0, 1.0, 2.0], 1.0)
        with pytest.raises(NotPositiveDefinite):
            fit(data, polynomial_regressors(3, 4))

    def test_hessian_matches_information(self):
        rng = random_stream(6, 0)
        data = generate_data(rng, 3, (0.2, -0.1, 0.05), 1.0, 30)
        phi = polynomial_regressors(30, 3)
        f = fit(data, phi)
        H = fd_hessian(lambda th: log_likelihood(data, phi, th), f.theta_hat.copy())
        scale = np.max(np.abs(fim(f)))
        assert np.max(np.abs(H + fim(f))) / scale < 1e-4

    def test_batch_matches_scalar(self):
        rng = random_stream(7, 0)
        data = generate_data(rng, 4, TRUE_COEFFS, 1.0, 100)
        phi = polynomial_regressors(100, 4)
        f = fit(data, phi)
        thetas = f.theta_hat + 0.05 * (rng.random((25, 4)) - 0.5)
        batch = f.log_likelihood_batch(thetas)
        direct = np.array([log_likelihood(data, phi, th) for th in thetas])
        assert np.max(np.abs(batch - direct)) < 1e-7

    def test_batch_never_exceeds_peak(self):
        rng = random_stream(8, 0)
        data = generate_data(rng, 2, (0.5, -0.2), 1.0, 25)
        f = fit(data, polynomial_regressors(25, 2))
        thetas = f.theta_hat + 10.0 * (rng.random((200, 2)) - 0.5)
        assert np.all(f.log_likelihood_batch(thetas) <= f.max_loglik)

    def test_translation_consistency(self):
        # shifting y along a regressor column shifts only that coefficient
        rng = random_stream(9, 0)
        data = generate_data(rng, 2, (0.5, -0.2), 1.0, 25)
        phi = polynomial_regressors(25, 2)
        f0 = fit(data, phi)
        shifted = Dataset(data.y + 3.0 * phi[:, 1], 1.0)
        f1 = fit(shifted, phi)
        assert np.allclose(f1.theta_hat - f0.theta_hat, [0.0, 3.0], atol=1e-10)
        assert np.array_equal(fim(f0), fim(f1))
        assert math.isclose(f0.max_loglik, f1.max_loglik, rel_tol=1e-9)

    @given(st.integers(0, 5000))
    @settings(max_examples=25)
    def test_nested_orders_never_lose_fit(self, seed):
        rng = random_stream(seed, 0)
        data = generate_data(rng, 3, (0.1, 0.2, -0.1), 1.0, 30)
        lls = [
            fit(data, polynomial_regressors(30, k)).max_loglik for k in range(1, 7)
        ]
        assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))


class TestFitNested:
    # N from 2 to 11 puts orders on both sides of N; 20..1000 covers the
    # well-determined designs up to cond(J) ~ 1e8
    N_VALUES = list(range(2, 12)) + list(range(20, 1001, 20))

    @pytest.mark.parametrize("sigma2", [1.0, 0.37])
    def test_matches_per_order_fit(self, sigma2):
        for n in self.N_VALUES:
            noise = np.random.default_rng(n).standard_normal(n)
            y = polynomial_regressors(n, 4) @ np.array(TRUE_COEFFS) + noise
            data = Dataset(y, sigma2)
            phi = polynomial_regressors(n, 8)
            design = build_design(phi, sigma2)
            nested = fit_nested(data, design)
            exact = exact_tril_inverse(design.chol)
            assert len(nested) == 8
            missing = [f is None for f in nested]
            assert missing == sorted(missing)  # the None entries are a suffix
            for d in range(1, min(n, 8) + 1):
                # d > n is rank-deficient, see test_more_columns_than_points
                try:
                    ref = fit(data, phi[:, :d])
                except NotPositiveDefinite:
                    ref = None
                got = nested[d - 1]
                assert (got is None) == (ref is None), (n, d)
                if ref is None:
                    continue
                assert np.array_equal(fim(got), fim(ref)), (n, d)
                assert np.max(np.abs(got.chol - ref.chol)) <= 1e-12 * np.max(np.abs(ref.chol))
                # against the exact inverse of the same float factor, each
                # entry is within d eps (|L^-1| |L| |L^-1|), the forward-
                # substitution bound; the leading blocks of all three are
                # the order's own, as every factor is lower-triangular
                inv = np.abs(got.chol_inv)
                bound = d * np.finfo(float).eps * (inv @ np.abs(got.chol) @ inv)
                for i in range(d):
                    for k in range(i + 1):
                        err = abs(Fraction(float(got.chol_inv[i, k])) - exact[i][k])
                        assert err <= bound[i, k], (n, d, i, k)
                # columns span powers of 5, so the residual is bounded entrywise
                # against |L| |L^-1|, the standard bound for a triangular inverse
                resid = np.abs(got.chol @ got.chol_inv - np.eye(d))
                scale = np.abs(got.chol) @ np.abs(got.chol_inv)
                assert np.all(resid <= 1e-12 * scale), (n, d)
                err = np.max(np.abs(got.theta_hat - ref.theta_hat))
                assert err <= 1e-12 * np.max(np.abs(ref.theta_hat)), (n, d)

    def test_singular_suffix(self):
        # three points identify at most three coefficients
        data = Dataset([0.0, 1.0, 2.0], 1.0)
        nested = fit_nested(data, build_design(polynomial_regressors(3, 6), 1.0))
        assert [f is None for f in nested] == [False] * 3 + [True] * 3
        assert nested[2].dim == 3
        # a zero first column leaves no full-rank prefix
        assert fit_nested(data, build_design(np.zeros((3, 2)), 1.0)) == [None, None]

    @pytest.mark.parametrize("sigma2", [1e-300, 1e-40, 1.0, 1e40, 1e300])
    def test_order_one_always_fits(self, sigma2):
        # column 0 is all ones, with norm sqrt(N) >= sqrt(2), so the rank
        # rule always keeps it: no dataset leaves every order unfitted
        for n in range(2, 61):
            data = Dataset(np.sin(np.arange(float(n))), sigma2)
            for max_order in (1, 6, 16):
                design = polynomial_design(n, max_order, sigma2)
                assert design.rank >= 1, (n, max_order)
                first = fit_nested(data, design)[0]
                assert first is not None, (n, max_order)
                assert np.all(np.isfinite(first.chol_inv)), (n, max_order)

    def test_chol_factors_information(self):
        data = generate_data(random_stream(10, 0), 4, TRUE_COEFFS, 0.37, 60)
        for f in fit_nested(data, build_design(polynomial_regressors(60, 6), 0.37)):
            assert np.allclose(f.chol @ f.chol.T, fim(f), rtol=1e-12, atol=0.0)
            assert np.array_equal(f.chol, np.tril(f.chol))

    def test_fit_is_last_entry(self):
        data = generate_data(random_stream(11, 0), 3, (0.2, -0.1, 0.05), 1.0, 30)
        phi = polynomial_regressors(30, 5)
        last = fit_nested(data, build_design(phi, 1.0))[-1]
        f = fit(data, phi)
        assert np.array_equal(f.theta_hat, last.theta_hat)
        assert np.array_equal(f.chol, last.chol)
        assert np.array_equal(f.chol_inv, last.chol_inv)
        assert f.max_loglik == last.max_loglik

    @pytest.mark.parametrize("sigma2", [1.0, 0.37])
    def test_bits_independent_of_max_order(self, sigma2):
        # Gram-Schmidt column j reads only columns <= j, so an order's fit
        # is the same to the bit in every design that contains it
        for n in self.N_VALUES:
            noise = np.random.default_rng(n).standard_normal(n)
            data = Dataset(polynomial_regressors(n, 4) @ np.array(TRUE_COEFFS) + noise, sigma2)
            ref = fit_nested(data, build_design(polynomial_regressors(n, 16), sigma2))
            for max_order in range(6, 16):
                design = build_design(polynomial_regressors(n, max_order), sigma2)
                for d, (got, want) in enumerate(zip(fit_nested(data, design), ref), start=1):
                    assert (got is None) == (want is None), (n, max_order, d)
                    if got is None:
                        continue
                    assert np.array_equal(got.theta_hat, want.theta_hat), (n, max_order, d)
                    assert got.max_loglik == want.max_loglik, (n, max_order, d)
                    assert np.array_equal(got.chol, want.chol), (n, max_order, d)
                    assert np.array_equal(got.chol_inv, want.chol_inv), (n, max_order, d)

    def test_more_columns_than_points(self):
        for n in range(2, 12):
            data = Dataset(np.random.default_rng(n).standard_normal(n), 1.0)
            nested = fit_nested(data, build_design(polynomial_regressors(n, 16), 1.0))
            assert [f is None for f in nested] == [d > n for d in range(1, 17)], n

    def test_high_order_matches_scaled_lstsq(self):
        # cond(Phi) is ~1e12 at order 16; scaling the columns to unit norm
        # lets lstsq reach the answer the normal equations lose
        rng = np.random.default_rng(16)
        phi = polynomial_regressors(200, 16)
        y = phi @ rng.uniform(-0.5, 0.5, 16) + rng.standard_normal(200)
        got = fit_nested(Dataset(y, 1.0), build_design(phi, 1.0))[-1].theta_hat
        scale = 1.0 / np.linalg.norm(phi, axis=0)
        want = np.linalg.lstsq(phi * scale, y, rcond=None)[0] * scale
        assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)

    def test_cached_design_is_read_only(self):
        design = polynomial_design(50, 4, 1.0)
        f = fit_nested(Dataset(np.sin(np.arange(50.0)), 1.0), design)[-1]
        for a in (design.basis, design.chol, design.chol_inv, f.chol, f.chol_inv):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_design_per_sigma2(self):
        a = polynomial_design(50, 4, 1.0)
        b = polynomial_design(50, 4, 0.37)
        assert a is not b
        assert np.allclose(b.chol, a.chol / math.sqrt(0.37), rtol=1e-15)
        assert polynomial_design(50, 4, 0.37) is b

    def test_design_must_match_data(self):
        design = polynomial_design(50, 4, 1.0)
        with pytest.raises(DimensionMismatch):
            fit_nested(Dataset(np.zeros(49), 1.0), design)
        with pytest.raises(DimensionMismatch):
            fit_nested(Dataset(np.zeros(50), 0.37), design)


class TestGenerateData:
    def test_deterministic(self):
        a = generate_data(random_stream(3, 1), 2, (1.0, 0.5), 1.0, 30)
        b = generate_data(random_stream(3, 1), 2, (1.0, 0.5), 1.0, 30)
        assert np.array_equal(a.y, b.y)

    def test_tiny_noise_recovers_signal(self):
        phi = polynomial_regressors(40, 2)
        data = generate_data(random_stream(4, 0), 2, (1.0, 0.5), 1e-12, 40)
        assert np.max(np.abs(data.y - phi @ np.array([1.0, 0.5]))) < 1e-4

    def test_noise_scale(self):
        data = generate_data(random_stream(5, 0), 1, (0.0,), 1.0, 10_000)
        assert abs(np.mean(data.y)) < 0.04
        assert abs(np.std(data.y) - 1.0) < 0.03

    def test_coefficient_count_checked(self):
        with pytest.raises(DimensionMismatch):
            generate_data(random_stream(6, 0), 3, (1.0, 2.0), 1.0, 20)


class TestCsvRoundTrip:
    def test_roundtrip(self, tmp_path):
        data = generate_data(random_stream(11, 0), 2, (1.0, -0.5), 1.0, 17)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, data)
        got = load_dataset_y(path)
        assert np.array_equal(got, data.y)

    def test_header_written(self, tmp_path):
        data = Dataset([1.0, 2.0], 1.0)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, data)
        assert path.read_text().splitlines()[0] == "t,y"

    def test_headerless_accepted(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,0.5\n2,0.25\n")
        assert np.allclose(load_dataset_y(path), [0.5, 0.25])

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n1,2\n3,4,5\n")
        with pytest.raises(ParseError) as err:
            load_dataset_y(path)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n1,2\n2,potato\n")
        with pytest.raises(ParseError) as err:
            load_dataset_y(path)
        assert err.value.line == 3

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t,y\n1,2\n")
        with pytest.raises(ParseError):
            load_dataset_y(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset_y(tmp_path / "absent.csv")

    def test_quoted_field_over_csv_limit(self, tmp_path):
        # csv caps a field at 131 072 characters; its error names the line
        path = tmp_path / "long.csv"
        path.write_text('t,y\n1,0.5\n2,"0.' + "0" * 199_997 + '5"\n3,1.0\n')
        with pytest.raises(ParseError, match=r"^line 3: field larger than field limit") as err:
            load_dataset_y(path)
        assert err.value.line == 3

    def test_unquoted_field_over_csv_limit(self, tmp_path):
        # the line is too long for the C-level pass to rule the field out,
        # so the row loop names it, as it does the quoted form
        path = tmp_path / "long.csv"
        path.write_text("t,y\n1,0.5\n2,0." + "0" * 199_997 + "5\n3,1.0\n")
        with pytest.raises(ParseError, match=r"^line 3: field larger than field limit") as err:
            load_dataset_y(path)
        assert err.value.line == 3


def _outcome(load, path):
    """y's float64 bits, or the exception's type, message and line."""
    try:
        return load(path).tobytes()
    except Exception as err:  # compared, not handled
        return type(err), str(err), getattr(err, "line", None)


def _both_ways(path, monkeypatch):
    """load_dataset_y's outcome, the reference loop's, and whether the
    C-level parse took the file (the loop was not run); loading warns of
    nothing."""
    calls = []
    loop = models._load_y_by_rows
    monkeypatch.setattr(models, "_load_y_by_rows", lambda p: calls.append(p) or loop(p))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(load_dataset_y, path)
    assert [str(w.message) for w in caught] == []
    return got, _outcome(loop, path), not calls


# (name, file bytes, whether the C-level parse takes it)
_EDGE_FILES = [
    ("lf", b"t,y\n1,0.5\n2,-0.25\n3,1e-300\n", True),
    ("crlf", b"t,y\r\n1,0.5\r\n2,-0.25\r\n", True),
    ("cr-only", b"t,y\r1,0.5\r2,-0.25\r", True),
    ("bom", b"\xef\xbb\xbft,y\n1,0.5\n2,-0.25\n", True),
    ("headerless", b"1,0.5\n2,-0.25", True),
    ("header-spelling", b" T ,Y\n1, 0.5\n2,\t-0.25 \n", True),
    ("blank-lines", b"t,y\n1,0.5\n\n2,-0.25\n\n\n", True),
    ("whitespace-line", b"t,y\n1,0.5\n  \n2,-0.25\n", False),
    ("leading-blank", b"\nt,y\n1,0.5\n2,-0.25\n", False),
    ("quoted-field", b't,y\n1,"0.5"\n2,-0.25\n', False),
    ("quoted-newline", b't,y\n"a\n1",0.5\n2,-0.25\n', False),
    ("underscore", b"t,y\n1,1_0\n2,-0.25\n", False),
    ("arabic-digit", "t,y\n1,\u0661\n2,-0.25\n".encode(), False),
    ("text-t", b"t,y\na,0.5\nb,-0.25\n", False),
    ("three-fields", b"t,y\n1,2\n3,4,5\n", False),
    ("one-field", b"t,y\n1\n2\n", False),
    ("inf", b"t,y\n1,2\n2,inf\n", False),
    ("minus-infinity", b"t,y\n1,-Infinity\n2,2\n", False),
    ("nan", b"t,y\n1,2\n2,nan\n", False),
    ("overflow", b"t,y\n1,2\n2,1e400\n", False),
    ("bad-number", b"t,y\n1,2\n2,potato\n", False),
    ("hash", b"t,y\n1,0.5#c\n2,-0.25\n", False),
    ("empty-y", b"t,y\n1,\n2,-0.25\n", False),
    ("empty-file", b"", False),
    ("header-only", b"t,y\n", False),
    ("one-row", b"t,y\n1,2\n", False),
    ("not-utf8", b"t,y\n1,0.5\n2,\xff0.25\n", False),
    # over csv.field_size_limit() (131 072): refused by the loop, not loaded
    ("long-y", b"t,y\n1,0.5\n2,0." + b"0" * 199_997 + b"5\n3,1\n", False),
    ("long-y-cr-only", b"t,y\r1,0.5\r2,0." + b"0" * 199_997 + b"5\r3,1\r", False),
    # a line over the limit whose fields are within it: loaded by the loop
    ("long-line", b"t,y\n" + b"0" * 99_999 + b"1,0." + b"0" * 99_997 + b"5\n2,1\n", False),
    # a file longer than the limit, in short lines, CR-only included
    ("long-file", b"t,y\n" + b"1,0.5\n" * 30_000, True),
    ("long-file-cr-only", b"t,y\r" + b"1,0.5\r" * 30_000, True),
]


class TestCsvFastPath:
    """The C-level parse returns the reference loop's bits, or leaves the
    file to the loop, which raises its own error."""

    @pytest.mark.parametrize("raw, fast", [c[1:] for c in _EDGE_FILES],
                             ids=[c[0] for c in _EDGE_FILES])
    def test_edge_file(self, raw, fast, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        got, want, took_fast = _both_ways(path, monkeypatch)
        assert got == want
        assert took_fast == fast

    @pytest.mark.parametrize("crlf", [True, False], ids=["crlf", "lf"])
    def test_written_files_take_the_fast_path(self, crlf, tmp_path, monkeypatch):
        data = generate_data(random_stream(12, 0), 3, (1.0, -0.5, 0.1), 0.37, 2000)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, data)  # csv.writer ends rows with CRLF
        if not crlf:
            path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        got, want, took_fast = _both_ways(path, monkeypatch)
        assert took_fast
        assert got == want == data.y.tobytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_goes_to_the_loop(self, monkeypatch):
        # the C-level pass needs to rewind after the header line, so a pipe
        # must reach the loop with nothing read from it
        r, w = os.pipe()
        os.write(w, b"t,y\n1,0.5\n2,-0.25\n")
        os.close(w)
        try:
            got, _, took_fast = _both_ways(f"/dev/fd/{r}", monkeypatch)
        finally:
            os.close(r)
        assert got == np.array([0.5, -0.25]).tobytes()
        assert not took_fast

    _number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from([" 2.5 ", "+.5", "-0", "1E5", "\t7"]),
    )
    _odd = st.one_of(
        st.sampled_from(["inf", "-inf", "Infinity", "+INF", "nan", "-NaN", "1e400", "1_0",
                         "", '"3.5"', '"4,5"', "x", "\u0661", "t"]),
        _number.map("{}#c".format),
    )
    _row = st.tuples(_number, _number).map(",".join)
    # one odd line at most, so that about half the files are well formed
    _odd_line = st.one_of(
        st.tuples(_number, _odd).map(",".join),
        st.tuples(_odd, _number).map(",".join),
        st.tuples(_number, _number, _number).map(",".join),
        _number,
        st.sampled_from(["", " ", "\t "]),
    )

    @given(
        bom=st.booleans(),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        header=st.sampled_from([None, "t,y", "T,Y", " t ,y", "t", "t,y,z", '"t",y', "x,y"]),
        rows=st.lists(_row, max_size=8),
        odd=st.one_of(st.none(), st.tuples(st.integers(0, 8), _odd_line)),
        final_newline=st.booleans(),
    )
    # the two files that a `#` comment rule and an unchecked field count
    # would read differently from the loop
    @example(bom=False, newline="\n", header="t,y", rows=["1,2", "2,3"],
             odd=(1, "3,0.5#c"), final_newline=True)
    @example(bom=False, newline="\n", header="t,y", rows=["1,2", "2,3"],
             odd=(1, "3,4,5"), final_newline=True)
    @settings(max_examples=200)
    def test_matches_reference_loop(self, tmp_path_factory, bom, newline, header,
                                    rows, odd, final_newline):
        if odd is not None:
            rows = rows[:odd[0]] + [odd[1]] + rows[odd[0]:]
        body = ([header] if header is not None else []) + rows
        text = newline.join(body) + (newline if final_newline and body else "")
        path = tmp_path_factory.getbasetemp() / "generated.csv"
        path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode())
        assert _outcome(load_dataset_y, path) == _outcome(models._load_y_by_rows, path)
