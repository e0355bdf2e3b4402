"""Log-domain helpers, small dense linear algebra, and the chi-square CDF.

Everything on the likelihood scale crosses module boundaries as a natural
log; log-zero is represented by ``-inf``.  The Cholesky factorization is
LAPACK's (through scipy.linalg) behind a shape, finiteness and symmetry
check.  No run path uses it: models.build_design gets J's factor from
Gram-Schmidt, decides rank by its own rule and inverts the factor in
numpy.  So cholesky and cholesky_solve import scipy.linalg when called,
and importing or running the package loads numpy only.  The chi-square
CDF stays in-package: a lower series below the mode and, above it, a
finite sum of positive terms that exists because the degrees of freedom
are integers.  Importing scipy.special for it would cost more start-up
time and memory than the whole CDF is worth.
"""

from __future__ import annotations

import math

import numpy as np


class EmptyInput(ValueError):
    """An operation that needs at least one element got none."""


class NotPositiveDefinite(ArithmeticError):
    """Matrix has a non-positive pivot; it is singular or indefinite."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


# cholesky/log_det are exported and take any matrix: this rejects an
# asymmetric one instead of letting LAPACK read only its lower triangle.
_SYMMETRY_ATOL = 1e-12


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise EmptyInput("empty matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(a - a.T)) > _SYMMETRY_ATOL:
        raise ValueError("matrix is not symmetric")
    return a


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L @ L.T == m.

    Raises NotPositiveDefinite when LAPACK meets a pivot <= 0.
    """
    import scipy.linalg

    a = _as_square(m)
    try:
        return scipy.linalg.cholesky(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from None


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L.T) x = b given the lower factor L."""
    import scipy.linalg

    z = scipy.linalg.solve_triangular(L, b, lower=True)
    return scipy.linalg.solve_triangular(L, z, lower=True, trans="T")


def log_det(m) -> float:
    """log det of a symmetric positive-definite matrix, via its factor."""
    L = cholesky(m)
    return float(2.0 * np.sum(np.log(np.diag(L))))


_GAMMA_RTOL = 1e-12
_GAMMA_MAX_ITER = 500


def _gamma_p_series(a: float, x: float) -> float:
    # lower series: gamma(a,x) = x^a e^-x sum x^k / (a (a+1) ... (a+k))
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_GAMMA_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_RTOL:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _chi2_upper_tail(df: int, y: float) -> float:
    # Q(df/2, y) from Q(1/2, y) = erfc(sqrt y) or Q(1, y) = e^-y, then
    # Q(a+1, y) = Q(a, y) + y^a e^-y / Gamma(a+1): every term is positive
    a, q = (0.5, math.erfc(math.sqrt(y))) if df % 2 else (1.0, math.exp(-y))
    while a < 0.5 * df:
        q += math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
        a += 1.0
    return q


def chi2_cdf(df: int, x: float) -> float:
    """P(chi2_df <= x) for integer df >= 1."""
    if not isinstance(df, (int, np.integer)) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    if not math.isfinite(x):
        if math.isnan(x):
            raise ValueError("x is NaN")
        return 1.0 if x > 0 else 0.0
    a, y = 0.5 * df, 0.5 * x
    if y <= 0.0:  # x <= 0, or so small that x/2 underflows
        return 0.0
    if y < a + 1.0:
        return min(_gamma_p_series(a, y), 1.0)
    return max(1.0 - _chi2_upper_tail(int(df), y), 0.0)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit d-ball: V1 = 2, V2 = pi, V_d = (2 pi / d) V_{d-2}."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    v = 2.0 if d % 2 else math.pi
    for k in range(4 - d % 2, d + 1, 2):
        v *= 2.0 * math.pi / k
    return v
