"""Association statistics: Pearson correlation with a non-correlation
p-value, simple linear regression, and polynomial trend fits with optional
bootstrap error bands.

The p-value is the two-sided t-test of zero slope with n-2 degrees of
freedom, computed through a self-contained regularized incomplete beta
function (continued-fraction evaluation), so the package has no runtime
dependency beyond numpy.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateVariance, InsufficientPoints


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r: float
    p_value: float
    n_points: int


@dataclass(frozen=True)
class TrendFit:
    """Least-squares polynomial fit; coefficients in ascending powers of x.

    `band` holds (x, lower, upper) triples from a percentile bootstrap over
    the input points, or None when no band was requested.
    """

    degree: int
    coefficients: tuple[float, ...]
    band: tuple[tuple[float, float, float], ...] | None = None

    def predict(self, x: Sequence[float] | np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(
            np.asarray(x, dtype=float), np.asarray(self.coefficients)
        )


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified
    Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0,1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the symmetry relation to keep the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t with df degrees of
    freedom."""
    if not math.isfinite(t):
        return 0.0
    return betainc(df / 2.0, 0.5, df / (df + t * t))


def pearson(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Pearson r with least-squares slope/intercept and the two-sided
    p-value for zero slope (t-test, n-2 df)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-d sequences of equal length")
    n = xa.size
    if n < 3:
        raise InsufficientPoints(f"need at least 3 points, got {n}")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    x_max = float(np.abs(dx).max())
    y_max = float(np.abs(dy).max())
    if x_max == 0.0 or y_max == 0.0:
        raise DegenerateVariance("constant input vector")
    # Scale each vector by a power of two (exact) so that its largest entry
    # lies in [0.5, 1). The dot products then cannot underflow or overflow,
    # and wherever the unscaled ones did not, r and slope keep their bits.
    x_exp = math.frexp(x_max)[1]
    y_exp = math.frexp(y_max)[1]
    dx = np.ldexp(dx, -x_exp)
    dy = np.ldexp(dy, -y_exp)
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    sxy = float(dx @ dy)
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
    try:
        slope = math.ldexp(sxy / sxx, y_exp - x_exp)
    except OverflowError:  # the true slope lies beyond the float range
        slope = math.copysign(math.inf, sxy)
    intercept = float(ya.mean() - slope * xa.mean())
    df = n - 2
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
        p = t_sf_two_sided(t, df)
    return RegressionResult(slope=slope, intercept=intercept, r=r,
                            p_value=p, n_points=n)


def polyfit(
    x: Sequence[float],
    y: Sequence[float],
    degree: int,
    bootstrap_replicates: int = 0,
    level: float = 0.95,
    seed: int = 42,
) -> TrendFit:
    """Least-squares polynomial fit of the given degree.

    x is centered and scaled internally (numpy's domain mapping) so that
    year-valued inputs stay well conditioned; returned coefficients are in
    the original x, ascending powers. With bootstrap_replicates > 0, points
    are resampled with replacement and a percentile band is evaluated at the
    sorted distinct x values.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-d sequences of equal length")
    if xa.size < degree + 1:
        raise InsufficientPoints(
            f"degree {degree} fit needs {degree + 1} points, got {xa.size}"
        )

    def fit_coeffs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        poly = np.polynomial.Polynomial.fit(xs, ys, degree)
        coeffs = poly.convert().coef
        if coeffs.size < degree + 1:  # trailing zero coefficients trimmed
            coeffs = np.pad(coeffs, (0, degree + 1 - coeffs.size))
        return coeffs

    coefficients = fit_coeffs(xa, ya)

    band = None
    if bootstrap_replicates > 0:
        grid = np.unique(xa)
        curves = np.empty((bootstrap_replicates, grid.size))
        # (category, message) -> the number of replicates that warned so
        warned: Counter[tuple[type[Warning], str]] = Counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for rep in range(bootstrap_replicates):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
                )
                idx = rng.integers(0, xa.size, size=xa.size)
                curves[rep] = np.polynomial.polynomial.polyval(
                    grid, fit_coeffs(xa[idx], ya[idx])
                )
                warned.update({(w.category, str(w.message)) for w in caught})
                caught.clear()
        for (category, message), count in warned.items():
            warnings.warn(f"{count} of {bootstrap_replicates} trend "
                          f"replicates: {message}", category, stacklevel=2)
        alpha = (1.0 - level) / 2.0
        lower = np.quantile(curves, alpha, axis=0)
        upper = np.quantile(curves, 1.0 - alpha, axis=0)
        band = tuple(
            (float(g), float(lo), float(hi))
            for g, lo, hi in zip(grid, lower, upper)
        )

    return TrendFit(
        degree=degree,
        coefficients=tuple(float(c) for c in coefficients),
        band=band,
    )
