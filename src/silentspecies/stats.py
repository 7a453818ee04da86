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
from .streams import streams
from .tally import _quantile, _unique

_BAND_LEVEL = 0.95  # the trend band's percentile interval


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
    the input points, or None when no band was requested or fewer than half
    the replicates determined their fit.
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


def _xy(x: Sequence[float],
        y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays, checked to be 1-d and of equal length."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-d sequences of equal length")
    return xa, ya


def pearson(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Pearson r with least-squares slope/intercept and the two-sided
    p-value for zero slope (t-test, n-2 df)."""
    xa, ya = _xy(x, y)
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


def _fit_one(x: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares fit of y on x, as ascending coefficients in x: bit for
    bit `Polynomial.fit(x, y, degree).convert().coef` padded with +0.0.

    Like Polynomial.fit, the domain [min, max] of x, which holds more than
    `degree` distinct values, is mapped onto [-1, 1] and solved there. Like
    convert(), Horner's rule then substitutes the line [off, scl] for the
    mapped variable, each term a sum of at most two products started from
    +0.0 as `np.convolve` sums them. No term is then -0.0, so numpy's
    trimming of trailing zeros changes no value and need not be repeated.
    np.convolve raises no floating-point warnings, so the products raise
    none here either; only the addition of each coefficient does.
    """
    lo, hi = x.min(), x.max()
    # numpy's mapparms from [lo, hi] to [-1, 1], operation for operation
    span = hi - lo
    off = (hi * -1.0 - lo * 1.0) / span
    scl = 2.0 / span
    mapped = off + scl * x
    if not np.isfinite(mapped).all():
        # numpy's solver raises the same, but LAPACK first prints its
        # complaints about the non-finite input on stdout.
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least "
                                    "Squares")
    fit = np.polynomial.polynomial.polyfit(mapped, y, degree)
    coefficients = np.zeros(degree + 1)
    coefficients[0] = fit[-1]
    for c in fit[-2::-1]:
        with np.errstate(over="ignore", invalid="ignore"):
            step = coefficients * off
            step[1:] += coefficients[:-1] * scl
        step += 0.0  # np.convolve's sums start from +0.0
        step[:1] += c
        coefficients = step
    return coefficients


def polyfit(
    x: Sequence[float],
    y: Sequence[float],
    degree: int,
    bootstrap_replicates: int = 0,
    seed: int = 42,
) -> TrendFit:
    """Least-squares polynomial fit of the given degree.

    x is centered and scaled internally (numpy's domain mapping) so that
    year-valued inputs stay well conditioned; returned coefficients are in
    the original x, ascending powers. Fewer than degree + 1 distinct x
    values do not determine the fit: InsufficientPoints. With
    bootstrap_replicates > 0, points are resampled with replacement and a
    95% percentile band is evaluated at the sorted distinct x values. A
    resample that does not determine its fit is left out, with one warning
    that counts them; when fewer than half the replicates remain, the fit
    has no band.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    xa, ya = _xy(x, y)
    grid = _unique(xa)
    if grid.size <= degree:
        raise InsufficientPoints(f"degree {degree} fit needs {degree + 1} "
                                 f"distinct x values, got {grid.size}")

    coefficients = _fit_one(xa, ya, degree)

    band = None
    if bootstrap_replicates > 0:
        curves = np.empty((bootstrap_replicates, grid.size))
        kept = 0  # curves[:kept]: the fitted replicates, in replicate order
        warned = Counter()  # replicates per (category, message)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for rng in streams(seed, (), range(bootstrap_replicates)):
                idx = rng.integers(0, xa.size, size=xa.size)
                if _unique(xa[idx]).size <= degree:
                    continue
                curves[kept] = np.polynomial.polynomial.polyval(
                    grid, _fit_one(xa[idx], ya[idx], degree))
                kept += 1
                warned.update({(w.category, str(w.message)) for w in caught})
                caught.clear()
        banded = 2 * kept >= bootstrap_replicates
        if kept < bootstrap_replicates:
            note = "" if banded else "; no band, as fewer than half remain"
            warnings.warn(
                f"{bootstrap_replicates - kept} of {bootstrap_replicates} "
                f"trend replicates left out: fewer than {degree + 1} distinct "
                f"x values{note}", stacklevel=2)
        for (category, message), count in warned.items():
            warnings.warn(f"{count} of {bootstrap_replicates} trend "
                          f"replicates: {message}", category, stacklevel=2)
        if banded:
            alpha = (1.0 - _BAND_LEVEL) / 2.0
            # A curve that holds an inf makes the interpolation warn; those
            # replicates are counted above.
            with np.errstate(invalid="ignore"):
                lower = _quantile(curves[:kept], alpha)
                upper = _quantile(curves[:kept], 1.0 - alpha)
            band = tuple(
                (float(g), float(lo), float(hi))
                for g, lo, hi in zip(grid, lower, upper)
            )

    return TrendFit(
        degree=degree,
        coefficients=tuple(float(c) for c in coefficients),
        band=band,
    )
