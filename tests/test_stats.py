import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, example, given, settings, strategies as st

from silentspecies import (
    DegenerateVariance,
    InsufficientPoints,
    pearson,
    polyfit,
)
from silentspecies.stats import betainc, t_sf_two_sided


class TestBetainc:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 50.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 3.0, 20.0])
    @pytest.mark.parametrize("x", [0.0, 1e-6, 0.1, 0.5, 0.9, 1.0])
    def test_against_scipy(self, a, b, x):
        assert betainc(a, b, x) == pytest.approx(
            scipy.special.betainc(a, b, x), abs=1e-12
        )

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.3, 2.7, 10.0, math.inf])
    @pytest.mark.parametrize("df", [1, 2, 5, 10, 100])
    def test_t_tail_against_scipy(self, t, df):
        assert t_sf_two_sided(t, df) == pytest.approx(
            2 * scipy.stats.t.sf(abs(t), df), rel=1e-10, abs=1e-14
        )


class TestPearson:
    def test_perfect_linear_relation(self):
        x = [0.0, 1.0, 2.0, 3.0, 4.0]
        res = pearson(x, [2 * v + 1 for v in x])
        assert res.r == 1.0
        assert res.slope == pytest.approx(2.0)
        assert res.intercept == pytest.approx(1.0)
        assert res.p_value == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_four_points(self):
        # sxy=3, sxx=syy=5 -> r=0.6, checked by hand before build
        res = pearson([1, 2, 3, 4], [2, 1, 4, 3])
        assert res.r == pytest.approx(0.6)

    def test_p_value_matches_scipy_linregress(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=25)
        y = 0.4 * x + rng.normal(size=25)
        res = pearson(x, y)
        ref = scipy.stats.linregress(x, y)
        assert res.slope == pytest.approx(ref.slope)
        assert res.intercept == pytest.approx(ref.intercept)
        assert res.r == pytest.approx(ref.rvalue)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_constant_vector_is_degenerate(self):
        with pytest.raises(DegenerateVariance):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateVariance):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_too_few_points(self):
        with pytest.raises(InsufficientPoints):
            pearson([1.0, 2.0], [1.0, 2.0])

    def test_tiny_spread_does_not_underflow(self):
        # dy @ dy underflows to 0 without rescaling; the relation is exact
        res = pearson([0.0, 0.0, 1.0], [0.0, 0.0, 1.68e-282])
        assert res.r == 1.0
        assert res.slope == 1.68e-282
        assert res.intercept == 0.0

    def test_huge_spread_does_not_overflow(self):
        res = pearson([0.0, 1e200, 3e200], [0.0, -2e200, -6e200])
        assert res.r == -1.0
        assert res.slope == pytest.approx(-2.0)

    def test_slope_beyond_float_range_is_infinite(self):
        # 4 / 2.2e-308 overflows; r is still exact
        res = pearson([0.0, 0.0, 2.2250738585072014e-308], [0.0, 0.0, 4.0])
        assert res.r == 1.0
        assert res.slope == math.inf


finite_floats = st.floats(min_value=-100, max_value=100)


@st.composite
def xy_pairs(draw):
    n = draw(st.integers(min_value=3, max_value=20))
    x = draw(
        st.lists(finite_floats, min_size=n, max_size=n).filter(
            lambda v: len(set(v)) > 1
        )
    )
    y = draw(
        st.lists(finite_floats, min_size=n, max_size=n).filter(
            lambda v: len(set(v)) > 1
        )
    )
    return x, y


@given(xy_pairs())
def test_sign_flip_under_y_negation(pair):
    x, y = pair
    a = pearson(x, y)
    b = pearson(x, [-v for v in y])
    assert b.r == pytest.approx(-a.r, abs=1e-12)
    assert b.p_value == pytest.approx(a.p_value, abs=1e-12)


@given(
    xy_pairs(),
    st.integers(min_value=0, max_value=64),
    st.sampled_from([1.0, -1.0]),
)
def test_affine_invariance(pair, exponent, sign):
    # x -> ±2**k * x keeps x's spread exactly; a general scale and shift
    # can round it away (x=[0, 0, 1e-15] shifted by 1.0 is constant).
    x, y = pair
    a = pearson(x, y)
    b = pearson([sign * math.ldexp(v, exponent) for v in x], y)
    assert b.r == pytest.approx(sign * a.r, abs=1e-9)


class TestPolyfit:
    def test_exact_quadratic_interpolation(self):
        fit = polyfit([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], degree=2)
        assert fit.coefficients == pytest.approx((0.0, 0.0, 1.0), abs=1e-9)

    def test_degree_one_matches_pearson(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=30)
        y = 1.7 * x + rng.normal(size=30)
        fit = polyfit(x, y, degree=1)
        res = pearson(x, y)
        assert fit.coefficients[1] == pytest.approx(res.slope, abs=1e-12)
        assert fit.coefficients[0] == pytest.approx(res.intercept, abs=1e-12)

    def test_no_band_when_disabled(self):
        fit = polyfit([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0, 9.0], degree=2)
        assert fit.band is None

    def test_band_brackets_fit_on_clean_data(self):
        rng = np.random.default_rng(9)
        x = np.linspace(1550, 1945, 40)
        y = 1e-5 * (x - 1700) ** 2 + rng.normal(scale=0.05, size=40)
        fit = polyfit(x, y, degree=2, bootstrap_replicates=200, seed=3)
        assert fit.band is not None and len(fit.band) == 40
        for gx, lower, upper in fit.band:
            assert lower <= upper

    def test_band_deterministic(self):
        x = list(range(10))
        y = [v * v + 0.1 * v for v in x]
        a = polyfit(x, y, 2, bootstrap_replicates=50, seed=7)
        b = polyfit(x, y, 2, bootstrap_replicates=50, seed=7)
        assert a == b

    def test_year_valued_x_conditioning(self):
        # poorly scaled x must not wreck the fit
        x = np.array([1550.0, 1650.0, 1750.0, 1850.0, 1945.0])
        y = 2.0 + 0.001 * (x - 1700) + 1e-6 * (x - 1700) ** 2
        fit = polyfit(x, y, degree=2)
        assert np.allclose(fit.predict(x), y, atol=1e-8)

    def test_underdetermined(self):
        with pytest.raises(InsufficientPoints):
            polyfit([1.0, 2.0], [1.0, 2.0], degree=2)

    @pytest.mark.parametrize("replicates", [0, 200])
    def test_tied_x_underdetermined(self, replicates):
        # Three points, two distinct x: the rule that leaves out a
        # replicate holds for the point fit too.
        with pytest.raises(InsufficientPoints, match="^degree 2 fit needs "
                           "3 distinct x values, got 2$"):
            polyfit([0.1, 0.1, 0.2], [0.6, 0.7, 0.8], 2,
                    bootstrap_replicates=replicates)


def reference_polyfit(x, y, degree, replicates, level=0.95, seed=42):
    """The trend fit as it was computed through numpy's Polynomial class:
    `Polynomial.fit(...).convert()` per fit, trailing zero coefficients
    padded back, and `polyval` on the sorted distinct x per replicate.
    Fewer than degree + 1 distinct x raise InsufficientPoints; a replicate
    of that few is left out, and with fewer than half the replicates kept
    there is no band (None).
    Returns the coefficients, the band, the replicates' warning tally, the
    point fit's warnings and the kept replicates' curves."""

    def fit_coeffs(xs, ys):
        coeffs = np.polynomial.Polynomial.fit(xs, ys, degree).convert().coef
        return np.pad(coeffs, (0, degree + 1 - coeffs.size))

    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    grid = np.unique(xa)
    if grid.size <= degree:
        raise InsufficientPoints(f"{grid.size} distinct x values")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coefficients = fit_coeffs(xa, ya)
    point_warnings = {(w.category, str(w.message)) for w in caught}
    curves = []
    warned = Counter()
    for rep in range(replicates):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        idx = rng.integers(0, xa.size, size=xa.size)
        if np.unique(xa[idx]).size <= degree:
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            curves.append(np.polynomial.polynomial.polyval(
                grid, fit_coeffs(xa[idx], ya[idx])))
        warned.update({(w.category, str(w.message)) for w in caught})
    curves = np.reshape(curves, (len(curves), grid.size))
    band = None
    if 2 * len(curves) >= replicates:
        alpha = (1.0 - level) / 2.0
        with np.errstate(invalid="ignore"):  # a curve holding inf; counted
            band = np.column_stack([grid, np.quantile(curves, alpha, axis=0),
                                    np.quantile(curves, 1.0 - alpha, axis=0)])
    return coefficients, band, warned, point_warnings, curves


def left_out_warning(degree, replicates, kept):
    """polyfit's warning for the replicates it left out, or None."""
    if kept == replicates:
        return None
    return (f"{replicates - kept} of {replicates} trend replicates left out: "
            f"fewer than {degree + 1} distinct x values"
            + ("" if 2 * kept >= replicates
               else "; no band, as fewer than half remain"))


def assert_same_band(a, b):
    """Both no band, or bands of the same bits."""
    assert (a is None) == (b is None)
    if a is not None:
        assert_same_bits(a, b)


def assert_same_bits(a, b):
    """Equal as floats (NaN equal to NaN), and equal zeros carry one sign."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(a, b, equal_nan=True)
    zero = a == 0.0
    assert np.array_equal(np.signbit(a[zero]), np.signbit(b[zero]))


@st.composite
def trend_inputs(draw):
    """x and y for a trend fit, with the shapes that stress the domain map
    and the conversion: tied and all-equal x, year-valued x, tiny ranges,
    and few distinct x, so that many resamples have at most `degree`
    distinct values and are left out, or the points have as few and the
    fit raises; y that fits exactly, or so near zero that the conversion's
    products come out as signed zeros."""
    degree = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=max(3, degree + 1), max_value=60))
    shape = draw(st.sampled_from(
        ["spread", "tied", "all-equal", "years", "tiny-range", "few-distinct"]))
    if shape == "spread":
        xs = st.floats(min_value=-50, max_value=50)
    elif shape == "tied":
        xs = st.sampled_from([-2.0, 0.0, 0.5, 3.25, 7.0])
    elif shape == "all-equal":
        xs = st.just(draw(st.floats(min_value=-1e3, max_value=1e3)))
    elif shape == "years":
        xs = st.integers(min_value=1990, max_value=2010).map(float)
    elif shape == "tiny-range":
        base = draw(st.sampled_from([0.0, 1.0, 0.93, 1987.0]))
        xs = st.integers(min_value=0, max_value=1000).map(
            lambda k: base + k * 1e-9)
    else:
        values = draw(st.lists(st.floats(min_value=-10, max_value=10),
                               min_size=1, max_size=degree + 1, unique=True))
        xs = st.sampled_from(values)
    x = draw(st.lists(xs, min_size=n, max_size=n))
    values = draw(st.sampled_from(["any", "constant", "signed-zeros"]))
    if values == "any":
        y = draw(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                          min_size=n, max_size=n))
    elif values == "constant":  # exact fits, so zero coefficients
        y = [draw(st.sampled_from([0.0, 2.5]))] * n
    else:  # fits whose products underflow to zeros of either sign
        y = draw(st.lists(st.sampled_from([0.0, -0.0, 1e-310, -1e-310, 1e-320,
                                           -1e-320]), min_size=n, max_size=n))
    return x, y, degree


@settings(max_examples=60, deadline=None)
@given(trend_inputs(), st.integers(min_value=1, max_value=25),
       st.integers(min_value=0, max_value=2**32))
# A range so narrow that the conversion overflows to inf, and the evaluation
# then meets inf * 0: each replicate's warnings, not only the solver's, are
# counted per replicate. Two distinct x do not determine the point fit; with
# three, 4 of the 5 replicates are kept and give a band.
@example(([0.0, 0.0, 6.677417871787372e-190], [0.0, 0.0, 1.0], 2), 5, 0)
@example(([0.0, 0.0, 6.677417871787372e-190, 3e-190], [0.0, 0.0, 1.0, 0.5], 2),
         5, 1)
# A subnormal range maps x to inf and NaN, which the solver rejects.
@example(([0.0, 0.0, 5e-324], [0.0, 0.0, 1.0], 1), 1, 0)
def test_polyfit_matches_the_polynomial_class_bit_for_bit(inputs, replicates,
                                                           seed):
    x, y, degree = inputs
    try:
        coefficients, band, warned, point_warnings, curves = (
            reference_polyfit(x, y, degree, replicates, seed=seed))
    except (np.linalg.LinAlgError, InsufficientPoints) as exc:
        with pytest.raises(type(exc)), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            polyfit(x, y, degree, bootstrap_replicates=replicates, seed=seed)
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = polyfit(x, y, degree, bootstrap_replicates=replicates, seed=seed)
    assert_same_bits(fit.coefficients, coefficients)
    assert_same_band(fit.band, band)
    tally = [(category, f"{count} of {replicates} trend replicates: {message}")
             for (category, message), count in warned.items()]
    left_out = left_out_warning(degree, replicates, len(curves))
    if left_out is not None:
        tally.append((UserWarning, left_out))
    band_warnings = [(w.category, str(w.message)) for w in caught
                     if "trend replicates" in str(w.message)]
    assert sorted(band_warnings, key=str) == sorted(tally, key=str)
    # Anything else is a warning of the point fit: no raw numpy warning
    # from the band gets through.
    other = {(w.category, str(w.message)) for w in caught
             if "trend replicates" not in str(w.message)}
    assert other <= point_warnings


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_band_lies_within_the_kept_curves(degree, data):
    # Few points on few distinct x, so that many resamples are left out,
    # and a left-out curve could lie anywhere.
    n = data.draw(st.integers(min_value=degree + 1, max_value=8))
    x = data.draw(st.lists(st.integers(0, 6).map(float), min_size=n,
                           max_size=n))
    y = data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
    replicates = data.draw(st.integers(min_value=1, max_value=40))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    assume(np.unique(x).size > degree)  # else the point fit raises
    *_, curves = reference_polyfit(x, y, degree, replicates, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = polyfit(x, y, degree, bootstrap_replicates=replicates, seed=seed)
    assert (fit.band is None) == (2 * len(curves) < replicates)
    if fit.band is not None:
        _, lower, upper = np.array(fit.band).T
        assert (curves.min(axis=0) <= lower).all()
        assert (lower <= upper).all()
        assert (upper <= curves.max(axis=0)).all()


@pytest.mark.parametrize("fit", [pearson, lambda x, y: polyfit(x, y, 1)],
                         ids=["pearson", "polyfit"])
@pytest.mark.parametrize("x, y", [
    ([1.0, 2.0, 3.0], [1.0, 2.0]),
    ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]),
], ids=["mismatched", "2-d"])
def test_x_and_y_must_be_one_dimensional_of_equal_length(fit, x, y):
    with pytest.raises(ValueError, match=r"^x and y must be 1-d sequences "
                                         r"of equal length$"):
        fit(x, y)


# (call, text of the ValueError): arguments outside a function's domain.
OUT_OF_DOMAIN = {
    "polyfit-degree-0": (lambda: polyfit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0),
                         "^degree must be >= 1, got 0$"),
    "betainc-x-above-1": (lambda: betainc(1.0, 1.0, 1.5),
                          r"^x must be in \[0,1\], got 1.5$"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
def test_argument_out_of_domain_raises_value_error(case):
    call, message = OUT_OF_DOMAIN[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_trailing_zero_coefficients_are_positive_zeros():
    fit = polyfit([1.0, 2.0, 4.0, 5.0, 9.0], [0.0] * 5, degree=3)
    assert fit.coefficients == (0.0, 0.0, 0.0, 0.0)
    assert not np.signbit(fit.coefficients).any()


# (x, replicates): a subnormal range maps x to inf and NaN, in the point fit
# or, with x = 1 among the points, only in the replicates that miss it.
NON_FINITE_MAPPINGS = [([0.0, 0.0, 5e-324], 0), ([0.0, 0.0, 5e-324], 5),
                       ([0.0, 5e-324, 1.0], 20)]


@pytest.mark.parametrize("x, replicates", NON_FINITE_MAPPINGS)
def test_non_finite_mapped_x_raises_before_the_solver_prints(capfd, x,
                                                             replicates):
    # LAPACK would print its complaints about the input on stdout first.
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        polyfit(x, [0.0, 0.0, 1.0], 1, bootstrap_replicates=replicates)
    assert capfd.readouterr() == ("", "")


# Inputs whose window fits have zero coefficients of either sign (found by
# search, each with more than `degree` distinct x): the conversion must give
# the zeros' signs as numpy's does.
SIGNED_ZERO_FITS = [
    ([5.0, 5.0, 11.0, 14.0, 11.0], [0.0, -0.0, 1e-320, 0.0, -1e-320], 1),
    ([5.0, -2.0, -2.0, 3.0, -1.0, 5.0, 3.0],
     [1e-310, 0.0, -0.0, 0.0, 0.0, -1e-310, -0.0], 2),
    ([8.0, 5.0, 8.0, 5.0, 15.0, 12.0],
     [1e-310, -0.0, -1e-310, -0.0, -0.0, 0.0], 3),
    ([13.0, 9.0, 5.0, 15.0, 13.0, 5.0, 5.0, 11.0],
     [1e-310, 0.0, -0.0, -0.0, -1e-310, -1e-320, 1e-320, 0.0], 4),
]


@pytest.mark.parametrize("x, y, degree", SIGNED_ZERO_FITS)
def test_signed_zero_fits_convert_as_the_polynomial_class(x, y, degree):
    coefficients, band, _, _, _ = reference_polyfit(x, y, degree, 20, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = polyfit(x, y, degree, bootstrap_replicates=20, seed=3)
    assert_same_bits(fit.coefficients, coefficients)
    assert_same_band(fit.band, band)
