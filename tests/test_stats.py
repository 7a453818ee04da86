import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, strategies as st

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

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.3, 2.7, 10.0])
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
