"""Mean primitives: known values, degeneracies, and order invariants."""

import decimal
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meangap.means import (
    DegenerateZeroError,
    ExponentPair,
    arithmetic_mean,
    geometric_mean,
    power_mean,
    ratio_gap,
)

positive_tuples = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=8,
).map(tuple)

orders = st.floats(min_value=-8.0, max_value=8.0).filter(
    lambda a: abs(a) > 1e-3 and abs(a - 1.0) > 1e-3
)


class TestExponentPair:
    def test_from_alpha_roundtrip(self):
        e = ExponentPair.from_alpha(-2.0)
        assert e.alpha == -2.0
        assert e.r == -0.5

    def test_from_r_roundtrip(self):
        e = ExponentPair.from_r(5.0)
        assert e.r == 5.0
        assert e.alpha == 0.2

    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.inf, math.nan])
    def test_rejects_degenerate_orders(self, alpha):
        with pytest.raises(ValueError):
            ExponentPair.from_alpha(alpha)

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(ValueError):
            ExponentPair(alpha=2.0, r=0.7)

    def test_exact_reciprocal_accepted(self):
        e = ExponentPair(alpha=0.2, r=5.0)
        assert e.alpha * e.r == pytest.approx(1.0, abs=1e-12)


class TestKnownValues:
    # (1, 2, 4): A = 7/3, G = 2, H = 12/7, P_2 = sqrt(7)
    XS = (1.0, 2.0, 4.0)

    def test_arithmetic(self):
        assert arithmetic_mean(self.XS) == pytest.approx(7.0 / 3.0, rel=1e-15)

    def test_geometric(self):
        assert geometric_mean(self.XS) == pytest.approx(2.0, rel=1e-15)

    def test_power_two(self):
        assert power_mean(self.XS, 2.0) == pytest.approx(math.sqrt(7.0), rel=1e-15)

    def test_power_minus_one_is_harmonic(self):
        assert power_mean(self.XS, -1.0) == pytest.approx(12.0 / 7.0, rel=1e-15)

    def test_power_large_negative_order(self):
        # (1e-6)^-60 overflows a double; normalizing by the smallest
        # coordinate keeps every term at most 1
        xs = (1e-6, 0.5, 1.0)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            acc = sum(decimal.Decimal(x) ** -60 for x in xs) / 3
            want = float(acc ** (decimal.Decimal(-1) / 60))
        assert power_mean(xs, -60.0) == pytest.approx(want, rel=1e-14)


class TestZeroHandling:
    def test_geometric_zero(self):
        assert geometric_mean((0.0, 0.5, 0.5)) == 0.0

    def test_power_positive_order_with_zero(self):
        assert power_mean((0.0, 0.5, 0.5), 2.0) == pytest.approx(
            math.sqrt(1.0 / 6.0), rel=1e-15
        )

    def test_power_negative_order_with_zero(self):
        assert power_mean((0.0, 0.5, 0.5), -1.0) == 0.0

    def test_ratio_gap_negative_order_rejects_zero(self):
        e = ExponentPair.from_alpha(-1.0)
        with pytest.raises(DegenerateZeroError):
            ratio_gap((0.0, 0.5, 0.5), e)

    def test_ratio_gap_positive_order_with_zero(self):
        # (0.5, 0.5, 0) is the top end of the two-value family; the ratio
        # equals (n/(n-1))^(r-1) there
        e = ExponentPair.from_alpha(2.0)
        assert ratio_gap((0.0, 0.5, 0.5), e) == pytest.approx(
            1.5**-0.5, rel=1e-15
        )


class TestRatioGap:
    def test_all_equal_continuity_fill(self):
        # the 0/0 at the diagonal is filled with the limit value r
        e = ExponentPair.from_alpha(2.0)
        assert ratio_gap((0.25, 0.25, 0.25, 0.25), e) == 0.5

    def test_known_value(self):
        e = ExponentPair.from_alpha(2.0)
        xs = (1.0, 2.0, 4.0)
        a, g, p = 7.0 / 3.0, 2.0, math.sqrt(7.0)
        assert ratio_gap(xs, e) == pytest.approx((a - g) / (p - g), rel=1e-14)

    @given(xs=positive_tuples)
    def test_scale_invariance(self, xs):
        e = ExponentPair.from_alpha(2.0)
        scaled = tuple(7.5 * t for t in xs)
        assert ratio_gap(scaled, e) == pytest.approx(ratio_gap(xs, e), rel=1e-9)


class TestOrderMonotonicity:
    @given(xs=positive_tuples)
    def test_am_gm(self, xs):
        assert arithmetic_mean(xs) >= geometric_mean(xs) * (1.0 - 1e-12)

    @given(xs=positive_tuples, a=orders, b=orders)
    def test_power_mean_monotone_in_order(self, xs, a, b):
        lo, hi = sorted((a, b))
        assert power_mean(xs, lo) <= power_mean(xs, hi) * (1.0 + 1e-9)

    @given(xs=positive_tuples, a=orders)
    def test_between_min_and_max(self, xs, a):
        p = power_mean(xs, a)
        assert min(xs) * (1.0 - 1e-12) <= p <= max(xs) * (1.0 + 1e-12)
