"""Constraint-curve reduction, power-sum slope, and the two-mean difference
quotient limits."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meangap.constants import ratio_from_f
from meangap.means import ExponentPair, ratio_gap
from meangap.profile import ProfileParams, f_profile
from meangap.reduction import (
    ConstraintDegenerateError,
    CurveParams,
    CurvePoint,
    curve_params,
    curve_point,
    curve_table,
    h_power_sum,
    h_prime,
    lemma1_ratio,
)

# zero-sum directions with nonzero third moment, so the difference
# quotient converges at first order in eps; the sign is chosen so the
# second-order term bends the error curve above the eps asymptote and
# log-log slope fits land at >= 1
DIR3 = (-0.8, 0.2, 0.6)
DIR5 = (-0.9, -0.2, -0.1, 0.5, 0.7)


class TestTwoValueConfig:
    @given(x=st.floats(min_value=1e-6, max_value=0.499).filter(
        lambda x: abs(x - 1.0 / 3.0) > 1e-3))
    def test_ratio_matches_profile_involution(self, x):
        # the raw n-variable ratio on the configuration equals the
        # profile value pushed through f -> f/(f-1); the raw path loses
        # digits near x = 1/n, which is the point of the profile form,
        # so the comparison stays off the center
        n = 3
        e = ExponentPair.from_alpha(-1.0)
        params = ProfileParams(n=n, e=e)
        direct = ratio_gap((x,) * (n - 1) + (1.0 - (n - 1) * x,), e)
        via_profile = ratio_from_f(f_profile(x, params))
        assert direct == pytest.approx(via_profile, rel=1e-9, abs=1e-9)


class TestCurveParams:
    # 50-digit roots of -8t^3 + 24t^2 - 24 on (0, 2) and (2, 6)
    T_LO = 1.3472963553338607
    T_HI = 2.5320888862379561

    def test_frozen_roots(self):
        cp = curve_params(6.0, 6.0)
        assert cp.t_lo == pytest.approx(self.T_LO, abs=1e-13)
        assert cp.t_hi == pytest.approx(self.T_HI, abs=1e-13)

    def test_roots_kill_kappa(self):
        cp = curve_params(6.0, 6.0)
        for t in (cp.t_lo, cp.t_hi):
            assert -8.0 * t**3 + 4.0 * 6.0 * t**2 - 4.0 * 6.0 == pytest.approx(
                0.0, abs=1e-11
            )

    # small roots at large sums, frozen from mpmath at 60 digits (iterating
    # t = sqrt(prod/(sum - 2t)) from sqrt(prod/sum))
    SMALL_ROOTS = {
        (1e50, 1.0): 1e-25,
        (1e60, 1e-300): 1e-180,
        (1e80, 1e100): 1e10,
        (1e100, 1.0): 1e-50,
        (1e102, 1.0): 1e-51,
        (5e102, 1e-300): 4.472135954999579e-202,
        (5e102, 1.0): 4.4721359549995796e-52,
    }

    @pytest.mark.parametrize("sum_c,prod_c", sorted(SMALL_ROOTS))
    def test_small_root_is_relative_at_large_sums(self, sum_c, prod_c):
        # the small root sits near sqrt(prod/sum), far below the sum: each
        # end must come to a width relative to itself, not to the sum
        cp = curve_params(sum_c, prod_c)
        assert cp.t_lo == pytest.approx(self.SMALL_ROOTS[sum_c, prod_c], rel=1e-12)
        assert cp.t_hi == pytest.approx(sum_c / 2.0, rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ConstraintDegenerateError):
            curve_params(6.0, 8.0)  # 216 = 27*8: all-equal collapse
        with pytest.raises(ConstraintDegenerateError):
            curve_params(6.0, 100.0)
        with pytest.raises(ConstraintDegenerateError):
            curve_params(-6.0, 6.0)

    def test_ends_rounding_to_one_double_rejected(self):
        # sum^3 passes 27 prod by rounding alone, and both root searches
        # end on one double, so no t lies strictly between the ends
        with pytest.raises(ConstraintDegenerateError, match="ends round to one double"):
            curve_params(2.03315e24, 3.1127518386225467e71)

    def test_fields(self):
        cp = curve_params(6.0, 6.0)
        assert isinstance(cp, CurveParams)
        assert cp.sum_c == 6.0 and cp.prod_c == 6.0
        assert 0.0 < cp.t_lo < 2.0 < cp.t_hi < 6.0


class TestCurvePoint:
    def test_constraints_hold(self):
        cp = curve_params(6.0, 6.0)
        for t in np.linspace(cp.t_lo, cp.t_hi, 57):
            pt = curve_point(float(t), cp)
            assert pt.x + pt.y + pt.z == pytest.approx(6.0, abs=1e-10)
            assert pt.x * pt.y * pt.z == pytest.approx(6.0, abs=1e-10)

    def test_ordering(self):
        cp = curve_params(6.0, 6.0)
        for t in np.linspace(cp.t_lo, cp.t_hi, 23):
            pt = curve_point(float(t), cp)
            assert 0.0 < pt.x <= pt.y <= pt.z

    def test_ends_are_ordered(self):
        # at t_lo x merges with y = t and at t_hi z does: rounding of the
        # curve's formulas put 370 of these 4000 ends out of order
        rng = random.Random(11)
        for _ in range(2000):
            sum_c = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
            prod_c = sum_c**3 / 27.0 * rng.uniform(1e-6, 0.999)
            cp = curve_params(sum_c, prod_c)
            lo, hi = curve_point(cp.t_lo, cp), curve_point(cp.t_hi, cp)
            assert 0.0 < lo.x == lo.y <= lo.z, (sum_c, prod_c)
            assert 0.0 < hi.x <= hi.y == hi.z, (sum_c, prod_c)

    def test_endpoints_merge_coordinates(self):
        cp = curve_params(6.0, 6.0)
        lo = curve_point(cp.t_lo, cp)
        hi = curve_point(cp.t_hi, cp)
        assert lo.x == pytest.approx(lo.y, abs=1e-7)
        assert hi.y == pytest.approx(hi.z, abs=1e-7)

    def test_outside_interval_rejected(self):
        cp = curve_params(6.0, 6.0)
        with pytest.raises(ValueError):
            curve_point(cp.t_lo - 1e-3, cp)
        with pytest.raises(ValueError):
            curve_point(cp.t_hi + 1e-3, cp)

    def test_nonpositive_t_rejected(self):
        # t_lo is about 1e-175 here, far inside a 1e-12*sum slack below
        # it, which let t <= 0 through to negative or nan coordinates
        cp = curve_params(1e50, 1e-300)
        for t in (0.0, -0.0, -1.0):
            with pytest.raises(ValueError, match="outside the curve interval"):
                curve_point(t, cp)

    def test_slack_is_relative_to_each_end(self):
        # under a 1e-12*sum slack, t = 1e-300 < t_lo came back as a point
        # with x = 1e-50 > y = 1e-300
        cp = curve_params(1e50, 1e-300)
        for t in (1e-300, 1e-176, cp.t_lo * (1.0 - 1e-11), cp.t_hi * (1.0 + 1e-11)):
            with pytest.raises(ValueError, match="outside the curve interval"):
                curve_point(t, cp)
        lo = curve_point(cp.t_lo * (1.0 - 1e-13), cp)
        assert lo.x == pytest.approx(lo.y, rel=1e-12)
        hi = curve_point(cp.t_hi * (1.0 + 1e-13), cp)
        assert hi.y == pytest.approx(hi.z, rel=1e-12)

    @pytest.mark.parametrize("sum_c,prod_c", [(6.0, 6.0), (10.0, 20.0), (1e50, 1e-300)])
    @pytest.mark.parametrize("end,rel", [("t_lo", -1e-13), ("t_hi", 1e-13),
                                         ("t_hi", 9e-13)])
    def test_points_in_the_slack_are_ordered(self, sum_c, prod_c, end, rel):
        # a t just past an end takes that end's merged coordinates; from
        # the interior formulas x came out above y, or y above z
        cp = curve_params(sum_c, prod_c)
        pt = curve_point(getattr(cp, end) * (1.0 + rel), cp)
        assert pt.x <= pt.y <= pt.z

    def test_returns_curve_point(self):
        cp = curve_params(6.0, 6.0)
        pt = curve_point(2.0, cp)
        assert isinstance(pt, CurvePoint)
        assert pt.y == pt.t == 2.0


class TestHPowerSum:
    MID = (1.3472963553338607 + 2.5320888862379561) / 2.0

    def test_frozen_values(self):
        cp = curve_params(6.0, 6.0)
        assert h_power_sum(cp.t_lo, cp, 2.0) == pytest.approx(
            14.556132286562772, rel=1e-12
        )
        assert h_power_sum(cp.t_hi, cp, 2.0) == pytest.approx(
            13.698711497147693, rel=1e-12
        )

    def test_frozen_slope(self):
        cp = curve_params(6.0, 6.0)
        assert h_prime(self.MID, cp, 2.0) == pytest.approx(
            -1.051782303179817, rel=1e-12
        )

    @pytest.mark.parametrize("r,sign", [(2.0, -1.0), (0.5, 1.0), (-1.0, 1.0), (5.0, -1.0)])
    def test_slope_sign(self, r, sign):
        cp = curve_params(6.0, 6.0)
        for t in np.linspace(cp.t_lo + 1e-6, cp.t_hi - 1e-6, 41):
            assert sign * h_prime(float(t), cp, r) > 0.0

    @pytest.mark.parametrize("r", [2.0, 0.5, -1.0])
    def test_slope_matches_finite_differences(self, r):
        cp = curve_params(6.0, 6.0)
        h = 1e-6
        for t in np.linspace(cp.t_lo + 1e-3, cp.t_hi - 1e-3, 25):
            fd = (h_power_sum(t + h, cp, r) - h_power_sum(t - h, cp, r)) / (2.0 * h)
            assert h_prime(float(t), cp, r) == pytest.approx(fd, rel=1e-5)

    def test_endpoints_rejected(self):
        cp = curve_params(6.0, 6.0)
        for t in (cp.t_lo, cp.t_hi, cp.t_lo - 0.1):
            with pytest.raises(ValueError):
                h_prime(t, cp, 2.0)

    def test_end_refused_before_the_powers(self):
        # z^1000 overflows at both ends; an end t is refused for where it
        # lies, not for its powers
        cp = curve_params(6.0, 6.0)
        for t in (cp.t_lo, cp.t_hi):
            with pytest.raises(ValueError, match="h_prime needs t strictly inside"):
                h_prime(t, cp, 1000.0)

    def test_trivial_orders_are_flat(self):
        cp = curve_params(6.0, 6.0)
        ts = np.linspace(cp.t_lo, cp.t_hi, 11)
        h1 = [h_power_sum(float(t), cp, 1.0) for t in ts]
        assert max(h1) - min(h1) <= 1e-10


class TestCurveTable:
    @pytest.mark.parametrize("sum_c,prod_c", [(6.0, 6.0), (83.2966, 1112.99),
                                              (1.0385, 0.0258408)])
    @pytest.mark.parametrize("r", [2.0, 0.5, -1.0, 3.7])
    def test_rows_are_the_one_point_functions(self, sum_c, prod_c, r):
        # the same bits as curve_point, h_power_sum and h_prime at every t
        cp = curve_params(sum_c, prod_c)
        ts = np.linspace(cp.t_lo, cp.t_hi, 41).tolist()
        table = curve_table(ts, cp, r)
        assert table["h_prime"][0] is None and table["h_prime"][-1] is None
        for i, t in enumerate(ts):
            pt = curve_point(t, cp)
            assert (table["x"][i], table["z"][i]) == (pt.x, pt.z)
            assert table["h"][i] == h_power_sum(t, cp, r)
            if 0 < i < len(ts) - 1:
                assert table["h_prime"][i] == h_prime(t, cp, r)

    def test_two_rows_are_the_ends(self):
        cp = curve_params(6.0, 6.0)
        table = curve_table([cp.t_lo, cp.t_hi], cp, 2.0)
        assert table["h_prime"] == [None, None]

    @pytest.mark.parametrize("sum_c,prod_c,r", [
        (6.0, 6.0, 1000.0),  # z^r overflows from the first row on
        (1e50, 1e-300, -1.0),  # x underflows to 0 at the small end
        # rounding puts y below x and z on interior rows, then x = z
        (2.9463098016715475e89, 9.472649486047106e266, -300.0),
        (6.955244184806369e25, 1.2461587787399646e76, 2.0),
        # the power sum overflows where each power is finite
        (8.154845485377136, 20.085534914633975, 708.7791414792284),
    ])
    def test_refusal_is_the_first_failing_row(self, sum_c, prod_c, r):
        cp = curve_params(sum_c, prod_c)
        ts = np.linspace(cp.t_lo, cp.t_hi, 57).tolist()
        with pytest.raises(ValueError) as table_error:
            curve_table(ts, cp, r)
        with pytest.raises(ValueError) as walk_error:
            for i, t in enumerate(ts):
                h_power_sum(t, cp, r)
                if 0 < i < len(ts) - 1:
                    h_prime(t, cp, r)
        assert str(table_error.value) == str(walk_error.value)

    @pytest.mark.parametrize("sum_c,prod_c,r", [
        (1.5095037515713866e-86, 1.2656206550011245e-259, -2.9395269089284133),
        (5.422248155094178e-90, 5e-324, -1.7574893358734398),
    ])
    def test_overflowing_slopes_are_none(self, sum_c, prod_c, r):
        # the chord slopes of u^r overflow at tiny coordinates and r < 0,
        # and h' was nan (inf - inf) or inf
        cp = curve_params(sum_c, prod_c)
        ts = np.linspace(cp.t_lo, cp.t_hi, 5).tolist()
        table = curve_table(ts, cp, r)
        for t, slope in zip(ts[1:-1], table["h_prime"][1:-1]):
            if slope is None:
                with pytest.raises(ValueError, match=re.escape(f"t={t} is not")):
                    h_prime(t, cp, r)
            else:
                assert slope == h_prime(t, cp, r)
        assert None in table["h_prime"][1:-1]

    def test_crossed_coordinates_refused(self):
        # a curve 1.2e-8 wide, where the second of 11 rows came out with
        # x > z, both above y; its h' was rounding noise
        cp = curve_params(6.955244184806369e25, 1.2461587787399646e76)
        t = np.linspace(cp.t_lo, cp.t_hi, 11)[1].item()
        for call in (lambda: curve_point(t, cp), lambda: h_power_sum(t, cp, 2.0),
                     lambda: h_prime(t, cp, 2.0)):
            with pytest.raises(ConstraintDegenerateError,
                               match=re.escape(f"at t={t} are out of order")):
                call()

    def test_near_degenerate_tables_are_ordered_or_refused(self):
        # curves with sum^3/(27 prod) - 1 from 1e-16 to 1e-12, a few ulps
        # of t wide to 1e-6 wide, where rounding crosses the coordinates
        # between the ends
        rng = random.Random(86)
        refused = 0
        for _ in range(2000):
            sum_c = math.exp(rng.uniform(math.log(1e-3), math.log(1e30)))
            prod_c = sum_c**3 / 27.0 / (1.0 + 10.0 ** rng.uniform(-16.0, -12.0))
            try:
                cp = curve_params(sum_c, prod_c)
            except ConstraintDegenerateError:
                continue
            ts = np.linspace(cp.t_lo, cp.t_hi, 11).tolist()
            try:
                table = curve_table(ts, cp, 2.0)
            except ValueError:
                refused += 1
                continue
            for x, t, z in zip(table["x"], ts, table["z"]):
                assert x <= t <= z, (sum_c, prod_c, t)
        assert refused > 0

    def test_crossed_coordinates_merge(self):
        # x = z rounded equal here, which h_prime divided by as 0.0 and
        # raised ZeroDivisionError.  The points between the ends move with
        # the root search: this is one where they still round equal
        cp = curve_params(2.9463098016715475e89, 9.472649486047106e266)
        t = np.linspace(cp.t_lo, cp.t_hi, 57)[29].item()
        pt = curve_point(t, cp)
        assert pt.x == pt.z != pt.y
        with pytest.raises(ValueError, match="coordinates merge"):
            h_prime(t, cp, 2.0)

    def test_rounding_negative_discriminant_is_clamped(self):
        # a curve 7 ulps wide, where the discriminant rounds to -0.0078125
        # at t_lo and between the ends.  The end takes its merged
        # coordinates; between the ends the discriminant is clamped to
        # zero, so z is d/2, and x and z merge there, where h' refuses
        sum_c, prod_c = 11640800.0, 5.842311634775229e19
        cp = curve_params(sum_c, prod_c)
        ts = np.linspace(cp.t_lo, cp.t_hi, 101).tolist()
        for t in (ts[0], ts[22]):
            assert (sum_c - t) ** 2 - 4.0 * prod_c / t < 0.0
        pt = curve_point(ts[0], cp)
        assert (pt.x, pt.z) == (ts[0], prod_c / ts[0] / ts[0])
        pt = curve_point(ts[22], cp)
        assert pt.x == pt.z == 0.5 * (sum_c - ts[22])
        with pytest.raises(ValueError, match="coordinates merge"):
            h_prime(ts[22], cp, 2.0)


class TestLemma1Ratio:
    @pytest.mark.parametrize("orders", [(0.0, 1.0, 0.5, 1.0), (2.0, 1.0, 1.0, 0.0),
                                        (-1.0, 0.0, 1.0, 2.0)])
    @pytest.mark.parametrize("direction", [DIR3, DIR5])
    def test_limit(self, orders, direction):
        a, b, c, d = orders
        want = (a - b) / (c - d)
        got = lemma1_ratio(1.0, direction, 1e-5, a, b, c, d)
        assert got == pytest.approx(want, rel=1e-4)

    def test_first_order_convergence(self):
        a, b, c, d = 2.0, 1.0, 1.0, 0.0
        errs = []
        eps_list = [1e-2, 1e-3, 1e-4]
        for eps in eps_list:
            got = lemma1_ratio(1.0, DIR3, eps, a, b, c, d)
            errs.append(abs(got - 1.0))
        slope = np.polyfit(np.log10(eps_list), np.log10(errs), 1)[0]
        assert slope >= 1.0
        assert errs[2] < errs[1] < errs[0]

    def test_base_drops_out(self):
        kw = dict(direction=DIR3, eps=1e-3, a=0.0, b=1.0, c=0.5, d=1.0)
        assert lemma1_ratio(1.0, **kw) == pytest.approx(
            lemma1_ratio(137.0, **kw), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma1_ratio(1.0, (1.0, 1.0, 1.0), 1e-3, 0.0, 1.0, 0.5, 1.0)  # not zero-sum
        with pytest.raises(ValueError):
            lemma1_ratio(1.0, DIR3, 1e-3, 0.0, 1.0, 2.0, 2.0)  # c == d
        with pytest.raises(ValueError):
            lemma1_ratio(1.0, DIR3, 2.0, 0.0, 1.0, 0.5, 1.0)  # coordinate <= 0
        with pytest.raises(ValueError):
            lemma1_ratio(-1.0, DIR3, 1e-3, 0.0, 1.0, 0.5, 1.0)  # base <= 0
        with pytest.raises(ValueError):
            lemma1_ratio(1.0, (0.0, 0.0, 0.0), 1e-3, 0.0, 1.0, 0.5, 1.0)
