"""Two-value profile functions: frozen oracle values, finite differences,
endpoint limits, and the W = U * V identity."""

import math

import numpy as np
import pytest

from meangap.means import ExponentPair
from meangap.profile import (
    CENTER_BAND,
    ProfileParams,
    U_func,
    V_func,
    W_func,
    W_prime,
    f_prime,
    f_profile,
    g_prime,
    g_profile,
    g_second,
    p_prime,
    p_profile,
    p_second,
    s_map,
)

# high-precision reference values (50-digit arithmetic, rounded to 17
# significant digits) at one interior point per regime
FROZEN = {
    (3, -1.0, 0.2): dict(
        g=0.28844991406148168, gp=0.64099980902551484, gpp=-4.4513875626771864,
        p=0.25714285714285714, pp=0.97959183673469388, ppp=-4.3731778425655977,
        f=0.589094877943053, fp=-0.83904549133491513, s=1.0 / 3.0,
        U=0.66666666666666667, V=2.3333333333333333,
        W=1.5555555555555556, Wp=-7.8703703703703704,
    ),
    (4, 2.0, 0.1): dict(
        g=0.16265765616977857, gp=1.0456563610914337, gpp=-6.2241450064966291,
        p=0.36055512754639893, pp=-1.2480754415067655, ppp=4.0002417997011716,
        f=-0.79003430929573737, fp=0.53940457611643508, s=0.14285714285714286,
        U=7.0, V=0.26530612244897959,
        W=1.8571428571428571, Wp=-23.469387755102041,
    ),
    (3, 1.0 / 1.4, 0.4): dict(
        g=0.31748021039363989, gp=-0.52913368398939982, gpp=-11.02361841644583,
        p=0.32905769188255326, pp=-0.13808763938609307, ppp=-2.6297576316893946,
        f=3.7077765107738615, fp=4.0077210502078205, s=2.0,
        U=0.76654778971566404, V=1.4271138080101839,
        W=1.093950935202911, Wp=1.8831436787942921,
    ),
    (3, 0.2, 0.3): dict(
        g=0.33019272488946267, gp=0.18344040271636815, gpp=-5.0955667421213375,
        p=0.33080438429953875, pp=0.14820200570016633, ppp=-4.1600062625517295,
        f=1.2418630830050036, fp=0.2397031264232149, s=0.75,
        U=1.0279105960669541, V=0.96272500752993465,
        W=0.98959523633865796, Wp=0.32461285136469117,
    ),
}

FNS = dict(
    g=g_profile, gp=g_prime, gpp=g_second,
    p=p_profile, pp=p_prime, ppp=p_second,
    f=f_profile, fp=f_prime, s=s_map,
    U=U_func, V=V_func, W=W_func, Wp=W_prime,
)

INSTANCES = [(3, -1.0), (4, 2.0), (3, 1.0 / 1.4), (3, 0.2)]


def params_for(n: int, alpha: float) -> ProfileParams:
    return ProfileParams(n=n, e=ExponentPair.from_alpha(alpha))


@pytest.mark.parametrize("key", sorted(FROZEN, key=repr))
def test_frozen_values(key):
    n, alpha, x = key
    params = params_for(n, alpha)
    for name, want in FROZEN[key].items():
        got = FNS[name](x, params)
        tol = 5e-13 if name == "fp" else 1e-13
        assert got == pytest.approx(want, rel=tol, abs=tol), name


# |alpha| >= 40 sends exp and expm1 of alpha * log s past the double
# range near the ends, so interiors reach inf and nan there
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n,alpha", INSTANCES + [(3, 45.0), (5, -60.0)])
def test_array_matches_scalar(n, alpha):
    params = params_for(n, alpha)
    hi = params.x_hi
    xs = np.concatenate([
        [0.0, 1e-300, 1e-12, 1.0 / n, (1.0 + 1e-10) / n, hi * (1.0 - 1e-12), hi],
        np.linspace(0.05 * hi, 0.95 * hi, 7),
    ])
    ends = (xs == 0.0) | (xs == hi)
    band = np.abs(n * xs - 1.0) <= CENTER_BAND
    for name, fn in FNS.items():
        # W' is undefined at the ends and f' inside the center band
        ok = ~ends if name == "Wp" else ~band if name == "fp" else np.ones_like(ends)
        arr = fn(xs[ok], params)
        for cast in (float, np.float64, np.array):
            scal = [fn(cast(x), params) for x in xs[ok]]
            assert all(type(v) is float for v in scal), name
            np.testing.assert_array_equal(arr, scal, err_msg=name)


def test_first_table_row_keeps_its_digits():
    # x = 1e-9/n is the first row of `meangap profile`; there n x = 1e-9
    # must not pass through a = n x - 1.  50-digit values from
    # `reference.profile_row` in `bench/reference.py`.
    params = params_for(12, 2.0)
    x = 1e-9 / 12
    want = dict(
        g=5.7643524153172096834e-10, p=0.28867513433019400889,
        f=-0.40582741727375867193, U=11999999988.999998632,
        V=0.08333333333333333334, W=999999999.08333321943,
        fp=24.603429523654150541,
    )
    for name, value in want.items():
        assert FNS[name](x, params) == pytest.approx(value, rel=1e-12), name


# 50-digit slopes (`reference.profile_row`) where the power terms of
# order |alpha| >= 45 pass the double range; the last x is
# ill-conditioned in y = 1 - 4x
@pytest.mark.parametrize("n,alpha,x,want", [
    (5, -60.0, 1e-300, -4e60),
    (5, -60.0, 1e-12, -999.7359426959664),
    (5, -60.0, 1e-6, -58.37764915883957),
    (5, -60.0, (1.0 - 1e-6) / 4, 83236.94274611528),
    (3, 45.0, 1e-300, 1.0375349077971867e100),
])
def test_f_prime_finite_at_extreme_orders(n, alpha, x, want):
    got = f_prime(x, params_for(n, alpha))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-9)


class TestCenterBand:
    def test_f_branch_value(self):
        params = params_for(4, 2.0)  # r = 1/2
        r = params.e.r
        assert f_profile(0.25, params) == r / (r - 1.0)

    def test_w_is_one(self):
        params = params_for(3, -1.0)
        assert W_func(1.0 / 3.0, params) == 1.0
        assert U_func(1.0 / 3.0, params) == 1.0
        assert V_func(1.0 / 3.0, params) == 1.0

    def test_w_prime_branch_value(self):
        # limit n(n-2)/(2r); 50-digit finite differences agree to 13 digits
        for n, alpha in [(3, -1.0), (4, 2.0), (5, 0.5)]:
            params = params_for(n, alpha)
            want = n * (n - 2) / (2.0 * params.e.r)
            assert W_prime(1.0 / n, params) == want

    def test_f_prime_rejected_in_band(self):
        params = params_for(3, -1.0)
        for arg in (1.0 / 3.0, np.array([0.1, 1.0 / 3.0])):
            with pytest.raises(ValueError, match="f_prime is not defined"):
                f_prime(arg, params)

    def test_f_prime_near_center(self):
        # 50-digit reference just outside the band; the slope identity is
        # still well conditioned at |x - 1/n| = 1e-4
        params = params_for(3, -1.0)
        assert f_prime(1.0 / 3.0 + 1e-4, params) == pytest.approx(
            -0.4996998648739257, rel=1e-6
        )


@pytest.mark.parametrize("n,alpha", INSTANCES)
def test_first_derivatives_match_finite_differences(n, alpha):
    params = params_for(n, alpha)
    hi = params.x_hi
    span = hi
    xs = np.linspace(0.05 * span, hi - 0.05 * span, 41)
    xs = xs[np.abs(params.n * xs - 1.0) > 0.02 * params.n * span]
    h = 1e-6 * span
    for fn, dfn in [(g_profile, g_prime), (p_profile, p_prime), (f_profile, f_prime)]:
        for x in xs:
            fd = (fn(x + h, params) - fn(x - h, params)) / (2.0 * h)
            assert dfn(float(x), params) == pytest.approx(fd, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("n,alpha", INSTANCES)
def test_second_derivatives_match_finite_differences(n, alpha):
    params = params_for(n, alpha)
    hi = params.x_hi
    xs = np.linspace(0.06 * hi, hi - 0.06 * hi, 31)
    xs = xs[np.abs(params.n * xs - 1.0) > 0.02 * params.n * hi]
    h = 1e-5 * hi
    for fn, dfn in [(g_profile, g_second), (p_profile, p_second)]:
        for x in xs:
            fd = (fn(x + h, params) - 2.0 * fn(float(x), params)
                  + fn(x - h, params)) / h**2
            assert dfn(float(x), params) == pytest.approx(fd, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("n,alpha", INSTANCES)
def test_w_prime_matches_finite_differences(n, alpha):
    params = params_for(n, alpha)
    hi = params.x_hi
    xs = np.linspace(0.05 * hi, hi - 0.05 * hi, 31)
    xs = xs[np.abs(params.n * xs - 1.0) > 0.02 * params.n * hi]
    h = 1e-6 * hi
    for x in xs:
        fd = (W_func(x + h, params) - W_func(x - h, params)) / (2.0 * h)
        assert W_prime(float(x), params) == pytest.approx(fd, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("n,alpha", INSTANCES)
def test_w_equals_u_times_v(n, alpha):
    params = params_for(n, alpha)
    xs = np.append(np.linspace(1e-6, params.x_hi - 1e-6, 101), 0.2)
    w = W_func(xs, params)
    uv = U_func(xs, params) * V_func(xs, params)
    np.testing.assert_allclose(w, uv, rtol=1e-12, atol=0.0)


class TestEndpointTags:
    """Derivatives at x = 0 and x = 1/(n-1) return tagged limits, not errors."""

    def test_g_prime(self):
        params = params_for(3, -1.0)
        assert g_prime(0.0, params) == math.inf
        assert g_prime(params.x_hi, params) == -math.inf

    def test_g_second(self):
        params = params_for(4, 2.0)
        assert g_second(0.0, params) == -math.inf
        assert g_second(params.x_hi, params) == -math.inf

    def test_p_prime_r_above_one(self):
        # alpha < 1: the x^(alpha-1) cusp wins at x=0, sign flips at the top
        params = params_for(3, 1.0 / 1.4)
        assert p_prime(0.0, params) == math.inf
        assert p_prime(params.x_hi, params) == -math.inf

    def test_p_prime_r_fractional(self):
        # r = 1/2: finite one-sided slopes -(n-1)/n^r and ((n-1)/n)^r
        n = 4
        params = params_for(n, 2.0)
        r = 0.5
        assert p_prime(0.0, params) == pytest.approx(-(n - 1) / n**r, rel=1e-14)
        assert p_prime(params.x_hi, params) == pytest.approx(
            ((n - 1) / n) ** r, rel=1e-14
        )

    def test_p_prime_r_negative(self):
        n = 3
        params = params_for(n, -1.0)
        r = -1.0
        assert p_prime(0.0, params) == pytest.approx(((n - 1) / n) ** r, rel=1e-14)
        assert p_prime(params.x_hi, params) == pytest.approx(
            -(n - 1) / n**r, rel=1e-14
        )

    def test_p_second_signed_infinities(self):
        # r > 1 has alpha - 2 < 0: the curvature blows down at both ends
        params = params_for(3, 1.0 / 1.4)
        assert p_second(0.0, params) == -math.inf
        assert p_second(params.x_hi, params) == -math.inf
        # 1/2 < r < 1 keeps alpha - 2 < 0 but the regime sign is positive
        params = params_for(5, 1.5)
        assert p_second(0.0, params) == math.inf
        assert p_second(params.x_hi, params) == math.inf

    def test_p_second_signed_zero(self):
        # alpha > 2 makes the vanishing-coordinate exponent positive: +0
        params = params_for(4, 3.0)
        assert p_second(0.0, params) == 0.0
        assert math.copysign(1.0, p_second(0.0, params)) == 1.0
        # alpha < -1 likewise, with the negative regime sign: -0
        params = params_for(3, -2.0)
        assert p_second(0.0, params) == 0.0
        assert math.copysign(1.0, p_second(0.0, params)) == -1.0

    def test_p_second_exact_alpha_two(self):
        n = 4
        params = params_for(n, 2.0)
        assert p_second(0.0, params) == pytest.approx(
            (n - 1) / math.sqrt(n), rel=1e-14
        )
        assert p_second(params.x_hi, params) == pytest.approx(
            (n - 1) ** 2.5 / math.sqrt(n), rel=1e-14
        )

    def test_p_second_exact_alpha_minus_one(self):
        n = 3
        params = params_for(n, -1.0)
        assert p_second(0.0, params) == pytest.approx(
            -2.0 * n / (n - 1) ** 2, rel=1e-14
        )
        assert p_second(params.x_hi, params) == pytest.approx(
            -2.0 * n * (n - 1) ** 4, rel=1e-14
        )

    def test_f_prime_signed(self):
        params = params_for(3, -1.0)
        assert math.isinf(f_prime(0.0, params))
        assert math.isinf(f_prime(params.x_hi, params))

    def test_w_endpoints_r_above_one(self):
        n, r = 3, 1.4
        params = ProfileParams(n=n, e=ExponentPair.from_r(r))
        assert W_func(0.0, params) == pytest.approx(r / (n * (r - 1.0)), rel=1e-14)
        assert W_func(params.x_hi, params) == pytest.approx(
            r * (n - 1) / (n * (r - 1.0)), rel=1e-14
        )

    def test_w_endpoints_r_below_one(self):
        params = params_for(4, 2.0)
        assert W_func(0.0, params) == math.inf
        assert W_func(params.x_hi, params) == math.inf

    def test_u_v_endpoints(self):
        n, alpha = 4, 2.0
        params = params_for(n, alpha)
        assert U_func(0.0, params) == math.inf  # alpha > 1
        assert U_func(params.x_hi, params) == 0.0
        assert V_func(0.0, params) == 1.0 / n
        assert V_func(params.x_hi, params) == math.inf
        neg = params_for(3, -1.0)
        assert U_func(0.0, neg) == pytest.approx(0.5, rel=1e-14)  # 1/(1-alpha)
        assert U_func(neg.x_hi, neg) == math.inf
        assert V_func(0.0, neg) == math.inf
        assert V_func(neg.x_hi, neg) == 1.0 / 3.0

    def test_w_prime_rejected_at_endpoints(self):
        params = params_for(3, -1.0)
        for arg in (0.0, params.x_hi, np.array([0.1, params.x_hi])):
            with pytest.raises(ValueError, match="open interval only"):
                W_prime(arg, params)


class TestDomain:
    def test_outside_domain_rejected(self):
        params = params_for(3, 2.0)
        for bad in (-0.01, params.x_hi + 0.01, math.nan, math.inf, -math.inf):
            for arg in (bad, np.float64(bad), np.array(bad), np.array([0.1, bad])):
                for fn in FNS.values():
                    with pytest.raises(ValueError, match=r"x must lie in \[0, 0\.5\]"):
                        fn(arg, params)

    def test_params_validate_n(self):
        with pytest.raises(ValueError):
            ProfileParams(n=2, e=ExponentPair.from_alpha(2.0))

    @pytest.mark.parametrize("n,r", [(3, 1e6), (2000, 100.0), (3, 647.1)])
    def test_params_reject_overflowing_endpoint(self, n, r):
        with pytest.raises(ValueError, match=r"ln\(DBL_MAX\)"):
            ProfileParams(n=n, e=ExponentPair.from_r(r))

    def test_p_top_endpoint_near_the_limit(self):
        # n^r overflows here although n^(r-1) does not
        params = ProfileParams(n=3, e=ExponentPair.from_r(647.0))
        assert p_profile(params.x_hi, params) == pytest.approx(
            (2.0 / 3.0) ** 646 / 3.0, rel=1e-13
        )
