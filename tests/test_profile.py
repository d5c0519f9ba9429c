"""Two-value profile functions: frozen oracle values, finite differences,
the open domain, and the W = U * V identity."""

import math
import random
import struct

import numpy as np
import pytest

from meangap.means import ExponentPair, ratio_gap
from meangap.profile import (
    CENTER_BAND,
    TABLE_COLUMNS,
    ProfileParams,
    Side,
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
    profile_table,
    _W,
    _f,
    _f_prime,
    _ratio,
)

# high-precision reference values (50-digit arithmetic, rounded to 17
# significant digits) at one interior point per regime
FROZEN = {
    (3, -1.0, 0.2): dict(
        g=0.28844991406148168, gp=0.64099980902551484, gpp=-4.4513875626771864,
        p=0.25714285714285714, pp=0.97959183673469388, ppp=-4.3731778425655977,
        f=0.589094877943053, fp=-0.83904549133491513,
        U=0.66666666666666667, V=2.3333333333333333,
        W=1.5555555555555556, Wp=-7.8703703703703704,
    ),
    (4, 2.0, 0.1): dict(
        g=0.16265765616977857, gp=1.0456563610914337, gpp=-6.2241450064966291,
        p=0.36055512754639893, pp=-1.2480754415067655, ppp=4.0002417997011716,
        f=-0.79003430929573737, fp=0.53940457611643508,
        U=7.0, V=0.26530612244897959,
        W=1.8571428571428571, Wp=-23.469387755102041,
    ),
    (3, 1.0 / 1.4, 0.4): dict(
        g=0.31748021039363989, gp=-0.52913368398939982, gpp=-11.02361841644583,
        p=0.32905769188255326, pp=-0.13808763938609307, ppp=-2.6297576316893946,
        f=3.7077765107738615, fp=4.0077210502078205,
        U=0.76654778971566404, V=1.4271138080101839,
        W=1.093950935202911, Wp=1.8831436787942921,
    ),
    (3, 0.2, 0.3): dict(
        g=0.33019272488946267, gp=0.18344040271636815, gpp=-5.0955667421213375,
        p=0.33080438429953875, pp=0.14820200570016633, ppp=-4.1600062625517295,
        f=1.2418630830050036, fp=0.2397031264232149,
        U=1.0279105960669541, V=0.96272500752993465,
        W=0.98959523633865796, Wp=0.32461285136469117,
    ),
}


def column(name):
    """The one-column table call of a column with no function of its own."""
    return lambda x, params: profile_table(x, params, [name])[0]


U_func, V_func = column("U"), column("V")

FNS = dict(
    g=g_profile, gp=g_prime, gpp=g_second,
    p=p_profile, pp=p_prime, ppp=p_second,
    f=f_profile, fp=f_prime,
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
        [1e-300, 1e-12, 1.0 / n, (1.0 + 1e-10) / n, hi * (1.0 - 1e-12)],
        np.linspace(0.05 * hi, 0.95 * hi, 7),
    ])
    band = np.abs(n * xs - 1.0) <= CENTER_BAND
    for name, fn in FNS.items():
        # f' is undefined inside the center band
        ok = ~band if name == "fp" else np.ones_like(band)
        arr = fn(xs[ok], params)
        for cast in (float, np.float64, np.array):
            scal = [fn(cast(x), params) for x in xs[ok]]
            assert all(type(v) is float for v in scal), name
            np.testing.assert_array_equal(arr, scal, err_msg=name)


# the table's grids: (4, 9/10) puts row 150 inside the center band, where
# U = V = W = 1 and f' is blank; (3, -1) puts row 667 at a = 5e-4, outside
# the band, where the table leaves f' blank though f_prime answers
@pytest.mark.parametrize("n,alpha,points,row", [
    (4, "9/10", 201, 150), (3, "-1", 1001, 667), (300, "-1/2", 201, None),
])
def test_one_column_functions_are_their_table_columns(runner, n, alpha, points, row):
    from meangap.cli import _fprime_blank, _parse_alpha, main

    params = ProfileParams(n=n, e=_parse_alpha(alpha))
    eps = 1e-9 / n
    xs = np.linspace(eps, params.x_hi - eps, points)
    table = dict(zip(TABLE_COLUMNS, profile_table(xs, params, TABLE_COLUMNS)))
    band = np.abs(n * xs - 1.0) <= CENTER_BAND
    one = dict(g=g_profile, p=p_profile, f=f_profile, U=U_func, V=V_func,
               W=W_func, fprime=f_prime)
    for name, fn in one.items():
        ok = ~band if name == "fprime" else np.ones_like(band)
        assert fn(xs[ok], params).tobytes() == table[name][ok].tobytes(), name
        for i in [0, points - 1] + ([] if row is None else [row]):
            if ok[i]:
                assert fn(float(xs[i]), params) == table[name][i], (name, i)
    if row is None:
        return
    blank = _fprime_blank(xs, params)
    assert blank[row]
    if band[row]:
        assert table["U"][row] == table["V"][row] == table["W"][row] == 1.0
        assert np.isnan(table["fprime"][row])
        with pytest.raises(ValueError, match="f_prime is not defined"):
            f_prime(float(xs[row]), params)
    # the CLI prints the table's bits, f' blank on that row
    out = runner.invoke(main, [
        "profile", "--n", str(n), "--alpha", alpha, "--points", str(points),
        "--which", ",".join(TABLE_COLUMNS), "--format", "csv"]).output
    cells = out.splitlines()[1 + row].split(",")
    assert cells[0] == format(xs[row], ".17g")
    for name, cell in zip(TABLE_COLUMNS, cells[1:]):
        want = "" if name == "fprime" else format(table[name][row], ".17g")
        assert cell == want, name


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


# W' frozen from mpmath at 50 digits (mp.dps = 50): mpmath.diff of
# W = U V with s = x/(1 - (n-1)x), U = (s^(1-alpha) - 1)/((1-alpha)(s-1))
# and V = ((n-1)s^alpha + 1)/n, which agrees with the closed form in
# profile._W_prime to 1e-25.  Here the single power terms pass the double
# range while W' does not: the unscaled terms gave -inf.
@pytest.mark.parametrize("n,alpha,x,want", [
    (10**6, 45.0, 1e-7, -1.0775316316288095181e307),
    (10**6, 45.0, 1.1061354312917844e-07, -6.9106790337410385426e304),
    (10**6, -60.0, 9.121449890838095e-07, -1.2924705470183999006e306),
    (10**6, -60.0, 9.081230977974101e-07, -2.3736938656352171002e307),
    (10**4, 45.0, 1.208410884142576e-07, -1.8956743137876912057e307),
])
def test_w_prime_finite_at_extreme_orders(n, alpha, x, want):
    params = params_for(n, alpha)
    for got in (W_prime(x, params), W_prime(np.array([x]), params)[0]):
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-10)


# the same 50-digit W' is beyond the double range here, so the slope is
# the infinity of its sign; the unscaled terms gave inf - inf = NaN
@pytest.mark.parametrize("n,alpha,x,want", [
    (5, -60.0, 1e-300, -math.inf),  # -7.8688524590163814143e18299
    (5, -60.0, 1e-12, -math.inf),  # -7.8688524571670916218e731
    (5, -60.0, 1e-6, -math.inf),  # -7.867003361155001333e365
    (5, -60.0, (1.0 - 1e-6) / 4, math.inf),  # 5.9195406435015865438e329
    (3, 45.0, 1e-300, -math.inf),  # -3.3333333333333295745e13499
    (3, 45.0, 1e-12, -math.inf),  # -3.3333333330499272594e539
])
def test_w_prime_overflows_with_its_sign(n, alpha, x, want):
    assert W_prime(x, params_for(n, alpha)) == want


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
    # the endpoints carry no one-sided values: W' refuses both, as every
    # profile function does
    def test_w_prime_rejected_at_endpoints(self):
        params = params_for(3, -1.0)
        for arg in (0.0, params.x_hi, np.array([0.1, params.x_hi])):
            with pytest.raises(ValueError, match=r"x must lie in \(0, 0\.5\)"):
                W_prime(arg, params)


class TestDomain:
    def test_outside_domain_rejected(self):
        params = params_for(3, 2.0)
        hi = params.x_hi
        for bad in (0.0, hi, -0.01, hi + 0.01, math.nan, math.inf, -math.inf):
            for arg in (bad, np.float64(bad), np.array(bad), np.array([0.1, bad])):
                for fn in FNS.values():
                    with pytest.raises(ValueError, match=r"x must lie in \(0, 0\.5\)"):
                        fn(arg, params)

    def test_params_validate_n(self):
        with pytest.raises(ValueError):
            ProfileParams(n=2, e=ExponentPair.from_alpha(2.0))

    @pytest.mark.parametrize("n,r", [(3, 1e6), (2000, 100.0), (3, 647.1)])
    def test_params_reject_overflowing_endpoint(self, n, r):
        with pytest.raises(ValueError, match=r"ln\(DBL_MAX\)"):
            ProfileParams(n=n, e=ExponentPair.from_r(r))

    def test_derivative_factor_past_the_double_range(self):
        # the derivatives' exact int factors in n overflowed into an
        # OverflowError on conversion to a double
        for n, fns in ((2 * 10**154, (g_prime, p_prime, f_prime)),
                       (6 * 10**102, (g_second,)), (5 * 10**61, (p_second,))):
            params = params_for(n, -1.0)
            x = params.x_hi / 2
            for fn in fns:
                with pytest.raises(ValueError, match="overflows a double"):
                    fn(x, params)
        for fn in (g_prime, p_prime, f_prime, g_second, p_second):
            params = params_for(10**61, -1.0)
            assert math.isfinite(fn(params.x_hi / 2, params)), fn.__name__

    def test_p_top_endpoint_near_the_limit(self):
        # n^r overflows here although n^(r-1) does not; just inside the top
        # endpoint every profile function is finite, and p falls toward
        # its limit (2/3)^646 / 3 from above
        params = ProfileParams(n=3, e=ExponentPair.from_r(647.0))
        hi = params.x_hi
        xs = np.append(hi * (1.0 - np.geomspace(1e-3, 1e-15, 5)), np.nextafter(hi, 0.0))
        for fn in FNS.values():
            assert np.all(np.isfinite(fn(xs, params))), fn.__name__
        ps = p_profile(xs, params)
        assert np.all(np.diff(ps) < 0.0)
        assert ps[-1] > (2.0 / 3.0) ** 646 / 3.0


SIDE_METHODS = {"f": _f, "f_prime": _f_prime, "W": _W}


def numpy_side(side, interior, t):
    # the interior through numpy at the coordinates Side forms for t
    n, alpha = side.params.n, side.params.e.alpha
    with np.errstate(all="ignore"):
        return float(interior(np, n, alpha, *side._coords(np.float64(t), np)))


class TestSide:
    # one instance per turning regime (NEG_R, FRAC_R, LOW_R_SMALL_N,
    # HIGH_R_SMALL_N), then alpha = +-60
    @pytest.mark.parametrize("n,alpha", [
        (5, -1.0), (5, 2.0), (4, 1.0 / 1.2), (5, 0.1), (3, 60.0), (3, -60.0),
    ])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_numpy_formulas(self, n, alpha, side):
        # math and numpy's exp and log differ in the last bit, so the
        # float path agrees to rounding, at points 1e-3 or more from the center
        s = Side(params_for(n, alpha), side)
        for t in (0.05 / n, 0.3 / n, 0.7 / n, 0.999 / n):
            for name, interior in SIDE_METHODS.items():
                got = getattr(s, name)(t)
                assert type(got) is float
                want = numpy_side(s, interior, t)
                assert got == pytest.approx(want, rel=1e-13), (t, name)

    def test_raises_nothing_on_the_side(self):
        # where math raises (a zero divisor next to the center, an
        # overflow beyond t_min), Side returns the numpy kernel's value;
        # alpha = 1e-6 is left out, as ProfileParams refuses it for every n
        raised = set()
        alphas = [60.0, -60.0, 1e6, -1e6, -1e-6, 1 + 1e-9, 1 - 1e-9, 2.0, -1.0, 0.5]
        for n in (3, 10, 10**3, 10**6):
            for alpha in alphas:
                for side in ("left", "right"):
                    s = Side(params_for(n, alpha), side)
                    inner = np.geomspace(s.t_min, 1.0 / n, 10)[1:-1].tolist()
                    for t in (s.t_min, *inner, (1.0 - 1e-12) / n, 1e-300):
                        for name, interior in SIDE_METHODS.items():
                            got = getattr(s, name)(t)
                            try:
                                interior(math, n, alpha, *s._coords(t, math))
                            except (OverflowError, ZeroDivisionError) as exc:
                                raised.add(type(exc))
                                want = numpy_side(s, interior, t)
                                assert got == want or math.isnan(got) and math.isnan(want)
        assert raised == {OverflowError, ZeroDivisionError}

    def test_objectives_hold_the_bits_of_the_methods(self):
        # seeded instances and v from past t_min to next to the center,
        # where math raises on either side; the last point is test_startup's
        # FALLBACK point, where math overflows and numpy gives W = inf
        rng = random.Random(33)
        points = []
        for _ in range(150):
            n = int(10 ** rng.uniform(math.log10(3), 6))
            alpha = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-1, 2)
            s = Side(params_for(n, alpha), rng.choice(("left", "right")))
            lo, hi = s.v(s.t_min), s.v((1.0 - 1e-12) / n)
            points += [(s, rng.uniform(lo - 5.0, hi + 5.0)) for _ in range(4)]
        s = Side(params_for(3, 60.0), "left")
        points.append((s, s.v(1e-10)))
        bits = lambda value: struct.pack("<d", value)
        for s, v in points:
            t = s.t(v)
            assert bits(s.objective("f_prime")(v)) == bits(s.f_prime(t)), (s, v)
            assert bits(s.objective("W")(v)) == bits(s.W(t) - 1.0), (s, v)
        assert s.objective("W")(v) == math.inf

    @pytest.mark.parametrize("n,alpha", [(5, -1.0), (5, 2.0), (3, 60.0), (3, -60.0)])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_ratio_over_an_array_of_t(self, n, alpha, side):
        # numpy's formulas on every entry, from t_min to the edge of the
        # center band
        s = Side(params_for(n, alpha), side)
        ts = np.geomspace(s.t_min, (1.0 - 1e-9) / n, 41)
        got = s.ratio(ts)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        np.testing.assert_array_equal(got, [numpy_side(s, _ratio, t) for t in ts])

    @pytest.mark.parametrize("alpha", [-1.0, -0.3, -60.0, 2.0, 0.1])
    def test_ratio_keeps_its_digits_at_the_end(self, alpha):
        # down to t_min, where f - 1 rounds to 0 for alpha < 0 and f/(f - 1)
        # is inf or noise; the tuple (t, t, 1 - 2t) holds t exactly
        s = Side(params_for(3, alpha), "left")
        e = ExponentPair.from_alpha(alpha)
        ts = np.geomspace(s.t_min, 0.3, 12)
        want = [ratio_gap((t, t, 1.0 - 2.0 * t), e) for t in ts.tolist()]
        np.testing.assert_allclose(s.ratio(ts), want, rtol=1e-12, atol=0.0)
