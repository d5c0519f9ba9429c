"""One-variable profiles of the mean gap along the two-value family.

Every extremal tuple of the gap ratio can be normalized to

    (x, x, ..., x, 1 - (n-1)x),   0 < x < 1/(n-1),

so the whole n-dimensional problem collapses to scalar functions of x
on the open interval; the ratio's values at its ends are the
certificate's closed forms (`constants._endpoint_values`):

    g(x) = geometric mean of the tuple
    p(x) = power mean of order alpha = 1/r of the tuple
    f(x) = (g(x) - 1/n) / (p(x) - 1/n)

together with the curvature-comparison weight W = U * V built on the
coordinate ratio s(x) = x / (1 - (n-1)x).  W - 1 changes sign exactly
where the slope ratio g'/p' turns around, which is what the regime
classification keys on.

Everything is evaluated from the two scaled coordinates X = n x and
Y = n y, y = 1 - (n-1)x, which meet at 1 at the center x = 1/n, and
their logarithms l1 = log X and l2 = log Y.  Near the center the shifted
sums go through log1p/expm1 in a = X - 1, which keeps the removable 0/0
at x = 1/n (where both g and p touch the arithmetic mean 1/n to second
order) numerically quiet.  A vanishing coordinate enters only through
its own logarithm, so it keeps its digits, and power sums are scaled by
their larger term, so no power of a coordinate overflows.

`Side` is the one place that forms these coordinates, from the small
coordinate t of one side of x = 1/n (t = x on the left, t = y on the
right), where the solvers search and the verify grid runs.  On
the right it forms n y from t itself, so a point next to x = 1/(n-1)
keeps every digit of its vanishing coordinate.  On the left t is x, and
its formulas (X = n x, a = X - 1, Y = 1 - (n-1)a) hold on the whole open
interval, so the functions of x below run through the left side.

All functions of x accept a scalar or a numpy array, and always run
through numpy: a scalar x is a one-element array and returns a float.
`profile_table` evaluates several of them at once from one pass over the
coordinates, and each of them is a one-column call of the same code.
`Side` runs the same interior formulas on a float t through `math`,
which skips numpy's per-call dispatch, so it matches the array path to
rounding (libm and numpy's exp and log can differ in the last bit), not
bit for bit.  The verify grid's gap ratio over an array of t is
`Side.ratio_into`, `_ratio`'s steps written in place into arrays that
the grid reuses for every block.  On each side the sign of alpha fixes
which term of the power sum is the larger, so it forms only the other
term's expm1: the larger one's is expm1(0) = 0 at every point.  numpy
is imported only on the array paths, so the certificate searches, which
probe floats, run without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .means import ExponentPair

__all__ = [
    "CENTER_BAND",
    "ProfileParams",
    "Side",
    "TABLE_COLUMNS",
    "W_func",
    "W_prime",
    "f_profile",
    "f_prime",
    "g_profile",
    "g_prime",
    "g_second",
    "p_profile",
    "p_prime",
    "p_second",
    "profile_table",
]

# half-width of the removable-singularity band in a = n*x - 1;
# corresponds to |x - 1/n| <= 1e-9/n
CENTER_BAND = 1e-9

_LOG_DBL_MAX = math.log(sys.float_info.max)

# the solvers' far edge: |log s|, alpha log s and (1 - alpha) log s stay
# below this, so every exponential of f' and W is at most about e^600 and
# leaves room for the polynomial factors in n around it
_LOG_EDGE = 600.0


@dataclass(frozen=True)
class ProfileParams:
    """One instance (n, alpha); n and, for r > 0, n^(r-1) must be finite doubles."""

    n: int
    e: ExponentPair

    def __post_init__(self) -> None:
        if self.n == 2:
            raise ValueError(
                "n = 2 is governed by a different sharp description and is "
                "not covered here; use n >= 3")
        if not isinstance(self.n, int) or self.n < 3:
            raise ValueError(f"n must be an integer >= 3, got {self.n!r}")
        try:
            float(self.n)
        except OverflowError:
            raise ValueError(
                f"n of {self.n.bit_length()} bits is past the double range: "
                f"need n <= DBL_MAX = {sys.float_info.max!r}"
            ) from None
        r = self.e.r
        if r > 0 and (r - 1.0) * math.log(self.n) > _LOG_DBL_MAX:
            raise ValueError(
                f"n^(r-1) overflows a double for n={self.n}, r={r}: "
                f"need (r-1) ln n <= ln(DBL_MAX) = {_LOG_DBL_MAX:.6f}"
            )

    @property
    def x_hi(self) -> float:
        return 1.0 / (self.n - 1)


def _evaluate(x, params: ProfileParams, columns):
    """Evaluate profile columns at a scalar or an array x in (0, 1/(n-1)).

    columns is a list of (interior, center) pairs.  center, unless None,
    is the column's value inside the band |n x - 1| <= CENTER_BAND, which
    the interior formula covers otherwise; a str in its place is the
    message of the ValueError raised there.  The left `Side`, whose t is
    x, forms the coordinates once for all the columns, in one numpy pass,
    and each interior runs on them, on the points outside the band where
    it has a center.  Returns one array per column, or one float for a
    scalar x, which is evaluated as a one-element array.
    """
    import numpy as np

    x_hi = params.x_hi
    arr = np.asarray(x, dtype=float)
    # min and max are nan when any entry is, which fails both tests
    if arr.size and not (0.0 < arr.min() and arr.max() < x_hi):
        raise ValueError(f"x must lie in (0, {x_hi})")
    pts = arr.ravel()
    band = None
    if any(center is not None for _, center in columns):
        band = np.abs(params.n * pts - 1.0) <= CENTER_BAND
        if band.any():
            for _, center in columns:
                if isinstance(center, str):
                    raise ValueError(center)
        else:
            band = None
    n, alpha = params.n, params.e.alpha
    out = []
    with np.errstate(over="ignore"):  # a NaN still warns
        coords = Side(params, "left")._coords(pts, np)
        inner = coords if band is None else [c[~band] for c in coords]
        for interior, center in columns:
            if center is None or band is None:
                col = interior(np, n, alpha, *coords)
            else:
                col = np.empty_like(pts)
                col[band] = center
                col[~band] = interior(np, n, alpha, *inner)
            out.append(col.reshape(arr.shape) if arr.ndim else float(col[0]))
    return out


def _check_factor(params: ProfileParams, factor: int, name: str) -> None:
    # a derivative's integer factor in n, exact in Python, becomes a double
    if factor > sys.float_info.max:
        raise ValueError(
            f"{name} overflows a double for n={params.n}: "
            f"need {name} <= DBL_MAX = {sys.float_info.max!r}"
        )


def _log_ng(l1, l2, n: int):
    # log(n * g), exact 0 at a = 0
    return ((n - 1) * l1 + l2) / n


def _power_sum(xp, l1, l2, n: int, alpha: float):
    """(m, esum, log(n p)) of the power sum (n-1) X^alpha + Y^alpha.

    m is the log of its larger term and the sum is e^m (n + esum), so no
    term overflows; log(n p) is exact 0 at the center, and near it m and
    esum carry the cancellation without loss.
    """
    al1 = alpha * l1
    al2 = alpha * l2
    m = (max if xp is math else xp.maximum)(al1, al2)
    esum = (n - 1) * xp.expm1(al1 - m) + xp.expm1(al2 - m)
    return m, esum, (m + xp.log1p(esum / n)) / alpha


def _p_log_slope(xp, l1, l2, m, esum, n: int, alpha: float):
    # p'/p = n(n-1)(X^(alpha-1) - Y^(alpha-1)) / ((n-1)X^alpha + Y^alpha)
    diff = xp.expm1((alpha - 1.0) * l1 - m) - xp.expm1((alpha - 1.0) * l2 - m)
    return n * (n - 1) / (n + esum) * diff


def _g_log_slope(a, X, Y, n: int):
    # g'/g = (n-1)(1/X - 1/Y), with Y - X = -n a
    return -n * (n - 1) * a / (X * Y)


# interiors: (xp, n, alpha, a, X, Y, l1, l2) -> value, with xp the
# namespace of exp, expm1, log and log1p: numpy on an array of t, math on
# a float t (`Side._evaluate`)


def _g(xp, n, alpha, a, X, Y, l1, l2):
    return xp.exp(_log_ng(l1, l2, n)) / n


def _p(xp, n, alpha, a, X, Y, l1, l2):
    return xp.exp(_power_sum(xp, l1, l2, n, alpha)[2]) / n


def _f(xp, n, alpha, a, X, Y, l1, l2):
    return xp.expm1(_log_ng(l1, l2, n)) / xp.expm1(_power_sum(xp, l1, l2, n, alpha)[2])


def _g_prime(xp, n, alpha, a, X, Y, l1, l2):
    return _g_log_slope(a, X, Y, n) * (xp.exp(_log_ng(l1, l2, n)) / n)


def _p_prime(xp, n, alpha, a, X, Y, l1, l2):
    m, esum, lp = _power_sum(xp, l1, l2, n, alpha)
    return _p_log_slope(xp, l1, l2, m, esum, n, alpha) * (xp.exp(lp) / n)


def _g_second(xp, n, alpha, a, X, Y, l1, l2):
    d = X * Y
    return -(n**2) * (n - 1) * (xp.exp(_log_ng(l1, l2, n)) / n) / d / d


def _p_second(xp, n, alpha, a, X, Y, l1, l2):
    # -(n^4)(n-1)(1 - alpha) (XY)^(alpha-2) p / ((n-1)X^alpha + Y^alpha)^2
    m, esum, lp = _power_sum(xp, l1, l2, n, alpha)
    pw = xp.exp((alpha * l1 - m) + (alpha * l2 - m) - 2.0 * (l1 + l2))
    den = n + esum
    return -(n**4) * (n - 1) * (1.0 - alpha) * pw * (xp.exp(lp) / n) / (den * den)


def _ratio(xp, n, alpha, a, X, Y, l1, l2):
    # (A - G)/(P - G) = (1 - G)/(P - G) = (1/G - 1)/(P/G - 1) with G = n g
    # and P = n p; not f/(f - 1), whose f - 1 rounds to 0 where f is huge.
    # Out to t_end -log G stays below about 600, so 1/G is finite
    lg = _log_ng(l1, l2, n)
    return xp.expm1(-lg) / xp.expm1(_power_sum(xp, l1, l2, n, alpha)[2] - lg)


def _f_prime(xp, n, alpha, a, X, Y, l1, l2):
    # f' = (g' - f p') n / (n p - 1), from the log slopes of G = n g and P = n p
    lg = _log_ng(l1, l2, n)
    m, esum, lp = _power_sum(xp, l1, l2, n, alpha)
    pm = xp.expm1(lp)  # P - 1 without cancellation
    dg = xp.exp(lg) * _g_log_slope(a, X, Y, n)
    dp = xp.exp(lp) * _p_log_slope(xp, l1, l2, m, esum, n, alpha)
    return (dg - xp.expm1(lg) / pm * dp) / pm


def _U(xp, n, alpha, a, X, Y, l1, l2):
    # chord slope of t -> t^(1-1/r) between s(x) and 1, normalized to U(1/n) = 1
    sm1 = n * a / Y  # s - 1
    return xp.expm1((1.0 - alpha) * (l1 - l2)) / ((1.0 - alpha) * sm1)


def _V(xp, n, alpha, a, X, Y, l1, l2):
    # shifted power sum ((n-1) s^(1/r) + 1)/n; strictly increasing for r > 0
    return ((n - 1) * xp.exp(alpha * (l1 - l2)) + 1.0) / n


def _W(xp, n, alpha, a, X, Y, l1, l2):
    return _U(xp, n, alpha, a, X, Y, l1, l2) * _V(xp, n, alpha, a, X, Y, l1, l2)


def _W_prime(xp, n, alpha, a, X, Y, l1, l2):
    # the expm1 terms' linear parts cancel: n alpha log s each way.  Each
    # e^u - 1 is scaled by e^-c, c the excess of the largest |u| over
    # _LOG_EDGE, so no term overflows into inf - inf; c = 0 leaves expm1(u)
    lns = l1 - l2
    c = (max if xp is math else xp.maximum)(
        max(abs(alpha), abs(1.0 - alpha)) * abs(lns) - _LOG_EDGE, 0.0)
    em1 = lambda u: xp.expm1(u - c) - xp.expm1(-c)
    num = alpha / (1.0 - alpha) * (
        (n - 1) * em1((alpha - 1.0) * lns) - em1((1.0 - alpha) * lns)
    ) - em1(-alpha * lns) + (n - 1) * em1(alpha * lns)
    return num / (n * (a * a)) * xp.exp(c)


# the columns `profile_table` knows, in the order the CLI lists them
TABLE_COLUMNS = ("g", "p", "f", "U", "V", "W", "fprime")


def profile_table(x, params: ProfileParams, names):
    """The profile columns `names`, drawn from TABLE_COLUMNS, at x.

    One `_evaluate` call forms the coordinates once for all of them; each
    column holds the bits of its one-column function.  The f' column
    ("fprime") is nan inside the center band, where `f_prime` refuses.
    """
    n, r = params.n, params.e.r
    spec = {
        "g": (_g, None),
        "p": (_p, None),
        "f": (_f, r / (r - 1.0)),
        "U": (_U, 1.0),
        "V": (_V, 1.0),
        "W": (_W, 1.0),
        "fprime": (_f_prime, math.nan),
    }
    if "fprime" in names:
        _check_factor(params, n * (n - 1), "n(n-1)")
    return _evaluate(x, params, [spec[name] for name in names])


def g_profile(x, params: ProfileParams):
    """Geometric mean of the two-value tuple."""
    return profile_table(x, params, ["g"])[0]


def p_profile(x, params: ProfileParams):
    """Power mean of order alpha of the two-value tuple."""
    return profile_table(x, params, ["p"])[0]


def f_profile(x, params: ProfileParams):
    """Gap-ratio profile f = (g - 1/n) / (p - 1/n).

    The 0/0 at x = 1/n is removable; inside the band |x - 1/n| <= 1e-9/n
    the branch value r/(r-1) is returned.
    """
    return profile_table(x, params, ["f"])[0]


def g_prime(x, params: ProfileParams):
    """d/dx of g."""
    _check_factor(params, params.n * (params.n - 1), "n(n-1)")
    return _evaluate(x, params, [(_g_prime, None)])[0]


def p_prime(x, params: ProfileParams):
    """d/dx of p."""
    _check_factor(params, params.n * (params.n - 1), "n(n-1)")
    return _evaluate(x, params, [(_p_prime, None)])[0]


def g_second(x, params: ProfileParams):
    """d2/dx2 of g; strictly negative."""
    _check_factor(params, params.n**2 * (params.n - 1), "n^2(n-1)")
    return _evaluate(x, params, [(_g_second, None)])[0]


def p_second(x, params: ProfileParams):
    """d2/dx2 of p; its sign is -sign(r/(r-1))."""
    _check_factor(params, params.n**4 * (params.n - 1), "n^4(n-1)")
    return _evaluate(x, params, [(_p_second, None)])[0]


def f_prime(x, params: ProfileParams):
    """d/dx of f via f' = (g' - f p') / (p - 1/n).

    Undefined inside the removable band around x = 1/n (the identity
    degenerates to 0/0 there).
    """
    band = "f_prime is not defined within 1e-9/n of x = 1/n"
    _check_factor(params, params.n * (params.n - 1), "n(n-1)")
    return _evaluate(x, params, [(_f_prime, band)])[0]


def W_func(x, params: ProfileParams):
    """Turning weight W = U * V.  W - 1 flags where g'/p' changes direction.

    W(1/n) = 1 always.
    """
    return profile_table(x, params, ["W"])[0]


def W_prime(x, params: ProfileParams):
    """d/dx of W.

    The closed form has a double zero against a double pole at x = 1/n;
    inside the removable band the branch value n(n-2)/(2r) is returned.
    Written as a combination of expm1 terms whose linear parts cancel
    analytically, so the evaluation stays accurate near the center.
    """
    n = params.n
    return _evaluate(x, params, [(_W_prime, n * (n - 2) / (2.0 * params.e.r))])[0]


@dataclass(frozen=True)
class Side:
    """One side of x = 1/n, parametrized by its small coordinate t.

    t = x on the left and t = 1 - (n-1)x on the right; either way t runs
    from 1/n at the center down to 0 at the domain end.  The left side's
    formulas hold past the center too, on the whole open interval
    0 < x < 1/(n-1), and the functions of x run through them.  `f`,
    `f_prime` and `W` take a float t and return a float: through `math`,
    or where math raises on an overflow or a zero divisor, numpy's inf or
    nan for that point.  The verify grid takes each block of points as
    an array: `run_t` forms its t from v, and `ratio_into` its gap
    ratios, both in place in arrays the scan allocates once; `ratio` is
    `ratio_into` with fresh arrays.  `t_min` is the
    far edge of every search on the side: the smallest t at which f' and
    W are still finite, where the largest of |log s|, alpha log s and
    (1 - alpha) log s reaches 600.  `t_end`, where |log s| alone does,
    lies further out for large |alpha| (at n = 3, alpha = 1000, t_min is
    0.26 on the left, the center 1/3).  `v` and `t` map t to
    v = log(n t/(1 - n t)) and back: the solvers search in v and the
    verify grid is evenly spaced in it.
    """

    params: ProfileParams
    side: str  # "left" | "right"

    def _coords(self, t, xp):
        # a = X - 1, X = n x and Y = n y = 1 - (n-1)a, with the logarithms
        # of X and Y: a is exact near the center on the left, and Y keeps
        # every digit of t on the right
        n = self.params.n
        if self.side == "left":
            X = n * t
            a = X - 1.0
            c = -(n - 1) * a
            return a, X, 1.0 + c, xp.log(X), xp.log1p(c)
        Y = n * t
        a = (1.0 - Y) / (n - 1)
        return a, 1.0 + a, Y, xp.log1p(a), xp.log(Y)

    def _evaluate(self, interior, t: float) -> float:
        # through math, and where math raises rather than return inf or nan
        # as numpy does, that one point runs again through numpy
        n, alpha = self.params.n, self.params.e.alpha
        try:
            return interior(math, n, alpha, *self._coords(t, math))
        except (OverflowError, ZeroDivisionError):
            import numpy as np

            with np.errstate(all="ignore"):
                return float(interior(np, n, alpha, *self._coords(t, np)))

    def _t_at(self, log_s: float) -> float:
        # the t at which |log s| = log_s: s = x/y < 1 on the left, > 1 on the right
        ratio, n = math.exp(log_s), self.params.n
        return 1.0 / (ratio + n - 1) if self.side == "left" else 1.0 / (ratio * (n - 1) + 1.0)

    @property
    def t_min(self) -> float:
        # alpha log s and (1 - alpha) log s grow toward the end of the side
        # for one sign of alpha each: log s < 0 on the left, > 0 on the right
        alpha = self.params.e.alpha
        k = max(1.0, -alpha, alpha - 1.0) if self.side == "left" else max(1.0, alpha, 1.0 - alpha)
        return self._t_at(_LOG_EDGE / k)

    @property
    def t_end(self) -> float:
        # the verify grid's far edge: the ratio needs only -log G and
        # log P - log G finite, and they stay below about 600 out to here
        return self._t_at(_LOG_EDGE)

    def x(self, t: float) -> float:
        return t if self.side == "left" else (1.0 - t) / (self.params.n - 1)

    def v(self, t: float) -> float:
        """v = log(n t/(1 - n t)) of a float t.

        v is log t up to a constant near the end of the side and -log of
        the distance from the center near it, so steps of 1, 2, 4, ... in
        v reach either in about ten probes.
        """
        X = self.params.n * t
        return math.log(X) - math.log1p(-X)

    def t(self, v: float) -> float:
        """The t of a float v, the inverse of `v`."""
        return 1.0 / (self.params.n * (1.0 + math.exp(-v)))

    def run_t(self, v0: float, step: float, j):
        """The t of v = v0 + step j, the inverse of `v`, over a float array j.

        t is written over j and returned.  -v is formed as (-v0) + (-step) j,
        which is -(v0 + step j) to the bit, so t holds the bits of
        1/(n (1 + e^-v)) evaluated by numpy at v = v0 + step j.
        """
        import numpy as np

        np.multiply(j, -step, out=j)
        j += -v0
        np.exp(j, out=j)
        j += 1.0
        j *= self.params.n
        return np.divide(1.0, j, out=j)

    def objective(self, name: str):
        """The search objective `name` as one function of a float v.

        "f_prime" gives f' at t(v), the extremum search's objective, and
        "W" gives W - 1 at t(v), the crossing search's.  Each value holds
        the bits of `f_prime(t(v))` or `W(t(v)) - 1.0`: the function forms
        t, the side's coordinates and the interior in one frame, with n,
        alpha and the side bound once, and falls back to `_evaluate` only
        where math raises.
        """
        interior, shift = {"f_prime": (_f_prime, 0.0), "W": (_W, 1.0)}[name]
        n, alpha = self.params.n, self.params.e.alpha
        m = n - 1
        exp, log, log1p = math.exp, math.log, math.log1p
        fallback = self._evaluate

        if self.side == "left":
            def objective(v: float) -> float:
                t = 1.0 / (n * (1.0 + exp(-v)))
                X = n * t
                a = X - 1.0
                c = -m * a
                try:
                    return interior(math, n, alpha, a, X, 1.0 + c, log(X), log1p(c)) - shift
                except (OverflowError, ZeroDivisionError):
                    return fallback(interior, t) - shift
        else:
            def objective(v: float) -> float:
                t = 1.0 / (n * (1.0 + exp(-v)))
                Y = n * t
                a = (1.0 - Y) / m
                try:
                    return interior(math, n, alpha, a, 1.0 + a, Y, log1p(a), log(Y)) - shift
                except (OverflowError, ZeroDivisionError):
                    return fallback(interior, t) - shift
        return objective

    def f(self, t: float) -> float:
        return self._evaluate(_f, t)

    def f_prime(self, t: float) -> float:
        """d/dx of f; its sign in t is the same on the left, opposite on the right."""
        return self._evaluate(_f_prime, t)

    def W(self, t: float) -> float:
        return self._evaluate(_W, t)

    def ratio(self, t):
        """The gap ratio (A - G)/(P_alpha - G) at an array of t, in a new array."""
        import numpy as np

        return self.ratio_into(t, np.empty_like(t), np.empty((2,) + t.shape))

    def ratio_into(self, t, out, work):
        """The gap ratio (A - G)/(P_alpha - G) at an array of t, written into out.

        work is scratch: two arrays of t's shape, stacked.  t is kept.
        The steps are `_coords`' and `_ratio`'s, each written into one of
        the arrays, so every value has `_ratio`'s bits at the coordinates
        `_coords` forms; Y on the left and X on the right, which the ratio
        does not read, are not formed.  The side and the sign of alpha
        fix the larger term of the power sum, whose log is m: X < 1 < Y on
        the left and Y < 1 < X on the right, so Y^alpha is the larger on
        the left for alpha > 0 and on the right for alpha < 0, and
        X^alpha otherwise.  The larger term's expm1(0) = 0 adds nothing to
        esum, so neither it nor the maximum is formed; -log G is formed
        as (l1 (-(n-1)) - l2)/n, the negation of `_log_ng` to the bit.
        The verify grid reuses out and work for every block of its scan.
        """
        import numpy as np

        n, alpha = self.params.n, self.params.e.alpha
        w1, w2 = work
        with np.errstate(over="ignore"):  # a NaN still warns
            if self.side == "left":
                np.multiply(t, n, out=w1)  # X
                np.subtract(w1, 1.0, out=w2)  # a
                w2 *= -(n - 1)  # c, with Y = 1 + c
                np.log(w1, out=w1)
                np.log1p(w2, out=w2)
            else:
                np.multiply(t, n, out=w2)  # Y
                np.subtract(1.0, w2, out=w1)
                w1 /= n - 1  # a, with X = 1 + a
                np.log1p(w1, out=w1)
                np.log(w2, out=w2)
            # w1 and w2 hold l1 = log X and l2 = log Y; -log G into out
            nlg = np.multiply(w1, -(n - 1), out=out)
            nlg -= w2
            nlg /= n
            # the power sum: m = alpha l of the larger term, and esum =
            # k expm1(alpha l - m) of the smaller, whose k is n - 1 for
            # X^alpha and 1 for Y^alpha; log(n p) into the smaller's array
            if (self.side == "left") == (alpha > 0):
                m, lp, k = w2, w1, n - 1
            else:
                m, lp, k = w1, w2, 1
            m *= alpha
            lp *= alpha
            lp -= m
            np.expm1(lp, out=lp)
            if k > 1:
                lp *= k
            lp /= n
            np.log1p(lp, out=lp)
            lp += m
            lp /= alpha
            # expm1(-lg) / expm1(lp - lg)
            lp += nlg
            np.expm1(lp, out=lp)
            np.expm1(nlg, out=nlg)
            return np.divide(nlg, lp, out=out)
