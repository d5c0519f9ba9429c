"""One-variable profiles of the mean gap along the two-value family.

Every extremal tuple of the gap ratio can be normalized to

    (x, x, ..., x, 1 - (n-1)x),   0 <= x <= 1/(n-1),

so the whole n-dimensional problem collapses to scalar functions of x:

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

All functions accept a scalar or a numpy array.  A scalar x returns a
float, bit-identical to the array path's value at that x: it runs the
same interior formula through the same numpy ufuncs, on float64 scalars,
without the array path's masks and blocks.

`Side` evaluates f, f' and W in the small coordinate t of one side of
x = 1/n (t = x on the left, t = y on the right), where the solvers
search; on the right it forms n y from t itself, so a point next to
x = 1/(n-1) keeps every digit of its vanishing coordinate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .means import ExponentPair

__all__ = [
    "CENTER_BAND",
    "ProfileParams",
    "Side",
    "U_func",
    "V_func",
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
    "s_map",
]

# half-width of the removable-singularity band in a = n*x - 1;
# corresponds to |x - 1/n| <= 1e-9/n
CENTER_BAND = 1e-9

_LOG_DBL_MAX = math.log(sys.float_info.max)

# the array path works in blocks of this many points: an interior's
# temporaries (64 KiB each) stay in cache and are reused from the heap,
# where whole-array temporaries would fault in fresh pages on every call
_BLOCK = 1 << 13

# n x at which the array path evaluates, and then overwrites, the
# endpoints and the center band: 1e-3 inside the center, where every
# interior is finite
_STAND_IN = 1.0 - 1e-3

# the solvers' far edge: |log s|, alpha log s and (1 - alpha) log s stay
# below this, so every exponential of f' and W is at most about e^600 and
# leaves room for the polynomial factors in n around it
_LOG_EDGE = 600.0


@dataclass(frozen=True)
class ProfileParams:
    """One instance (n, alpha); n^(r-1) must be a finite double for r > 0."""

    n: int
    e: ExponentPair

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise ValueError(f"n must be an integer >= 3, got {self.n!r}")
        r = self.e.r
        if r > 0 and (r - 1.0) * math.log(self.n) > _LOG_DBL_MAX:
            raise ValueError(
                f"n^(r-1) overflows a double for n={self.n}, r={r}: "
                f"need (r-1) ln n <= ln(DBL_MAX) = {_LOG_DBL_MAX:.6f}"
            )

    @property
    def x_hi(self) -> float:
        return 1.0 / (self.n - 1)


def _coords(X, n: int):
    # a = X - 1 (exact near the center), X = n x and Y = n y = 1 - (n-1)a,
    # with the logarithms of X and Y
    a = X - 1.0
    c = -(n - 1) * a
    return a, X, 1.0 + c, np.log(X), np.log1p(c)


def _evaluate(x, params: ProfileParams, interior, lo, hi, center=None):
    """Evaluate one profile function at a scalar or an array x.

    lo and hi are the values at x = 0 and x = 1/(n-1); center, unless
    None, is the value inside the band |n x - 1| <= CENTER_BAND, which the
    interior formula covers otherwise.  A str in place of a value is the
    message of the ValueError raised there.

    interior(n, alpha, a, X, Y, l1, l2) takes the scaled coordinates, as
    float64 scalars or arrays, from `_coords`, computed here once per call
    (per block of an array).  A scalar x picks its case with plain comparisons and returns
    the float that the array path stores for it.
    """
    n = params.n
    x_hi = params.x_hi
    if isinstance(x, (float, int)) or np.ndim(x) == 0:
        x = float(x)
        if not 0.0 <= x <= x_hi:
            raise ValueError(f"x must lie in [0, {x_hi}]")
        X = n * x
        if x == 0.0:
            value = lo
        elif x == x_hi:
            value = hi
        elif center is not None and abs(X - 1.0) <= CENTER_BAND:
            value = center
        else:
            with np.errstate(over="ignore"):
                return float(interior(n, params.e.alpha, *_coords(np.float64(X), n)))
        if isinstance(value, str):
            raise ValueError(value)
        return float(value)
    arr = np.asarray(x, dtype=float)
    # min and max are nan when any entry is, which fails both tests
    if arr.size and not (0.0 <= arr.min() and arr.max() <= x_hi):
        raise ValueError(f"x must lie in [0, {x_hi}]")
    out = np.empty_like(arr)
    flat, flat_out = arr.reshape(-1), out.reshape(-1)
    with np.errstate(over="ignore"):
        for i in range(0, flat.size, _BLOCK):
            flat_out[i:i + _BLOCK] = _evaluate_block(
                flat[i:i + _BLOCK], params, interior, lo, hi, center
            )
    return out


def _evaluate_block(x, params: ProfileParams, interior, lo, hi, center):
    # the interior runs on every entry, so the endpoints and the center
    # band get a tame stand-in first and their values after
    n = params.n
    X = n * x
    cases = [(x == 0.0, lo), (x == params.x_hi, hi)]
    if center is not None:
        cases.append((np.abs(X - 1.0) <= CENTER_BAND, center))
    for mask, value in cases:
        if isinstance(value, str) and np.any(mask):
            raise ValueError(value)
        X[mask] = _STAND_IN
    out = interior(n, params.e.alpha, *_coords(X, n))
    for mask, value in cases:
        if not isinstance(value, str):
            out[mask] = value
    return out


def _log_ng(l1, l2, n: int):
    # log(n * g), exact 0 at a = 0
    return ((n - 1) * l1 + l2) / n


def _power_sum(l1, l2, n: int, alpha: float):
    """(m, esum, log(n p)) of the power sum (n-1) X^alpha + Y^alpha.

    m is the log of its larger term and the sum is e^m (n + esum), so no
    term overflows; log(n p) is exact 0 at the center, and near it m and
    esum carry the cancellation without loss.
    """
    al1 = alpha * l1
    al2 = alpha * l2
    m = np.maximum(al1, al2) if isinstance(al1, np.ndarray) else max(al1, al2)
    esum = (n - 1) * np.expm1(al1 - m) + np.expm1(al2 - m)
    return m, esum, (m + np.log1p(esum / n)) / alpha


def _p_log_slope(l1, l2, m, esum, n: int, alpha: float):
    # p'/p = n(n-1)(X^(alpha-1) - Y^(alpha-1)) / ((n-1)X^alpha + Y^alpha)
    diff = np.expm1((alpha - 1.0) * l1 - m) - np.expm1((alpha - 1.0) * l2 - m)
    return n * (n - 1) / (n + esum) * diff


def _g_log_slope(a, X, Y, n: int):
    # g'/g = (n-1)(1/X - 1/Y), with Y - X = -n a
    return -n * (n - 1) * a / (X * Y)


# interiors: (n, alpha, a, X, Y, l1, l2) -> value, scalar or array


def _g(n, alpha, a, X, Y, l1, l2):
    return np.exp(_log_ng(l1, l2, n)) / n


def _p(n, alpha, a, X, Y, l1, l2):
    return np.exp(_power_sum(l1, l2, n, alpha)[2]) / n


def _f(n, alpha, a, X, Y, l1, l2):
    return np.expm1(_log_ng(l1, l2, n)) / np.expm1(_power_sum(l1, l2, n, alpha)[2])


def _g_prime(n, alpha, a, X, Y, l1, l2):
    return _g_log_slope(a, X, Y, n) * (np.exp(_log_ng(l1, l2, n)) / n)


def _p_prime(n, alpha, a, X, Y, l1, l2):
    m, esum, lp = _power_sum(l1, l2, n, alpha)
    return _p_log_slope(l1, l2, m, esum, n, alpha) * (np.exp(lp) / n)


def _g_second(n, alpha, a, X, Y, l1, l2):
    d = X * Y
    return -(n**2) * (n - 1) * (np.exp(_log_ng(l1, l2, n)) / n) / d / d


def _p_second(n, alpha, a, X, Y, l1, l2):
    # -(n^4)(n-1)(1 - alpha) (XY)^(alpha-2) p / ((n-1)X^alpha + Y^alpha)^2
    m, esum, lp = _power_sum(l1, l2, n, alpha)
    pw = np.exp((alpha * l1 - m) + (alpha * l2 - m) - 2.0 * (l1 + l2))
    den = n + esum
    return -(n**4) * (n - 1) * (1.0 - alpha) * pw * (np.exp(lp) / n) / (den * den)


def _f_prime(n, alpha, a, X, Y, l1, l2):
    # f' = (g' - f p') n / (n p - 1), from the log slopes of G = n g and P = n p
    lg = _log_ng(l1, l2, n)
    m, esum, lp = _power_sum(l1, l2, n, alpha)
    pm = np.expm1(lp)  # P - 1 without cancellation
    dg = np.exp(lg) * _g_log_slope(a, X, Y, n)
    dp = np.exp(lp) * _p_log_slope(l1, l2, m, esum, n, alpha)
    return (dg - np.expm1(lg) / pm * dp) / pm


def _s(n, alpha, a, X, Y, l1, l2):
    return X / Y


def _U(n, alpha, a, X, Y, l1, l2):
    sm1 = n * a / Y  # s - 1
    return np.expm1((1.0 - alpha) * (l1 - l2)) / ((1.0 - alpha) * sm1)


def _V(n, alpha, a, X, Y, l1, l2):
    return ((n - 1) * np.exp(alpha * (l1 - l2)) + 1.0) / n


def _W(n, alpha, a, X, Y, l1, l2):
    return _U(n, alpha, a, X, Y, l1, l2) * _V(n, alpha, a, X, Y, l1, l2)


def _W_prime(n, alpha, a, X, Y, l1, l2):
    # the expm1 terms' linear parts cancel: n alpha log s each way
    lns = l1 - l2
    num = alpha / (1.0 - alpha) * (
        (n - 1) * np.expm1((alpha - 1.0) * lns) - np.expm1((1.0 - alpha) * lns)
    ) - np.expm1(-alpha * lns) + (n - 1) * np.expm1(alpha * lns)
    return num / (n * (a * a))


def g_profile(x, params: ProfileParams):
    """Geometric mean of the two-value tuple; 0 at both endpoints."""
    return _evaluate(x, params, _g, 0.0, 0.0)


def p_profile(x, params: ProfileParams):
    """Power mean of the two-value tuple.

    Endpoint values are taken in closed form: n^-r and ((n-1)/n)^(r-1)/n for
    r > 0, and 0 at both ends for r < 0 (a zero coordinate collapses a
    negative-order mean).
    """
    n = params.n
    r = params.e.r
    if r > 0:
        return _evaluate(x, params, _p, n ** (-r), ((n - 1) / n) ** (r - 1) / n)
    return _evaluate(x, params, _p, 0.0, 0.0)


def f_profile(x, params: ProfileParams):
    """Gap-ratio profile f = (g - 1/n) / (p - 1/n).

    The 0/0 at x = 1/n is removable; inside the band |x - 1/n| <= 1e-9/n
    the branch value r/(r-1) is returned.  Endpoints take their closed
    forms: 1 at both ends for r < 0, and n^(r-1)/(n^(r-1)-1),
    n^(r-1)/(n^(r-1)-(n-1)^(r-1)) for r > 0.
    """
    n = params.n
    r = params.e.r
    if r > 0:
        c = n ** (r - 1.0)
        lo, hi = c / (c - 1.0), c / (c - (n - 1) ** (r - 1.0))
    else:
        lo = hi = 1.0
    return _evaluate(x, params, _f, lo, hi, r / (r - 1.0))


def g_prime(x, params: ProfileParams):
    """d/dx of g; +inf at x = 0 and -inf at x = 1/(n-1)."""
    return _evaluate(x, params, _g_prime, math.inf, -math.inf)


def p_prime(x, params: ProfileParams):
    """d/dx of p.

    Finite at the endpoints for r < 1 and infinite for r > 1:
        r < 0:      ((n-1)/n)^r at 0,        -(n-1)/n^r at 1/(n-1)
        0 < r < 1:  -(n-1)/n^r at 0,         ((n-1)/n)^r at 1/(n-1)
        r > 1:      +inf at 0,               -inf at 1/(n-1)
    """
    n = params.n
    r = params.e.r
    if r > 1:
        lo, hi = math.inf, -math.inf
    elif r > 0:
        lo, hi = -(n - 1) / n**r, ((n - 1) / n) ** r
    else:
        lo, hi = ((n - 1) / n) ** r, -(n - 1) / n**r
    return _evaluate(x, params, _p_prime, lo, hi)


def g_second(x, params: ProfileParams):
    """d2/dx2 of g; strictly negative, -inf at both endpoints."""
    return _evaluate(x, params, _g_second, -math.inf, -math.inf)


def _p_second_endpoint(n: int, r: float, alpha: float, at_lo: bool) -> float:
    # the vanishing coordinate enters with exponent alpha-2 (r>0) or
    # -(alpha+1) (r<0); negative exponent blows up, positive flattens out
    sign = -1.0 if (r > 1.0 or r < 0.0) else 1.0
    expo = (alpha - 2.0) if r > 0 else -(alpha + 1.0)
    if expo < 0.0:
        return sign * math.inf
    if expo > 0.0:
        return sign * 0.0
    if alpha == 2.0:
        return (n - 1) / math.sqrt(n) if at_lo else (n - 1) ** 2.5 / math.sqrt(n)
    # alpha == -1 exactly
    return -2.0 * n / (n - 1) ** 2 if at_lo else -2.0 * n * (n - 1) ** 4


def p_second(x, params: ProfileParams):
    """d2/dx2 of p; its sign is -sign(r/(r-1)).

    Endpoint calls return the one-sided limits: signed infinities where
    the profile curls up, signed zeros where it flattens, and finite
    values exactly at alpha = 2 and alpha = -1.
    """
    n = params.n
    r = params.e.r
    alpha = params.e.alpha
    lo, hi = (_p_second_endpoint(n, r, alpha, at_lo) for at_lo in (True, False))
    return _evaluate(x, params, _p_second, lo, hi)


def _fprime_endpoint(n: int, r: float, at_lo: bool) -> float:
    # signs of the one-sided limits of f' at the domain endpoints
    if r < 0:
        return -math.inf if at_lo else math.inf
    if r < 1:
        return math.inf if at_lo else -math.inf
    if r < 2 and n < r / (r - 1.0):
        return -math.inf if at_lo else math.inf
    if r <= 2 or n >= r:
        return math.inf
    return math.inf if at_lo else -math.inf


def f_prime(x, params: ProfileParams):
    """d/dx of f via f' = (g' - f p') / (p - 1/n).

    Undefined inside the removable band around x = 1/n (the identity
    degenerates to 0/0 there); endpoint calls return the signed infinite
    limits.
    """
    n = params.n
    r = params.e.r
    lo, hi = (_fprime_endpoint(n, r, at_lo) for at_lo in (True, False))
    band = "f_prime is not defined within 1e-9/n of x = 1/n"
    return _evaluate(x, params, _f_prime, lo, hi, band)


def s_map(x, params: ProfileParams):
    """Coordinate ratio s = x / (1 - (n-1)x); 0 at x=0, 1 at x=1/n, +inf at the top."""
    return _evaluate(x, params, _s, 0.0, math.inf)


def U_func(x, params: ProfileParams):
    """Chord slope of t -> t^(1-1/r) between s(x) and 1, normalized to U(1/n) = 1."""
    alpha = params.e.alpha
    lo = 1.0 / (1.0 - alpha) if alpha < 1 else math.inf
    hi = math.inf if alpha < 0 else 0.0
    return _evaluate(x, params, _U, lo, hi, 1.0)


def V_func(x, params: ProfileParams):
    """Shifted power sum V = ((n-1) s^(1/r) + 1)/n; strictly increasing for r > 0."""
    n = params.n
    lo, hi = (1.0 / n, math.inf) if params.e.alpha > 0 else (math.inf, 1.0 / n)
    return _evaluate(x, params, _V, lo, hi, 1.0)


def W_func(x, params: ProfileParams):
    """Turning weight W = U * V.  W - 1 flags where g'/p' changes direction.

    Endpoint limits: r/(n(r-1)) and r(n-1)/(n(r-1)) for r > 1, +inf for
    r < 1.  W(1/n) = 1 always.
    """
    n = params.n
    r = params.e.r
    if r > 1:
        lo, hi = r / (n * (r - 1.0)), r * (n - 1) / (n * (r - 1.0))
    else:
        lo = hi = math.inf
    return _evaluate(x, params, _W, lo, hi, 1.0)


def W_prime(x, params: ProfileParams):
    """d/dx of W on the open interval.

    The closed form has a double zero against a double pole at x = 1/n;
    inside the removable band the branch value n(n-2)/(2r) is returned.
    Written as a combination of expm1 terms whose linear parts cancel
    analytically, so the evaluation stays accurate near the center.
    """
    n = params.n
    undefined = "W_prime is defined on the open interval only"
    center = n * (n - 2) / (2.0 * params.e.r)
    return _evaluate(x, params, _W_prime, undefined, undefined, center)


@dataclass(frozen=True)
class Side:
    """One side of x = 1/n, parametrized by its small coordinate t.

    t = x on the left and t = 1 - (n-1)x on the right; either way t runs
    from 1/n at the center down to 0 at the domain end, and the methods
    take a float t in (0, 1/n) and return floats.  `t_min` is the far
    edge of every search on the side: the smallest t at which f' and W
    are still finite, where the largest of |log s|, alpha log s and
    (1 - alpha) log s reaches 600.
    """

    params: ProfileParams
    side: str  # "left" | "right"

    def _coords(self, t: float):
        n = self.params.n
        if self.side == "left":
            return _coords(n * t, n)
        Y = n * t
        a = (1.0 - Y) / (n - 1)
        return a, 1.0 + a, Y, np.log1p(a), np.log(Y)

    @property
    def t_min(self) -> float:
        # alpha log s and (1 - alpha) log s grow toward the end of the side
        # for one sign of alpha each: log s < 0 on the left, > 0 on the right
        alpha = self.params.e.alpha
        n = self.params.n
        if self.side == "left":
            ratio = math.exp(_LOG_EDGE / max(1.0, -alpha, alpha - 1.0))
            return 1.0 / (ratio + n - 1)  # s = 1/ratio
        ratio = math.exp(_LOG_EDGE / max(1.0, alpha, 1.0 - alpha))
        return 1.0 / (ratio * (n - 1) + 1.0)  # s = ratio

    def x(self, t: float) -> float:
        return t if self.side == "left" else (1.0 - t) / (self.params.n - 1)

    def f(self, t: float) -> float:
        return float(_f(self.params.n, self.params.e.alpha, *self._coords(t)))

    def f_prime(self, t: float) -> float:
        """d/dx of f; its sign in t is the same on the left, opposite on the right."""
        return float(_f_prime(self.params.n, self.params.e.alpha, *self._coords(t)))

    def W(self, t: float) -> float:
        return float(_W(self.params.n, self.params.e.alpha, *self._coords(t)))
