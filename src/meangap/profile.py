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

Everything is evaluated through log1p/expm1 in the shifted variable
a = n*x - 1, which keeps the removable 0/0 at x = 1/n (where both g and
p touch the arithmetic mean 1/n to second order) numerically quiet.
All functions accept a scalar or a numpy array.  A scalar x returns a
float, bit-identical to the array path's value at that x: it runs the
same interior formula through the same numpy ufuncs, on float64 scalars,
without the array path's masks.
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

    @property
    def x_center(self) -> float:
        return 1.0 / self.n


def _evaluate(x, params: ProfileParams, interior, lo, hi, center=None):
    """Evaluate one profile function at a scalar or an array x.

    lo and hi are the values at x = 0 and x = 1/(n-1); center, unless
    None, is the value inside the band |a| <= CENTER_BAND, which the
    interior formula covers otherwise.  A str in place of a value is the
    message of the ValueError raised there.

    interior(a, l1, l2) takes a = n*x - 1 and the logarithms l1 = log(n x)
    and l2 = log(n y) of the two scaled coordinates x = (1 + a)/n and
    y = (1 - (n-1)a)/n, computed here once per call, as float64 scalars or
    1-d arrays.  A scalar x picks its case with plain comparisons and
    returns the float that the array path stores for it.
    """
    x_hi = params.x_hi
    if isinstance(x, (float, int)) or np.ndim(x) == 0:
        x = float(x)
        if not 0.0 <= x <= x_hi:
            raise ValueError(f"x must lie in [0, {x_hi}]")
        a = params.n * x - 1.0
        if x == 0.0:
            value = lo
        elif x == x_hi:
            value = hi
        elif center is not None and abs(a) <= CENTER_BAND:
            value = center
        else:
            a = np.float64(a)
            with np.errstate(over="ignore"):
                return float(interior(a, np.log1p(a), np.log1p(-(params.n - 1) * a)))
        if isinstance(value, str):
            raise ValueError(value)
        return float(value)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > x_hi) or not np.all(np.isfinite(arr)):
        raise ValueError(f"x must lie in [0, {x_hi}]")
    at_lo = arr == 0.0
    at_hi = arr == x_hi
    inner = ~(at_lo | at_hi)
    a = params.n * arr - 1.0
    cases = [(at_lo, lo), (at_hi, hi)]
    if center is not None:
        band = inner & (np.abs(a) <= CENTER_BAND)
        inner &= ~band
        cases.append((band, center))
    out = np.empty_like(arr)
    for mask, value in cases:
        if not isinstance(value, str):
            out[mask] = value
        elif np.any(mask):
            raise ValueError(value)
    a = a[inner]
    with np.errstate(over="ignore"):
        out[inner] = interior(a, np.log1p(a), np.log1p(-(params.n - 1) * a))
    return out


def _log_ng(l1, l2, n: int):
    # log(n * g), exact 0 at a = 0
    return ((n - 1) * l1 + l2) / n


def _e_sum(l1, l2, n: int, alpha: float):
    # (n-1)*(1+a)^alpha + (1-(n-1)a)^alpha - n, the shifted power sum
    return (n - 1) * np.expm1(alpha * l1) + np.expm1(alpha * l2)


def _log_np(esum, n: int, alpha: float):
    # log(n * p), exact 0 at a = 0
    return np.log1p(esum / n) / alpha


def _g_slope(a, g, n: int):
    return -n * (n - 1) * a * g / ((1.0 + a) * (1.0 - (n - 1) * a))


def _p_slope(l1, l2, esum, p, n: int, alpha: float):
    diff = np.expm1((alpha - 1.0) * l1) - np.expm1((alpha - 1.0) * l2)
    return n * (n - 1) * diff * p / (n + esum)


def _u(a, lns, n: int, alpha: float):
    sm1 = n * a / (1.0 - (n - 1) * a)  # s - 1
    return np.expm1((1.0 - alpha) * lns) / ((1.0 - alpha) * sm1)


def _v(lns, n: int, alpha: float):
    return ((n - 1) * np.exp(alpha * lns) + 1.0) / n


def g_profile(x, params: ProfileParams):
    """Geometric mean of the two-value tuple; 0 at both endpoints."""
    n = params.n

    def interior(a, l1, l2):
        return np.exp(_log_ng(l1, l2, n)) / n

    return _evaluate(x, params, interior, 0.0, 0.0)


def p_profile(x, params: ProfileParams):
    """Power mean of the two-value tuple.

    Endpoint values are taken in closed form: n^-r and ((n-1)/n)^(r-1)/n for
    r > 0, and 0 at both ends for r < 0 (a zero coordinate collapses a
    negative-order mean).
    """
    n = params.n
    r = params.e.r
    alpha = params.e.alpha

    def interior(a, l1, l2):
        return np.exp(_log_np(_e_sum(l1, l2, n, alpha), n, alpha)) / n

    if r > 0:
        return _evaluate(x, params, interior, n ** (-r), ((n - 1) / n) ** (r - 1) / n)
    return _evaluate(x, params, interior, 0.0, 0.0)


def f_profile(x, params: ProfileParams):
    """Gap-ratio profile f = (g - 1/n) / (p - 1/n).

    The 0/0 at x = 1/n is removable; inside the band |x - 1/n| <= 1e-9/n
    the branch value r/(r-1) is returned.  Endpoints take their closed
    forms: 1 at both ends for r < 0, and n^(r-1)/(n^(r-1)-1),
    n^(r-1)/(n^(r-1)-(n-1)^(r-1)) for r > 0.
    """
    n = params.n
    r = params.e.r
    alpha = params.e.alpha

    def interior(a, l1, l2):
        lp = _log_np(_e_sum(l1, l2, n, alpha), n, alpha)
        return np.expm1(_log_ng(l1, l2, n)) / np.expm1(lp)

    if r > 0:
        c = n ** (r - 1.0)
        lo, hi = c / (c - 1.0), c / (c - (n - 1) ** (r - 1.0))
    else:
        lo = hi = 1.0
    return _evaluate(x, params, interior, lo, hi, r / (r - 1.0))


def g_prime(x, params: ProfileParams):
    """d/dx of g; +inf at x = 0 and -inf at x = 1/(n-1)."""
    n = params.n

    def interior(a, l1, l2):
        return _g_slope(a, np.exp(_log_ng(l1, l2, n)) / n, n)

    return _evaluate(x, params, interior, math.inf, -math.inf)


def p_prime(x, params: ProfileParams):
    """d/dx of p.

    Finite at the endpoints for r < 1 and infinite for r > 1:
        r < 0:      ((n-1)/n)^r at 0,        -(n-1)/n^r at 1/(n-1)
        0 < r < 1:  -(n-1)/n^r at 0,         ((n-1)/n)^r at 1/(n-1)
        r > 1:      +inf at 0,               -inf at 1/(n-1)
    """
    n = params.n
    r = params.e.r
    alpha = params.e.alpha

    def interior(a, l1, l2):
        esum = _e_sum(l1, l2, n, alpha)
        p = np.exp(_log_np(esum, n, alpha)) / n
        return _p_slope(l1, l2, esum, p, n, alpha)

    if r > 1:
        lo, hi = math.inf, -math.inf
    elif r > 0:
        lo, hi = -(n - 1) / n**r, ((n - 1) / n) ** r
    else:
        lo, hi = ((n - 1) / n) ** r, -(n - 1) / n**r
    return _evaluate(x, params, interior, lo, hi)


def g_second(x, params: ProfileParams):
    """d2/dx2 of g; strictly negative, -inf at both endpoints."""
    n = params.n

    def interior(a, l1, l2):
        g = np.exp(_log_ng(l1, l2, n)) / n
        d = (1.0 + a) * (1.0 - (n - 1) * a)
        return -(n**2) * (n - 1) * g / (d * d)

    return _evaluate(x, params, interior, -math.inf, -math.inf)


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

    def interior(a, l1, l2):
        esum = _e_sum(l1, l2, n, alpha)
        p = np.exp(_log_np(esum, n, alpha)) / n
        pw = np.exp((alpha - 2.0) * (l1 + l2))
        t = n + esum
        return -(n**4) * (n - 1) * (r - 1.0) * pw * p / (r * (t * t))

    lo, hi = (_p_second_endpoint(n, r, alpha, at_lo) for at_lo in (True, False))
    return _evaluate(x, params, interior, lo, hi)


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
    """d/dx of f via f' = (g'/p' - f) * p' / (p - 1/n).

    Undefined inside the removable band around x = 1/n (the identity
    degenerates to 0/0 there); endpoint calls return the signed infinite
    limits.
    """
    n = params.n
    r = params.e.r
    alpha = params.e.alpha

    def interior(a, l1, l2):
        lg = _log_ng(l1, l2, n)
        esum = _e_sum(l1, l2, n, alpha)
        lp = _log_np(esum, n, alpha)
        gp = _g_slope(a, np.exp(lg) / n, n)
        pp = _p_slope(l1, l2, esum, np.exp(lp) / n, n, alpha)
        pm = np.expm1(lp)  # n * (p - 1/n) without cancellation
        return (gp / pp - np.expm1(lg) / pm) * pp / (pm / n)

    lo, hi = (_fprime_endpoint(n, r, at_lo) for at_lo in (True, False))
    band = "f_prime is not defined within 1e-9/n of x = 1/n"
    return _evaluate(x, params, interior, lo, hi, band)


def s_map(x, params: ProfileParams):
    """Coordinate ratio s = x / (1 - (n-1)x); 0 at x=0, 1 at x=1/n, +inf at the top."""
    n = params.n

    def interior(a, l1, l2):
        return (1.0 + a) / (1.0 - (n - 1) * a)

    return _evaluate(x, params, interior, 0.0, math.inf)


def U_func(x, params: ProfileParams):
    """Chord slope of t -> t^(1-1/r) between s(x) and 1, normalized to U(1/n) = 1."""
    n = params.n
    alpha = params.e.alpha

    def interior(a, l1, l2):
        return _u(a, l1 - l2, n, alpha)

    lo = 1.0 / (1.0 - alpha) if alpha < 1 else math.inf
    hi = math.inf if alpha < 0 else 0.0
    return _evaluate(x, params, interior, lo, hi, 1.0)


def V_func(x, params: ProfileParams):
    """Shifted power sum V = ((n-1) s^(1/r) + 1)/n; strictly increasing for r > 0."""
    n = params.n
    alpha = params.e.alpha

    def interior(a, l1, l2):
        return _v(l1 - l2, n, alpha)

    lo, hi = (1.0 / n, math.inf) if alpha > 0 else (math.inf, 1.0 / n)
    return _evaluate(x, params, interior, lo, hi, 1.0)


def W_func(x, params: ProfileParams):
    """Turning weight W = U * V.  W - 1 flags where g'/p' changes direction.

    Endpoint limits: r/(n(r-1)) and r(n-1)/(n(r-1)) for r > 1, +inf for
    r < 1.  W(1/n) = 1 always.
    """
    n = params.n
    r = params.e.r
    alpha = params.e.alpha

    def interior(a, l1, l2):
        lns = l1 - l2
        return _u(a, lns, n, alpha) * _v(lns, n, alpha)

    if r > 1:
        lo, hi = r / (n * (r - 1.0)), r * (n - 1) / (n * (r - 1.0))
    else:
        lo = hi = math.inf
    return _evaluate(x, params, interior, lo, hi, 1.0)


def W_prime(x, params: ProfileParams):
    """d/dx of W on the open interval.

    The closed form has a double zero against a double pole at x = 1/n;
    inside the removable band the branch value n(n-2)/(2r) is returned.
    Written as a combination of expm1 terms whose linear parts cancel
    analytically, so the evaluation stays accurate near the center.
    """
    n = params.n
    r = params.e.r
    alpha = params.e.alpha

    def interior(a, l1, l2):
        lns = l1 - l2
        num = (
            (n - 1) * np.expm1((alpha - 1.0) * lns)
            - np.expm1((1.0 - alpha) * lns)
            + (1.0 - r) * np.expm1(-alpha * lns)
            + (n - 1) * (r - 1.0) * np.expm1(alpha * lns)
        )
        return num / ((r - 1.0) * n * (a * a))

    undefined = "W_prime is defined on the open interval only"
    return _evaluate(x, params, interior, undefined, undefined, n * (n - 2) / (2.0 * r))
