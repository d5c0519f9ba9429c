"""Reductions that pin down where the gap ratio is extremal.

Two tools live here:

* the three-variable constraint curve: among positive triples with fixed
  sum sum_c and product prod_c (sum_c^3 > 27*prod_c), the ordered
  solutions form a one-parameter family y = t between the two roots of
  kappa(t) = -8t^3 + 4*sum_c*t^2 - 4*prod_c, where the discriminant of
  the remaining quadratic closes up (x = y at the left root, y = z at
  the right).  The power sum x^r + y^r + z^r is strictly monotone in t,
  which is what forces extremal tuples to take at most two distinct
  values.  One float row function, `_row`, evaluates it at a t:
  `curve_table` walks it over a list of t, as `meangap reduce3` prints
  it, and `curve_point`, `h_power_sum` and `h_prime` are one-row calls,
  so a table row holds their bits and a table's refusal is its first
  failing row's.

* perturbation-limit ratios: for tuples base*(1 + eps*d) the difference
  of two power means of orders a and b behaves like
  (a-b)/2 * eps^2 * mean(d^2) * base, so quotients of such differences
  converge to order ratios as eps -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .solver import SolveResult, find_root

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ConstraintDegenerateError",
    "CurveParams",
    "CurvePoint",
    "curve_params",
    "curve_point",
    "curve_table",
    "h_power_sum",
    "h_prime",
    "lemma1_ratio",
]


# width of the final bracket of each end of the curve, relative to the end.
# It bounds the bracket, not the end's error: near sum^3 = 27 prod kappa has
# a near-double root, and its rounding spans a band of roots.  At
# (2.9463098016715475e89, 9.472649486047106e266), where sum^3/(27 prod) is
# 1 + 1.8e-16, t_lo lies 1.2e-9 relative from an 80-digit root of kappa
_CURVE_RTOL = 1e-15


class ConstraintDegenerateError(ValueError):
    """The (sum, product) constraint admits no one-parameter curve."""


@dataclass(frozen=True)
class CurveParams:
    """Constraint curve of positive triples with fixed sum and product.

    t_lo and t_hi are the roots of kappa(t) = -8t^3 + 4*sum_c*t^2 - 4*prod_c
    in (0, sum_c/3) and (sum_c/3, sum_c); the middle coordinate y = t
    ranges over [t_lo, t_hi].
    """

    sum_c: float
    prod_c: float
    t_lo: float
    t_hi: float


@dataclass(frozen=True)
class CurvePoint:
    """Ordered triple (x, y, z) on the curve with y = t as the parameter."""

    t: float
    x: float
    y: float
    z: float


def _quarter_kappa(t: float, sum_c: float, prod_c: float) -> float:
    # kappa/4 = t^2 (sum_c - 2t) - prod_c, multiplied in an order in which
    # nothing overflows where sum_c^3 does not and t^2 cannot underflow alone
    return t * (t * (sum_c - 2.0 * t)) - prod_c


def _inner_end(res: SolveResult, inward: float) -> float:
    # the end of the final bracket on the curve, where kappa >= 0: the end
    # returned, or the bracket's other end, a width away toward the curve
    return res.x_star if res.value >= 0.0 else res.x_star + inward * res.width


def curve_params(sum_c: float, prod_c: float) -> CurveParams:
    """Locate the curve's parameter interval for the constraint pair.

    Requires sum_c, prod_c > 0 and sum_c^3 > 27*prod_c; equality collapses
    the curve to the all-equal triple and is rejected as degenerate, as is
    a curve so close to it that its ends round to one double.
    """
    sum_c = float(sum_c)
    prod_c = float(prod_c)
    if not (0.0 < sum_c < math.inf and 0.0 < prod_c < math.inf):
        raise ConstraintDegenerateError(
            f"need finite positive constraints, got sum={sum_c}, product={prod_c}"
        )
    try:
        cube = sum_c**3
    except OverflowError:
        raise ConstraintDegenerateError(
            f"sum^3 overflows a double, got sum={sum_c}"
        ) from None
    if not cube > 27.0 * prod_c:
        raise ConstraintDegenerateError(
            f"need sum^3 > 27*product for a nondegenerate curve, got "
            f"sum^3={cube}, 27*product={27.0 * prod_c}"
        )
    # kappa/4 = t^2 (sum - 2t) - prod, so the small root lies in
    # [q, sqrt(3) q], q = sqrt(prod/sum), and the large one in (sum/3, sum).
    # Widened by e each way, the small root's bracket keeps kappa's signs
    # past rounding, and each root is solved to a width relative to itself
    kappa = lambda t: _quarter_kappa(t, sum_c, prod_c)
    q = math.exp(0.5 * (math.log(prod_c) - math.log(sum_c)))
    top = sum_c / 3.0
    t_lo = _inner_end(find_root(
        kappa, q / math.e, min(q * math.e * math.sqrt(3.0), top), _CURVE_RTOL * q,
    ), 1.0)
    t_hi = _inner_end(find_root(kappa, top, sum_c, _CURVE_RTOL * sum_c), -1.0)
    if not t_lo < t_hi:
        raise ConstraintDegenerateError(
            f"the curve's ends round to one double t={t_lo}, where its three "
            "coordinates merge"
        )
    return CurveParams(sum_c=sum_c, prod_c=prod_c, t_lo=t_lo, t_hi=t_hi)


def _row(t: float, cp: CurveParams, r: float, slope: bool) -> tuple:
    """(x, z, h, h') of the curve at t, y = t; h' only where slope is set.

    The discriminant (sum_c-t)^2 - 4*prod_c/t is used only strictly inside
    the interval, where it is positive but for rounding, and is clamped at
    zero; a t at or past an end takes the end's merged coordinates.  A t
    between the ends where rounding breaks x <= y <= z, but for x = z,
    raises ConstraintDegenerateError.  Each power goes through float's **
    (libm pow); where one leaves the double range, its OverflowError or
    ZeroDivisionError (0.0 to a negative r) becomes a ValueError, as does
    a power sum past it.  h' is None where
    slope is not set or it is not a finite double, as at tiny coordinates
    and negative r, where the chord slopes' difference is inf - inf.
    """
    sum_c, prod_c = cp.sum_c, cp.prod_c
    # a slack relative to each end: an absolute one can exceed t_lo, as
    # at (1e50, 1e-300), where t_lo is 1e-175
    if not cp.t_lo - 1e-12 * cp.t_lo <= t <= cp.t_hi + 1e-12 * cp.t_hi:
        raise ValueError(
            f"t={t} outside the curve interval [{cp.t_lo}, {cp.t_hi}]"
        )
    d = sum_c - t
    # the square through ** (libm pow), which can differ from d*d in the
    # last bit
    disc = max(d**2 - 4.0 * prod_c / t, 0.0)
    # x*z = prod_c/t exactly on the curve; dividing avoids the subtractive
    # cancellation near the x = z corner.  At the ends of the interval y = t
    # merges with x (t_lo) or z (t_hi): the pair is t there and the third
    # coordinate prod_c/t^2, which rounding keeps in the order x <= y <= z.
    # A t in the slack past an end takes that end's rule, which keeps the
    # order where the interior formulas break it
    z, end = 0.5 * (d + math.sqrt(disc)), prod_c / t / t
    lo, hi = t <= cp.t_lo, t >= cp.t_hi
    x = t if lo else end if hi else prod_c / (t * z)
    z = t if hi else end if lo else z
    # between the ends of a curve close to the all-equal triple, rounding
    # can cross the coordinates; x = z with y apart is left to h', which
    # refuses it as a merge
    if not (lo or hi or x <= t <= z or x == z):
        raise ConstraintDegenerateError(
            f"the coordinates ({x}, {t}, {z}) at t={t} are out of order: "
            "doubles do not resolve the curve there"
        )
    try:
        xr, yr, zr = x**r, t**r, z**r
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"a coordinate of ({x}, {t}, {z}) at t={t} to the power r={r} "
            "is not a finite double"
        ) from None
    h = xr + yr + zr
    if math.isinf(h):
        raise ValueError(
            f"the power sum at t={t} to the power r={r} is not a finite double"
        )
    if not slope:
        return x, z, h, None
    # h' needs t strictly inside the interval and three distinct coordinates;
    # x = z with y apart happens only where rounding breaks their order
    if not cp.t_lo < t < cp.t_hi:
        raise ValueError(
            f"h_prime needs t strictly inside ({cp.t_lo}, {cp.t_hi}), got {t}"
        )
    if x == t or t == z or x == z:
        raise ValueError(f"coordinates merge at t={t}; h_prime is 0/0 there")
    chords = (zr - yr) / (z - t) - (yr - xr) / (t - x)
    value = r * (t - x) * (z - t) / (t * (x - z)) * chords
    return x, z, h, value if math.isfinite(value) else None


def curve_point(t: float, cp: CurveParams) -> CurvePoint:
    """Point (x, y=t, z) on the curve, x <= y <= z; a t off it raises, as
    does one where rounding breaks that order, but for x = z."""
    t = float(t)
    # at r = 0 every power is 1.0, so only a t off the curve refuses
    x, z, _, _ = _row(t, cp, 0.0, False)
    return CurvePoint(t=t, x=x, y=t, z=z)


def h_power_sum(t: float, cp: CurveParams, r: float) -> float:
    """Power sum x^r + y^r + z^r along the curve."""
    return _row(float(t), cp, r, False)[2]


def h_prime(t: float, cp: CurveParams, r: float) -> float:
    """d/dt of the power sum along the curve, for t strictly inside.

    Equals r*(y-x)*(z-y)/(y*(x-z)) times the difference of the chord
    slopes of u -> u^r over [y, z] and [x, y]; strictly negative for
    r > 1 and strictly positive for r < 0 and 0 < r < 1.  At the interval
    ends two coordinates merge and the chord slopes degenerate, so those
    calls are rejected, as are those where the result is not a finite
    double.
    """
    t = float(t)
    if not cp.t_lo < t < cp.t_hi:
        raise ValueError(
            f"h_prime needs t strictly inside ({cp.t_lo}, {cp.t_hi}), got {t}"
        )
    slope = _row(t, cp, r, True)[3]
    if slope is None:
        raise ValueError(f"h_prime at t={t} is not a finite double")
    return slope


def curve_table(t: Sequence[float], cp: CurveParams, r: float) -> dict:
    """Columns x, z, h and h' of the curve at the floats t, y being t.

    Each row holds the bits of `curve_point`, `h_power_sum` and `h_prime`
    at its t; h' is taken at every t but the first and the last, the ends
    of a table, where it is None, as it is where h' is not a finite
    double.  The rows run in order, so a refusal names the first failing
    row.
    """
    last = len(t) - 1
    rows = [_row(float(ti), cp, r, 0 < i < last) for i, ti in enumerate(t)]
    return {key: [row[k] for row in rows]
            for k, key in enumerate(("x", "z", "h", "h_prime"))}


def _log_power_mean(order: float, eps: float, dirs: np.ndarray) -> float:
    # log of the order-mean of the perturbed tuple 1 + eps*dirs
    import numpy as np

    lp1 = np.log1p(eps * dirs)
    if order == 0.0:
        return float(np.mean(lp1))
    esum = float(np.sum(np.expm1(order * lp1)))
    return math.log1p(esum / dirs.size) / order


def _direction_array(direction: Sequence[float], eps: float) -> np.ndarray:
    import numpy as np

    arr = np.asarray(direction, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("direction must be a 1-d sequence with >= 2 entries")
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        raise ValueError("direction must be nonzero")
    if abs(float(arr.sum())) > 1e-12 * scale * arr.size:
        raise ValueError("direction must sum to zero")
    if eps <= 0.0 or float(np.min(1.0 + eps * arr)) <= 0.0:
        raise ValueError("eps must be positive and keep all coordinates positive")
    return arr


def lemma1_ratio(
    base: float,
    direction: Sequence[float],
    eps: float,
    a: float,
    b: float,
    c: float,
    d: float,
) -> float:
    """(P_a - P_b) / (P_c - P_d) on the tuple base*(1 + eps*direction).

    direction must sum to zero; the ratio converges to (a-b)/(c-d) as
    eps -> 0, at first order in eps when the direction's third moment is
    nonzero.  The differences are formed as exp(L_b) * expm1(L_a - L_b)
    from the log means, never by subtracting nearly equal mean values;
    base scales every mean alike and drops out of the quotient.
    """
    a, b, c, d = float(a), float(b), float(c), float(d)
    if c == d:
        raise ValueError("denominator orders must differ")
    if not float(base) > 0.0:
        raise ValueError(f"base must be positive, got {base}")
    arr = _direction_array(direction, float(eps))
    la = _log_power_mean(a, eps, arr)
    lb = _log_power_mean(b, eps, arr)
    lc = _log_power_mean(c, eps, arr)
    ld = _log_power_mean(d, eps, arr)
    den = math.expm1(lc - ld)
    if den == 0.0:
        raise ValueError("denominator mean difference vanished")
    return math.expm1(la - lb) / den * math.exp(lb - ld)
