"""Reductions that pin down where the gap ratio is extremal.

Two tools live here:

* the three-variable constraint curve: among positive triples with fixed
  sum sum_c and product prod_c (sum_c^3 > 27*prod_c), the ordered
  solutions form a one-parameter family y = t between the two roots of
  kappa(t) = -8t^3 + 4*sum_c*t^2 - 4*prod_c, where the discriminant of
  the remaining quadratic closes up (x = y at the left root, y = z at
  the right).  The power sum x^r + y^r + z^r is strictly monotone in t,
  which is what forces extremal tuples to take at most two distinct
  values.  `curve_table` evaluates it at an array of t in one pass, as
  `meangap reduce3` prints it; `curve_point`, `h_power_sum` and `h_prime`
  are one-point calls of the same code.

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
    the curve to the all-equal triple and is rejected as degenerate.
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
    return CurveParams(sum_c=sum_c, prod_c=prod_c, t_lo=t_lo, t_hi=t_hi)


def _curve(t: np.ndarray, cp: CurveParams):
    """(x, z) of the curve at an array t, y = t; the first t off it raises.

    The discriminant (sum_c-t)^2 - 4*prod_c/t is clamped to zero where a
    rounding-level negative (within -1e-12) appears at the interval ends;
    anything more negative means t is off the curve.
    """
    import numpy as np

    sum_c, prod_c = cp.sum_c, cp.prod_c
    slack = 1e-12 * max(1.0, sum_c)
    off = ~((cp.t_lo - slack <= t) & (t <= cp.t_hi + slack))
    if off.any():
        raise ValueError(
            f"t={t[off.argmax()].item()} outside the curve interval "
            f"[{cp.t_lo}, {cp.t_hi}]"
        )
    d = sum_c - t
    # the square through float's ** (libm pow), which can differ from d*d
    # in the last bit
    disc = np.array([v**2 for v in d.tolist()]) - 4.0 * prod_c / t
    neg = disc < 0.0
    if neg.any():
        deep = disc < -1e-12
        if deep.any():
            i = deep.argmax()
            raise ConstraintDegenerateError(
                f"negative discriminant {disc[i].item()} at t={t[i].item()}"
            )
        disc[neg] = 0.0
    z = 0.5 * (d + np.sqrt(disc))
    # x*z = prod_c/t exactly on the curve; dividing avoids the subtractive
    # cancellation near the x = z corner.  At the ends of the interval y = t
    # merges with x (t_lo) or z (t_hi): the pair is t there and the third
    # coordinate prod_c/t^2, which rounding keeps in the order x <= y <= z
    x, end = prod_c / (t * z), prod_c / t / t
    lo, hi = t == cp.t_lo, t == cp.t_hi
    return np.where(lo, t, np.where(hi, end, x)), np.where(hi, t, np.where(lo, end, z))


def _powers(t, x, z, r: float):
    """(x^r, y^r, z^r) as arrays, each power through float's ** (libm pow).

    np.power can differ from it in the last bit.  Where a power leaves the
    double range, float's OverflowError or ZeroDivisionError (0.0 to a
    negative r) becomes a ValueError that names the first such point.
    """
    import numpy as np

    cols = x.tolist(), t.tolist(), z.tolist()
    try:
        return tuple(np.array([v**r for v in col]) for col in cols)
    except (OverflowError, ZeroDivisionError):
        for xi, yi, zi in zip(*cols):
            try:
                xi**r, yi**r, zi**r
            except (OverflowError, ZeroDivisionError):
                raise ValueError(
                    f"a coordinate of ({xi}, {yi}, {zi}) at t={yi} to the "
                    f"power r={r} is not a finite double"
                ) from None
        raise


def _power_sum(t, powers, r: float):
    """x^r + y^r + z^r as an array; a sum past the double range raises a
    ValueError that names the first such t."""
    import numpy as np

    with np.errstate(over="ignore"):
        h = powers[0] + powers[1] + powers[2]
    inf = np.isinf(h)
    if inf.any():
        raise ValueError(
            f"the power sum at t={t[inf.argmax()].item()} to the power r={r} "
            "is not a finite double"
        )
    return h


def _slopes(t, x, z, powers, r: float):
    """d/dt of the power sum at an array t whose coordinates are distinct.

    Not finite where the chord slopes leave the double range, as at tiny
    coordinates and negative r, where their difference is inf - inf.
    """
    import numpy as np

    xr, yr, zr = powers
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        chord_hi = (zr - yr) / (z - t)
        chord_lo = (yr - xr) / (t - x)
        return r * (t - x) * (z - t) / (t * (x - z)) * (chord_hi - chord_lo)


def _check_inner(t, x, z, cp: CurveParams) -> None:
    # h' needs t strictly inside the interval and three distinct coordinates;
    # x = z with y apart happens only where rounding breaks their order
    inside = (cp.t_lo < t) & (t < cp.t_hi)
    if not inside.all():
        raise ValueError(
            f"h_prime needs t strictly inside ({cp.t_lo}, {cp.t_hi}), "
            f"got {t[(~inside).argmax()].item()}"
        )
    merged = (x == t) | (t == z) | (x == z)
    if merged.any():
        raise ValueError(
            f"coordinates merge at t={t[merged.argmax()].item()}; "
            "h_prime is 0/0 there"
        )


def curve_point(t: float, cp: CurveParams) -> CurvePoint:
    """Point (x, y=t, z) on the curve, x <= y <= z; a t off it raises."""
    import numpy as np

    t = float(t)
    x, z = _curve(np.array([t]), cp)
    return CurvePoint(t=t, x=x.item(), y=t, z=z.item())


def h_power_sum(t: float, cp: CurveParams, r: float) -> float:
    """Power sum x^r + y^r + z^r along the curve."""
    import numpy as np

    ts = np.array([float(t)])
    return _power_sum(ts, _powers(ts, *_curve(ts, cp), r), r).item()


def _h_prime(t: float, cp: CurveParams, r: float) -> float:
    # h' at one t strictly inside, not finite where its formula overflows
    import numpy as np

    if not cp.t_lo < t < cp.t_hi:
        raise ValueError(
            f"h_prime needs t strictly inside ({cp.t_lo}, {cp.t_hi}), got {t}"
        )
    ts = np.array([t])
    x, z = _curve(ts, cp)
    _check_inner(ts, x, z, cp)
    return _slopes(ts, x, z, _powers(ts, x, z, r), r).item()


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
    slope = _h_prime(t, cp, r)
    if not math.isfinite(slope):
        raise ValueError(f"h_prime at t={t} is not a finite double")
    return slope


def curve_table(t: np.ndarray, cp: CurveParams, r: float) -> dict:
    """Columns x, z, h and h' of the curve at an array t, y being t.

    One pass forms the coordinates and their powers at every t; h' is
    taken at every t but the first and the last, the ends of a table,
    where it is None, as it is where h' is not a finite double.  Each
    value holds the bits of `curve_point`, `h_power_sum` and `h_prime` at
    its t; the columns are arrays, h' a list.  Where a point fails, the
    ValueError is the one that walking the rows in order with
    `h_power_sum` and then `h_prime` raises first, an h' that is not a
    finite double aside.
    """
    try:
        x, z = _curve(t, cp)
        powers = _powers(t, x, z, r)
        h = _power_sum(t, powers, r)
        mid = slice(1, -1)
        _check_inner(t[mid], x[mid], z[mid], cp)
        slopes = _slopes(t[mid], x[mid], z[mid], [p[mid] for p in powers], r)
    except ValueError:
        for i, ti in enumerate(t.tolist()):
            h_power_sum(ti, cp, r)
            if 0 < i < t.size - 1:
                _h_prime(ti, cp, r)
        raise
    inner = [v if math.isfinite(v) else None for v in slopes.tolist()]
    ends = [None] * min(t.size, 2)
    return {"x": x, "z": z, "h": h, "h_prime": ends[:1] + inner + ends[1:]}


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
