"""Independent 50-digit reference for the meangap benchmark checks.

Everything here is computed with mpmath straight from the arithmetic,
geometric and power means of the two-value tuple

    (u, u, ..., u, v),   (n - 1) u + v = 1,

parametrised by its small coordinate t: u = t on the left of x = 1/n,
v = t on the right.  Nothing goes through the program's a = n x - 1
profile, its regime table or its solvers, so a fault there cannot hide
in the reference.  Nothing is stored: every value is computed when a
run asks for it.

    python3 bench/reference.py            # self-checks, exit 1 on failure
"""

from __future__ import annotations

import sys
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

mp.dps = 50

# the scan for interior extrema looks this close to an endpoint, in units
# of 1/n; an extremum closer than that is reported, never guessed
_T_MIN = mpf("1e-30")


def exponent(text: str):
    """The exponent a CLI argument names: p/q exactly, decimals as written."""
    if "/" in text:
        q = Fraction(text)
        return mpf(q.numerator) / q.denominator
    return mpf(text)


def _means(n: int, alpha, u, v):
    # A, G, P_alpha of (u x (n-1), v); a zero coordinate gives G = 0 and,
    # for alpha < 0, P = 0
    a = ((n - 1) * u + v) / n
    if u == 0 or v == 0:
        g = mpf(0)
        if alpha < 0:
            return a, g, mpf(0)
        s = ((n - 1) * u**alpha + v**alpha) / n
        return a, g, s ** (1 / alpha)
    lu, lv = mpmath.log(u), mpmath.log(v)
    g = mpmath.exp(((n - 1) * lu + lv) / n)
    s = ((n - 1) * mpmath.exp(alpha * lu) + mpmath.exp(alpha * lv)) / n
    return a, g, s ** (1 / alpha)


def ratio(n: int, alpha, u, v):
    """(A - G)/(P_alpha - G) of the tuple (u x (n-1), v)."""
    a, g, p = _means(n, alpha, u, v)
    return (a - g) / (p - g)


def _coords(n: int, t, side: str):
    if side == "left":
        return t, 1 - (n - 1) * t
    return (1 - t) / (n - 1), t


def _ratio_and_slope(n: int, alpha, t, side: str):
    # R and (P - G)^2 * dR/dt at small coordinate t; A = 1/n all along
    u, v = _coords(n, t, side)
    if side == "left":
        du, dv = mpf(1), mpf(-(n - 1))
    else:
        du, dv = mpf(-1) / (n - 1), mpf(1)
    lu, lv = mpmath.log(u), mpmath.log(v)
    g = mpmath.exp(((n - 1) * lu + lv) / n)
    ua, va = mpmath.exp(alpha * lu), mpmath.exp(alpha * lv)
    s = ((n - 1) * ua + va) / n
    p = s ** (1 / alpha)
    a = mpf(1) / n
    dg = g * ((n - 1) * du / u + dv / v) / n
    dp = p / s * ((n - 1) * ua / u * du + va / v * dv) / n
    return (a - g) / (p - g), -dg * (p - g) - (a - g) * (dp - dg)


def _scan_points(n: int):
    # a decade apart toward the endpoint, then toward the center
    far = [_T_MIN * mpf(10) ** k for k in range(0, 30)]  # to 0.1
    near = [1 - mpf(10) ** (-k / mpf(2)) for k in range(1, 13)]  # to 1 - 1e-6
    return [q / n for q in far + near]


def _refine(fun, lo, hi, flo, fhi):
    # Illinois false position on a sign change, to 1e-40 relative width
    side = 0
    for _ in range(400):
        if hi - lo <= mpf("1e-40") * hi:
            break
        mid = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < mid < hi:
            mid = (lo + hi) / 2
        fm = fun(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
            if side == 1:
                flo /= 2
            side = 1
        else:
            lo, flo = mid, fm
            if side == -1:
                fhi /= 2
            side = -1
    return (lo + hi) / 2


class UnreliableReference(RuntimeError):
    """The reference cannot vouch for a value (it never guesses)."""


def sharp_constants(n: int, alpha):
    """(inf, sup) of the gap ratio over the two-value family, as mpf.

    Candidates are the endpoint limits, the center value r, every scan
    point and every interior critical point of the ratio found from the
    sign changes of its slope.  alpha < 0 has inf = -inf: the ratio
    diverges as either coordinate vanishes.
    """
    if n < 3:
        raise ValueError("n >= 3")
    alpha = mpf(alpha)
    r = 1 / alpha
    values = [r]
    if alpha > 0:
        values.append(ratio(n, alpha, mpf(0), mpf(1)))
        values.append(ratio(n, alpha, mpf(1) / (n - 1), mpf(0)))
    for side in ("left", "right"):
        def slope(t, side=side):
            return _ratio_and_slope(n, alpha, t, side)[1]

        ts = _scan_points(n)
        scan = [_ratio_and_slope(n, alpha, t, side) for t in ts]
        values.extend(rv for rv, _ in scan)
        fs = [fv for _, fv in scan]
        for i in range(len(ts) - 1):
            if fs[i] == 0 or (fs[i] > 0) != (fs[i + 1] > 0):
                t = ts[i] if fs[i] == 0 else _refine(slope, ts[i], ts[i + 1], fs[i], fs[i + 1])
                values.append(ratio(n, alpha, *_coords(n, t, side)))
        if alpha > 0:
            # between the first scan point and the endpoint it approaches
            # the ratio must move the way its slope there says
            end = values[1] if side == "left" else values[2]
            rising_to_end = fs[0] < 0
            if rising_to_end != (end > scan[0][0]) and abs(end - scan[0][0]) > mpf("1e-30"):
                raise UnreliableReference(
                    f"an extremum may lie within {_T_MIN}/n of the {side} endpoint "
                    f"for n={n}, alpha={mpmath.nstr(alpha, 20)}"
                )
    lower = mpf("-inf") if alpha < 0 else min(values)
    return lower, max(values)


def profile_row(n: int, alpha, x) -> dict:
    """g, p, f, U, V, W and f' of the two-value tuple at x (an mpf)."""
    alpha = mpf(alpha)
    u, v = x, 1 - (n - 1) * x
    a, g, p = _means(n, alpha, u, v)
    lu, lv = mpmath.log(u), mpmath.log(v)
    s = u / v
    ls = lu - lv
    U = mpmath.expm1((1 - alpha) * ls) / ((1 - alpha) * (s - 1))
    V = ((n - 1) * mpmath.exp(alpha * ls) + 1) / n
    ua, va = mpmath.exp(alpha * lu), mpmath.exp(alpha * lv)
    sp = ((n - 1) * ua + va) / n
    dg = g * (n - 1) * (1 / u - 1 / v) / n
    dp = p / sp * (n - 1) * (ua / u - va / v) / n
    return {
        "g": g,
        "p": p,
        "f": (g - a) / (p - a),
        "U": U,
        "V": V,
        "W": U * V,
        "fprime": (dg * (p - a) - (g - a) * dp) / (p - a) ** 2,
    }


def power_sum(coords, r):
    r = mpf(r)
    return sum(mpf(c) ** r for c in coords)


# published figures the reference must reproduce
def self_check() -> list:
    """Return a list of failure messages; empty when every check holds."""
    failures = []
    lo, _ = sharp_constants(4, exponent("2"))
    if not mpf("0.402492") <= lo <= mpf("0.5"):
        failures.append(f"omega_2(4, alpha=2) = {mpmath.nstr(lo, 15)} not in [0.402492, 0.5]")
    _, hi = sharp_constants(3, exponent("-1"))
    if not mpf(-1) <= hi <= mpf("-0.5"):
        failures.append(f"omega_1(3, alpha=-1) = {mpmath.nstr(hi, 15)} not in [-1, -0.5]")
    # n = 1000 witness: 999 coordinates at x, the last at 1 - 999 x
    x = mpf("0.0010010008555648628")
    w = ratio(1000, exponent("-1"), x, 1 - 999 * x)
    if abs(w - mpf("-0.0090220392")) > mpf("5e-11"):
        failures.append(f"n = 1000 witness ratio {mpmath.nstr(w, 15)} != -0.0090220392")
    _, hi = sharp_constants(1000, exponent("-1"))
    if hi < w:
        failures.append("n = 1000 sharp constant lies below its own witness")
    return failures


if __name__ == "__main__":
    problems = self_check()
    for line in problems:
        print(f"reference self-check failed: {line}", file=sys.stderr)
    print("reference self-check: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)
