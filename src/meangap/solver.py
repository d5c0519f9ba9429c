"""Deterministic scalar solver: Brent-Dekker narrowing of a sign change.

The routines are derivative free and use only fixed arithmetic on the
bracket, so repeated runs are bit identical.  `find_root(objective, lo,
hi, tol)` refines a bracket [lo, hi] that already isolates the sign
change by Brent-Dekker narrowing (zeroin; R. P. Brent, Algorithms for
Minimization without Derivatives, 1973): inverse quadratic or secant
steps, and bisection wherever those cannot be trusted; `search_outward`
first finds such a bracket by stepping away from a start point.  Every
1-d search of the package runs through them: the W = 1 crossing mu and
the extremum x* as the sign change of f', both stepped out on the
extremum's side of the center, and the ends of the fixed
sum-and-product curve.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Tuple

__all__ = [
    "BracketError",
    "MaxIterationsError",
    "SolveResult",
    "UncertifiedInstance",
    "find_root",
    "search_outward",
]

MAX_ITERATIONS = 200


class UncertifiedInstance(Exception):
    """A valid instance whose constants the solvers cannot certify."""


class BracketError(UncertifiedInstance, ValueError):
    """The supplied bracket is empty or does not isolate a root."""


class MaxIterationsError(UncertifiedInstance, RuntimeError):
    pass


class SolveResult(NamedTuple):
    x_star: float
    value: float
    width: float   # of the final bracket; 0.0 for a zero hit before one
    iterations: int


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def find_root(
    objective: Callable[[float], float], lo: float, hi: float, tol: float
) -> SolveResult:
    """Root of objective on the bracket [lo, hi], by Brent-Dekker narrowing.

    Requires lo < hi, else raises BracketError, and a sign change across
    the bracket; endpoint function values may be +-inf, only their sign is
    used.  Narrows the bracket until its width drops to tol, an exact zero
    is hit, or no double is left between the bracket's ends, and returns
    the end of the final bracket with the smaller |objective|, with its
    value and the bracket's width: the other end is x_star plus or minus
    that width.
    """
    _check_tol(tol)
    if not lo < hi:
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    flo = objective(lo)
    if flo == 0.0:
        return SolveResult(lo, 0.0, 0.0, 0)
    fhi = objective(hi)
    if fhi == 0.0:
        return SolveResult(hi, 0.0, 0.0, 0)
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    return _refine(objective, lo, hi, flo, fhi, tol, 0)


def search_outward(
    objective: Callable[[float], float],
    start: float,
    edge: float,
    tol: float,
    f_start: Optional[float] = None,
    guess: Optional[Tuple[float, float]] = None,
) -> SolveResult:
    """The sign change of objective nearest start on the way to edge.

    Steps from start toward edge by 1, 2, 4, ..., with edge itself as the
    last probe, until the objective's sign differs from its sign at start,
    then narrows the last step as `find_root` does.  f_start, if given, is
    the objective's value at start, which is then not probed again.

    A guess (point, step) strictly between start and edge is probed first:
    where its sign is the one at start, the steps step, 2 step, 4 step, ...
    go on from it toward edge, and otherwise back toward start.  Where the
    objective has one sign change between start and edge, that is the one
    found either way.  `iterations` counts every probe after the one at
    start.  Raises BracketError if edge is reached without a sign change.
    """
    _check_tol(tol)
    fs = objective(start) if f_start is None else f_start
    if fs == 0.0:
        return SolveResult(start, 0.0, 0.0, 0)
    x, fx, target, step, probes = start, fs, edge, 1.0, 0
    if guess is not None and min(start, edge) < guess[0] < max(start, edge):
        x, step = guess
        fx, probes = objective(x), 1
        if fx == 0.0:
            return SolveResult(x, 0.0, 0.0, probes)
        if (fx > 0.0) != (fs > 0.0):
            target = start
    # no step below tol: the last one is narrowed to tol anyway, and a
    # zero step would never move
    step = math.copysign(max(step, tol), target - x)
    while x != target:
        near, f_near = x, fx
        x = x + step if abs(step) < abs(target - x) else target
        if x == start:
            fx = fs
        else:
            fx = objective(x)
            probes += 1
        if fx == 0.0:
            return SolveResult(x, 0.0, 0.0, probes)
        if (fx > 0.0) != (f_near > 0.0):
            ends = (x, near, fx, f_near) if x < near else (near, x, f_near, fx)
            return _refine(objective, *ends, tol, probes)
        step *= 2.0
    raise BracketError(f"no sign change from {start} out to {edge}: f(edge)={fx}")


def _refine(objective, lo, hi, flo, fhi, tol, probes) -> SolveResult:
    # Brent-Dekker narrowing (zeroin; Brent 1973) of [lo, hi], flo and fhi
    # of opposite signs and nonzero.  b is the end with the smaller |f|, c
    # the other end and a the b before.  The step is inverse quadratic
    # through a, b and c, or the secant of b and c where a is c; it bisects
    # where that step leaves the near three quarters of the bracket or is
    # not half the step before last, and after a non-finite end value.  A
    # step below tol/2 moves tol/2 toward c, or to the next double where
    # that rounds onto b, so the bracket closes to a width <= tol or to
    # adjacent doubles.
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc, half = a, fa, 0.5 * tol
    d = e = b - a
    inf = math.inf
    for it in range(MAX_ITERATIONS + 1):
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        width = abs(c - b)
        if width <= tol or fb == 0.0:
            return SolveResult(b, fb, width, probes + it)
        if it == MAX_ITERATIONS:
            break
        xm = 0.5 * (c - b)
        if abs(e) >= half and abs(fa) > abs(fb) and -inf < fa < inf and -inf < fc < inf:
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # the smaller of the two limits as min() takes it, a nan
            # included: the first unless the second is below it
            limit, eq = 3.0 * xm * q - abs(half * q), abs(e * q)
            if 2.0 * p < (eq if eq < limit else limit):
                e, d = d, p / q
            else:
                e = d = xm
        else:
            e = d = xm
        a, fa = b, fb
        x = b + (d if abs(d) > half else math.copysign(half, xm))
        if x == b or x == c:
            x = math.nextafter(b, c)
            if x == c:
                return SolveResult(b, fb, width, probes + it)
        b, fb = x, objective(x)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise MaxIterationsError(
        f"Brent-Dekker narrowing did not reach width {tol} in {MAX_ITERATIONS} iterations"
    )
