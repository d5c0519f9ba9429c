"""Deterministic scalar solver: safeguarded false position on a sign change.

The routines are derivative free and use only fixed arithmetic on the
bracket, so repeated runs are bit identical.  `find_root` refines a
bracket that already isolates the sign change by Illinois false position
(Dowell & Jarratt, BIT 1971), which falls back to bisection wherever the
secant step cannot be trusted; `search_outward` first finds such a
bracket by stepping away from a start point.  Every 1-d search of the
package runs through them: the W = 1 crossing mu and the extremum x* as
the sign change of f', both stepped out from the center side, and the
ends of the fixed sum-and-product curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

__all__ = [
    "Bracket",
    "BracketError",
    "MaxIterationsError",
    "SolveResult",
    "UncertifiedInstance",
    "find_root",
    "search_outward",
]

DEFAULT_ROOT_TOL = 1e-11
MAX_ITERATIONS = 200

# false-position steps in a row that may leave the bracket more than half
# as wide as before them; the next step bisects
_SECANT_STEPS = 3


class UncertifiedInstance(Exception):
    """A valid instance whose constants the solvers cannot certify."""


class BracketError(UncertifiedInstance, ValueError):
    """The supplied bracket is empty or does not isolate a root."""


class MaxIterationsError(UncertifiedInstance, RuntimeError):
    pass


@dataclass(frozen=True)
class Bracket:
    """Interval known to contain a sign change of the objective."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise BracketError(f"empty bracket [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class SolveResult:
    x_star: float
    value: float
    residual_or_width: float   # width of the final bracket
    iterations: int


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def find_root(
    objective: Callable[[float], float],
    bracket: Bracket,
    tol: float = DEFAULT_ROOT_TOL,
    max_iter: int = MAX_ITERATIONS,
) -> SolveResult:
    """Root of objective on the bracket, by safeguarded Illinois false position.

    Requires a sign change across the bracket; endpoint function values may
    be +-inf, only their sign is used.  Narrows the bracket until its width
    drops to tol, an exact zero is hit, or no double is left between the
    bracket's ends, and returns the last probe, one end of the final
    bracket, with its value.
    """
    _check_tol(tol)
    lo, hi = bracket.lo, bracket.hi
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
    return _refine(objective, lo, hi, flo, fhi, tol, max_iter, 0)


def search_outward(
    objective: Callable[[float], float],
    start: float,
    edge: float,
    tol: float = DEFAULT_ROOT_TOL,
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
            return _refine(objective, *ends, tol, MAX_ITERATIONS, probes)
        step *= 2.0
    raise BracketError(f"no sign change from {start} out to {edge}: f(edge)={fx}")


def _refine(objective, lo, hi, flo, fhi, tol, max_iter, probes) -> SolveResult:
    # Illinois false position on [lo, hi], flo and fhi of opposite signs and
    # nonzero.  The secant runs on copies of the end values, of which the
    # one kept twice in a row is halved.  A step within tol of an end moves
    # to tol past it, so the bracket closes to a width <= tol; where such a
    # step leaves it wider, the secant is off, and the next step bisects, as
    # it does after a non-finite end value, a secant outside the bracket, or
    # _SECANT_STEPS steps that did not halve the bracket.
    neg_lo = flo < 0.0
    slo, shi, kept = flo, fhi, 0
    width, steps = hi - lo, 0
    x, fx = (lo, flo) if abs(flo) < abs(fhi) else (hi, fhi)
    for it in range(1, max_iter + 1):
        if hi - lo <= tol:
            return SolveResult(x, fx, hi - lo, probes + it - 1)
        mid, moved = 0.5 * (lo + hi), False
        if steps < _SECANT_STEPS and math.isfinite(slo) and math.isfinite(shi):
            sec = hi - shi * ((hi - lo) / (shi - slo))
            inner = min(max(sec, lo + tol), hi - tol)
            if lo < inner < hi:
                mid, moved = inner, inner != sec
        if not lo < mid < hi:
            return SolveResult(x, fx, hi - lo, probes + it - 1)
        x, fx = mid, objective(mid)
        if fx == 0.0:
            return SolveResult(x, 0.0, hi - lo, probes + it)
        steps = _SECANT_STEPS if moved else steps + 1
        if (fx < 0.0) == neg_lo:
            lo, slo = x, fx
            if kept == 1:
                shi *= 0.5
            kept = 1
        else:
            hi, shi = x, fx
            if kept == -1:
                slo *= 0.5
            kept = -1
        if hi - lo <= 0.5 * width:
            width, steps = hi - lo, 0
    if hi - lo <= tol:
        return SolveResult(x, fx, hi - lo, probes + max_iter)
    raise MaxIterationsError(
        f"false position did not reach width {tol} in {max_iter} iterations"
    )
