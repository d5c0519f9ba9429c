"""Deterministic scalar solver: bisection on a sign change.

The routine is derivative free and uses only fixed arithmetic on the
bracket, so repeated runs are bit identical.  It is deliberately plain;
callers are expected to supply brackets that already isolate the sign
change they are looking for.  Every 1-d search of the package runs
through it: the W = 1 crossing mu, the extremum x* as the sign change of
f', and the ends of the fixed sum-and-product curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Bracket",
    "BracketError",
    "MaxIterationsError",
    "SolveResult",
    "UncertifiedInstance",
    "find_root",
]

DEFAULT_ROOT_TOL = 1e-11
MAX_ITERATIONS = 200


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

    @property
    def width(self) -> float:
        return self.hi - self.lo


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
    """Bisection root of objective on the bracket.

    Requires a sign change across the bracket; endpoint function values may
    be +-inf, only their sign is used.  Bisects until the bracket width
    drops below tol, an exact zero is hit, or no double is left between
    the bracket's ends.
    """
    _check_tol(tol)
    lo, hi = bracket.lo, bracket.hi
    flo = objective(lo)
    fhi = objective(hi)
    if flo == 0.0:
        return SolveResult(lo, 0.0, 0.0, 0)
    if fhi == 0.0:
        return SolveResult(hi, 0.0, 0.0, 0)
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    neg_lo = flo < 0.0
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        fm = objective(mid)
        if fm == 0.0 or hi - lo <= tol or mid in (lo, hi):
            return SolveResult(mid, fm, hi - lo, it)
        if (fm < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if hi - lo <= tol:
        return SolveResult(mid, objective(mid), hi - lo, max_iter)
    raise MaxIterationsError(
        f"bisection did not reach width {tol} in {max_iter} iterations"
    )
