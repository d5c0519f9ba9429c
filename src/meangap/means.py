"""Power means on nonnegative tuples, and the mean-gap ratio they induce.

The central quantity is

    ratio_gap(xs, alpha) = (A - G) / (P_alpha - G)

where A, G and P_alpha are the arithmetic, geometric and alpha-power means
of xs.  The ratio is scale invariant and extends by continuity to constant
tuples, where its value is r = 1/alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "DegenerateZeroError",
    "ExponentPair",
    "SampleVector",
    "arithmetic_mean",
    "geometric_mean",
    "power_mean",
    "ratio_gap",
]

# relative spread below which a tuple is treated as constant
EQUAL_SPREAD_TOL = 1e-13


class DegenerateZeroError(ValueError):
    """A zero coordinate met a negative exponent: the gap ratio diverges."""


@dataclass(frozen=True)
class ExponentPair:
    """A power-mean exponent alpha together with its reciprocal r = 1/alpha.

    Both are kept explicit because the reduced one-variable analysis is
    phrased in r while user input is phrased in alpha.  alpha in {0, 1}
    is rejected: the gap ratio is undefined at 0 and trivial at 1.
    """

    alpha: float
    r: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha) or self.alpha in (0.0, 1.0):
            raise ValueError(f"alpha must be finite and not 0 or 1, got {self.alpha}")
        if abs(self.alpha * self.r - 1.0) > 1e-12:
            raise ValueError(f"inconsistent pair: alpha={self.alpha}, r={self.r}")

    @classmethod
    def from_alpha(cls, alpha: float) -> "ExponentPair":
        alpha = float(alpha)
        if alpha == 0.0 or alpha == 1.0 or not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite and not 0 or 1, got {alpha}")
        return cls(alpha=alpha, r=1.0 / alpha)

    @classmethod
    def from_r(cls, r: float) -> "ExponentPair":
        r = float(r)
        if r == 0.0 or r == 1.0 or not math.isfinite(r):
            raise ValueError(f"r must be finite and not 0 or 1, got {r}")
        return cls(alpha=1.0 / r, r=r)


@dataclass(frozen=True)
class SampleVector:
    """An ordered tuple of nonnegative reals, typically a simplex point."""

    xs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) < 1:
            raise ValueError("empty sample")
        if any((not math.isfinite(x)) or x < 0.0 for x in self.xs):
            raise ValueError("coordinates must be finite and nonnegative")

    @property
    def n(self) -> int:
        return len(self.xs)

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(math.fsum(self.xs) - 1.0) <= tol


def _coords(xs: Sequence[float] | SampleVector) -> Sequence[float]:
    return xs.xs if isinstance(xs, SampleVector) else xs


def arithmetic_mean(xs: Sequence[float] | SampleVector) -> float:
    xs = _coords(xs)
    if not xs:
        raise ValueError("empty sample")
    return math.fsum(xs) / len(xs)


def geometric_mean(xs: Sequence[float] | SampleVector) -> float:
    xs = _coords(xs)
    if not xs:
        raise ValueError("empty sample")
    if any(x == 0.0 for x in xs):
        return 0.0
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))


def power_mean(xs: Sequence[float] | SampleVector, alpha: float) -> float:
    """Mean of order alpha; alpha = 0 means the geometric-mean limit.

    For alpha < 0 a zero coordinate gives 0, the limit value of the mean.
    Evaluation is normalized by the largest coordinate for alpha > 0 and
    by the smallest for alpha < 0, so that every normalized power is at
    most 1: the result is scale exact and safe for large |alpha|.
    """
    xs = _coords(xs)
    if not xs:
        raise ValueError("empty sample")
    if alpha == 0.0:
        return geometric_mean(xs)
    n = len(xs)
    if any(x == 0.0 for x in xs):
        if alpha < 0.0:
            return 0.0
        # zero terms contribute nothing for alpha > 0
        pos = [x for x in xs if x > 0.0]
        if not pos:
            return 0.0
        m = max(pos)
        acc = math.fsum((x / m) ** alpha for x in pos)
        return m * (acc / n) ** (1.0 / alpha)
    m = max(xs) if alpha > 0.0 else min(xs)
    acc = math.fsum((x / m) ** alpha for x in xs)
    return m * (acc / n) ** (1.0 / alpha)


def _is_constant(xs: Sequence[float]) -> bool:
    hi = max(xs)
    lo = min(xs)
    return hi - lo <= EQUAL_SPREAD_TOL * hi


def ratio_gap(xs: Sequence[float] | SampleVector, e: ExponentPair) -> float:
    """(A - G) / (P_alpha - G) for the tuple xs.

    Constant tuples take the continuity value r = 1/alpha.  For alpha > 0
    a zero coordinate is fine (G = 0, the ratio degrades to A / P_alpha);
    for alpha < 0 it would send the ratio to -infinity, so the call raises
    DegenerateZeroError instead of returning an IEEE infinity.
    """
    xs = _coords(xs)
    if len(xs) < 2:
        raise ValueError("need at least two coordinates")
    if all(x == 0.0 for x in xs):
        raise ValueError("all-zero sample")
    if any(x == 0.0 for x in xs):
        if e.alpha < 0.0:
            raise DegenerateZeroError(
                "zero coordinate with alpha < 0: the gap ratio is unbounded below"
            )
        return arithmetic_mean(xs) / power_mean(xs, e.alpha)
    if _is_constant(xs):
        return e.r
    a = arithmetic_mean(xs)
    g = geometric_mean(xs)
    p = power_mean(xs, e.alpha)
    return (a - g) / (p - g)
