"""Classification of (n, r) instances into monotonicity regimes.

The shape of the gap-ratio profile f on (0, 1/(n-1)) is controlled by
where the turning weight W crosses 1.  Six regimes cover all admissible
(n, r); four of them have an interior crossing mu on a known side of
x = 1/n, and the profile attains exactly one interior extremum (nu, at
x_star) beyond it.  In the remaining two regimes f is monotone and the
extremes sit at the domain endpoints in closed form.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .means import ExponentPair
from .profile import ProfileParams, Side, W_func
from .solver import Bracket, BracketError, find_root

__all__ = [
    "MU_OFFSET",
    "CriticalPoint",
    "FShape",
    "Regime",
    "RegimeTag",
    "classify",
    "locate_mu",
]

logger = logging.getLogger(__name__)

# search for the W = 1 crossing starts this far from the center, relative
# to it in the small coordinate: at t = (1 - 1e-6)/n
MU_OFFSET = 1e-6

# width of the final bracket of the crossing search, in log t
_MU_TOL = 1e-14

# doublings of the distance from the center before the search gives up
_MAX_EXPAND = 64


class RegimeTag(enum.Enum):
    NEG_R = "NEG_R"
    FRAC_R = "FRAC_R"
    LOW_R_SMALL_N = "LOW_R_SMALL_N"
    LOW_R_LARGE_N = "LOW_R_LARGE_N"
    HIGH_R_SMALL_N = "HIGH_R_SMALL_N"
    HIGH_R_LARGE_N = "HIGH_R_LARGE_N"


@dataclass(frozen=True)
class FShape:
    """Qualitative shape of the profile f in a regime.

    nu_side says on which side of x = 1/n the interior extremum lives;
    it is None for the two monotone regimes, where f is strictly
    increasing and the extremes sit at the domain ends.
    """

    nu_kind: str  # "min" | "max" | "none"
    nu_side: Optional[str]  # "left" | "right" | None


@dataclass(frozen=True)
class Regime:
    """Resolved regime for one (n, r) instance."""

    tag: RegimeTag
    n: int
    e: ExponentPair
    # side of x = 1/n on which W - 1 crosses zero ("left" | "right"),
    # None when the regime has no interior crossing
    mu_side: Optional[str]
    f_shape: FShape


@dataclass(frozen=True)
class CriticalPoint:
    """Located W = 1 crossing with its certificate."""

    mu: float
    residual: float
    iterations: int
    # mu in the small coordinate of its side, which keeps the digits that
    # mu itself loses next to x = 1/(n-1)
    t: float


_SHAPES = {
    RegimeTag.NEG_R: FShape(nu_kind="min", nu_side="right"),
    RegimeTag.FRAC_R: FShape(nu_kind="max", nu_side="left"),
    RegimeTag.LOW_R_SMALL_N: FShape(nu_kind="min", nu_side="left"),
    RegimeTag.LOW_R_LARGE_N: FShape(nu_kind="none", nu_side=None),
    RegimeTag.HIGH_R_SMALL_N: FShape(nu_kind="max", nu_side="right"),
    RegimeTag.HIGH_R_LARGE_N: FShape(nu_kind="none", nu_side=None),
}


def classify(n: int, e: ExponentPair) -> Regime:
    """Assign an (n, exponent) instance to its monotonicity regime.

    Boundary conventions: r == 2 and, for r in (1, 2), n == r/(r-1) both
    fall into LOW_R_LARGE_N; for r > 2, n == r falls into
    HIGH_R_LARGE_N.
    """
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"n must be an integer >= 3, got {n!r}")
    if not isinstance(e, ExponentPair):
        raise TypeError(f"e must be an ExponentPair, got {type(e).__name__}")
    r = e.r
    if r < 0.0:
        tag = RegimeTag.NEG_R
    elif r < 1.0:
        tag = RegimeTag.FRAC_R
    elif r > 2.0:
        tag = RegimeTag.HIGH_R_LARGE_N if n >= r else RegimeTag.HIGH_R_SMALL_N
    else:
        # 1 < r <= 2
        tag = (
            RegimeTag.LOW_R_SMALL_N
            if n < r / (r - 1.0)
            else RegimeTag.LOW_R_LARGE_N
        )
    shape = _SHAPES[tag]
    # the W = 1 crossing sits on the same side of x = 1/n as the extremum
    return Regime(tag=tag, n=n, e=e, mu_side=shape.nu_side, f_shape=shape)


def _scan_crossings(params: ProfileParams, lo: float, hi: float) -> int:
    # coarse diagnostic scan for sign changes of W - 1 at 257 points
    # strictly inside (lo, hi), however narrow the side
    xs = np.linspace(lo, hi, 259)[1:-1]
    vals = W_func(xs, params) - 1.0
    vals = vals[np.isfinite(vals) & (vals != 0.0)]
    if vals.size < 2:
        return 0
    return int(np.sum(np.signbit(vals[1:]) != np.signbit(vals[:-1])))


def locate_mu(params: ProfileParams, regime: Regime) -> Optional[CriticalPoint]:
    """Locate the interior W = 1 crossing, or None if the regime has none.

    Searches in the small coordinate t of the regime's side
    (`profile.Side`): starts at t = (1 - 1e-6)/n, doubles the distance
    from the center 1/n until W - 1 changes sign (the side's far edge
    t_min, where W has a known limit, serves as the final stop), then
    bisects in log t to a width of _MU_TOL.  A coarse scan of the same range
    afterwards logs a warning if more than one crossing is visible.
    """
    if params.n != regime.n or params.e != regime.e:
        raise ValueError(
            f"params (n={params.n}, r={params.e.r}) do not match the "
            f"regime (n={regime.n}, r={regime.e.r})"
        )
    if regime.mu_side is None:
        return None
    n = regime.n
    side = Side(params, regime.mu_side)
    center = 1.0 / n
    t_end = side.t_min

    def objective(s: float) -> float:
        return side.W(math.exp(s)) - 1.0

    d = MU_OFFSET / n
    t_prev = max(center - d, t_end)
    f_prev = side.W(t_prev) - 1.0
    bracket = None
    for _ in range(_MAX_EXPAND):
        d *= 2.0
        t_new = max(center - d, t_end)
        f_new = side.W(t_new) - 1.0
        if f_new == 0.0 or (f_new > 0) != (f_prev > 0):
            bracket = (t_new, t_prev)
            break
        if t_new == t_end:
            break
        t_prev, f_prev = t_new, f_new
    if bracket is None:
        raise BracketError(
            f"no W = 1 crossing found on the {regime.mu_side} side for "
            f"n={n}, r={regime.e.r}"
        )
    result = find_root(
        objective, Bracket(math.log(bracket[0]), math.log(bracket[1])), tol=_MU_TOL
    )
    lo, hi = sorted((center, side.x(t_end)))
    crossings = _scan_crossings(params, lo, hi)
    if crossings > 1:
        logger.warning(
            "W - 1 changes sign %d times on the %s side for n=%d, r=%g; "
            "using the crossing nearest x = 1/n",
            crossings,
            regime.mu_side,
            n,
            regime.e.r,
        )
    t_mu = math.exp(result.x_star)
    return CriticalPoint(
        mu=side.x(t_mu),
        residual=abs(result.value),
        iterations=result.iterations,
        t=t_mu,
    )
