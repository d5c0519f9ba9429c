"""Classification of (n, r) instances into monotonicity regimes.

The shape of the gap-ratio profile f on [0, 1/(n-1)] is controlled by
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

    nu_index numbers the interior extremum 1..4 in the order
    NEG_R, FRAC_R, LOW_R_SMALL_N, HIGH_R_SMALL_N; it is None for the
    two monotone regimes.  nu_side says on which side of x = 1/n the
    extremum lives.
    """

    nu_index: Optional[int]
    nu_kind: str  # "min" | "max" | "none"
    nu_side: Optional[str]  # "left" | "right" | None
    description: str


@dataclass(frozen=True)
class Regime:
    """Resolved regime for one (n, r) instance."""

    tag: RegimeTag
    n: int
    e: ExponentPair
    has_mu: bool
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
    RegimeTag.NEG_R: FShape(
        nu_index=1,
        nu_kind="min",
        nu_side="right",
        description=(
            "f drops from 1 at x=0, dips to an interior minimum right of "
            "the crossing, and climbs back to 1"
        ),
    ),
    RegimeTag.FRAC_R: FShape(
        nu_index=2,
        nu_kind="max",
        nu_side="left",
        description=(
            "f rises from its left endpoint value to an interior maximum "
            "left of the crossing, then decreases through x = 1/n"
        ),
    ),
    RegimeTag.LOW_R_SMALL_N: FShape(
        nu_index=3,
        nu_kind="min",
        nu_side="left",
        description=(
            "f falls from its left endpoint value to an interior minimum "
            "left of the crossing, then increases through x = 1/n"
        ),
    ),
    RegimeTag.LOW_R_LARGE_N: FShape(
        nu_index=None,
        nu_kind="none",
        nu_side=None,
        description="f is strictly increasing; extremes sit at the endpoints",
    ),
    RegimeTag.HIGH_R_SMALL_N: FShape(
        nu_index=4,
        nu_kind="max",
        nu_side="right",
        description=(
            "f rises through x = 1/n to an interior maximum right of the "
            "crossing, then falls to its right endpoint value"
        ),
    ),
    RegimeTag.HIGH_R_LARGE_N: FShape(
        nu_index=None,
        nu_kind="none",
        nu_side=None,
        description="f is strictly increasing; extremes sit at the endpoints",
    ),
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
    # the W = 1 crossing sits on the same side of x = 1/n as the extremum
    side = _SHAPES[tag].nu_side
    return Regime(
        tag=tag,
        n=n,
        e=e,
        has_mu=side is not None,
        mu_side=side,
        f_shape=_SHAPES[tag],
    )


def _scan_crossings(params: ProfileParams, lo: float, hi: float) -> int:
    # coarse diagnostic scan for sign changes of W - 1 on (lo, hi)
    xs = np.linspace(lo, hi, 257)
    vals = W_func(xs, params) - 1.0
    vals = vals[np.isfinite(vals) & (vals != 0.0)]
    if vals.size < 2:
        return 0
    return int(np.sum(np.signbit(vals[1:]) != np.signbit(vals[:-1])))


def locate_mu(
    params: ProfileParams,
    regime: Regime,
    tol: float = 1e-14,
    max_expand: int = 64,
) -> Optional[CriticalPoint]:
    """Locate the interior W = 1 crossing, or None if the regime has none.

    Searches in the small coordinate t of the regime's side
    (`profile.Side`): starts at t = (1 - 1e-6)/n, doubles the distance
    from the center 1/n until W - 1 changes sign (the side's far edge
    t_min, where W has a known limit, serves as the final stop), then
    bisects in log t to a width of tol.  A coarse scan of the same range
    afterwards logs a warning if more than one crossing is visible.
    """
    if params.n != regime.n or params.e != regime.e:
        raise ValueError(
            f"params (n={params.n}, r={params.e.r}) do not match the "
            f"regime (n={regime.n}, r={regime.e.r})"
        )
    if not regime.has_mu:
        return None
    n = regime.n
    side = Side(params, regime.mu_side)
    center = 1.0 / n
    t_end = side.t_min

    def objective(s: float) -> float:
        return side.W(math.exp(s)) - 1.0

    d = MU_OFFSET / n
    t_prev = center - d
    f_prev = side.W(t_prev) - 1.0
    bracket = None
    for _ in range(max_expand):
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
        objective, Bracket(math.log(bracket[0]), math.log(bracket[1])), tol=tol
    )
    lo, hi = sorted((center, side.x(t_end)))
    crossings = _scan_crossings(params, lo + 1e-12, hi - 1e-12)
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
