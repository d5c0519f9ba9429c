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
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .means import ExponentPair
from .profile import Side
from .solver import BracketError, UncertifiedInstance, search_outward

__all__ = [
    "MU_OFFSET",
    "CriticalPoint",
    "Regime",
    "RegimeTag",
    "classify",
    "locate_mu",
]

# search for the W = 1 crossing starts this far from the center, relative
# to it in the small coordinate: at t = (1 - 1e-6)/n
MU_OFFSET = 1e-6

# width of the final bracket of the crossing search, in v = log(n t/(1 - n t))
_MU_TOL = 1e-14

# v of the search's start (1 - MU_OFFSET)/n
_MU_START = math.log((1.0 - MU_OFFSET) / MU_OFFSET)


class RegimeTag(enum.Enum):
    NEG_R = "NEG_R"
    FRAC_R = "FRAC_R"
    LOW_R_SMALL_N = "LOW_R_SMALL_N"
    LOW_R_LARGE_N = "LOW_R_LARGE_N"
    HIGH_R_SMALL_N = "HIGH_R_SMALL_N"
    HIGH_R_LARGE_N = "HIGH_R_LARGE_N"


@dataclass(frozen=True)
class Regime:
    """Shape of the profile f in one regime, shared by all its instances.

    nu_kind says whether f has an interior minimum or maximum, and nu_side
    on which side of x = 1/n it lives, beyond the W = 1 crossing on the
    same side; label names its certified constant omega.  The two
    monotone regimes have nu_kind "none" and no side or label: there f is
    strictly increasing and the extremes sit at the domain ends.
    """

    tag: RegimeTag
    nu_kind: str  # "min" | "max" | "none"
    nu_side: Optional[str]  # "left" | "right" | None
    label: Optional[str]  # "omega_1" .. "omega_4" | None


class CriticalPoint(NamedTuple):
    """Located W = 1 crossing with its certificate."""

    mu: float
    residual: float
    # mu in the small coordinate of its side, which keeps the digits that
    # mu itself loses next to x = 1/(n-1)
    t: float


# the one record of each regime, which `classify` returns as it is
_NEG_R = Regime(RegimeTag.NEG_R, "min", "right", "omega_1")
_FRAC_R = Regime(RegimeTag.FRAC_R, "max", "left", "omega_2")
_LOW_R_SMALL_N = Regime(RegimeTag.LOW_R_SMALL_N, "min", "left", "omega_3")
_LOW_R_LARGE_N = Regime(RegimeTag.LOW_R_LARGE_N, "none", None, None)
_HIGH_R_SMALL_N = Regime(RegimeTag.HIGH_R_SMALL_N, "max", "right", "omega_4")
_HIGH_R_LARGE_N = Regime(RegimeTag.HIGH_R_LARGE_N, "none", None, None)


def classify(n: int, e: ExponentPair) -> Regime:
    """The monotonicity regime of an (n, exponent) instance.

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
        return _NEG_R
    if r < 1.0:
        return _FRAC_R
    if r > 2.0:
        return _HIGH_R_LARGE_N if n >= r else _HIGH_R_SMALL_N
    # 1 < r <= 2
    return _LOW_R_SMALL_N if n < r / (r - 1.0) else _LOW_R_LARGE_N


def locate_mu(side: Side, guess: Optional[Tuple[float, float]] = None) -> CriticalPoint:
    """Locate the W = 1 crossing on the side of a turning regime's extremum.

    Searches in the coordinate v = log(n t/(1 - n t)) of the side's small
    coordinate t, from t = (1 - 1e-6)/n out to the side's far edge t_min,
    where W has a known limit.  After the sign of W - 1 at that start, it
    probes the middle of the side, n t = 1/2 (v = 0), first where that lies
    inside, and steps on from there by 1, 2, 4, ... in v toward t_min, or
    back toward the start where W - 1 has changed sign by then; it narrows
    the last step to a width of _MU_TOL in v (`solver.search_outward`).  A guess (v, step), such as the
    crossing at a neighbouring n, is probed and stepped from instead of the
    middle; the start changes where the search goes, not the crossing it
    finds.  A crossing within _MU_TOL of t_min, or where W rounds to 1 out
    to t_min, is refused, as it leaves no room for the extremum beyond it;
    so is a side whose t_min rounds to the center 1/n, as it does past
    |alpha| of about 3e18.
    """
    t_end = side.t_min
    if side.params.n * t_end == 1.0:
        # v of the center is log(1/0)
        raise UncertifiedInstance(
            f"the far edge t_min = {t_end!r} of the {side.side} side rounds "
            f"to the center 1/n, leaving no room for the W = 1 crossing search"
        )
    edge = side.v(t_end)
    start = max(_MU_START, edge)
    try:
        result = search_outward(
            side.objective("W"), start, edge, tol=_MU_TOL,
            guess=(0.0, 1.0) if guess is None else guess,
        )
    except BracketError:
        raise BracketError(
            f"no W = 1 crossing found on the {side.side} side for "
            f"n={side.params.n}, r={side.params.e.r}"
        ) from None
    # W tends to 1 at the end of the side at some instances: a crossing
    # where W - 1 rounds to 0 and W rounds to 1 at t_min as well is that
    # approach, not a crossing that can be told from the far edge
    at_edge = result.value == 0.0 and side.W(t_end) == 1.0
    if result.x_star - edge <= _MU_TOL or at_edge:
        raise UncertifiedInstance(
            f"the W = 1 crossing lies at the far edge t_min = {t_end!r} "
            f"of the {side.side} side, leaving no room for the extremum search"
        )
    t_mu = side.t(result.x_star)
    return CriticalPoint(mu=side.x(t_mu), residual=abs(result.value), t=t_mu)
