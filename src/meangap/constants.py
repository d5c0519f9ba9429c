"""Best-constant certificates for the mean gap ratio.

For fixed n >= 3 and mean order alpha = 1/r, the ratio
(A - G) / (P_alpha - G) over the open simplex is pinned between a lower
and an upper constant.  Depending on the regime each constant is either
a closed-form endpoint value of the two-value profile or a certified
interior extremum: the profile minimum or maximum nu at x_star, located
beyond the W = 1 crossing mu as the sign change of f' in the small
coordinate, and mapped to the ratio scale by the involution
omega = nu / (nu - 1).

`best_constants` produces an `ExtremumCertificate` holding the bounds,
the located critical data, a-priori sanity brackets, and the tolerances
used, ready for JSON serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .means import (
    ExponentPair,
    arithmetic_mean,
    geometric_mean,
    power_mean,
    ratio_gap,
)
from .profile import ProfileParams, Side
from .regimes import RegimeTag, classify, locate_mu
from .solver import UncertifiedInstance, search_outward

__all__ = [
    "BRACKET_SLACK",
    "EPS_HAT",
    "EXTREMUM_TOL",
    "ExtremumCertificate",
    "InterpolationConstants",
    "augment_with_gm",
    "best_constants",
    "interpolation_constants",
    "power_form_check",
    "ratio_from_f",
    "sweep_constants",
    "wen_reference",
]

# endpoint margin numerator: the oracle's offset points and the profile
# table stay 1e-9/n away from the domain ends
EPS_HAT = 1e-9

# width of the final bracket of the extremum search, in v = log(n t/(1 - n t)),
# for every certificate: a narrower one moves no constant beyond rounding,
# and wider ones move nearly every constant inward, past the sharp value
# (README, numerical notes)
EXTREMUM_TOL = 1e-10

# slack for the a-priori bracket cross-checks on certified constants
BRACKET_SLACK = 1e-9

# largest n with a certified extremum: the power sum forms P - 1 with a
# relative rounding of about n eps, and at alpha = -1 and -1/2 the bound
# missed the 80-digit sharp constant by up to 1.1e-5 relative at n <= 2^44
# and by 1.3e-5 to 0.22 at n = 2^45..2^50
_MAX_EXTREMUM_N = 2**44


def ratio_from_f(fval: float) -> float:
    """Map a profile value f to the gap ratio via the involution f/(f-1).

    The map is its own inverse and is strictly decreasing on each branch;
    fval = 1 corresponds to an unbounded ratio and is rejected.
    """
    fval = float(fval)
    if fval == 1.0:
        raise ValueError("f = 1 maps to an unbounded ratio")
    return fval / (fval - 1.0)


def _endpoint_values(n: int, r: float) -> Tuple[float, float]:
    # ratio limits at x = 0 and x = 1/(n-1), valid for r > 0
    return (n ** (r - 1.0), (n / (n - 1.0)) ** (r - 1.0))


def wen_reference(n: int, r: float) -> Optional[float]:
    """Classical two-term comparison value (r/(n-1)) * ((2-r)(n-1)/(1+(1-r)(n-1)))^(2-r).

    Defined here for r < 1; a certified lower constant for 0 < r < 1, and
    recorded as an observation only for r < 0.
    """
    if r >= 1.0:
        return None
    base = (2.0 - r) * (n - 1) / (1.0 + (1.0 - r) * (n - 1))
    return (r / (n - 1)) * base ** (2.0 - r)


class ExtremumCertificate(NamedTuple):
    """Certified extremal constants for one (n, alpha) instance.

    An immutable named tuple: `_replace` gives a copy with changes.  Its
    payload is the dict of `to_payload`; the JSON writer refuses the
    record itself, as it refuses any named tuple.
    """

    n: int
    e: ExponentPair
    regime: RegimeTag
    lower_bound: float
    upper_bound: float
    lower_kind: str  # "closed-form" | "certified-extremum" | "unbounded"
    upper_kind: str
    tol: Dict[str, float]
    # the critical data of a turning regime; a monotone one has none
    mu: Optional[float] = None
    mu_residual: Optional[float] = None
    nu: Optional[float] = None
    nu_kind: str = "none"  # "min" | "max" | "none"
    x_star: Optional[float] = None
    omega: Optional[float] = None
    omega_bracket: Optional[Tuple[float, float]] = None
    wen_observed: Optional[float] = None
    # mu and x_star in v = log(n t/(1 - n t)) of their side's small
    # coordinate t, which keeps the digits that x loses next to 1/(n-1),
    # for a sweep to start the next n from; not part of the payload
    v: Optional[Tuple[float, float]] = None

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.e.alpha,
            "r": self.e.r,
            "regime": self.regime.value,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "lower_kind": self.lower_kind,
            "upper_kind": self.upper_kind,
            "mu": self.mu,
            "mu_residual": self.mu_residual,
            "nu": self.nu,
            "nu_kind": self.nu_kind,
            "x_star": self.x_star,
            "omega": self.omega,
            "omega_bracket": self.omega_bracket,
            "wen_observed": self.wen_observed,
            "tol": dict(sorted(self.tol.items())),
        }


def _check_bracket(omega: float, bracket: Tuple[float, float], label: str) -> None:
    lo, hi = bracket
    if omega < lo - BRACKET_SLACK or omega > hi + BRACKET_SLACK:
        raise UncertifiedInstance(
            f"certified constant {label} = {omega} violates its a-priori "
            f"bracket [{lo}, {hi}]"
        )


def best_constants(
    n: int,
    e: ExponentPair,
    guess: Optional[Tuple[Tuple[float, float], Tuple[float, float]]] = None,
) -> ExtremumCertificate:
    """Compute the certified extremal constants for (n, alpha = 1/r).

    Dispatches on the regime of (n, r): monotone regimes get closed-form
    endpoint bounds; the four turning regimes additionally locate mu, the
    interior extremum nu of the profile on the regime's side, and the
    certified constant omega = nu/(nu-1).  The extremum is the sign change
    of f' nearest mu on the way to the side's far edge: stepped out from mu
    and narrowed by Brent-Dekker steps in v = log(n t/(1 - n t)) (t the small
    coordinate, `profile.Side`) to a bracket of width EXTREMUM_TOL.  guess,
    if given, holds a (v, step) start for the mu search and one for the x*
    search (`solver.search_outward`), such as the solution at a
    neighbouring n; the regime has one crossing and one extremum, so it
    moves only where the searches start and where they stop within their
    widths.
    A turning instance with n above 2^44 is refused before the searches.
    """
    params = ProfileParams(n=n, e=e)
    regime = classify(n, e)
    r = e.r
    tolerances = {"nu_bracket_width": EXTREMUM_TOL, "omega_abs": 1e-12}
    # for r > 0 the ratio's limits at the two ends of the segment bound it;
    # for r < 0 it is unbounded below, and its one turning regime bounds it
    # above by omega
    ends = _endpoint_values(n, r)
    lower, upper = min(ends), max(ends)
    lower_kind = upper_kind = "closed-form"
    if r < 0.0:
        lower, lower_kind = -math.inf, "unbounded"

    if regime.nu_side is None:
        return ExtremumCertificate(
            n=n, e=e, regime=regime.tag, lower_bound=lower, upper_bound=upper,
            lower_kind=lower_kind, upper_kind=upper_kind, tol=tolerances)

    if n > _MAX_EXTREMUM_N:
        raise UncertifiedInstance(
            f"n = {n} exceeds 2^44: the power sum keeps P - 1 only to about "
            f"n eps = {n * math.ulp(1.0):.1e} relative, too coarse "
            f"to certify the extremum"
        )
    side = Side(params, regime.nu_side)
    cp = locate_mu(side, None if guess is None else guess[0])
    tolerances["mu_residual"] = cp.residual
    slope = side.objective("f_prime")
    start, edge = side.v(cp.t), side.v(side.t_min)
    # the regime has exactly one extremum beyond mu, so f' has opposite
    # signs at mu and at the far edge unless the extremum lies past t_min;
    # a first sign change found with the same sign at both ends is rounding
    f_start = slope(start)
    if (f_start > 0.0) == (slope(edge) > 0.0):
        raise UncertifiedInstance(
            f"f' has the same sign at the W = 1 crossing as at the far edge "
            f"t_min = {side.t_min!r} of the {regime.nu_side} side"
        )
    res = search_outward(
        slope, start, edge, tol=EXTREMUM_TOL, f_start=f_start,
        guess=None if guess is None else guess[1],
    )
    t_star = side.t(res.x_star)
    nu = side.f(t_star)
    omega = ratio_from_f(nu)

    # the ratio is r at the center, and omega = nu/(nu - 1) falls as nu
    # rises: a minimum of f is the ratio's maximum, past its upper end
    # limit, and a maximum of f its minimum, past the lower one.  wen is
    # None for r >= 1
    wen = wen_reference(n, r)
    if regime.nu_kind == "min":
        bracket = (r, -1.0 / (n - 1) if e.alpha == -1.0 else math.inf)
        upper, upper_kind = omega, "certified-extremum"
    else:
        bracket = (-math.inf if wen is None else wen, r)
        lower, lower_kind = omega, "certified-extremum"
    _check_bracket(omega, bracket, regime.label)

    return ExtremumCertificate(
        n=n, e=e, regime=regime.tag, lower_bound=lower, upper_bound=upper,
        lower_kind=lower_kind, upper_kind=upper_kind, tol=tolerances,
        mu=cp.mu, mu_residual=cp.residual, nu=nu, nu_kind=regime.nu_kind,
        x_star=side.x(t_star), omega=omega, omega_bracket=bracket,
        wen_observed=wen, v=(start, side.v(t_star)),
    )


def _guess(certs: List[ExtremumCertificate]):
    # the mu and x* searches at the next n start from their solutions at
    # the last n in v = log(n t/(1 - n t)), extrapolated linearly through
    # the n before when it had the same regime, with the last change in v
    # as the first step.  With a fixed exponent, a turning regime gives way
    # only to a monotone one, so two turning n share their regime.
    if not certs or certs[-1].v is None:
        return None
    last = certs[-1].v
    if len(certs) < 2 or certs[-2].v is None:
        return tuple((b, 1.0) for b in last)
    return tuple((2.0 * b - a, abs(b - a)) for a, b in zip(certs[-2].v, last))


def sweep_constants(e: ExponentPair, n_min: int, n_max: int) -> List[ExtremumCertificate]:
    """best_constants for every n in [n_min, n_max] at a fixed exponent.

    The returned series exposes the omega sequence for monotonicity and
    convergence checks; a single-n sweep (n_min == n_max) is allowed.  A
    refusal names the n it stopped at.  Each n runs the searches of
    `best_constants` at their fixed widths (EXTREMUM_TOL for the
    extremum) but starts them from its neighbours' solutions, so its
    bounds may differ from those of `best_constants` alone within those
    widths, about 1e-14 relative.
    """
    if not 3 <= n_min <= n_max:
        raise ValueError(f"need 3 <= n_min <= n_max, got [{n_min}, {n_max}]")
    certs = []
    for n in range(n_min, n_max + 1):
        try:
            certs.append(best_constants(n, e, guess=_guess(certs)))
        except UncertifiedInstance as exc:
            raise UncertifiedInstance(f"at n = {n}: {exc}") from exc
    return certs


@dataclass(frozen=True)
class InterpolationConstants:
    """Weights of the sandwich delta*P + (1-delta)*G <= A <= eta*P + (1-eta)*G."""

    delta: float
    eta: float


def interpolation_constants(n: int, e: ExponentPair) -> InterpolationConstants:
    """Best sandwich weights (delta, eta) for alpha > 0.

    delta and eta are the lower and upper ratio constants of
    `best_constants`, its extremum searched to EXTREMUM_TOL; for
    alpha < 0 the ratio is unbounded below, only a one-sided comparison
    exists, and the request is rejected.
    """
    if e.alpha < 0:
        raise ValueError(
            "interpolation weights need alpha > 0; for alpha < 0 the ratio "
            "is unbounded below and only a one-sided comparison exists"
        )
    cert = best_constants(n, e)
    return InterpolationConstants(delta=cert.lower_bound, eta=cert.upper_bound)


def power_form_check(
    xs: Sequence[float],
    e: ExponentPair,
    consts: Optional[InterpolationConstants] = None,
) -> bool:
    """Check delta*A^r + (1-delta)*G^r <= P_r^r <= eta*A^r + (1-eta)*G^r.

    This is the (delta, eta) sandwich applied to the tuple of r-th powers,
    where the power mean of order alpha of the transformed tuple is the
    arithmetic mean of the original.  Valid for r > 0 only.  Each side
    may be passed by 1e-9 times the largest of the three terms and 1.
    """
    if e.r <= 0:
        raise ValueError("the power-sum form needs r = 1/alpha > 0")
    coords = tuple(xs)
    if consts is None:
        consts = interpolation_constants(len(coords), e)
    r = e.r
    a = arithmetic_mean(coords) ** r
    g = geometric_mean(coords) ** r
    mid = power_mean(coords, r) ** r
    lhs = consts.delta * a + (1.0 - consts.delta) * g
    rhs = consts.eta * a + (1.0 - consts.eta) * g
    scale = max(abs(lhs), abs(mid), abs(rhs), 1.0)
    return (lhs <= mid + 1e-9 * scale) and (mid <= rhs + 1e-9 * scale)


def augment_with_gm(xs: Sequence[float], e: ExponentPair) -> float:
    """Gap ratio after appending the tuple's own geometric mean.

    Appending G leaves the geometric mean fixed while pulling A and
    P_alpha toward it; the ratio moves weakly up for alpha < 1 and weakly
    down for alpha > 1.
    """
    coords = tuple(xs)
    g = geometric_mean(coords)
    return ratio_gap(coords + (g,), e)
