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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .means import (
    ExponentPair,
    SampleVector,
    arithmetic_mean,
    geometric_mean,
    power_mean,
    ratio_gap,
)
from .profile import ProfileParams, Side
from .regimes import RegimeTag, classify, locate_mu
from .solver import Bracket, find_root

__all__ = [
    "BRACKET_SLACK",
    "EPS_HAT",
    "ExtremumCertificate",
    "InterpolationConstants",
    "augment_with_gm",
    "best_constants",
    "format_float",
    "interpolation_constants",
    "power_form_check",
    "ratio_from_f",
    "sweep_constants",
    "wen_reference",
]

# endpoint margin numerator: the oracle's offset points and the profile
# table stay 1e-9/n away from the domain ends
EPS_HAT = 1e-9

# width of the final bracket of the extremum search, in log t
DEFAULT_EXTREMUM_TOL = 1e-10

# slack for the a-priori bracket cross-checks on certified constants
BRACKET_SLACK = 1e-9

_N2_MESSAGE = (
    "n = 2 is governed by a different sharp description and is not covered "
    "here; use n >= 3"
)


def format_float(x: float) -> str:
    """Serialize a float as a 17-significant-digit decimal string."""
    return format(float(x), ".17g")


def ratio_from_f(fval: float) -> float:
    """Map a profile value f to the gap ratio via the involution f/(f-1).

    The map is its own inverse and is strictly decreasing on each branch;
    fval = 1 corresponds to an unbounded ratio and is rejected.
    """
    fval = float(fval)
    if fval == 1.0:
        raise ValueError("f = 1 maps to an unbounded ratio")
    return fval / (fval - 1.0)


def _validate_n(n: int) -> None:
    if n == 2:
        raise ValueError(_N2_MESSAGE)
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"n must be an integer >= 3, got {n!r}")


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


@dataclass(frozen=True)
class ExtremumCertificate:
    """Certified extremal constants for one (n, alpha) instance."""

    n: int
    e: ExponentPair
    regime: RegimeTag
    lower_bound: float
    upper_bound: float
    lower_kind: str  # "closed-form" | "certified-extremum" | "unbounded"
    upper_kind: str
    mu: Optional[float]
    mu_residual: Optional[float]
    nu: Optional[float]
    nu_kind: str  # "min" | "max" | "none"
    x_star: Optional[float]
    omega: Optional[float]
    omega_bracket: Optional[Tuple[float, float]]
    wen_observed: Optional[float]
    tol: Dict[str, float]

    def to_payload(self) -> dict:
        opt = lambda v: None if v is None else format_float(v)
        return {
            "n": self.n,
            "alpha": format_float(self.e.alpha),
            "r": format_float(self.e.r),
            "regime": self.regime.value,
            "lower_bound": format_float(self.lower_bound),
            "upper_bound": format_float(self.upper_bound),
            "lower_kind": self.lower_kind,
            "upper_kind": self.upper_kind,
            "mu": opt(self.mu),
            "mu_residual": opt(self.mu_residual),
            "nu": opt(self.nu),
            "nu_kind": self.nu_kind,
            "x_star": opt(self.x_star),
            "omega": opt(self.omega),
            "omega_bracket": None
            if self.omega_bracket is None
            else [format_float(self.omega_bracket[0]), format_float(self.omega_bracket[1])],
            "wen_observed": opt(self.wen_observed),
            "tol": {k: format_float(v) for k, v in sorted(self.tol.items())},
        }


def _check_bracket(omega: float, bracket: Tuple[float, float], label: str) -> None:
    lo, hi = bracket
    if omega < lo - BRACKET_SLACK or omega > hi + BRACKET_SLACK:
        raise RuntimeError(
            f"certified constant {label} = {omega} violates its a-priori "
            f"bracket [{lo}, {hi}]"
        )


def best_constants(
    n: int, e: ExponentPair, tol: float = DEFAULT_EXTREMUM_TOL
) -> ExtremumCertificate:
    """Compute the certified extremal constants for (n, alpha = 1/r).

    Dispatches on the regime of (n, r): monotone regimes get closed-form
    endpoint bounds; the four turning regimes additionally locate mu, the
    interior extremum nu of the profile on the regime's side, and the
    certified constant omega = nu/(nu-1).  The extremum is the sign change
    of f' between mu and the side's far edge, bisected in log t (t the
    small coordinate, `profile.Side`) to a bracket of width tol.
    """
    _validate_n(n)
    regime = classify(n, e)
    r = e.r
    params = ProfileParams(n=n, e=e)
    tolerances = {"nu_bracket_width": tol, "omega_abs": max(tol * tol, 1e-12)}

    if not regime.has_mu:
        at_zero, at_top = _endpoint_values(n, r)
        return ExtremumCertificate(
            n=n,
            e=e,
            regime=regime.tag,
            lower_bound=at_top,
            upper_bound=at_zero,
            lower_kind="closed-form",
            upper_kind="closed-form",
            mu=None,
            mu_residual=None,
            nu=None,
            nu_kind="none",
            x_star=None,
            omega=None,
            omega_bracket=None,
            wen_observed=None,
            tol=tolerances,
        )

    cp = locate_mu(params, regime)
    tolerances["mu_residual"] = cp.residual
    shape = regime.f_shape
    side = Side(params, shape.nu_side)
    res = find_root(
        lambda s: side.f_prime(math.exp(s)),
        Bracket(math.log(side.t_min), math.log(cp.t)),
        tol=tol,
    )
    t_star = math.exp(res.x_star)
    nu = side.f(t_star)
    omega = ratio_from_f(nu)

    tag = regime.tag
    wen = wen_reference(n, r)
    if tag is RegimeTag.NEG_R:
        lord = -1.0 / (n - 1) if e.alpha == -1.0 else math.inf
        bracket = (r, lord)
        _check_bracket(omega, bracket, "omega_1")
        lower, upper = -math.inf, omega
        lower_kind, upper_kind = "unbounded", "certified-extremum"
    elif tag is RegimeTag.FRAC_R:
        bracket = (wen, r)
        _check_bracket(omega, bracket, "omega_2")
        lower, upper = omega, _endpoint_values(n, r)[1]
        lower_kind, upper_kind = "certified-extremum", "closed-form"
    elif tag is RegimeTag.LOW_R_SMALL_N:
        bracket = (r, math.inf)
        _check_bracket(omega, bracket, "omega_3")
        lower, upper = _endpoint_values(n, r)[1], omega
        lower_kind, upper_kind = "closed-form", "certified-extremum"
        wen = None
    else:  # HIGH_R_SMALL_N
        bracket = (-math.inf, r)
        _check_bracket(omega, bracket, "omega_4")
        lower, upper = omega, _endpoint_values(n, r)[0]
        lower_kind, upper_kind = "certified-extremum", "closed-form"
        wen = None

    return ExtremumCertificate(
        n=n,
        e=e,
        regime=tag,
        lower_bound=lower,
        upper_bound=upper,
        lower_kind=lower_kind,
        upper_kind=upper_kind,
        mu=cp.mu,
        mu_residual=cp.residual,
        nu=nu,
        nu_kind=shape.nu_kind,
        x_star=side.x(t_star),
        omega=omega,
        omega_bracket=bracket,
        wen_observed=wen,
        tol=tolerances,
    )


def sweep_constants(
    e: ExponentPair,
    n_min: int,
    n_max: int,
    tol: float = DEFAULT_EXTREMUM_TOL,
) -> List[ExtremumCertificate]:
    """best_constants for every n in [n_min, n_max] at a fixed exponent.

    The returned series exposes the omega sequence for monotonicity and
    convergence checks; a single-n sweep (n_min == n_max) is allowed.
    """
    if not 3 <= n_min <= n_max:
        raise ValueError(f"need 3 <= n_min <= n_max, got [{n_min}, {n_max}]")
    return [best_constants(n, e, tol=tol) for n in range(n_min, n_max + 1)]


@dataclass(frozen=True)
class InterpolationConstants:
    """Weights of the sandwich delta*P + (1-delta)*G <= A <= eta*P + (1-eta)*G."""

    delta: float
    eta: float


def interpolation_constants(
    n: int, e: ExponentPair, tol: float = DEFAULT_EXTREMUM_TOL
) -> InterpolationConstants:
    """Best sandwich weights (delta, eta) for alpha > 0.

    delta and eta are the certified lower and upper ratio constants; for
    alpha < 0 the ratio is unbounded below, only a one-sided comparison
    exists, and the request is rejected.
    """
    if e.alpha < 0:
        raise ValueError(
            "interpolation weights need alpha > 0; for alpha < 0 the ratio "
            "is unbounded below and only a one-sided comparison exists"
        )
    cert = best_constants(n, e, tol=tol)
    return InterpolationConstants(delta=cert.lower_bound, eta=cert.upper_bound)


def power_form_check(
    xs: Union[Sequence[float], SampleVector],
    e: ExponentPair,
    consts: Optional[InterpolationConstants] = None,
    slack: float = 1e-9,
) -> bool:
    """Check delta*A^r + (1-delta)*G^r <= P_r^r <= eta*A^r + (1-eta)*G^r.

    This is the (delta, eta) sandwich applied to the tuple of r-th powers,
    where the power mean of order alpha of the transformed tuple is the
    arithmetic mean of the original.  Valid for r > 0 only.
    """
    if e.r <= 0:
        raise ValueError("the power-sum form needs r = 1/alpha > 0")
    coords = tuple(xs.xs if isinstance(xs, SampleVector) else xs)
    if consts is None:
        consts = interpolation_constants(len(coords), e)
    r = e.r
    a = arithmetic_mean(coords) ** r
    g = geometric_mean(coords) ** r
    mid = power_mean(coords, r) ** r
    lhs = consts.delta * a + (1.0 - consts.delta) * g
    rhs = consts.eta * a + (1.0 - consts.eta) * g
    scale = max(abs(lhs), abs(mid), abs(rhs), 1.0)
    return (lhs <= mid + slack * scale) and (mid <= rhs + slack * scale)


def augment_with_gm(
    xs: Union[Sequence[float], SampleVector], e: ExponentPair
) -> float:
    """Gap ratio after appending the tuple's own geometric mean.

    Appending G leaves the geometric mean fixed while pulling A and
    P_alpha toward it; the ratio moves weakly up for alpha < 1 and weakly
    down for alpha > 1.
    """
    coords = tuple(xs.xs if isinstance(xs, SampleVector) else xs)
    g = geometric_mean(coords)
    return ratio_gap(coords + (g,), e)
