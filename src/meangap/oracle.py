"""Independent numerical checks of certified bounds.

Two complementary oracles:

* ``grid_scan_two_value`` sweeps the two-value profile on a dense grid
  (including the exact endpoints whenever they are finite) and reports
  the extreme ratios found, which ``check_bounds`` compares against a
  certificate.

* ``monte_carlo_extremes`` throws uniformly distributed simplex tuples,
  plus deliberate boundary probes, at the raw n-variable ratio and
  counts bound violations.  Samples and probes alike go through one
  normalized row kernel, ``_ratio_rows``.

Randomness is counter based: sample i is a pure function of (seed, i)
through a splitmix64 mix, so runs are bit reproducible and can be split
across workers in disjoint counter ranges without changing any output.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .constants import (
    EPS_HAT,
    ExtremumCertificate,
    _endpoint_values,
    best_constants,
    format_float,
)
from .means import ExponentPair, SampleVector
from .profile import ProfileParams, f_profile

__all__ = [
    "BoundsCheck",
    "GridExtreme",
    "InstanceMismatchError",
    "OracleReport",
    "check_bounds",
    "grid_scan_two_value",
    "monte_carlo_extremes",
    "simplex_sample",
    "simplex_sample_block",
    "splitmix64",
]

VIOLATION_SLACK = 1e-9

DEFAULT_SAMPLES = 100_000
DEFAULT_GRID = 1_000_000

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class InstanceMismatchError(ValueError):
    """Certificate and scan were produced for different (n, alpha)."""


def splitmix64(seed: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 output words for the given counters under one seed."""
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (
        counters.astype(np.uint64) + np.uint64(1)
    ) * _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def simplex_sample_block(
    n: int, seed: int, count: int, start: int = 0
) -> np.ndarray:
    """count uniform simplex samples as an array of shape (count, n).

    Sample i consumes counters i*n .. i*n + n - 1, so any contiguous
    block can be regenerated independently of the rest.
    """
    if n < 2 or count < 1 or start < 0:
        raise ValueError("need n >= 2, count >= 1, start >= 0")
    counters = np.arange(start * n, (start + count) * n, dtype=np.uint64)
    z = splitmix64(seed, counters)
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    draws = -np.log1p(-u)
    draws = np.maximum(draws, 1e-300)
    rows = draws.reshape(count, n)
    return rows / rows.sum(axis=1, keepdims=True)


def simplex_sample(n: int, seed: int, index: int = 0) -> SampleVector:
    """The index-th uniform simplex sample of the (seed, n) stream.

    Normalized independent standard-exponential draws; a pure function
    of its arguments, identical across runs and machines.
    """
    row = simplex_sample_block(n, seed, count=1, start=index)[0]
    return SampleVector(tuple(float(t) for t in row))


def _ratio_rows(rows: np.ndarray, e: ExponentPair) -> np.ndarray:
    """(A - G)/(P_alpha - G) for every row of a nonnegative 2-d array.

    One logarithm per coordinate serves G and the power term.  The power
    term of each row is scaled by the row's largest coordinate m for
    alpha > 0 and by its smallest for alpha < 0, as in means.power_mean:
    P_alpha = m * mean(t)^(1/alpha) with t = (x/m)^alpha, taken as
    exp(alpha * (ln x - ln m)) <= 1, which cannot overflow.  A zero
    coordinate (alpha > 0 only) gives t = 0 and G = 0, so the ratio is
    A/P_alpha, the value ratio_gap takes there.  Constant rows have no
    rule here (their 0/0 gives NaN or rounding noise); neither samples
    nor probes are constant.
    """
    alpha = e.alpha
    a = rows.mean(axis=1)
    with np.errstate(divide="ignore"):
        lx = np.log(rows)
    g = np.exp(np.mean(lx, axis=1))
    if alpha > 0:
        lm = lx.max(axis=1, keepdims=True)
    else:
        lm = lx.min(axis=1, keepdims=True)
    p = np.exp(lm[:, 0]) * (
        np.mean(np.exp(alpha * (lx - lm)), axis=1) ** (1.0 / alpha)
    )
    return (a - g) / (p - g)


@dataclass(frozen=True)
class GridExtreme:
    """Extremes of the two-value ratio over one dense grid scan."""

    n: int
    e: ExponentPair
    points: int
    includes_endpoints: bool
    step: float  # uniform x-spacing of the base grid
    min_value: float
    arg_x_min: float
    max_value: float
    arg_x_max: float
    # second-difference estimates of |d2 ratio/dx2| at each extreme; 0
    # when the extreme sits on the array boundary
    min_curvature: float
    max_curvature: float

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "alpha": format_float(self.e.alpha),
            "r": format_float(self.e.r),
            "points": self.points,
            "includes_endpoints": self.includes_endpoints,
            "step": format_float(self.step),
            "min_value": format_float(self.min_value),
            "arg_x_min": format_float(self.arg_x_min),
            "max_value": format_float(self.max_value),
            "arg_x_max": format_float(self.arg_x_max),
        }


def grid_scan_two_value(
    params: ProfileParams, grid: int = DEFAULT_GRID
) -> GridExtreme:
    """Extremes of the two-value ratio profile over a uniform grid.

    For r > 0 the exact endpoints are part of the grid (the ratio
    extends continuously there and the closed-form endpoint values are
    attained exactly); they take those closed forms, n^(r-1) and
    (n/(n-1))^(r-1), since f/(f - 1) cancels once n^(r-1) is large.
    For r < 0 the ratio diverges to -inf at the ends; the endpoints are
    excluded and offset points at 1e-9/n from each end take their place.
    """
    if not 1000 <= grid <= 10**8:
        raise ValueError("grid must have between 1000 and 1e8 points")
    n = params.n
    e = params.e
    hi = params.x_hi
    # eps < step for every grid <= 1e8, so the offsets sit inside the
    # first and last grid cells and the points below are in order
    eps = EPS_HAT / n
    base = np.linspace(0.0, hi, grid)
    step = hi / (grid - 1)
    include = e.r > 0
    if include:
        xs = np.concatenate([[0.0, eps], base[1:-1], [hi - eps, hi]])
    else:
        xs = np.concatenate([[eps], base[1:-1], [hi - eps]])
    f = f_profile(xs, params)
    # f rounds to 1 at the ends once n^(r-1) passes 2^53; those two values
    # are replaced below, and check_bounds rejects any other infinity
    with np.errstate(divide="ignore"):
        vals = f / (f - 1.0)
    if include:
        vals[0], vals[-1] = _endpoint_values(n, e.r)
    imin = int(np.argmin(vals))
    imax = int(np.argmax(vals))

    def curvature(i: int) -> float:
        if i == 0 or i == len(vals) - 1:
            return 0.0
        hl = float(xs[i] - xs[i - 1])
        hr = float(xs[i + 1] - xs[i])
        sl = (float(vals[i]) - float(vals[i - 1])) / hl
        sr = (float(vals[i + 1]) - float(vals[i])) / hr
        return abs(2.0 * (sr - sl) / (hl + hr))

    return GridExtreme(
        n=n,
        e=e,
        points=len(xs),
        includes_endpoints=include,
        step=step,
        min_value=float(vals[imin]),
        arg_x_min=float(xs[imin]),
        max_value=float(vals[imax]),
        arg_x_max=float(xs[imax]),
        min_curvature=curvature(imin),
        max_curvature=curvature(imax),
    )


@dataclass(frozen=True)
class OracleReport:
    """Monte-Carlo evidence for one certificate, with the grid scan embedded."""

    n: int
    e: ExponentPair
    samples: int
    seed: int
    lower_bound: float
    upper_bound: float
    observed_min: float
    observed_max: float
    arg_min: SampleVector
    arg_max: SampleVector
    probe_min: float
    probe_max: float
    violations: int
    violation_examples: Tuple[Tuple[float, Tuple[float, ...]], ...]
    grid_extreme: GridExtreme

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "alpha": format_float(self.e.alpha),
            "r": format_float(self.e.r),
            "samples": self.samples,
            "seed": self.seed,
            "lower_bound": format_float(self.lower_bound),
            "upper_bound": format_float(self.upper_bound),
            "observed_min": format_float(self.observed_min),
            "observed_max": format_float(self.observed_max),
            "arg_min": [format_float(t) for t in self.arg_min.xs],
            "arg_max": [format_float(t) for t in self.arg_max.xs],
            "probe_min": format_float(self.probe_min),
            "probe_max": format_float(self.probe_max),
            "violations": self.violations,
            "violation_examples": [
                {
                    "value": format_float(v),
                    "config": [format_float(c) for c in cfg],
                }
                for v, cfg in self.violation_examples
            ],
            "grid_extreme": self.grid_extreme.to_payload(),
        }


def _boundary_probes(n: int, e: ExponentPair) -> np.ndarray:
    # two-value rows (x, ..., x, 1 - (n-1)x) at both ends of [0, 1/(n-1)]
    hi = 1.0 / (n - 1)
    eps = EPS_HAT / n
    if e.alpha > 0:
        xs = [0.0, eps, hi - eps, hi]
    else:
        # a zero coordinate degenerates the mean; probe just inside
        xs = [1e-8, eps, hi - eps, hi - 1e-8]
    rows = np.repeat(np.array(xs)[:, None], n, axis=1)
    rows[:, -1] = [1.0 - (n - 1) * x for x in xs]
    if e.alpha > 0:
        # k coordinates pinned at zero, the rest equal: the ratio there is
        # ((n-k)/n)^(1-r), strictly monotone in k, so no member between
        # k = 1 and k = n-1 can leave the bounds first
        ends = np.zeros((2, n))
        ends[0, 1:] = 1.0 / (n - 1)
        ends[1, -1] = 1.0
        rows = np.vstack([ends, rows])
    return rows


def monte_carlo_extremes(
    n: int,
    e: ExponentPair,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    cert: Optional[ExtremumCertificate] = None,
    workers: int = 1,
    grid: int = DEFAULT_GRID,
    slack: float = VIOLATION_SLACK,
    chunk: int = 8192,
) -> OracleReport:
    """Random-search oracle for the certified bounds.

    Draws `samples` uniform simplex tuples (counter-based, so the result
    is identical for any `workers` value), adds deterministic boundary
    probes and a dense two-value grid scan, and counts values outside
    [lower, upper] beyond `slack`; a NaN or infinite value counts as a
    violation too.  Draws are strictly positive by construction, so no
    sample can degenerate a negative-order mean.  For alpha < 0 the finite
    probe values record boundary behavior but are not counted against the
    (one-sided) bounds.
    """
    if cert is None:
        cert = best_constants(n, e)
    if cert.n != n or cert.e != e:
        raise InstanceMismatchError(
            f"certificate is for (n={cert.n}, alpha={cert.e.alpha}), "
            f"requested (n={n}, alpha={e.alpha})"
        )
    if samples < 10_000:
        raise ValueError("need at least 10000 samples for a meaningful scan")
    lower, upper = cert.lower_bound, cert.upper_bound

    starts = list(range(0, samples, chunk))

    values = np.empty(samples)

    def run_chunk(start: int) -> None:
        stop = min(start + chunk, samples)
        rows = simplex_sample_block(n, seed, count=stop - start, start=start)
        values[start:stop] = _ratio_rows(rows, e)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, starts))
    else:
        for start in starts:
            run_chunk(start)

    scale = max(1.0, abs(lower) if math.isfinite(lower) else 1.0, abs(upper))

    def outside(vals: np.ndarray) -> np.ndarray:
        return (
            ~np.isfinite(vals)
            | (vals < lower - slack * scale)
            | (vals > upper + slack * scale)
        )

    bad_idx = np.nonzero(outside(values))[0]
    examples: List[Tuple[float, Tuple[float, ...]]] = []
    for idx in bad_idx[:5]:
        row = simplex_sample_block(n, seed, count=1, start=int(idx))[0]
        examples.append((float(values[idx]), tuple(float(t) for t in row)))
    violations = int(bad_idx.size)

    probes = _boundary_probes(n, e)
    probe_vals = _ratio_rows(probes, e)
    # bounds for alpha < 0 are one sided; finite probes only record how
    # the ratio behaves near the boundary there
    bad = outside(probe_vals) if e.alpha > 0 else ~np.isfinite(probe_vals)
    bad_idx = np.nonzero(bad)[0]
    violations += int(bad_idx.size)
    for idx in bad_idx[: 5 - len(examples)]:
        examples.append(
            (float(probe_vals[idx]), tuple(float(c) for c in probes[idx]))
        )

    imin = int(np.argmin(values))
    imax = int(np.argmax(values))
    return OracleReport(
        n=n,
        e=e,
        samples=samples,
        seed=seed,
        lower_bound=lower,
        upper_bound=upper,
        observed_min=float(values[imin]),
        observed_max=float(values[imax]),
        arg_min=simplex_sample(n, seed, index=imin),
        arg_max=simplex_sample(n, seed, index=imax),
        probe_min=float(np.min(probe_vals)),
        probe_max=float(np.max(probe_vals)),
        violations=violations,
        violation_examples=tuple(examples),
        grid_extreme=grid_scan_two_value(ProfileParams(n=n, e=e), grid=grid),
    )


@dataclass(frozen=True)
class BoundsCheck:
    ok: bool
    tol_min: float
    tol_max: float
    failures: Tuple[str, ...]

    @property
    def tol_grid(self) -> float:
        return max(self.tol_min, self.tol_max)

    def to_payload(self) -> dict:
        return {
            "ok": self.ok,
            "tol_min": format_float(self.tol_min),
            "tol_max": format_float(self.tol_max),
            "failures": list(self.failures),
        }


def _grid_tolerance(step: float, curvature: float, tol: Optional[float]) -> float:
    if tol is not None:
        return tol
    return max(1e-5, 10.0 * step * curvature)


def check_bounds(
    report: OracleReport,
    cert: ExtremumCertificate,
    tol: Optional[float] = None,
) -> BoundsCheck:
    """Validate a Monte-Carlo report against a certificate.

    Fails when any sample or probe violated the bounds (the first
    offending tuples are named), when a grid value escapes the bounds,
    when a grid extreme is infinite or NaN while its side's bound is
    finite, or when the grid extreme on a certified-extremum side misses
    the constant by more than tol (default: max(1e-5, 10 * grid step *
    local curvature at the extreme)).  The grid slack is scaled by the
    finite grid extremes only.
    """
    if report.n != cert.n or report.e != cert.e:
        raise InstanceMismatchError(
            f"report is for (n={report.n}, alpha={report.e.alpha}), "
            f"certificate for (n={cert.n}, alpha={cert.e.alpha})"
        )
    grid = report.grid_extreme
    failures: List[str] = []
    tol_min = _grid_tolerance(grid.step, grid.min_curvature, tol)
    tol_max = _grid_tolerance(grid.step, grid.max_curvature, tol)
    finite = [abs(v) for v in (grid.min_value, grid.max_value) if math.isfinite(v)]
    scale = max([1.0] + finite)

    if report.violations > 0:
        named = "; ".join(
            f"ratio {v} at ({', '.join(format_float(c) for c in cfg)})"
            for v, cfg in report.violation_examples
        )
        failures.append(
            f"{report.violations} sampled value(s) violated "
            f"[{cert.lower_bound}, {cert.upper_bound}]: {named}"
        )
    for name, value, arg, side, bound in (
        ("min", grid.min_value, grid.arg_x_min, "lower", cert.lower_bound),
        ("max", grid.max_value, grid.arg_x_max, "upper", cert.upper_bound),
    ):
        if math.isfinite(bound) and not math.isfinite(value):
            failures.append(
                f"grid {name} {value} at x={arg} is not finite, "
                f"against the finite {side} bound {bound}"
            )
    if math.isfinite(cert.lower_bound):
        if grid.min_value < cert.lower_bound - VIOLATION_SLACK * scale:
            failures.append(
                f"grid min {grid.min_value} at x={grid.arg_x_min} undercuts "
                f"lower bound {cert.lower_bound}"
            )
        if cert.lower_kind == "certified-extremum" and (
            abs(grid.min_value - cert.lower_bound) > tol_min
        ):
            failures.append(
                f"grid min {grid.min_value} is not within {tol_min} of the "
                f"certified lower bound {cert.lower_bound}"
            )
    if grid.max_value > cert.upper_bound + VIOLATION_SLACK * scale:
        failures.append(
            f"grid max {grid.max_value} at x={grid.arg_x_max} exceeds "
            f"upper bound {cert.upper_bound}"
        )
    if cert.upper_kind == "certified-extremum" and (
        abs(grid.max_value - cert.upper_bound) > tol_max
    ):
        failures.append(
            f"grid max {grid.max_value} is not within {tol_max} of the "
            f"certified upper bound {cert.upper_bound}"
        )
    return BoundsCheck(
        ok=not failures, tol_min=tol_min, tol_max=tol_max, failures=tuple(failures)
    )
