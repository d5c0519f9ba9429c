"""Independent numerical checks of certified bounds.

Two complementary oracles:

* ``grid_scan_two_value`` sweeps the two-value profile on a dense grid
  (including the exact endpoints whenever they are finite) and reports
  the extreme ratios found, which ``check_bounds`` compares against a
  certificate.

* ``monte_carlo_extremes`` throws uniformly distributed simplex tuples,
  plus deliberate boundary probes, at the raw n-variable ratio and
  counts bound violations.

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
from .means import ExponentPair, SampleVector, ratio_gap
from .profile import ProfileParams, f_profile
from .reduction import two_value_config

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
    # vectorized (A - G)/(P - G) for strictly positive rows
    alpha = e.alpha
    a = rows.mean(axis=1)
    g = np.exp(np.mean(np.log(rows), axis=1))
    p = np.mean(rows**alpha, axis=1) ** (1.0 / alpha)
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
    if grid < 1000:
        raise ValueError("grid must be >= 1000 points")
    n = params.n
    e = params.e
    hi = params.x_hi
    eps = EPS_HAT / n
    base = np.linspace(0.0, hi, grid)
    step = hi / (grid - 1)
    if e.r < 0:
        base = base[1:-1]
        include = False
    else:
        include = True
    xs = np.unique(np.concatenate([base, [eps, hi - eps]]))
    f = f_profile(xs, params)
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


def _boundary_probes(n: int, e: ExponentPair) -> List[Tuple[float, ...]]:
    probes: List[Tuple[float, ...]] = []
    hi = 1.0 / (n - 1)
    eps = EPS_HAT / n
    if e.alpha > 0:
        # k coordinates pinned at zero, the rest equal
        for k in range(1, n):
            probes.append((0.0,) * k + (1.0 / (n - k),) * (n - k))
        for x in (0.0, eps, hi - eps, hi):
            probes.append(two_value_config(x, n).xs)
    else:
        # a zero coordinate degenerates the mean; probe just inside
        for x in (1e-8, eps, hi - eps, hi - 1e-8):
            probes.append(two_value_config(x, n).xs)
    return probes


def _bound_violation(
    value: float, lower: float, upper: float, slack: float
) -> bool:
    scale = max(1.0, abs(lower) if math.isfinite(lower) else 1.0, abs(upper))
    return value < lower - slack * scale or value > upper + slack * scale


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
    [lower, upper] beyond `slack`.  Draws are strictly positive by
    construction, so no sample can degenerate a negative-order mean.
    For alpha < 0 the probe extremes record boundary behavior but are
    not counted against the (one-sided) bounds.
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

    def run_chunk(start: int) -> np.ndarray:
        cnt = min(chunk, samples - start)
        rows = simplex_sample_block(n, seed, count=cnt, start=start)
        return _ratio_rows(rows, e)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, starts))
    else:
        parts = [run_chunk(s) for s in starts]
    values = np.concatenate(parts)

    scale = max(1.0, abs(lower) if math.isfinite(lower) else 1.0, abs(upper))
    bad_idx = np.nonzero(
        (values < lower - slack * scale) | (values > upper + slack * scale)
    )[0]
    examples: List[Tuple[float, Tuple[float, ...]]] = []
    for idx in bad_idx[:5]:
        row = simplex_sample_block(n, seed, count=1, start=int(idx))[0]
        examples.append((float(values[idx]), tuple(float(t) for t in row)))
    violations = int(bad_idx.size)

    probe_vals: List[float] = []
    for cfg in _boundary_probes(n, e):
        val = ratio_gap(cfg, e)
        probe_vals.append(val)
        # bounds for alpha < 0 are one sided; the probes only record
        # how the ratio behaves near the boundary there
        if e.alpha > 0 and _bound_violation(val, lower, upper, slack):
            violations += 1
            if len(examples) < 5:
                examples.append((val, cfg))

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
        probe_min=float(min(probe_vals)),
        probe_max=float(max(probe_vals)),
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
