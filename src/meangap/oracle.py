"""Independent numerical checks of certified bounds.

Two complementary oracles:

* ``grid_scan_two_value`` sweeps the two-value ratio on a dense grid,
  log-spaced in the small coordinate of each side (plus the exact ends
  for r > 0), and reports the extreme ratios found, which
  ``check_bounds(report)`` compares against the report's certificate.

* ``monte_carlo_extremes(cert, samples, seed, workers, grid)`` throws
  uniformly distributed simplex tuples, plus deliberate boundary probes,
  at the raw n-variable ratio of the certificate's (n, alpha), counts
  violations of its bounds, and embeds the grid scan.  Samples and
  probes alike go through one normalized row kernel, ``_ratio_rows``.

Randomness is counter based: sample i is a pure function of (seed, i)
through a splitmix64 mix, so runs are bit reproducible and can be split
across workers in disjoint counter ranges without changing any output.
Below n = 256 the sampler lays a block out one sample per column, and
sample i is still the same to the bit.

numpy is imported by the functions that build arrays, not with the
module, so `check_bounds` and the CLI's other subcommands run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from .constants import EPS_HAT, ExtremumCertificate, _endpoint_values
from .means import ExponentPair
from .profile import CENTER_BAND, ProfileParams, Side

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BoundsCheck",
    "GridExtreme",
    "OracleReport",
    "check_bounds",
    "grid_scan_two_value",
    "monte_carlo_extremes",
    "simplex_sample",
    "simplex_sample_block",
]

VIOLATION_SLACK = 1e-9

# how far the grid extreme on a certified-extremum side may miss the
# certified constant b, relative to max(1, |b|)
GRID_TOL = 1e-6

# samples stream through blocks of about this many coordinates, whose
# buffers stay in cache
_STREAM = 1 << 16

# points per block of the grid.  The ramp, a block's t and ratios and the
# ratio's two scratch arrays, allocated once per scan, take 640 KiB at
# 2^14 and stay in L2.  The eight default scans of the benchmark's seed-1
# verify instances took 237 ms at 2^14 against 309 ms at 2^12, 254 ms at
# 2^13 and 274 ms at 2^15 (medians of 7 rounds in each of three
# processes, 2-core VM); a fresh array for every step took 430 ms at 2^12
_GRID_BLOCK = 1 << 14

# samples per thread work unit of the Monte Carlo oracle
_CHUNK = 8192

DEFAULT_SAMPLES = 100_000
MIN_SAMPLES = 10_000
DEFAULT_GRID = 1_000_000
# the coarsest grid whose extreme meets GRID_TOL: with the extremum midway
# between two points, it would miss by up to 9.6e-8 * max(1, |b|) at 3e5
# points, against 8.6e-7 at 1e5 (331 certified sides of random instances,
# n 3..1e6, |alpha| 0.003..1000; the miss falls as 1/grid^2)
MIN_GRID = 300_000
# the largest n verify takes.  Each sample, probe and printed tuple holds n
# coordinates; the text of the two extremal samples and of five violating
# tuples costs about 2.2 KB a coordinate, and at this cap a check forced to
# fail peaked at 677 MB of RSS (CSV; 649 MB as JSON) and a passing one at
# 166 MB, with 16 samples, each of which adds 8 bytes
MAX_N = 300_000
# the most worker threads verify starts.  The pool is handed one work unit
# per worker, its share of the _CHUNK-sample chunks, and starts a thread
# for each: as many as asked for, up to the chunks (1e8 samples make 12208)
MAX_WORKERS = 64

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _scale(bound: float) -> float:
    # max(1, |b|), 1 for an unbounded side: what slacks and tolerances scale by
    return max(1.0, abs(bound)) if math.isfinite(bound) else 1.0


def _gamma_ramp(count: int, n: int, cols: bool) -> np.ndarray:
    # gamma * (i n + k) mod 2^64 at [i, k]: splitmix64's increment times the
    # counter offset of coordinate k of sample i, in C order for a block of
    # rows and in Fortran order for a block of columns
    import numpy as np

    i = np.arange(count, dtype=np.uint64) * np.uint64(_GAMMA * n & _MASK)
    k = np.arange(n, dtype=np.uint64) * np.uint64(_GAMMA)
    return np.add.outer(k, i).T if cols else np.add.outer(i, k)


def _block(buf: np.ndarray, count: int, n: int, cols: bool) -> np.ndarray:
    # the first count * n entries of buf as count samples of n coordinates,
    # shape (count, n): rows, or the transpose of one sample per column
    flat = buf[:count * n]
    return flat.reshape(n, count).T if cols else flat.reshape(count, n)


def _splitmix(seed: int, first: int, ramp: np.ndarray, z: np.ndarray,
              tmp: np.ndarray) -> None:
    # splitmix64 words into z for the counters first + c, where ramp holds
    # gamma * c: the mix's first step, (counter + 1) * gamma + seed, is then
    # one addition
    import numpy as np

    np.add(ramp, np.uint64((seed + (first + 1) * _GAMMA) & _MASK), out=z)
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        z ^= np.right_shift(z, np.uint64(shift), out=tmp)
        if mix is not None:
            z *= np.uint64(mix)


def _pairwise_sums(cols: np.ndarray) -> np.ndarray:
    # the sums down the columns of a C-contiguous (n, m) array, added in the
    # order numpy adds a contiguous row: fewer than 8 terms one by one, up to
    # 128 in 8 interleaved partial sums then added in pairs, more as two
    # halves split at a multiple of 8
    n = len(cols)
    if n < 8:
        return cols.sum(axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sums(cols[:half]) + _pairwise_sums(cols[half:])
    m = n - n % 8
    part = cols[:m].reshape(m // 8, 8, -1).sum(axis=0)
    part = part[0::2] + part[1::2]
    part = part[0::2] + part[1::2]
    total = part[0] + part[1]
    for row in cols[m:]:
        total += row
    return total


def _sample_rows(seed: int, first: int, ramp: np.ndarray, z: np.ndarray,
                 rows: np.ndarray) -> None:
    # the samples whose counters are first + ramp / gamma into rows, of shape
    # (count, n) and laid out as ramp and z are; rows is the mix's scratch
    # first, z is used up.  A block of columns is normalized by sums in the
    # order a row's are, so a sample is the same to the bit in either layout
    import numpy as np

    _splitmix(seed, first, ramp, z, rows.view(np.uint64))
    # -u, u uniform on [0, 1), and log(1 - u), minus a standard exponential:
    # each sum of these is the negated sum of the exponentials to the bit,
    # and each quotient is the exponentials' quotient
    np.multiply(np.right_shift(z, np.uint64(11), out=z), -(2.0**-53), out=rows)
    np.log1p(rows, out=rows)
    np.minimum(rows, -1e-300, out=rows)
    sums = rows.sum(axis=1) if rows.flags.c_contiguous else _pairwise_sums(rows.T)
    np.divide(rows, sums[:, None], out=rows)


def simplex_sample_block(
    n: int, seed: int, count: int, start: int = 0
) -> np.ndarray:
    """count uniform simplex samples as an array of shape (count, n).

    Sample i consumes counters i*n .. i*n + n - 1, so any contiguous
    block can be regenerated independently of the rest.
    """
    if n < 2 or count < 1 or start < 0:
        raise ValueError("need n >= 2, count >= 1, start >= 0")
    import numpy as np

    ramp = _gamma_ramp(count, n, cols=False)
    rows = np.empty((count, n))
    _sample_rows(seed, start * n, ramp, np.empty_like(ramp), rows)
    return rows


def simplex_sample(n: int, seed: int, index: int = 0) -> Tuple[float, ...]:
    """The index-th uniform simplex sample of the (seed, n) stream.

    Normalized independent standard-exponential draws; a pure function
    of its arguments, identical across runs and machines.
    """
    row = simplex_sample_block(n, seed, count=1, start=index)[0]
    return tuple(float(t) for t in row)


def _ratio_rows(rows: np.ndarray, e: ExponentPair, scratch=None) -> np.ndarray:
    """(A - G)/(P_alpha - G) for every row of a nonnegative 2-d array.

    One logarithm per coordinate serves G and the power term.  The power
    term of each row is scaled by the row's largest coordinate m for
    alpha > 0 and by its smallest for alpha < 0, as in means.power_mean:
    P_alpha = m * mean(t)^(1/alpha) with t = (x/m)^alpha, taken as
    exp(alpha * (ln x - ln m)) <= 1, which cannot overflow.  A zero
    coordinate (alpha > 0 only) gives t = 0 and G = 0, so the ratio is
    A/P_alpha, the value ratio_gap takes there.  Constant rows have no
    rule here (their 0/0 gives NaN or rounding noise); neither samples
    nor probes are constant.  scratch (rows' shape, may be rows itself)
    takes the logarithms and powers in place of a fresh temporary.  rows
    may be a transposed block of one sample per column: each reduction then
    runs along the samples, in one pass per coordinate.
    """
    import numpy as np

    alpha = e.alpha
    a = rows.mean(axis=1)
    with np.errstate(divide="ignore"):
        lx = np.log(rows, out=scratch)
    g = np.exp(np.mean(lx, axis=1))
    lm = (lx.max if alpha > 0 else lx.min)(axis=1, keepdims=True)
    lx -= lm
    lx *= alpha
    np.exp(lx, out=lx)
    p = np.exp(lm[:, 0]) * (np.mean(lx, axis=1) ** (1.0 / alpha))
    return (a - g) / (p - g)


@dataclass(frozen=True)
class GridExtreme:
    """Extremes of the two-value ratio over one dense grid scan."""

    n: int
    e: ExponentPair
    points: int
    includes_endpoints: bool
    min_value: float
    arg_x_min: float
    max_value: float
    arg_x_max: float

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.e.alpha,
            "r": self.e.r,
            "points": self.points,
            "includes_endpoints": self.includes_endpoints,
            "min_value": self.min_value,
            "arg_x_min": self.arg_x_min,
            "max_value": self.max_value,
            "arg_x_max": self.arg_x_max,
        }


def _check_grid(grid: int) -> None:
    if not MIN_GRID <= grid <= 10**8:
        raise ValueError(f"grid must have between {MIN_GRID} and 1e8 points")


def _check_request(n: int, samples: int, grid: int, workers: int) -> None:
    """Refuse what verify does not take, before any work: n before any
    array of n coordinates, samples before the values array (8 bytes a
    sample), the grid before the samples, which take seconds at large n,
    and workers before the pool, which starts a thread a unit."""
    if n > MAX_N:
        raise ValueError(f"verify takes n up to {MAX_N}, got {n}")
    # below the floor the scan is too thin to mean anything; the cap, the
    # grid's, holds the one double the oracle keeps per sample to 0.8 GB
    if not MIN_SAMPLES <= samples <= 10**8:
        raise ValueError(f"samples must number between {MIN_SAMPLES} and 1e8")
    _check_grid(grid)
    if workers > MAX_WORKERS:
        raise ValueError(f"verify takes at most {MAX_WORKERS} workers, got {workers}")


def _runs(side: Side, count: int) -> List[Tuple[float, float, int]]:
    """The side's count grid points as runs (v0, step, points) in increasing x.

    Point i of a run lies at v = v0 + i * step, where v = log(X/(1 - X)),
    X = n t, is log t near the end of the side and -log of the distance
    from the center near it, so an extremum close to either is resolved.
    The points run from t_end to the center band.  Where t_min stops short
    of t_end (and of the band), a sixteenth of them cover that stretch,
    and the rest space t_min to the center band as finely as an extremum
    there, about 1/|alpha| wide in log t, needs.
    """
    n, v = side.params.n, side.v
    # the band |n x - 1| <= CENTER_BAND ends at 1 - n t = CENTER_BAND on the
    # left and, as n y = 1 - (n-1)(n x - 1), at (n-1) CENTER_BAND on the right
    band = (1 if side.side == "left" else n - 1) * CENTER_BAND
    end, edge, center = v(side.t_end), v(side.t_min), math.log((1.0 - band) / band)
    knots = [end, edge, center] if end < edge < center else [end, center]
    sizes = [count // 16, count - count // 16] if len(knots) == 3 else [count]
    # each run starts at its knot; the last one also ends at the next
    runs = [(v0, (v1 - v0) / (m - 1 if v1 == knots[-1] else m), m)
            for v0, v1, m in zip(knots, knots[1:], sizes)]
    if side.side == "left":
        return runs
    # on the right x rises as t falls
    return [(v0 + (m - 1) * step, -step, m) for v0, step, m in reversed(runs)]


def grid_scan_two_value(
    params: ProfileParams, grid: int = DEFAULT_GRID
) -> GridExtreme:
    """Extremes of the two-value ratio over a grid in the small coordinate.

    Each side of x = 1/n takes half of the points, placed in its small
    coordinate t (`profile.Side`) as `_runs` sets out, so they crowd
    toward the end and toward the center, where an extremum can lie
    arbitrarily close.  For r > 0 the exact ends, at the closed-form
    limits n^(r-1) and (n/(n-1))^(r-1) of the ratio, are two more points.
    The points stream through blocks in increasing x, each evaluated in
    arrays allocated once per scan (`Side.ratio_into`), and the extremes
    are those np.argmin and np.argmax pick over the whole grid: the first
    NaN, else the first extreme value.
    """
    import numpy as np

    _check_grid(grid)
    n, e = params.n, params.e
    include = e.r > 0
    # the ramp 0, 1, ..., and a block's t (its j first), its ratios and the
    # ratio's scratch, reused by every block of the scan
    ramp = np.arange(_GRID_BLOCK, dtype=float)
    t_buf, vals_buf = np.empty(_GRID_BLOCK), np.empty(_GRID_BLOCK)
    work = np.empty((2, _GRID_BLOCK))
    found = []  # each block's first minimum and maximum, with their x
    for name, count in (("left", (grid + 1) // 2), ("right", grid // 2)):
        side = Side(params, name)
        for v0, step, points in _runs(side, count):
            for start in range(0, points, _GRID_BLOCK):
                size = min(_GRID_BLOCK, points - start)
                t = side.run_t(v0, step, np.add(ramp[:size], start, out=t_buf[:size]))
                vals = side.ratio_into(t, vals_buf[:size], work[:, :size])
                i, k = int(np.argmin(vals)), int(np.argmax(vals))
                found.append((vals[i], side.x(t[i]), vals[k], side.x(t[k])))
    if include:
        at_lo, at_hi = _endpoint_values(n, e.r)
        found = [(at_lo, 0.0) * 2] + found + [(at_hi, params.x_hi) * 2]
    min_value, arg_x_min = found[int(np.argmin([b[0] for b in found]))][:2]
    max_value, arg_x_max = found[int(np.argmax([b[2] for b in found]))][2:]
    return GridExtreme(
        n=n,
        e=e,
        points=grid + 2 * include,
        includes_endpoints=include,
        min_value=float(min_value),
        arg_x_min=float(arg_x_min),
        max_value=float(max_value),
        arg_x_max=float(arg_x_max),
    )


@dataclass(frozen=True)
class OracleReport:
    """Monte-Carlo evidence for one certificate, with the grid scan embedded."""

    cert: ExtremumCertificate
    samples: int
    seed: int
    observed_min: float
    observed_max: float
    arg_min: Tuple[float, ...]
    arg_max: Tuple[float, ...]
    probe_min: float
    probe_max: float
    violations: int
    violation_examples: Tuple[Tuple[float, Tuple[float, ...]], ...]
    grid_extreme: GridExtreme

    def to_payload(self) -> dict:
        cert = self.cert
        return {
            "n": cert.n,
            "alpha": cert.e.alpha,
            "r": cert.e.r,
            "samples": self.samples,
            "seed": self.seed,
            "lower_bound": cert.lower_bound,
            "upper_bound": cert.upper_bound,
            "observed_min": self.observed_min,
            "observed_max": self.observed_max,
            "arg_min": self.arg_min,
            "arg_max": self.arg_max,
            "probe_min": self.probe_min,
            "probe_max": self.probe_max,
            "violations": self.violations,
            "violation_examples": [
                {"value": v, "config": cfg} for v, cfg in self.violation_examples
            ],
            "grid_extreme": self.grid_extreme.to_payload(),
        }


def _boundary_probes(n: int, e: ExponentPair) -> np.ndarray:
    # two-value rows (x, ..., x, 1 - (n-1)x) at both ends of [0, 1/(n-1)]
    import numpy as np

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
    cert: ExtremumCertificate,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    workers: int = 1,
    grid: int = DEFAULT_GRID,
) -> OracleReport:
    """Random-search oracle for the bounds of a certificate, at its (n, alpha).

    Draws `samples` uniform simplex tuples (counter-based, so the result
    is identical for any `workers` value) in chunks of _CHUNK, which
    `workers` threads share, each through scratch of its own, adds
    deterministic boundary probes and a dense two-value grid scan, and
    counts values beyond a bound b by more than VIOLATION_SLACK *
    max(1, |b|); a NaN or infinite value counts as a violation too.
    Draws are strictly positive by construction, so no sample can
    degenerate a negative-order mean.  For alpha < 0 the finite probe
    values record boundary behavior but are not counted against the
    (one-sided) bounds.
    """
    import numpy as np

    n, e = cert.n, cert.e
    _check_request(n, samples, grid, workers)
    lower, upper = cert.lower_bound, cert.upper_bound

    starts = list(range(0, samples, _CHUNK))

    values = np.empty(samples)
    # while a full block holds more samples than coordinates, it holds one
    # sample per column, so the kernel's sums over each sample's
    # coordinates run as passes along contiguous memory rather than one
    # short row at a time.  Time per coordinate of columns over rows, each
    # forced (sampler and kernel, alpha = 2 and -1, 2-core VM): 0.79-0.92
    # at n = 64..200, 0.92-1.03 at 255..400, 1.12-1.22 at 600..1000 and
    # 1.7-1.9 at 3000, so the cut falls where the two are even.  A block
    # of one sample (a chunk's tail) is a row in either layout, so from 8
    # coordinates on its value can differ in the last digits from the
    # same sample's in a larger block of columns
    cols = min(_STREAM // n, _CHUNK) > n

    # each worker runs its share of the chunks, starts[w::workers], through
    # one ramp and two buffers sized for a full block; a short block takes
    # their first entries
    per = max(1, min(_STREAM // n, _CHUNK))
    workers = min(workers, len(starts))

    def run_share(w: int) -> None:
        ramp = _gamma_ramp(per, n, cols)
        z, buf = np.empty(per * n, dtype=np.uint64), np.empty(per * n)
        for start in starts[w::workers]:
            stop = min(start + _CHUNK, samples)
            for lo in range(start, stop, per):
                count = min(per, stop - lo)
                rows = _block(buf, count, n, cols)
                _sample_rows(seed, lo * n, ramp[:count],
                             _block(z, count, n, cols), rows)
                values[lo:lo + count] = _ratio_rows(rows, e, rows)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_share, range(workers)))
    else:
        run_share(0)

    def outside(vals: np.ndarray) -> np.ndarray:
        return (
            ~np.isfinite(vals)
            | (vals < lower - VIOLATION_SLACK * _scale(lower))
            | (vals > upper + VIOLATION_SLACK * _scale(upper))
        )

    bad_idx = np.nonzero(outside(values))[0]
    examples: List[Tuple[float, Tuple[float, ...]]] = []
    for idx in bad_idx[:5]:
        examples.append((float(values[idx]), simplex_sample(n, seed, int(idx))))
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
        cert=cert,
        samples=samples,
        seed=seed,
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

    def to_payload(self) -> dict:
        return {
            "ok": self.ok,
            "tol_min": self.tol_min,
            "tol_max": self.tol_max,
            "failures": list(self.failures),
        }


def check_bounds(report: OracleReport) -> BoundsCheck:
    """Validate a Monte-Carlo report against the certificate it carries.

    Fails when any sample or probe violated the bounds (the first
    offending tuples are named), when a grid value escapes a bound b by
    more than VIOLATION_SLACK * max(1, |b|), when a grid extreme is
    infinite or NaN while its side's bound is finite, or when the grid
    extreme on a certified-extremum side misses the constant b by more
    than GRID_TOL * max(1, |b|).
    """
    cert, grid = report.cert, report.grid_extreme
    failures: List[str] = []
    tol_min = GRID_TOL * _scale(cert.lower_bound)
    tol_max = GRID_TOL * _scale(cert.upper_bound)

    if report.violations > 0:
        named = "; ".join(
            f"ratio {v} at ({', '.join(format(c, '.17g') for c in cfg)})"
            for v, cfg in report.violation_examples
        )
        failures.append(
            f"{report.violations} sampled value(s) violated "
            f"[{cert.lower_bound}, {cert.upper_bound}]: {named}"
        )
    for name, value, arg, side, bound, kind, tol, beyond, escapes in (
        ("min", grid.min_value, grid.arg_x_min, "lower", cert.lower_bound,
         cert.lower_kind, tol_min, -1.0, "undercuts"),
        ("max", grid.max_value, grid.arg_x_max, "upper", cert.upper_bound,
         cert.upper_kind, tol_max, 1.0, "exceeds"),
    ):
        if not math.isfinite(bound):
            continue
        if not math.isfinite(value):
            failures.append(
                f"grid {name} {value} at x={arg} is not finite, "
                f"against the finite {side} bound {bound}"
            )
        if beyond * (value - bound) > VIOLATION_SLACK * _scale(bound):
            failures.append(
                f"grid {name} {value} at x={arg} {escapes} {side} bound {bound}"
            )
        if kind == "certified-extremum" and abs(value - bound) > tol:
            failures.append(
                f"grid {name} {value} is not within {tol} of the "
                f"certified {side} bound {bound}"
            )
    return BoundsCheck(
        ok=not failures, tol_min=tol_min, tol_max=tol_max, failures=tuple(failures)
    )
