"""Command line interface.

Subcommands:

    constants   certificate of extremal constants for one (n, alpha)
    verify      Monte Carlo + grid oracles against the certificate
    sweep       certificates across a range of n at fixed alpha
    profile     tabulated profile functions on the two-value segment
    reduce3     the fixed sum-and-product triple curve and its power sum

Output is a JSON envelope (or CSV rows with --format csv); every float
is serialized as a 17-significant-digit decimal string, so payloads are
byte identical across runs, platforms, and worker counts.  Exit code 0
means success, 1 means a verification failed, 2 means invalid input.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from io import StringIO
from typing import List, Optional, Sequence

import click
import numpy as np

from . import __version__
from .constants import (
    EPS_HAT,
    best_constants,
    format_float,
    sweep_constants,
)
from .means import ExponentPair
from .oracle import (
    DEFAULT_GRID,
    DEFAULT_SAMPLES,
    VIOLATION_SLACK,
    check_bounds,
    monte_carlo_extremes,
)
from .profile import (
    CENTER_BAND,
    ProfileParams,
    U_func,
    V_func,
    W_func,
    f_prime,
    f_profile,
    g_profile,
    p_profile,
)
from .reduction import (
    ConstraintDegenerateError,
    curve_params,
    curve_point,
    h_power_sum,
    h_prime,
)

_PROFILE_COLUMNS = {
    "g": g_profile,
    "p": p_profile,
    "f": f_profile,
    "U": U_func,
    "V": V_func,
    "W": W_func,
    "fprime": f_prime,
}


def _parse_alpha(ctx, param, value: str) -> ExponentPair:
    """Accept a decimal like -0.5 or a fraction like -1/2.

    Fractions keep the reciprocal exact: 1/5 gives r = 5.0, not the
    rounded reciprocal of float(0.2).
    """
    try:
        if "/" in value:
            frac = Fraction(value)
            if frac == 0 or frac == 1:
                raise ValueError
            return ExponentPair(alpha=float(frac), r=float(1 / frac))
        alpha = float(value)
        if alpha in (0.0, 1.0) or not math.isfinite(alpha):
            raise ValueError
        return ExponentPair.from_alpha(alpha)
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(
            f"cannot use exponent {value!r}; need a finite decimal or p/q "
            "fraction different from 0 and 1"
        )


format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="json",
    envvar="MEANGAP_FORMAT",
    show_default=True,
    help="output format (env: MEANGAP_FORMAT)",
)
n_option = click.option("--n", type=int, required=True, help="tuple length, n >= 3")
alpha_option = click.option(
    "--alpha",
    "e",
    callback=_parse_alpha,
    required=True,
    help="mean order, decimal or p/q fraction",
)


def _emit(fmt: str, payload, instance: dict, tolerances: dict, started: float) -> None:
    if fmt == "csv":
        click.echo(_to_csv(payload), nl=False)
        return
    envelope = {
        "format": "json",
        "payload": payload,
        "metadata": {
            "version": __version__,
            "instance": instance,
            "tolerances": tolerances,
            "timing": {"elapsed_s": format_float(time.perf_counter() - started)},
        },
    }
    click.echo(json.dumps(envelope, indent=2, sort_keys=True))


def _flatten(obj, prefix: str = "") -> list:
    items = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            items.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
        return items
    key = prefix[:-1]
    if isinstance(obj, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            items.append((key, ";".join("" if v is None else str(v) for v in obj)))
        else:
            items.append((key, json.dumps(obj, sort_keys=True)))
        return items
    items.append((key, "" if obj is None else obj))
    return items


def _to_csv(payload) -> str:
    import csv

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if row.get(k) is None else row.get(k) for k in header])
    else:
        writer.writerow(["key", "value"])
        for key, value in _flatten(payload):
            writer.writerow([key, value])
    return buf.getvalue()


def _instance(n: int, e: ExponentPair) -> dict:
    return {"n": n, "alpha": format_float(e.alpha), "r": format_float(e.r)}


@click.group()
@click.version_option(version=__version__, prog_name="meangap")
def main() -> None:
    """Extremal constants of (A - G)/(P_alpha - G) on positive tuples."""


@main.command("constants")
@n_option
@alpha_option
@click.option("--tol", type=float, default=1e-10, show_default=True,
              help="bracket width of the interior extremum search, in log t")
@format_option
def constants_cmd(n: int, e: ExponentPair, tol: float, fmt: str) -> None:
    """Certificate of the extremal constants for one instance."""
    started = time.perf_counter()
    try:
        cert = best_constants(n, e, tol=tol)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    payload = cert.to_payload()
    _emit(fmt, payload, instance=_instance(n, e),
          tolerances=payload["tol"], started=started)


@main.command("verify")
@n_option
@alpha_option
@click.option("--samples", type=int, default=DEFAULT_SAMPLES, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True,
              help="worker threads; the output does not depend on this")
@click.option("--grid", type=int, default=DEFAULT_GRID, show_default=True,
              help="grid resolution for the profile scan")
@format_option
@click.pass_context
def verify_cmd(
    ctx, n: int, e: ExponentPair, samples: int, seed: int, workers: int,
    grid: int, fmt: str,
) -> None:
    """Run the independent oracles against the certificate; exit 1 on failure."""
    started = time.perf_counter()
    try:
        cert = best_constants(n, e)
        report = monte_carlo_extremes(
            n, e, samples=samples, seed=seed, cert=cert, workers=workers,
            grid=grid,
        )
        chk = check_bounds(report, cert)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    payload = {
        "ok": chk.ok,
        "certificate": cert.to_payload(),
        "report": report.to_payload(),
        "check": chk.to_payload(),
    }
    tolerances = dict(cert.to_payload()["tol"])
    tolerances["violation_slack"] = format_float(VIOLATION_SLACK)
    _emit(fmt, payload, instance=_instance(n, e),
          tolerances=tolerances, started=started)
    if not chk.ok:
        ctx.exit(1)


def _trend(prev: Optional[float], cur: Optional[float]) -> str:
    if cur is None:
        return "none"
    if prev is None:
        return "start"
    if cur > prev:
        return "up"
    if cur < prev:
        return "down"
    return "flat"


def _overall(trends: Sequence[str]) -> str:
    moves = {t for t in trends if t in ("up", "down")}
    if not moves:
        return "constant"
    if moves == {"up"}:
        return "increasing"
    if moves == {"down"}:
        return "decreasing"
    return "mixed"


@main.command("sweep")
@click.option("--n-min", type=int, default=3, show_default=True)
@click.option("--n-max", type=int, required=True)
@alpha_option
@click.option("--tol", type=float, default=1e-10, show_default=True)
@format_option
def sweep_cmd(n_min: int, n_max: int, e: ExponentPair, tol: float, fmt: str) -> None:
    """Certificates for n in [n-min, n-max] with an omega trend verdict."""
    started = time.perf_counter()
    try:
        certs = sweep_constants(e, n_min, n_max, tol=tol)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = []
    prev_omega: Optional[float] = None
    trends: List[str] = []
    for cert in certs:
        t = _trend(prev_omega, cert.omega)
        trends.append(t)
        rows.append(
            {
                "n": cert.n,
                "regime": cert.regime.value,
                "lower_bound": format_float(cert.lower_bound),
                "upper_bound": format_float(cert.upper_bound),
                "lower_kind": cert.lower_kind,
                "upper_kind": cert.upper_kind,
                "omega": None if cert.omega is None else format_float(cert.omega),
                "x_star": None if cert.x_star is None else format_float(cert.x_star),
                "omega_trend": t,
            }
        )
        if cert.omega is not None:
            prev_omega = cert.omega
    payload = {"rows": rows, "verdict": {"omega": _overall(trends)}}
    _emit(
        fmt,
        payload,
        instance={"n": f"{n_min}..{n_max}", "alpha": format_float(e.alpha),
                  "r": format_float(e.r)},
        tolerances={"nu_bracket_width": format_float(tol)},
        started=started,
    )


@main.command("profile")
@n_option
@alpha_option
@click.option("--points", type=int, default=201, show_default=True)
@click.option(
    "--which",
    default="g,p,f,U,V,W",
    show_default=True,
    help="comma separated columns from g,p,f,U,V,W,fprime",
)
@format_option
def profile_cmd(n: int, e: ExponentPair, points: int, which: str, fmt: str) -> None:
    """Tabulate profile functions on (eps, 1/(n-1) - eps), eps = 1e-9/n."""
    started = time.perf_counter()
    if points < 2:
        raise click.UsageError("--points must be >= 2")
    names = [tok.strip() for tok in which.split(",") if tok.strip()]
    unknown = [tok for tok in names if tok not in _PROFILE_COLUMNS]
    if unknown or not names:
        raise click.UsageError(
            f"--which must be a comma separated subset of "
            f"{','.join(_PROFILE_COLUMNS)}; got {which!r}"
        )
    try:
        params = ProfileParams(n=n, e=e)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    eps = EPS_HAT / n
    xs = np.linspace(eps, params.x_hi - eps, points)
    center = np.abs(n * xs - 1.0) <= CENTER_BAND
    columns = {}
    for name in names:
        if name == "fprime":
            # the slope identity degenerates at the center; leave the
            # band entries empty
            col = np.full(len(xs), np.nan)
            if np.any(~center):
                col[~center] = f_prime(xs[~center], params)
            columns[name] = col
        else:
            columns[name] = _PROFILE_COLUMNS[name](xs, params)
    rows = []
    for i, x in enumerate(xs):
        row = {"x": format_float(x)}
        for name in names:
            v = columns[name][i]
            row[name] = None if (name == "fprime" and center[i]) else format_float(v)
        rows.append(row)
    payload = {"rows": rows}
    _emit(fmt, payload, instance=_instance(n, e), tolerances={}, started=started)


@main.command("reduce3")
@click.option("--sum", "sum_c", type=float, required=True,
              help="fixed coordinate sum")
@click.option("--prod", "prod_c", type=float, required=True,
              help="fixed coordinate product")
@click.option("--r", "r_", type=float, required=True, help="power sum exponent")
@click.option("--grid", type=int, default=101, show_default=True,
              help="number of t samples, endpoints included")
@format_option
def reduce3_cmd(sum_c: float, prod_c: float, r_: float, grid: int, fmt: str) -> None:
    """Walk the fixed sum-and-product triple curve and its power sum."""
    started = time.perf_counter()
    if grid < 2:
        raise click.UsageError("--grid must be >= 2")
    try:
        cp = curve_params(sum_c, prod_c)
    except ConstraintDegenerateError as exc:
        raise click.UsageError(str(exc))
    ts = np.linspace(cp.t_lo, cp.t_hi, grid)
    rows = []
    h_vals = []
    for i, t in enumerate(ts):
        pt = curve_point(float(t), cp)
        h = h_power_sum(float(t), cp, r_)
        h_vals.append(h)
        # the derivative formula pivots on distinct coordinates, which
        # fail exactly at the endpoints
        endpoint = i == 0 or i == grid - 1
        rows.append(
            {
                "t": format_float(t),
                "x": format_float(pt.x),
                "y": format_float(pt.y),
                "z": format_float(pt.z),
                "h": format_float(h),
                "h_prime": None if endpoint else format_float(
                    h_prime(float(t), cp, r_)
                ),
            }
        )
    diffs = np.diff(h_vals)
    flat = 1e-12 * max(1.0, float(np.max(np.abs(h_vals))))
    if np.all(np.abs(diffs) <= flat):
        verdict = "constant"
    elif np.all(diffs < -flat):
        verdict = "strictly decreasing"
    elif np.all(diffs > flat):
        verdict = "strictly increasing"
    else:
        verdict = "non-monotone"
    payload = {
        "rows": rows,
        "t_lo": format_float(cp.t_lo),
        "t_hi": format_float(cp.t_hi),
        "h_at_t_lo": format_float(h_vals[0]),
        "h_at_t_hi": format_float(h_vals[-1]),
        "monotone": verdict,
    }
    _emit(
        fmt,
        payload,
        instance={"sum": format_float(sum_c), "prod": format_float(prod_c),
                  "r": format_float(r_)},
        tolerances={},
        started=started,
    )


if __name__ == "__main__":
    main()
