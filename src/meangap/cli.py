"""Command line interface.

Subcommands:

    constants   certificate of extremal constants for one (n, alpha)
    verify      Monte Carlo + grid oracles against the certificate
    sweep       certificates across a range of n at fixed alpha
    profile     tabulated profile functions on the two-value segment
    reduce3     the fixed sum-and-product triple curve and its power sum

Output is a JSON envelope (or CSV rows with --format csv).  A
subcommand's function only computes, and returns (payload, instance,
tolerances) holding Python floats, None for an empty cell; `main` maps
errors to exit codes and writes the envelope.  The two writers alone
turn a float into text, as a 17-significant-digit decimal string
("%.17g"), so payloads are byte identical across runs, platforms, and
worker counts.
Exit code 0 means success, 1 means a verification failed, 2 means
invalid input (a ValueError), and 3 means a valid instance that the
solvers cannot certify (an UncertifiedInstance).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from io import StringIO
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

from . import __version__
from .constants import EPS_HAT, EXTREMUM_TOL, best_constants, sweep_constants
from .means import ExponentPair
from .oracle import (
    DEFAULT_GRID,
    DEFAULT_SAMPLES,
    MAX_WORKERS,
    MIN_GRID,
    MIN_SAMPLES,
    VIOLATION_SLACK,
    _check_request,
    check_bounds,
    monte_carlo_extremes,
)
from .profile import CENTER_BAND, TABLE_COLUMNS, ProfileParams, profile_table
from .reduction import curve_params, curve_table
from .solver import UncertifiedInstance


def _parse_alpha(value: str) -> ExponentPair:
    """Accept a decimal like -0.5 or a fraction like -1/2.

    Fractions keep the reciprocal exact: 1/5 gives r = 5.0, not the
    rounded reciprocal of float(0.2).
    """
    try:
        if "/" in value:
            frac = Fraction(value)
            return ExponentPair(alpha=float(frac), r=float(1 / frac))
        return ExponentPair.from_alpha(float(value))
    except (ValueError, ZeroDivisionError, OverflowError):
        # ExponentPair refuses alpha 0, 1 and not finite; OverflowError: a
        # p/q or its reciprocal past the double range
        raise argparse.ArgumentTypeError(
            f"cannot use exponent {value!r}; need a finite decimal or p/q "
            "fraction different from 0 and 1"
        )


def _int_range(lo: int, hi: Optional[int] = None):
    """An option type: an int from lo to hi, or from lo up with no hi."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bounds = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"
            raise argparse.ArgumentTypeError(f"{value} is not in the range {bounds}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


FORMATS = ("json", "csv")
# options that several subcommands take
N_OPTION = dict(type=int, required=True, help="tuple length, n >= 3")
ALPHA_OPTION = dict(dest="e", metavar="ALPHA", type=_parse_alpha, required=True,
                    help="mean order, decimal or p/q fraction")
FORMAT_OPTION = dict(dest="fmt", choices=FORMATS, default="json",
                     help="output format (default: %(default)s)")
# every option but these takes exactly one value
_FLAGS = ("--help", "--version")


def _bind(args: Sequence[str]) -> List[str]:
    """args with each value that starts with one minus sign joined to the
    option before it, as '--key=value'.

    argparse reads such a value (-1/2, -1e-05, -inf) as an option of its
    own; joined to its option it is a value.  Other arguments stay as
    they are, so a usage error quotes them as typed.
    """
    bound: List[str] = []
    for arg in args:
        key = bound[-1] if bound else ""
        if (arg.startswith("-") and not arg.startswith("--")
                and key.startswith("--") and "=" not in key and key not in _FLAGS):
            bound[-1] = f"{key}={arg}"
        else:
            bound.append(arg)
    return bound


# rows of a profile, reduce3 or sweep table: one takes up to about 2 KB a
# row while it is built and written, so the largest takes about 0.2 GB
MAX_ROWS = 10**5

# profile leaves the f' cells with n a^2 min(1, |alpha (1 - alpha)|) at
# or below this empty, a = n x - 1.  Measured at n = 3..3409 and alpha
# from -60 to 60, the f' printed outside is within 2.5e-9 relative of
# the 50-digit value; with a limit of 1e-6 the worst reads 1.0e-8
FPRIME_BLANK = 4e-6


def _fprime_blank(xs, params: ProfileParams):
    """Where profile leaves f' empty: the center band and around it.

    f' = (g' - f p')/(p - 1/n) divides differences that cancel at the
    center, where f_prime refuses; around it the error grows as about
    1e-14/(n a^2 min(1, |alpha (1 - alpha)|)), a = n x - 1.
    """
    import numpy as np

    n, alpha = params.n, params.e.alpha
    a = n * xs - 1.0
    return (np.abs(a) <= CENTER_BAND) | (
        n * (a * a) * min(1.0, abs(alpha * (1.0 - alpha))) <= FPRIME_BLANK)


def _emit(fmt: str, payload, instance: dict, tolerances: dict, started: float) -> None:
    if fmt == "csv":
        sys.stdout.write(_to_csv(payload))
        return
    envelope = {
        "format": "json",
        "payload": payload,
        "metadata": {
            "version": __version__,
            "instance": instance,
            "tolerances": tolerances,
            "timing": {"elapsed_s": time.perf_counter() - started},
        },
    }
    sys.stdout.write(_json(envelope) + "\n")


@dataclass(frozen=True)
class Table:
    """Rows of a payload as columns: keys in CSV header order, one list of
    cells per key, every list as long as the table.  A column may stand
    under two keys."""

    keys: Sequence[str]
    columns: Sequence[list]


# the cell types of a float column: floats, and None for an empty cell
_FLOAT_CELLS = {float, type(None)}


def _format(col: list, slot: str, none: str) -> list:
    """slot % v for each float v of col, in one % call; none for a None.

    %-formatting and format() reach the same C routine, so a "%.17g" slot
    gives the text of format(v, ".17g"), nan, the infinities and -0
    included.
    """
    vals = [v for v in col if v is not None]
    texts = ((slot + "\n") * len(vals) % tuple(vals)).split("\n")
    if len(vals) == len(col):
        return texts[:-1]
    texts = iter(texts)
    return [none if v is None else next(texts) for v in col]


@lru_cache(maxsize=256)
def _dict_shape(keys: tuple, pad: str) -> tuple:
    # for a dict with these keys, in insertion order: its JSON at pad with
    # a %s slot per value in sorted key order, and the getter of the
    # values in that order as a tuple
    keys = sorted(keys)
    inner = pad + "  "
    template = ("{\n" + inner + (",\n" + inner).join(
        _quote(k).replace("%", "%%") + ": %s" for k in keys) + "\n" + pad + "}")
    get = itemgetter(*keys)
    if len(keys) == 1:
        # itemgetter of one key returns the value itself
        get = lambda obj, one=get: (one(obj),)
    return template, get


def _json(obj, pad: str = "") -> str:
    """obj as json.dumps writes it with an indent of 2 and sorted keys, at pad.

    With any indent json.dumps runs its pure-Python encoder, not the C
    one.  Here strings go through the C string quoter, a dict fills the
    template of its keys in insertion order at pad, cached with the
    getter of its values in sorted key order, and a `Table` is written as
    the list of dicts it stands for.  A float is written as the string of
    "%.17g".
    Keys must be str.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return '"%.17g"' % obj
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        template, get = _dict_shape(tuple(obj), pad)
        # a tuple of a list: one of a generator is resized from a guessed
        # length, and freed it would join the free list of its new size,
        # which keeps up to 2000 tuples a size
        return template % tuple([
            _quote(v) if isinstance(v, str)
            else '"%.17g"' % v if isinstance(v, float) else _json(v, inner)
            for v in get(obj)])
    if isinstance(obj, Table):
        return _table(obj, pad)
    # a record such as a certificate is a named tuple, not a JSON list
    if not isinstance(obj, (list, tuple)) or hasattr(obj, "_fields"):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return "[]"
    sep = ",\n" + inner
    return "[\n" + inner + sep.join([_json(v, inner) for v in obj]) + "\n" + pad + "]"


def _table(table: Table, pad: str) -> str:
    """The JSON list of a table's rows at pad, in one % call over its cells
    in row order.

    A column of floats alone fills a "%.17g" slot.  Any other column is
    rendered once, whatever number of keys it stands under, into a %s
    slot: one of floats and None in one % call with null for None, one of
    str by the C quoter, and other cells one by one.  Cell types are told
    by set(map(type, col)), which runs in C.
    """
    inner = pad + "  "
    cell_pad = inner + "  "
    slots, cols, texts = [], [], {}
    for i in sorted(range(len(table.keys)), key=table.keys.__getitem__):
        col = table.columns[i]
        types = set(map(type, col))
        if types == {float}:
            slot = '"%.17g"'
        else:
            slot = "%s"
            if id(col) not in texts:
                texts[id(col)] = _texts(col, types, cell_pad)
            col = texts[id(col)]
        slots.append(_quote(table.keys[i]).replace("%", "%%") + ": " + slot)
        cols.append(col)
    size = len(cols[0]) if cols else 0
    if not size:
        return "[]"
    cells = [None] * (size * len(cols))
    for j, col in enumerate(cols):
        cells[j::len(cols)] = col
    row = "{\n" + cell_pad + (",\n" + cell_pad).join(slots) + "\n" + inner + "}"
    return ("[\n" + inner + (",\n" + inner).join([row] * size) + "\n" + pad + "]"
            ) % tuple(cells)


def _texts(col: list, types: set, pad: str) -> list:
    # the JSON texts at pad of a column's cells, of the given types
    if types <= _FLOAT_CELLS:
        return _format(col, '"%.17g"', "null")
    if types == {str}:
        return list(map(_quote, col))
    return [_json(v, pad) for v in col]


def _cell(value):
    # a CSV cell of a scalar as the JSON envelope writes it: None empty,
    # booleans lower case, a float as "%.17g"
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return value


def _flatten(obj, prefix: str = "") -> list:
    items = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            items.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
        return items
    key = prefix[:-1]
    if isinstance(obj, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            items.append((key, ";".join(str(_cell(v)) for v in obj)))
        else:
            # the envelope's JSON of obj, its floats as text, on one line
            items.append((key, json.dumps(json.loads(_json(obj)), sort_keys=True)))
        return items
    items.append((key, _cell(obj)))
    return items


def _to_csv(payload) -> str:
    import csv

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if isinstance(rows, Table):
        writer.writerow(rows.keys)
        writer.writerows(zip(*[
            _format(col, "%.17g", "") if set(map(type, col)) <= _FLOAT_CELLS
            else map(_cell, col)
            for col in rows.columns]))
    else:
        writer.writerow(["key", "value"])
        for key, value in _flatten(payload):
            writer.writerow([key, value])
    return buf.getvalue()


def _instance(n: int, e: ExponentPair) -> dict:
    return {"n": n, "alpha": e.alpha, "r": e.r}


def constants_cmd(n: int, e: ExponentPair) -> tuple:
    """Certificate of the extremal constants for one instance."""
    payload = best_constants(n, e).to_payload()
    return payload, _instance(n, e), payload["tol"]


def verify_cmd(
    n: int, e: ExponentPair, samples: int, seed: int, workers: int, grid: int,
) -> tuple:
    """Run the independent oracles against the certificate; exit 1 on failure."""
    # the instance's own checks and verify's limits come before the
    # certificate, so a request past a limit is refused whatever alpha is
    ProfileParams(n=n, e=e)
    _check_request(n, samples, grid, workers)
    cert = best_constants(n, e)
    report = monte_carlo_extremes(
        cert, samples=samples, seed=seed, workers=workers, grid=grid)
    chk = check_bounds(report)
    payload = {
        "ok": chk.ok,
        "certificate": cert.to_payload(),
        "report": report.to_payload(),
        "check": chk.to_payload(),
    }
    tolerances = dict(payload["certificate"]["tol"])
    tolerances["violation_slack"] = VIOLATION_SLACK
    return payload, _instance(n, e), tolerances


def _trends(omegas: Sequence[Optional[float]]) -> List[str]:
    """Each omega's step from the last one before it that is not None."""
    trends = []
    prev = None
    for cur in omegas:
        if cur is None:
            trends.append("none")
            continue
        if prev is None:
            trends.append("start")
        else:
            trends.append("up" if cur > prev else "down" if cur < prev else "flat")
        prev = cur
    return trends


def _overall(trends: Sequence[str]) -> str:
    moves = {t for t in trends if t in ("up", "down")}
    if not moves:
        return "constant"
    if moves == {"up"}:
        return "increasing"
    if moves == {"down"}:
        return "decreasing"
    return "mixed"


def sweep_cmd(n_min: int, n_max: int, e: ExponentPair) -> tuple:
    """Certificates for n in [n-min, n-max] with an omega trend verdict."""
    if n_max - n_min + 1 > MAX_ROWS:
        raise ValueError(f"a sweep takes at most {MAX_ROWS} values of n; "
                         f"got {n_min}..{n_max}")
    certs = sweep_constants(e, n_min, n_max)
    # the cells of the certificates' payloads, from their fields
    n, regime, lower, upper, lower_kind, upper_kind, omegas, x_star = map(list, zip(*[
        (cert.n, cert.regime.value, cert.lower_bound, cert.upper_bound,
         cert.lower_kind, cert.upper_kind, cert.omega, cert.x_star) for cert in certs]))
    trends = _trends(omegas)
    rows = Table(
        ("n", "regime", "lower_bound", "upper_bound", "lower_kind",
         "upper_kind", "omega", "x_star", "omega_trend"),
        [n, regime, lower, upper, lower_kind, upper_kind, omegas, x_star, trends])
    payload = {"rows": rows, "verdict": {"omega": _overall(trends)}}
    instance = {**_instance(n_min, e), "n": f"{n_min}..{n_max}"}
    return payload, instance, {"nu_bracket_width": EXTREMUM_TOL}


def profile_cmd(n: int, e: ExponentPair, points: int, which: str) -> tuple:
    """Tabulate profile functions on (eps, 1/(n-1) - eps), eps = 1e-9/n."""
    names = [tok.strip() for tok in which.split(",") if tok.strip()]
    unknown = [tok for tok in names if tok not in TABLE_COLUMNS]
    if unknown or not names or len(set(names)) < len(names):
        # a repeated column would repeat its key in every JSON row
        raise ValueError(
            f"--which must be a comma separated subset of "
            f"{','.join(TABLE_COLUMNS)}, each name once; got {which!r}"
        )
    params = ProfileParams(n=n, e=e)
    import numpy as np

    eps = EPS_HAT / n
    xs = np.linspace(eps, params.x_hi - eps, points)
    cells = [col.tolist() for col in (xs, *profile_table(xs, params, names))]
    if "fprime" in names:
        col = cells[1 + names.index("fprime")]
        for i in np.flatnonzero(_fprime_blank(xs, params)).tolist():
            col[i] = None
    return {"rows": Table(["x", *names], cells)}, _instance(n, e), {}


def reduce3_cmd(sum_c: float, prod_c: float, r_: float, grid: int) -> tuple:
    """Walk the fixed sum-and-product triple curve and its power sum."""
    if not math.isfinite(r_):
        raise ValueError(f"--r must be finite, got {r_}")
    import numpy as np

    # a ValueError: degenerate constraints, or finite ones past what doubles
    # resolve (a power or the power sum overflows, or coordinates merge or
    # cross)
    cp = curve_params(sum_c, prod_c)
    ts = np.linspace(cp.t_lo, cp.t_hi, grid).tolist()
    table = curve_table(ts, cp, r_)
    h_vals = table["h"]
    # y is t; h' is None at the ends, where the derivative formula's
    # distinct coordinates merge, and where it is not a finite double
    rows = Table(("t", "x", "y", "z", "h", "h_prime"),
                 [ts, table["x"], ts, table["z"], h_vals, table["h_prime"]])
    diffs = [b - a for a, b in zip(h_vals, h_vals[1:])]
    flat = 1e-12 * max(1.0, max(map(abs, h_vals)))
    if all(abs(v) <= flat for v in diffs):
        verdict = "constant"
    elif all(v < -flat for v in diffs):
        verdict = "strictly decreasing"
    elif all(v > flat for v in diffs):
        verdict = "strictly increasing"
    else:
        verdict = "non-monotone"
    payload = {
        "rows": rows,
        "t_lo": cp.t_lo,
        "t_hi": cp.t_hi,
        "h_at_t_lo": h_vals[0],
        "h_at_t_hi": h_vals[-1],
        "monotone": verdict,
    }
    instance = {"sum": sum_c, "prod": prod_c, "r": r_}
    return payload, instance, {}


def _parser(prog: str) -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The command line's group parser and each subcommand's own parser by
    name.  A subcommand's namespace holds its options, its function as
    `run` and its own parser as `parser`."""
    parser = argparse.ArgumentParser(
        prog=prog, description=main.__doc__.split("\n")[0], add_help=False,
        allow_abbrev=False)
    parser.add_argument("--help", action="help", help="show this message and exit")
    parser.add_argument("--version", action="version",
                        version=f"meangap, version {__version__}",
                        help="show the version and exit")
    commands = parser.add_subparsers(title="commands", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  add_help=False, allow_abbrev=False)
        sub.add_argument("--help", action="help", help="show this message and exit")
        sub.set_defaults(run=run, parser=sub)
        return sub.add_argument

    option = command("constants", constants_cmd)
    option("--n", **N_OPTION)
    option("--alpha", **ALPHA_OPTION)
    option("--format", **FORMAT_OPTION)

    option = command("verify", verify_cmd)
    option("--n", **N_OPTION)
    option("--alpha", **ALPHA_OPTION)
    option("--samples", type=int, default=DEFAULT_SAMPLES,
           help=f"Monte Carlo samples, {MIN_SAMPLES} to 1e8 (default: %(default)s)")
    option("--seed", type=int, default=0,
           help="seed of the Monte Carlo samples (default: %(default)s)")
    option("--workers", type=_int_range(1), default=1,
           help=f"worker threads, at most {MAX_WORKERS}; the output does not "
                "depend on this (default: %(default)s)")
    option("--grid", type=int, default=DEFAULT_GRID,
           help=f"grid points of the profile scan, at least {MIN_GRID} "
                "(default: %(default)s)")
    option("--format", **FORMAT_OPTION)

    option = command("sweep", sweep_cmd)
    option("--n-min", type=int, default=3, help="first n (default: %(default)s)")
    option("--n-max", type=int, required=True, help="last n")
    option("--alpha", **ALPHA_OPTION)
    option("--format", **FORMAT_OPTION)

    option = command("profile", profile_cmd)
    option("--n", **N_OPTION)
    option("--alpha", **ALPHA_OPTION)
    option("--points", type=_int_range(2, MAX_ROWS), default=201,
           help="grid points, 2 to 1e5 (default: %(default)s)")
    option("--which", default="g,p,f,U,V,W",
           help="comma separated columns from g,p,f,U,V,W,fprime "
                "(default: %(default)s)")
    option("--format", **FORMAT_OPTION)

    option = command("reduce3", reduce3_cmd)
    option("--sum", dest="sum_c", metavar="SUM", type=float, required=True,
           help="fixed coordinate sum")
    option("--prod", dest="prod_c", metavar="PROD", type=float, required=True,
           help="fixed coordinate product")
    option("--r", dest="r_", metavar="R", type=float, required=True,
           help="power sum exponent")
    option("--grid", type=_int_range(2, MAX_ROWS), default=101,
           help="number of t samples, endpoints included, 2 to 1e5 "
                "(default: %(default)s)")
    option("--format", **FORMAT_OPTION)
    # add_parser keeps each subcommand's parser in the choices of the action
    return parser, commands.choices


def main(args: Optional[Sequence[str]] = None, prog_name: str = "meangap") -> NoReturn:
    """Extremal constants of (A - G)/(P_alpha - G) on positive tuples.

    Parses args (sys.argv[1:] by default), runs the subcommand they name
    and ends with SystemExit: 0, 1 (a verification failed), 2 (invalid
    input) or 3 (an instance the solvers cannot certify).  When the first
    argument names a subcommand, the rest is parsed by that subcommand's
    own parser alone; any other input (none, --help, --version, an
    unknown command) goes to the group parser.
    """
    parser, commands = _PARSER if prog_name == _PARSER[0].prog else _parser(prog_name)
    bound = _bind(sys.argv[1:] if args is None else args)
    sub = commands.get(bound[0]) if bound else None
    if sub is None:
        namespace = parser.parse_args(bound)
    else:
        namespace, extra = sub.parse_known_args(bound[1:])
        if extra:
            # as the group parser reports what its subcommand left over
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    opts = vars(namespace)
    run, sub, fmt = opts.pop("run"), opts.pop("parser"), opts.pop("fmt")
    started = time.perf_counter()
    try:
        payload, instance, tolerances = run(**opts)
    # UncertifiedInstance first: solver.BracketError is one and a ValueError
    except UncertifiedInstance as exc:
        print(f"Error: cannot certify this instance: {exc}", file=sys.stderr)
        raise SystemExit(3)
    except ValueError as exc:
        sub.error(str(exc))
    _emit(fmt, payload, instance, tolerances, started)
    # only verify's payload has "ok", its verdict
    raise SystemExit(0 if payload.get("ok", True) else 1)


_PARSER = _parser("meangap")


if __name__ == "__main__":
    main()
