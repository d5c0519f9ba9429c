"""Command line surface: envelopes, formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import random
import re
import sys
import warnings

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from meangap.cli import (Table, _cell, _dict_shape, _format, _json, _overall,
                         _parse_alpha, _to_csv, _trends, main)
from meangap.constants import best_constants, sweep_constants
from meangap.means import ExponentPair


def run_json(runner, args, **kwargs):
    result = runner.invoke(main, args, **kwargs)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestEnvelope:
    def test_structure(self, runner):
        env = run_json(runner, ["constants", "--n", "4", "--alpha", "2"])
        assert set(env) == {"format", "payload", "metadata"}
        assert env["format"] == "json"
        meta = env["metadata"]
        assert set(meta) == {"version", "instance", "tolerances", "timing"}
        assert meta["instance"] == {"n": 4, "alpha": "2", "r": "0.5"}
        assert "elapsed_s" in meta["timing"]

    def test_floats_serialize_as_17g_strings(self, runner):
        env = run_json(runner, ["constants", "--n", "4", "--alpha", "2"])
        payload = env["payload"]
        for key in ("omega", "nu", "x_star", "lower_bound", "upper_bound"):
            text = payload[key]
            assert isinstance(text, str)
            # 17 significant digits round-trip the double exactly
            assert format(float(text), ".17g") == text
        assert float(payload["omega"]) == pytest.approx(0.43850326317556205,
                                                        rel=1e-12)
        assert float(payload["nu"]) == pytest.approx(-0.78095425034084923,
                                                     rel=1e-12)
        assert float(payload["x_star"]) == pytest.approx(0.13279871131480413,
                                                         abs=1e-7)

    def test_tolerances_mirror_certificate(self, runner):
        env = run_json(runner, ["constants", "--n", "3", "--alpha", "-1"])
        assert env["metadata"]["tolerances"] == env["payload"]["tol"]


# scalars of every JSON type: str with non-ASCII, quote, backslash and
# control characters, NaN and the infinities among the floats
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(alphabet=st.characters(codec="utf-8"))
            | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é \u2028 \U0001d11e"]))
_KEYS = st.text(max_size=4) | st.sampled_from(["%", "%s", "a%d", "%%(x)s"])
# tables: dicts mostly sharing one key set, some differing
_ROWS = st.lists(st.fixed_dictionaries({"x": _SCALARS, "%s": _SCALARS},
                                       optional={"z": _SCALARS}), max_size=5)
_JSON = st.recursive(
    _SCALARS | _ROWS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=40,
)


def _texted(obj):
    # obj as the writers print it: each float as the string format(v, ".17g")
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, dict):
        return {k: _texted(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_texted(v) for v in obj]
    return obj


class TestJsonWriter:
    @given(_JSON)
    @example({"rows": [{"a%": "1", "b": None}, {"a%": "2", "b": "%s"},
                       {"a%": "3"}, {}, [], 1.5]})
    # the dict shapes: one key set in two insertion orders at one pad and
    # at two pads, a one-key dict and keys holding %
    @example([{"b": 1, "a": 2.5}, {"a": None, "b": "x"}, {"b": [], "a": -0.0}])
    @example({"x": {"b": 1, "a": 2.5}, "y": [{"a": "%s", "b": {"b": True, "a": 3}}]})
    @example({"k": 1.5})
    @example([{"k": "v"}, {"k": {"k": None}}])
    @example({"%s": {"a%d": 1, "%": "%%", "%(x)s": [1.0]}, "a%": {"%(x)s": 2, "%": 3}})
    def test_matches_json_dumps(self, obj):
        assert _json(obj) == json.dumps(_texted(obj), indent=2, sort_keys=True)

    def test_float_scalars_are_17g(self):
        # the one float rule of both writers: a JSON string, a CSV cell
        for value, text in [
            (1.0 / 3.0, "0.33333333333333331"), (math.inf, "inf"), (-0.0, "-0"),
            (math.nan, "nan"), (1e16, "10000000000000000"),
            (5e-324, "4.9406564584124654e-324"),
        ]:
            assert _json(value) == f'"{text}"'
            assert _cell(value) == text
            assert _to_csv({"v": [value, None], "w": {"x": value}}) == (
                f"key,value\nv,{text};\nw.x,{text}\n")

    def test_records_are_refused(self):
        # a certificate is a named tuple: one that slipped into a payload
        # must fail as json.dumps would, not be written as an unnamed list
        cert = best_constants(3, ExponentPair.from_alpha(-1.0))
        for obj in (cert, {"cert": cert}, [cert], (cert.n, cert)):
            with pytest.raises(TypeError, match="ExtremumCertificate is not JSON"):
                _json(obj)
        assert _json((1, [2.0])) == json.dumps([1, ["2"]], indent=2)

    @pytest.mark.parametrize("args", [
        ["constants", "--n", "4", "--alpha", "2"],
        ["verify", "--n", "4", "--alpha", "2", "--samples", "10000",
         "--grid", "300000"],
        ["sweep", "--n-max", "6", "--alpha", "-1"],
        ["profile", "--n", "3", "--alpha", "-1", "--points", "7",
         "--which", "g,fprime"],
        ["reduce3", "--sum", "6", "--prod", "6", "--r", "2", "--grid", "5"],
    ])
    def test_envelope_bytes_are_json_dumps(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.output == json.dumps(json.loads(result.output), indent=2,
                                           sort_keys=True) + "\n"


@st.composite
def _tables(draw):
    # distinct keys, % and escapes among them; columns of any scalars,
    # None, bools and ints included, all of one length, zero too
    keys = draw(st.lists(_KEYS, unique=True, max_size=4))
    size = draw(st.integers(0, 4))
    return Table(keys, [draw(st.lists(_SCALARS, min_size=size, max_size=size))
                        for _ in keys])


def _dict_rows_csv(rows, keys):
    # the CSV that `_to_csv` wrote for a payload's rows as a list of dicts
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_cell(row.get(k)) for k in keys])
    return buf.getvalue()


# the edges of the double range, as the float cells of a table may hold them
_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, sys.float_info.max,
          -sys.float_info.max]
_FLOAT_CELLS = st.none() | st.floats() | st.sampled_from(_EDGES)


@st.composite
def _float_tables(draw):
    # columns of floats, with and without None, mixed with columns of any
    # scalars; keys with % among them, and a column under two keys
    keys = draw(st.lists(_KEYS, unique=True, min_size=1, max_size=5))
    size = draw(st.integers(0, 4))
    cells = lambda strategy: draw(st.lists(strategy, min_size=size, max_size=size))
    columns = [cells(_FLOAT_CELLS) if draw(st.booleans()) else cells(_SCALARS)
               for _ in keys]
    if len(keys) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(keys))))[:2]
        columns[i] = columns[j]
    return Table(keys, columns)


def _list_of_dicts(table):
    # the rows a table stands for, a float cell as format(v, ".17g")
    return [dict(zip(table.keys, map(_texted, row))) for row in zip(*table.columns)]


_T = list(_EDGES)
_H = [None, *_EDGES, None]


class TestTableWriter:
    @given(_tables())
    @example(Table(["a%", "%s", "n"], [["1", "2"], [None, "%s"], [3, True]]))
    @example(Table(["x"], [[]]))
    def test_json_is_the_list_of_dicts(self, table):
        rows = _list_of_dicts(table)
        assert _json(table) == json.dumps(rows, indent=2, sort_keys=True)
        assert _json({"rows": table}) == json.dumps({"rows": rows}, indent=2,
                                                    sort_keys=True)

    @given(_tables())
    @example(Table(["a", "b"], [[True, False], [None, "x,\"y\n"]]))
    def test_csv_is_the_list_of_dicts(self, table):
        rows = _list_of_dicts(table)
        assert _to_csv({"rows": table}) == _dict_rows_csv(rows, table.keys)

    # as reduce3 prints its rows: t under two keys, h' with None at the ends
    @given(_float_tables())
    @example(Table(["t", "y%", "%s", "h'", "n"],
                   [_T, _T, _H[1:-1], _H[:-2],
                    [None, 1, "x", True, 2.5, "%s", -0.0, 7]]))
    @example(Table(["a%d", "%%(x)s", "b"], [_H, [0] * 10, _H]))
    @example(Table(["x", "%"], [[], []]))
    def test_float_tables_are_the_list_of_dicts(self, table):
        rows = _list_of_dicts(table)
        assert _json(table) == json.dumps(rows, indent=2, sort_keys=True)
        assert _json({"rows": table, "%s": {"n": 1}}) == json.dumps(
            {"rows": rows, "%s": {"n": 1}}, indent=2, sort_keys=True)
        assert _to_csv({"rows": table}) == _dict_rows_csv(rows, table.keys)

    @given(st.lists(st.floats(), max_size=8))
    @example([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
              sys.float_info.max, -sys.float_info.max, 1 / 3, 1e16])
    def test_float_columns_are_format_17g(self, values):
        texts = [format(v, ".17g") for v in values]
        table = Table(["x"], [values])
        assert _json(table) == json.dumps([{"x": v} for v in texts], indent=2)
        assert _to_csv({"rows": table}) == "".join(f"{v}\n" for v in ["x", *texts])
        assert _format([None, *values, None], "%.17g", "") == ["", *texts, ""]


class TestDictTemplates:
    def test_each_key_order_is_one_shape(self):
        # one key set in two insertion orders: two shapes, the same bytes;
        # a dict of a known order and pad reuses its shape
        _dict_shape.cache_clear()
        one, two = {"b": 1, "a": [2.5, None]}, {"a": [2.5, None], "b": 1}
        want = json.dumps(_texted(one), indent=2, sort_keys=True)
        assert _json(one) == _json(two) == _json(dict(one)) == want
        info = _dict_shape.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    def test_keys_holding_percent(self):
        obj = {"%s": "%d", "a%%": None, "%(x)s": {"%": [1, "%s"]}, "%": "%%"}
        assert _json(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_dict_next_to_a_table(self):
        table = Table(["t", "y", "h"], [_T, _T, _H[:-2]])
        payload = {"rows": table, "verdict": {"omega": "up", "%s": None},
                   "t_lo": "1e-175", "n": 3}
        want = {**payload, "rows": _list_of_dicts(table)}
        assert _json({"payload": payload}) == json.dumps(
            {"payload": want}, indent=2, sort_keys=True)

    def test_cache_is_bounded(self):
        cap = _dict_shape.cache_info().maxsize
        assert cap is not None
        for i in range(10**4):
            assert _json({str(i): i}) == f'{{\n  "{i}": {i}\n}}'
        assert _dict_shape.cache_info().currsize <= cap


class TestAlphaParsing:
    def test_fraction_keeps_reciprocal_exact(self, runner):
        env = run_json(runner, ["constants", "--n", "5", "--alpha", "1/5"])
        assert env["metadata"]["instance"]["r"] == "5"
        assert env["payload"]["regime"] == "HIGH_R_LARGE_N"

    def test_fraction_and_decimal_can_classify_differently(self, runner):
        # 1/float(1/49) rounds to 49.00000000000001, crossing the n >= r
        # boundary at n = 49; the fraction path keeps r = 49 exactly.  The
        # rounded instance is 7e-15 into the small-n regime, where the
        # interior crossing sits too close to the bracket edge to certify:
        # it is refused as uncertifiable (exit 3), not as bad input.
        exact = run_json(runner, ["constants", "--n", "49", "--alpha", "1/49"])
        assert exact["metadata"]["instance"]["r"] == "49"
        assert exact["payload"]["regime"] == "HIGH_R_LARGE_N"
        rounded = runner.invoke(main, ["constants", "--n", "49", "--alpha",
                                       "0.02040816326530612"])
        assert rounded.exit_code == 3
        assert "r=49.00000000000001" in rounded.output

    @pytest.mark.parametrize("bad", ["0", "1", "0/3", "2/2", "inf", "-inf", "nan", "x"])
    def test_rejected_orders(self, runner, bad):
        result = runner.invoke(main, ["constants", "--n", "4", "--alpha", bad])
        assert result.exit_code == 2
        assert "finite decimal or p/q" in result.output

    @pytest.mark.parametrize("bad", [
        "1/1" + "0" * 400, "3/1" + "0" * 320, "1" + "0" * 320 + "/3",
    ], ids=["tiny", "subnormal", "huge"])
    def test_fraction_past_the_double_range_is_usage_error(self, runner, bad):
        # float(p/q) or float(q/p) raised OverflowError: a traceback, exit 1
        result = runner.invoke(main, ["constants", "--n", "4", "--alpha", bad])
        assert result.exit_code == 2, result.output
        assert "finite decimal or p/q" in result.output.splitlines()[-1]

    def test_negative_fraction(self, runner):
        env = run_json(runner, ["constants", "--n", "3", "--alpha", "-1/2"])
        assert env["metadata"]["instance"]["r"] == "-2"

    @pytest.mark.parametrize("args,alpha", [
        (["--alpha", "-1/2"], "-0.5"),
        (["--alpha", "-12/11"], "-1.0909090909090908"),
        (["--alpha", "-1e-05"], "-1.0000000000000001e-05"),
        (["--alpha=-1/2"], "-0.5"),
    ])
    def test_negative_orders_bind_as_values(self, runner, args, alpha):
        # a value that starts with a minus sign is the option's value, not
        # an option of its own
        env = run_json(runner, ["constants", "--n", "4", *args])
        assert env["metadata"]["instance"]["alpha"] == alpha


# every option of each subcommand with a phrase of its help text and the
# default its help shows (None: no help text, or no default shown)
OPTION_HELP = {
    "constants": {
        "--n": ("tuple length, n >= 3", None),
        "--alpha": ("mean order, decimal or p/q fraction", None),
        "--format": ("output format", "json"),
    },
    "verify": {
        "--n": ("tuple length, n >= 3", None),
        "--alpha": ("mean order, decimal or p/q fraction", None),
        "--samples": ("Monte Carlo samples, 10000 to 1e8", "100000"),
        "--seed": (None, "0"),
        "--workers": ("the output does not depend on this", "1"),
        "--grid": ("grid points of the profile scan, at least 300000", "1000000"),
        "--format": ("output format", "json"),
    },
    "sweep": {
        "--n-min": (None, "3"),
        "--n-max": (None, None),
        "--alpha": ("mean order, decimal or p/q fraction", None),
        "--format": ("output format", "json"),
    },
    "profile": {
        "--n": ("tuple length, n >= 3", None),
        "--alpha": ("mean order, decimal or p/q fraction", None),
        "--points": ("grid points, 2 to 1e5", "201"),
        "--which": ("comma separated columns from g,p,f,U,V,W,fprime",
                    "g,p,f,U,V,W"),
        "--format": ("output format", "json"),
    },
    "reduce3": {
        "--sum": ("fixed coordinate sum", None),
        "--prod": ("fixed coordinate product", None),
        "--r": ("power sum exponent", None),
        "--grid": ("number of t samples, endpoints included, 2 to 1e5", "101"),
        "--format": ("output format", "json"),
    },
}


class TestParseSurface:
    @pytest.mark.parametrize("args,named", [
        (["constants", "--alpha", "2"], "--n"),  # a missing required option
        (["sweep", "--n-min", "3", "--alpha", "2"], "--n-max"),
        (["constants", "--n", "4", "--alpha", "2", "--bogus", "1"], "--bogus"),
        (["constants", "--bogus", "--n", "4", "--alpha", "2"], "--bogus"),
        (["bogus"], "bogus"),
        (["constants", "--n", "4", "--alpha", "2", "--format", "xml"], "xml"),
    ])
    def test_usage_error_names_its_cause(self, runner, args, named):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert named in result.output.splitlines()[-1]

    # argparse wraps its usage lines to the width COLUMNS names
    WIDTH = {"COLUMNS": "80"}

    @pytest.mark.parametrize("args,left", [
        (["constants", "--n", "4", "--alpha", "2", "--bogus", "1"], "--bogus 1"),
        (["constants", "--n", "4", "--alpha", "2", "extra"], "extra"),
    ])
    def test_leftover_arguments_are_the_groups_usage_error(self, runner, args, left):
        # what the subcommand's parser leaves over is reported by the group
        # parser, under its usage
        result = runner.invoke(main, args, env=self.WIDTH)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "usage: meangap [--help] [--version]\n"
            "               {constants,verify,sweep,profile,reduce3} ...\n"
            f"meangap: error: unrecognized arguments: {left}\n")

    def test_missing_option_is_the_subcommands_usage_error(self, runner):
        result = runner.invoke(main, ["constants", "--alpha", "2"], env=self.WIDTH)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "usage: meangap constants [--help] --n N --alpha ALPHA [--format {json,csv}]\n"
            "meangap constants: error: the following arguments are required: --n\n")

    @pytest.mark.parametrize("args", [
        ["constants", "--n", "4", "--alpha", "2"],
        ["sweep", "--n-max", "5", "--alpha", "2"],
    ], ids=["constants", "sweep"])
    def test_search_width_is_not_an_option(self, runner, args):
        # the extremum search has one width, constants.EXTREMUM_TOL: a wider
        # one moved certified bounds past the sharp constant
        result = runner.invoke(main, args + ["--tol", "1e-10"], env=self.WIDTH)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "usage: meangap [--help] [--version]\n"
            "               {constants,verify,sweep,profile,reduce3} ...\n"
            "meangap: error: unrecognized arguments: --tol 1e-10\n")

    @pytest.mark.parametrize("args,usage,cause", [
        (["constants", "--n", "2", "--alpha", "2"],
         "usage: meangap constants [--help] --n N --alpha ALPHA [--format {json,csv}]\n",
         "n = 2 is governed by a different sharp description and is not "
         "covered here; use n >= 3"),
        (["verify", "--n", "4", "--alpha", "2", "--samples", "10"],
         "usage: meangap verify [--help] --n N --alpha ALPHA [--samples SAMPLES]\n"
         "                      [--seed SEED] [--workers WORKERS] [--grid GRID]\n"
         "                      [--format {json,csv}]\n",
         "samples must number between 10000 and 1e8"),
        (["sweep", "--n-max", "200000", "--alpha", "2"],
         "usage: meangap sweep [--help] [--n-min N_MIN] --n-max N_MAX --alpha ALPHA\n"
         "                     [--format {json,csv}]\n",
         "a sweep takes at most 100000 values of n; got 3..200000"),
        (["profile", "--n", "4", "--alpha", "2", "--which", "g,g"],
         "usage: meangap profile [--help] --n N --alpha ALPHA [--points POINTS]\n"
         "                       [--which WHICH] [--format {json,csv}]\n",
         "--which must be a comma separated subset of g,p,f,U,V,W,fprime, "
         "each name once; got 'g,g'"),
        (["reduce3", "--sum", "3", "--prod", "1", "--r", "2"],
         "usage: meangap reduce3 [--help] --sum SUM --prod PROD --r R [--grid GRID]\n"
         "                       [--format {json,csv}]\n",
         "need sum^3 > 27*product for a nondegenerate curve, "
         "got sum^3=27.0, 27*product=27.0"),
    ], ids=["constants", "verify", "sweep", "profile", "reduce3"])
    def test_refusal_inside_a_command_is_its_usage_error(self, runner, args,
                                                         usage, cause):
        # a ValueError a command raises reaches main's one refusal path: the
        # subcommand's usage and the cause, exit 2, nothing on stdout
        result = runner.invoke(main, args, env=self.WIDTH)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"{usage}meangap {args[0]}: error: {cause}\n"

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.output == "meangap, version 0.1.0\n"

    @pytest.mark.parametrize("args,code", [(["--help"], 0), ([], 2)])
    def test_group_help_lists_the_subcommands(self, runner, args, code):
        result = runner.invoke(main, args)
        assert result.exit_code == code
        for name in OPTION_HELP:
            assert name in result.output

    def test_prog_name_names_the_program(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            main(["constants", "--help"], prog_name="mg")
        assert out.getvalue().lower().startswith("usage: mg constants")

    @pytest.mark.parametrize("command", sorted(OPTION_HELP))
    def test_help_lists_every_option(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        text = " ".join(result.output.split())
        for option, (phrase, default) in OPTION_HELP[command].items():
            assert f"{option} " in text, option
            if phrase is not None:
                assert phrase in text, option
            if default is not None:
                assert re.search(rf"default: {re.escape(default)}\b", text), option


class TestConstantsCommand:
    def test_monotone_instance_has_no_interior_extremum(self, runner):
        env = run_json(runner, ["constants", "--n", "5", "--alpha", "1/2"])
        payload = env["payload"]
        assert payload["regime"] == "LOW_R_LARGE_N"
        assert payload["omega"] is None
        assert payload["lower_bound"] == "1.25"
        assert payload["upper_bound"] == "5"

    @pytest.mark.parametrize("n", ["2", "1", "0", "-5"])
    @pytest.mark.parametrize("command", ["constants", "verify", "profile"])
    def test_usage_error_for_small_n(self, runner, command, n):
        result = runner.invoke(main, [command, "--n", n, "--alpha", "2"])
        assert result.exit_code == 2
        assert result.stdout == ""
        cause = ("n = 2 is governed by a different sharp description and is "
                 "not covered here; use n >= 3" if n == "2"
                 else f"n must be an integer >= 3, got {n}")
        assert result.stderr.endswith(f"meangap {command}: error: {cause}\n")

    @pytest.mark.parametrize("args,r,label,bracket", [
        ("--n 3 --alpha -1", -1.0, "omega_1", "[-1.0, -0.5]"),
        ("--n 4 --alpha 2", 0.5, "omega_2", "[0.40249223594996214, 0.5]"),
        ("--n 3 --alpha 5/7", 1.4, "omega_3", "[1.4, inf]"),
        ("--n 3 --alpha 1/5", 5.0, "omega_4", "[-inf, 5.0]"),
    ])
    def test_constant_outside_its_bracket_exits_three(self, runner, monkeypatch,
                                                      args, r, label, bracket):
        # the ratio is r at the center, so an extremum that lies on the
        # wrong side of r (a minimum of f below it, a maximum above it) is
        # refused and named by its label
        import meangap.constants as constants_mod

        wrong = r - 1.0 if label in ("omega_1", "omega_3") else r + 1.0
        monkeypatch.setattr(constants_mod, "ratio_from_f", lambda fval: wrong)
        result = runner.invoke(main, ["constants", *args.split()])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            f"Error: cannot certify this instance: certified constant {label} = "
            f"{wrong} violates its a-priori bracket {bracket}\n")

    @pytest.mark.parametrize("args", [
        ["constants", "--n", "3", "--alpha", "1/1000000"],
        ["constants", "--n", "2000", "--alpha", "0.01"],
        ["sweep", "--n-min", "1990", "--n-max", "2000", "--alpha", "0.01"],
        ["profile", "--n", "3", "--alpha", "1/1000000"],
        ["verify", "--n", "3", "--alpha", "1/1000000"],
    ])
    def test_overflowing_endpoint_is_usage_error(self, runner, args):
        # n^(r-1) past the double range is refused, not a traceback
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "ln(DBL_MAX)" in result.output

    @pytest.mark.parametrize("args", [
        ["constants", "--n", str(10**400), "--alpha", "2/3"],
        ["constants", "--n", str(10**400), "--alpha", "-1"],
        ["sweep", "--n-min", str(10**400), "--n-max", str(10**400), "--alpha", "2"],
        ["profile", "--n", str(10**400), "--alpha", "2"],
        ["verify", "--n", str(10**400), "--alpha", "2"],
    ])
    def test_n_past_the_double_range_is_usage_error(self, runner, args):
        # float(n) overflowed into a traceback
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "past the double range: need n <= DBL_MAX" in result.output

    @pytest.mark.parametrize("n", [2 * 10**154, 10**200])
    def test_slope_factor_past_the_double_range_is_usage_error(self, runner, n):
        # f' multiplies by the exact int n(n-1), whose conversion to a
        # double overflowed into a traceback
        result = runner.invoke(main, ["profile", "--n", str(n), "--alpha", "2",
                                      "--which", "fprime", "--points", "3"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "need n(n-1) <= DBL_MAX" in result.output

    @pytest.mark.parametrize("alpha", ["2", "3", "0.99"])
    def test_profile_past_2_53_is_usage_error(self, runner, alpha):
        # n and n - 1 are not both exact doubles past 2^53, and the power sum
        # cancelled: the table printed p as 0 and f' as nan, with numpy
        # RuntimeWarnings, and exit 0.  2^53 itself tabulates
        args = ["profile", "--alpha", alpha, "--which", "p,fprime", "--points", "5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [*args, "--n", str(2**53 + 1)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "n = 9007199254740993 is past 2^53" in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not caught
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [*args, "--n", str(2**53)])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""

    @pytest.mark.parametrize("alpha", [
        "-1", "-1/2", "2", "3/2", "2/3", "5/6", "9/10", "1/5", "1/10",
    ])
    def test_powers_of_two_certify_or_refuse(self, runner, alpha):
        # n = 4 .. 2^62 in every regime: a certificate or a refusal, and
        # above 2^44 a turning instance is refused for that cause before
        # its searches, which failed from 2^54 on
        for k in range(2, 63):
            result = runner.invoke(main, ["constants", "--n", str(2**k), "--alpha", alpha])
            assert result.exit_code in (0, 3), (k, result.output)
            assert isinstance(result.exception, (SystemExit, type(None))), k
            if k > 44 and result.exit_code == 3:
                assert "exceeds 2^44" in result.output, k

    # each cause of a refusal, its exit code and how many of the random
    # map's draws it refuses; "certified" counts the exit-0 draws
    REFUSAL_MAP = {
        "certified": (0, 1623),
        "exceeds 2^44": (3, 670),
        "f' has the same sign": (3, 181),
        "no W = 1 crossing found": (3, 259),
        "crossing lies at the far edge": (3, 0),
        "rounds to the center": (3, 0),
        "overflows a double": (2, 250),
        "cannot use exponent": (2, 17),
    }

    @staticmethod
    def _draw(rng):
        # n log-uniform on [3, 2^62]; alpha 45% +-e^U(ln 1e-4, ln 1e3),
        # 30% p/q with |p| <= 40 and 1 <= q <= 40, 25% U(-3, 3)
        n = round(math.exp(rng.uniform(math.log(3), math.log(2**62))))
        u = rng.random()
        if u < 0.45:
            sign = rng.choice((-1.0, 1.0))
            alpha = repr(sign * math.exp(rng.uniform(math.log(1e-4), math.log(1e3))))
        elif u < 0.75:
            alpha = f"{rng.randint(-40, 40)}/{rng.randint(1, 40)}"
        else:
            alpha = repr(rng.uniform(-3.0, 3.0))
        return ["constants", "--n", str(n), "--alpha", alpha]

    def test_random_map_refuses_for_known_causes(self, runner):
        # 3000 seeded draws over the whole accepted input: each certifies
        # or is refused, without a traceback, for exactly one known cause
        # with that cause's exit code.  A change that certifies more (or
        # fewer) instances moves the counts
        rng = random.Random(5)
        counts = dict.fromkeys(self.REFUSAL_MAP, 0)
        for _ in range(3000):
            args = self._draw(rng)
            result = runner.invoke(main, args)
            if result.exit_code == 0:
                counts["certified"] += 1
                continue
            causes = [c for c in self.REFUSAL_MAP if c in result.stderr]
            assert len(causes) == 1, (args, result.stderr)
            assert result.exit_code == self.REFUSAL_MAP[causes[0]][0], (args, result.stderr)
            counts[causes[0]] += 1
        assert counts == {cause: count for cause, (_, count) in self.REFUSAL_MAP.items()}

    @pytest.mark.parametrize("args", [
        ["constants", "--n", "4", "--alpha", "3/4"],  # empty extremum bracket
        ["constants", "--n", "3", "--alpha", "-1000000"],  # no W = 1 crossing
        ["constants", "--n", "300", "--alpha", "1.01"],  # no f' sign change
        ["sweep", "--n-min", "3", "--n-max", "4", "--alpha", "-1000000"],
        ["verify", "--n", "300", "--alpha", "1.01"],
        ["constants", "--n", "100000", "--alpha", "3/2"],
        # t_min lies closer to the center than the first W = 1 probe
        ["constants", "--n", "3768", "--alpha", "1000000"],
        # past n = 2^44 the power sum keeps too few digits of P - 1
        ["constants", "--n", "1125899906842624", "--alpha", "-1"],
        # t_min rounds to the center 1/n, whose v is log(1/0)
        ["constants", "--n", "3", "--alpha", "3e18"],
        ["constants", "--n", "3", "--alpha", "-1e19"],
        ["sweep", "--n-max", "5", "--alpha", "3e18"],
        ["verify", "--n", "3", "--alpha", "1e20"],
    ])
    def test_uncertifiable_instance_exits_three(self, runner, args):
        # a valid instance the solvers cannot certify is not a usage error,
        # and no overflow warning escapes on the way
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, args)
        assert result.exit_code == 3
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Error: cannot certify this instance: ")
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("args,cause", [
        ("constants --n 4 --alpha 3/4", "the W = 1 crossing lies at the far edge t_min"),
        ("sweep --n-min 3 --n-max 4 --alpha 3/4", "at n = 4: the W = 1 crossing"),
        ("sweep --n-min 3 --n-max 4 --alpha -1000000", "at n = 3: no W = 1 crossing"),
        ("constants --n 35184372088832 --alpha -1/2", "exceeds 2^44"),
        ("constants --n 3 --alpha 3e18",
         "the far edge t_min = 0.3333333333333333 of the left side rounds to the center"),
        ("constants --n 3 --alpha -1e19", "t_min = 0.3333333333333333 of the right side"),
        ("sweep --n-max 5 --alpha 3e18", "at n = 3: the far edge t_min"),
        ("verify --n 3 --alpha 1e20", "the far edge t_min"),
        ("constants --n 3 --alpha 1e18", "no W = 1 crossing"),
    ])
    def test_refusal_names_its_cause(self, runner, args, cause):
        result = runner.invoke(main, args.split())
        assert result.exit_code == 3
        assert cause in result.output
        assert "bracket" not in result.output

    def test_refusal_in_mid_sweep_names_n_and_cause(self, runner):
        # the warm start from n = 202 refuses n = 203 as a lone certificate does
        swept = runner.invoke(main, "sweep --n-min 150 --n-max 260 --alpha 1.01".split())
        single = runner.invoke(main, "constants --n 203 --alpha 1.01".split())
        assert swept.exit_code == single.exit_code == 3
        cause = single.output.split("cannot certify this instance: ")[1]
        assert cause.startswith("f' has the same sign at the W = 1 crossing")
        assert swept.output == (
            f"Error: cannot certify this instance: at n = 203: {cause}")

    @pytest.mark.parametrize("args", [
        "--n 1000000 --alpha -1", "--n 3000 --alpha -1/2", "--n 3 --alpha 60",
        "--n 3 --alpha -60", "--n 5 --alpha 0.999999999",
        # the side is about 1e-14 wide in x
        "--n 10000000 --alpha -60",
        "--n 17592186044416 --alpha -60",  # 2^44
    ])
    def test_edge_instances_certify_without_warnings(self, runner, args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_json(runner, ["constants", *args.split()])
        assert not caught, [str(w.message) for w in caught]

    def test_endpoint_near_the_limit_still_certifies(self, runner):
        # at r = 647, n^r overflows although n^(r-1) does not
        for r in (640, 647):
            env = run_json(runner, ["constants", "--n", "3", "--alpha", f"1/{r}"])
            assert env["payload"]["regime"] == "HIGH_R_SMALL_N"
            assert float(env["payload"]["upper_bound"]) == pytest.approx(
                3.0 ** (r - 1), rel=1e-13)
        rows = run_json(runner, ["profile", "--n", "3", "--alpha", "1/647",
                                 "--points", "5"])["payload"]["rows"]
        assert len(rows) == 5


class TestVerifyCommand:
    # the coarsest grid verify accepts
    ARGS = ["verify", "--n", "4", "--alpha", "2", "--samples", "10000",
            "--grid", "300000", "--seed", "3"]

    def test_pass_exit_zero(self, runner):
        env = run_json(runner, self.ARGS)
        assert env["payload"]["ok"] is True
        assert env["payload"]["check"]["failures"] == []
        assert float(env["metadata"]["tolerances"]["violation_slack"]) == 1e-9

    def test_payload_identical_across_workers(self, runner):
        one = run_json(runner, self.ARGS + ["--workers", "1"])
        four = run_json(runner, self.ARGS + ["--workers", "4"])
        assert json.dumps(one["payload"], sort_keys=True) == json.dumps(
            four["payload"], sort_keys=True)

    def test_payload_identical_across_repeats(self, runner):
        a = run_json(runner, self.ARGS)
        b = run_json(runner, self.ARGS)
        assert a["payload"] == b["payload"]

    def test_failure_exits_one(self, runner, monkeypatch):
        import meangap.cli as cli_mod
        from meangap.oracle import BoundsCheck

        monkeypatch.setattr(
            cli_mod, "check_bounds",
            lambda report: BoundsCheck(
                ok=False, tol_min=1e-5, tol_max=1e-5,
                failures=("forced failure for the exit code path",)),
        )
        result = runner.invoke(main, self.ARGS)
        assert result.exit_code == 1
        env = json.loads(result.output)
        assert env["payload"]["ok"] is False

    @pytest.mark.parametrize("n,alpha", [
        ("5", "1/13"),  # grid end value n^(r-1) = 5^12 exceeds 1e7
        ("3", "-60"),  # (x/max)^alpha overflowed in the boundary probes
    ])
    def test_extreme_orders_pass(self, runner, n, alpha):
        env = run_json(runner, ["verify", "--n", n, "--alpha", alpha,
                                "--samples", "10000", "--grid", "300000"])
        assert set(env) == {"format", "payload", "metadata"}
        assert env["payload"]["ok"] is True

    @pytest.mark.parametrize("n,alpha", [("4", "2"), ("5", "1/13")])
    def test_grid_below_the_floor_is_usage_error(self, runner, n, alpha):
        # 1e4 points missed these constants by 6.1e-5 and 2.0e-6, beyond
        # the grid check's 1e-6, so correct certificates failed
        result = runner.invoke(main, ["verify", "--n", n, "--alpha", alpha,
                                      "--samples", "10000", "--grid", "10000"])
        assert result.exit_code == 2
        assert "grid must have between 300000 and 1e8 points" in result.output

    @pytest.mark.parametrize("n,alpha", [
        ("200", "-0.3"),  # x* at t = 1.2e-10, inside the old x grid's last cell
        ("3000", "-1"),  # x* 4.2e-12 from 1/(n-1); about 1 s
    ])
    def test_extremum_next_to_the_end_passes(self, runner, n, alpha):
        env = run_json(runner, ["verify", "--n", n, "--alpha", alpha,
                                "--samples", "10000"])
        payload = env["payload"]
        assert payload["ok"] is True
        grid_max = float(payload["report"]["grid_extreme"]["max_value"])
        upper = float(payload["certificate"]["upper_bound"])
        assert upper - 1e-6 <= grid_max <= upper

    def test_small_sample_count_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["verify", "--n", "4", "--alpha", "2", "--samples", "10"])
        assert result.exit_code == 2

    @pytest.fixture()
    def no_sampling(self, monkeypatch):
        from meangap import oracle

        def no_sampling(*args):
            raise AssertionError("sampled before checking the options")

        monkeypatch.setattr(oracle, "_sample_rows", no_sampling)

    @pytest.mark.parametrize("samples", [10**8 + 1, 10**14])
    def test_samples_past_the_cap_are_usage_error(self, runner, no_sampling, samples):
        # 1e14 samples ended in a MemoryError traceback and exit 1, the code
        # of a failed verification
        result = runner.invoke(main, ["verify", "--n", "4", "--alpha", "2",
                                      "--samples", str(samples)])
        assert result.exit_code == 2, result.output
        assert "samples must number between 10000 and 1e8" in result.output

    @pytest.mark.parametrize("n", ["300001", "1000000000"])
    def test_n_past_the_cap_is_usage_error(self, runner, no_sampling, n):
        # n = 1e9 under a 3 GB address-space limit ended in a MemoryError
        # traceback from the sampler's counter ramp and exit 1, the code of
        # a failed verification
        result = runner.invoke(main, ["verify", "--n", n, "--alpha", "-1",
                                      "--samples", "10000"])
        assert result.exit_code == 2, result.output
        assert f"verify takes n up to 300000, got {n}" in result.output

    def test_n_past_the_cap_is_refused_before_the_certificate(self, runner):
        # n = 4e5 at alpha = 2 cannot be certified (exit 3), but verify's
        # cap is checked first, so the exit code does not depend on alpha
        from meangap.oracle import MAX_N

        result = runner.invoke(main, ["verify", "--n", "400000", "--alpha", "2"])
        assert result.exit_code == 2, result.output
        assert f"verify takes n up to {MAX_N}, got 400000" in result.output

    def test_samples_are_refused_before_the_certificate(self, runner):
        # --n 4 --alpha 3/4 alone exits 3, cannot certify
        result = runner.invoke(main, ["verify", "--n", "4", "--alpha", "3/4",
                                      "--samples", "10"])
        assert result.exit_code == 2, result.output
        assert "samples must number between 10000 and 1e8" in result.output

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_are_usage_error(self, runner, no_sampling, workers):
        result = runner.invoke(main, self.ARGS + ["--workers", workers])
        assert result.exit_code == 2, result.output
        assert "x>=1" in result.output

    def test_workers_past_the_cap_are_usage_error(self, runner, no_sampling,
                                                  monkeypatch):
        # a pool starts a thread for each work unit it is handed, up to the
        # count asked for: 1e8 samples with 1e5 workers would start 12208
        import concurrent.futures

        from meangap.oracle import MAX_WORKERS

        def no_pool(*args, **kwargs):
            raise AssertionError("made a thread pool before checking the options")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        result = runner.invoke(main, self.ARGS + ["--workers", str(MAX_WORKERS + 1)])
        assert result.exit_code == 2, result.output
        assert (f"verify takes at most {MAX_WORKERS} workers, got {MAX_WORKERS + 1}"
                in result.output)


class TestSweepCommand:
    def test_single_row(self, runner):
        env = run_json(runner, ["sweep", "--n-min", "3", "--n-max", "3",
                                "--alpha", "0.75"])
        rows = env["payload"]["rows"]
        assert len(rows) == 1
        assert rows[0]["n"] == 3
        assert rows[0]["regime"] == "LOW_R_SMALL_N"
        assert rows[0]["omega_trend"] == "start"
        assert env["payload"]["verdict"]["omega"] == "constant"
        assert env["metadata"]["instance"]["n"] == "3..3"

    def test_decreasing_omega_for_alpha_two(self, runner):
        env = run_json(runner, ["sweep", "--n-min", "3", "--n-max", "8",
                                "--alpha", "2"])
        assert env["payload"]["verdict"]["omega"] == "decreasing"
        omegas = [float(r["omega"]) for r in env["payload"]["rows"]]
        assert omegas == sorted(omegas, reverse=True)

    def test_increasing_omega_for_alpha_minus_half_to_400(self, runner):
        # omega_1 increases with n; certificates that lose digits at large
        # n show false down steps
        env = run_json(runner, ["sweep", "--n-max", "400", "--alpha", "-1/2"])
        assert env["payload"]["verdict"]["omega"] == "increasing"

    def test_monotone_regime_rows_have_empty_omega(self, runner):
        env = run_json(runner, ["sweep", "--n-min", "3", "--n-max", "5",
                                "--alpha", "1/2"])
        for row in env["payload"]["rows"]:
            assert row["omega"] is None
            assert row["omega_trend"] == "none"
        assert env["payload"]["verdict"]["omega"] == "constant"

    @pytest.mark.parametrize("alpha,closed", [("1/3", True), ("-1", False)])
    def test_rows_are_the_certificates_payload_cells(self, runner, alpha, closed):
        # the rows are built from the certificates' fields; at 1/3 they are
        # closed forms, with omega and x_star empty
        keys = ("n", "regime", "lower_bound", "upper_bound", "lower_kind",
                "upper_kind", "omega", "x_star")
        expected = [{k: _texted(cert.to_payload()[k]) for k in keys}
                    for cert in sweep_constants(_parse_alpha(alpha), 3, 6)]
        args = ["sweep", "--n-min", "3", "--n-max", "6", "--alpha", alpha]
        rows = run_json(runner, args)["payload"]["rows"]
        assert [{k: row[k] for k in keys} for row in rows] == expected
        result = runner.invoke(main, args + ["--format", "csv"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [{k: row[k] for k in keys} for row in rows] == [
            {k: "" if v is None else str(v) for k, v in row.items()} for row in expected]
        assert all((row["omega"] is None and row["x_star"] is None) == closed
                   for row in expected)

    @pytest.mark.parametrize("omegas,verdict", [
        ([None, 1.0, 1.0], "constant"),
        ([2.0, None, 1.0], "decreasing"),
        ([1.0, 2.0, 2.0], "increasing"),
        ([1.0, 2.0, None, 1.5], "mixed"),
    ])
    def test_verdict_reads_the_moves_between_omegas(self, omegas, verdict):
        # a None, a monotone row, is skipped: the step is from the omega before it
        assert _overall(_trends(omegas)) == verdict

    def test_bad_range(self, runner):
        result = runner.invoke(main, ["sweep", "--n-min", "6", "--n-max", "4",
                                      "--alpha", "2"])
        assert result.exit_code == 2


class TestProfileCommand:
    def test_columns_follow_which(self, runner):
        env = run_json(runner, ["profile", "--n", "3", "--alpha", "-1",
                                "--points", "5", "--which", "g,W"])
        rows = env["payload"]["rows"]
        assert len(rows) == 5
        assert set(rows[0]) == {"x", "g", "W"}

    def test_fprime_empty_inside_center_band(self, runner):
        # the center 1/3 sits at 2/3 of the span, so a 4-point grid lands
        # its third node inside the band
        env = run_json(runner, ["profile", "--n", "3", "--alpha", "2",
                                "--points", "4", "--which", "f,fprime"])
        rows = env["payload"]["rows"]
        assert abs(3.0 * float(rows[2]["x"]) - 1.0) <= 1e-9
        assert rows[2]["fprime"] is None
        assert rows[2]["f"] is not None  # only the slope column is masked
        assert all(rows[i]["fprime"] is not None for i in (0, 1, 3))

    @pytest.mark.parametrize("n,alpha,points,blank,printed,want", [
        # the grids put rows every 5e-5 and 3.3e-4 in a = n x - 1; the
        # 50-digit f' of `reference.profile_row` in `bench/reference.py`
        (3, "-1", 30001, 1e-3, 1.5e-3,
         {19970: -0.50149664103359792455, 20030: -0.4984966095402943403}),
        (4, "10/9", 4001, 2.5e-3, 3e-3,
         {2991: -26.379811225026045424, 3009: -26.95912298899556931}),
    ])
    def test_fprime_empty_where_it_loses_digits(self, runner, n, alpha, points,
                                                blank, printed, want):
        # next to the center f' divides cancelling differences: at (3, -1)
        # the rows at |a| = 5e-5 printed it 1.8e-7 off relative, and at
        # a = 1e-8 it read +5.117 against -0.49999999
        rows = run_json(runner, ["profile", "--n", str(n), "--alpha", alpha,
                                 "--points", str(points), "--which", "fprime"]
                        )["payload"]["rows"]
        for row in rows:
            a = abs(n * float(row["x"]) - 1.0)
            if a <= blank:
                assert row["fprime"] is None, row
            elif a >= printed:
                assert row["fprime"] is not None, row
        for i, value in want.items():
            assert float(rows[i]["fprime"]) == pytest.approx(value, rel=1e-8)

    def test_fprime_blank_covers_the_points_that_lost_digits(self):
        # (3, -1): a = 1e-8 gave +5.117 and -1e-8 +0.1544 for about -0.5,
        # -1e-7 and -1e-6 relative errors of 1.2e-2 and 2.7e-4; (4, 10/9):
        # a = -1e-8 gave -1144.09 for -26.667
        import numpy as np

        from meangap.cli import _fprime_blank
        from meangap.means import ExponentPair
        from meangap.profile import ProfileParams

        three = ProfileParams(n=3, e=ExponentPair.from_alpha(-1.0))
        four = ProfileParams(n=4, e=ExponentPair(alpha=10 / 9, r=0.9))
        a = np.array([1e-8, -1e-8, -1e-7, -1e-6])
        assert _fprime_blank((1.0 + a) / 3, three).all()
        assert _fprime_blank(np.array([(1.0 - 1e-8) / 4]), four).all()

    def test_n_two_names_its_own_description(self, runner):
        # as constants and verify name it
        result = runner.invoke(main, ["profile", "--n", "2", "--alpha", "2"])
        assert result.exit_code == 2
        assert "n = 2 is governed by a different sharp description" in result.output

    def test_unknown_column_rejected(self, runner):
        result = runner.invoke(main, ["profile", "--n", "3", "--alpha", "2",
                                      "--which", "g,bogus"])
        assert result.exit_code == 2
        assert "bogus" in result.output

    def test_repeated_column_rejected(self, runner):
        # each row would hold the key "g" twice, which no JSON dict writes
        result = runner.invoke(main, ["profile", "--n", "4", "--alpha", "2",
                                      "--which", "g,g", "--points", "2"])
        assert result.exit_code == 2
        assert "each name once; got 'g,g'" in result.output.splitlines()[-1]


class TestReduce3Command:
    ARGS = ["reduce3", "--sum", "6", "--prod", "6", "--r", "2", "--grid", "9"]

    def test_rows_and_verdict(self, runner):
        env = run_json(runner, self.ARGS)
        payload = env["payload"]
        assert payload["monotone"] == "strictly decreasing"
        assert float(payload["t_lo"]) == pytest.approx(1.3472963553338607,
                                                       abs=1e-13)
        assert float(payload["t_hi"]) == pytest.approx(2.5320888862379561,
                                                       abs=1e-13)
        assert float(payload["h_at_t_lo"]) == pytest.approx(14.556132286562772,
                                                            rel=1e-12)
        assert float(payload["h_at_t_hi"]) == pytest.approx(13.698711497147693,
                                                            rel=1e-12)
        rows = payload["rows"]
        assert rows[0]["h_prime"] is None and rows[-1]["h_prime"] is None
        assert all(r["h_prime"] is not None for r in rows[1:-1])

    def test_increasing_for_negative_r(self, runner):
        env = run_json(runner, ["reduce3", "--sum", "6", "--prod", "6",
                                "--r", "-1", "--grid", "9"])
        assert env["payload"]["monotone"] == "strictly increasing"

    def test_constant_for_r_one(self, runner):
        env = run_json(runner, ["reduce3", "--sum", "6", "--prod", "6",
                                "--r", "1", "--grid", "9"])
        assert env["payload"]["monotone"] == "constant"

    @pytest.mark.parametrize("args,named", [
        (["--sum", "inf", "--prod", "1", "--r", "2"], "finite positive"),
        (["--sum", "6", "--prod", "nan", "--r", "2"], "finite positive"),
        (["--sum", "1e200", "--prod", "1", "--r", "2"], "sum^3 overflows"),
        (["--sum", "6", "--prod", "6", "--r", "nan"], "--r must be finite"),
        # finite input past what doubles resolve
        (["--sum", "6", "--prod", "6", "--r", "1000"], "to the power r=1000.0"),
        (["--sum", "5.7e102", "--prod", "1", "--r", "2"], "sum^3 overflows"),
        (["--sum", "1e50", "--prod", "1e-300", "--r", "-1"], "to the power r=-1.0"),
        # each power is a finite double, their sum is not
        (["--sum", "8.154845485377136", "--prod", "20.085534914633975",
          "--r", "708.7791414792284"], "power sum at t="),
        # curves that only rounding keeps off the all-equal triple: the
        # discriminant rounds below zero between the ends at the first,
        # and the ends round to one double at the second
        (["--sum", "11640800", "--prod", "5.842311634775229e19", "--r", "2"],
         "coordinates merge at t="),
        (["--sum", "2.03315e24", "--prod", "3.1127518386225467e71", "--r", "2"],
         "the curve's ends round to one double"),
        # a curve 1.2e-8 wide: row 1 has x > z, both above y, where h' was
        # rounding noise and the verdict read "constant" with exit 0
        (["--sum", "6.955244184806369e+25", "--prod", "1.2461587787399646e+76",
          "--r", "2", "--grid", "11"], "at t=2.318414718067769e+25 are out of order"),
    ])
    def test_non_finite_input_is_usage_error(self, runner, args, named):
        result = runner.invoke(main, ["reduce3", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert named in result.output.splitlines()[-1]

    def test_crossed_coordinates_are_usage_error(self, runner):
        # rounding puts x = z with y apart on interior rows 29 on, where h'
        # divided by y (x - z) = 0.0 and ended in a ZeroDivisionError
        # traceback; row 11 before them has y below x and z, and is
        # refused first
        result = runner.invoke(main, ["reduce3", "--sum", "2.9463098016715475e+89",
                                      "--prod", "9.472649486047106e+266",
                                      "--r", "-300", "--grid", "57"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "at t=9.82103263240148e+88 are out of order" in result.output.splitlines()[-1]

    def test_large_sum_gives_the_curve(self, runner):
        # the small end of the curve lies near sqrt(prod/sum), 154 decades
        # below the sum, and every row between the ends is a proper triple
        payload = run_json(runner, ["reduce3", "--sum", "5e102", "--prod", "1",
                                    "--r", "2"])["payload"]
        assert float(payload["t_lo"]) == pytest.approx(5e102 ** -0.5, rel=1e-12)
        assert float(payload["t_hi"]) == pytest.approx(2.5e102, rel=1e-12)
        assert payload["monotone"] == "strictly decreasing"

    @pytest.mark.parametrize("args", [
        ["--sum", "1.5095037515713866e-86", "--prod", "1.2656206550011245e-259",
         "--r", "-2.9395269089284133"],
        ["--sum", "5.422248155094178e-90", "--prod", "5e-324",
         "--r", "-1.7574893358734398", "--grid", "3"],
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_slopes_are_empty_cells(self, runner, args, fmt):
        # the chord slopes of h' overflowed, and the rows printed h' as nan
        # (inf - inf) or inf, with RuntimeWarnings, and exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["reduce3", *args, "--format", fmt])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        if fmt == "json":
            rows = [row.values() for row in
                    json.loads(result.stdout)["payload"]["rows"]]
        else:
            rows = list(csv.reader(io.StringIO(result.stdout)))[1:]
        cells = [v for row in rows for v in row if v]
        assert len(cells) >= 5 * len(rows) > 0
        assert all(math.isfinite(float(v)) for v in cells)

    def test_degenerate_constraints_are_usage_errors(self, runner):
        result = runner.invoke(main, ["reduce3", "--sum", "3", "--prod", "8",
                                      "--r", "2"])
        assert result.exit_code == 2


class TestTableSize:
    @pytest.mark.parametrize("args", [
        ["profile", "--n", "4", "--alpha", "2", "--points"],
        ["reduce3", "--sum", "10", "--prod", "20", "--r", "2", "--grid"],
    ])
    @pytest.mark.parametrize("count", ["1", str(10**5 + 1), "10000000000000"])
    def test_row_count_outside_the_range_is_usage_error(self, runner, monkeypatch,
                                                        args, count):
        # 1e13 rows ended in a numpy MemoryError traceback and exit 1, the
        # code of a failed verification
        import numpy as np

        def no_grid(*args, **kwargs):
            raise AssertionError("built the grid before checking the options")

        monkeypatch.setattr(np, "linspace", no_grid)
        result = runner.invoke(main, args + [count])
        assert result.exit_code == 2, result.output
        assert f"{count} is not in the range 2<=x<=100000" in result.output

    @pytest.mark.parametrize("n_min,n_max", [("3", "100003"), ("5", "10000000000000")])
    def test_sweep_past_the_row_cap_is_usage_error(self, runner, monkeypatch,
                                                   n_min, n_max):
        import meangap.cli as cli_mod

        def no_sweep(*args, **kwargs):
            raise AssertionError("certified before checking the range")

        monkeypatch.setattr(cli_mod, "sweep_constants", no_sweep)
        result = runner.invoke(main, ["sweep", "--n-min", n_min, "--n-max", n_max,
                                      "--alpha", "2"])
        assert result.exit_code == 2, result.output
        assert f"at most 100000 values of n; got {n_min}..{n_max}" in result.output


class TestCsvFormat:
    def test_row_payloads_become_tables(self, runner):
        result = runner.invoke(main, ["sweep", "--n-min", "3", "--n-max", "5",
                                      "--alpha", "2", "--format", "csv"])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0][0] == "n" and "omega" in rows[0]
        assert len(rows) == 4  # header plus one row per n
        assert result.output.endswith("\n") and "\r" not in result.output

    def test_csv_values_match_json(self, runner):
        env = run_json(runner, ["sweep", "--n-min", "3", "--n-max", "4",
                                "--alpha", "2"])
        result = runner.invoke(main, ["sweep", "--n-min", "3", "--n-max", "4",
                                      "--alpha", "2", "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        for json_row, csv_row in zip(env["payload"]["rows"], rows):
            assert csv_row["omega"] == json_row["omega"]
            assert csv_row["regime"] == json_row["regime"]

    def test_scalar_payloads_become_key_value_rows(self, runner):
        env = run_json(runner, ["constants", "--n", "4", "--alpha", "2"])
        result = runner.invoke(main, ["constants", "--n", "4", "--alpha", "2",
                                      "--format", "csv"])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["key", "value"]
        table = dict(rows[1:])
        assert table["omega"] == env["payload"]["omega"]
        assert table["regime"] == env["payload"]["regime"]

    def test_booleans_are_written_as_the_envelope_writes_them(self, runner):
        # csv.writer wrote Python's True and False
        assert _to_csv({"ok": True, "check": {"flags": [False, None, True]}}) == (
            "key,value\nok,true\ncheck.flags,false;;true\n")
        assert _to_csv({"rows": Table(["a", "b"], [[True], [None]])}) == "a,b\ntrue,\n"
        args = ["verify", "--n", "10", "--alpha", "13/10", "--workers", "1",
                "--format", "csv"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        table = dict(list(csv.reader(io.StringIO(result.output)))[1:])
        assert table["ok"] == "true"
        assert not {"True", "False"} & set(table.values())
