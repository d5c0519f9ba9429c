"""Command line surface: envelopes, formats, exit codes, determinism."""

import csv
import io
import json

import pytest
from click.testing import CliRunner

from meangap.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


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


class TestAlphaParsing:
    def test_fraction_keeps_reciprocal_exact(self, runner):
        env = run_json(runner, ["constants", "--n", "5", "--alpha", "1/5"])
        assert env["metadata"]["instance"]["r"] == "5"
        assert env["payload"]["regime"] == "HIGH_R_LARGE_N"

    def test_fraction_and_decimal_can_classify_differently(self, runner):
        # 1/float(1/49) rounds to 49.00000000000001, crossing the n >= r
        # boundary at n = 49; the fraction path keeps r = 49 exactly.  The
        # rounded instance is 7e-15 into the small-n regime, where the
        # interior crossing sits too close to the bracket edge to certify.
        exact = run_json(runner, ["constants", "--n", "49", "--alpha", "1/49"])
        assert exact["metadata"]["instance"]["r"] == "49"
        assert exact["payload"]["regime"] == "HIGH_R_LARGE_N"
        rounded = runner.invoke(main, ["constants", "--n", "49", "--alpha",
                                       "0.02040816326530612"])
        assert rounded.exit_code == 2
        assert "r=49.00000000000001" in rounded.output

    @pytest.mark.parametrize("bad", ["0", "1", "0/3", "2/2", "inf", "nan", "x"])
    def test_rejected_orders(self, runner, bad):
        result = runner.invoke(main, ["constants", "--n", "4", "--alpha", bad])
        assert result.exit_code == 2
        assert "finite decimal or p/q" in result.output

    def test_negative_fraction(self, runner):
        env = run_json(runner, ["constants", "--n", "3", "--alpha", "-1/2"])
        assert env["metadata"]["instance"]["r"] == "-2"


class TestConstantsCommand:
    def test_monotone_instance_has_no_interior_extremum(self, runner):
        env = run_json(runner, ["constants", "--n", "5", "--alpha", "1/2"])
        payload = env["payload"]
        assert payload["regime"] == "LOW_R_LARGE_N"
        assert payload["omega"] is None
        assert payload["lower_bound"] == "1.25"
        assert payload["upper_bound"] == "5"

    def test_usage_error_for_small_n(self, runner):
        result = runner.invoke(main, ["constants", "--n", "2", "--alpha", "2"])
        assert result.exit_code == 2
        assert "n >= 3" in result.output

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

    def test_endpoint_near_the_limit_still_certifies(self, runner):
        env = run_json(runner, ["constants", "--n", "3", "--alpha", "1/640"])
        assert env["payload"]["regime"] == "HIGH_R_SMALL_N"
        assert float(env["payload"]["upper_bound"]) == pytest.approx(
            3.0**639, rel=1e-13)
        rows = run_json(runner, ["profile", "--n", "3", "--alpha", "1/647",
                                 "--points", "5"])["payload"]["rows"]
        assert len(rows) == 5


class TestVerifyCommand:
    ARGS = ["verify", "--n", "4", "--alpha", "2", "--samples", "10000",
            "--grid", "10000", "--seed", "3"]

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
            lambda report, cert, tol=None: BoundsCheck(
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
                                "--samples", "10000", "--grid", "10000"])
        assert set(env) == {"format", "payload", "metadata"}
        assert env["payload"]["ok"] is True

    def test_small_sample_count_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["verify", "--n", "4", "--alpha", "2", "--samples", "10"])
        assert result.exit_code == 2


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

    def test_unknown_column_rejected(self, runner):
        result = runner.invoke(main, ["profile", "--n", "3", "--alpha", "2",
                                      "--which", "g,bogus"])
        assert result.exit_code == 2
        assert "bogus" in result.output


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

    def test_degenerate_constraints_are_usage_errors(self, runner):
        result = runner.invoke(main, ["reduce3", "--sum", "3", "--prod", "8",
                                      "--r", "2"])
        assert result.exit_code == 2


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

    def test_format_env_var(self, runner):
        result = runner.invoke(main, ["constants", "--n", "4", "--alpha", "2"],
                               env={"MEANGAP_FORMAT": "csv"})
        assert result.exit_code == 0
        assert result.output.startswith("key,value")
