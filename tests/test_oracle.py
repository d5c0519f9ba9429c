"""Counter-based sampling, grid scans, and certificate checking."""

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from meangap import oracle
from meangap.constants import _endpoint_values, best_constants
from meangap.means import ExponentPair, ratio_gap
from meangap.oracle import (
    DEFAULT_GRID,
    MIN_GRID,
    BoundsCheck,
    GridExtreme,
    OracleReport,
    check_bounds,
    grid_scan_two_value,
    monte_carlo_extremes,
    simplex_sample,
    simplex_sample_block,
)
from meangap.profile import CENTER_BAND, ProfileParams, Side, _ratio


def ref_splitmix(seed: int, counter: int) -> int:
    # the reference mix, in plain python integers
    mask = (1 << 64) - 1
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & mask
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return z


def splitmix_words(seed: int, first: int, count: int) -> list:
    # the sampler's word path: counters first .. first + count - 1 through
    # the ramp of gamma times their offsets
    ramp = oracle._gamma_ramp(count, 1, cols=False)
    z = np.empty_like(ramp)
    oracle._splitmix(seed, first, ramp, z, np.empty_like(ramp))
    return [int(t) for t in z[:, 0]]


class TestSplitmix64:
    def test_golden_words_seed_zero(self):
        assert splitmix_words(0, 0, 4) == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_matches_integer_reference(self):
        for seed in (0, 42, 2**63):
            for first in (0, 3 * 2**62 + 5):
                want = [ref_splitmix(seed, first + c) for c in range(16)]
                assert splitmix_words(seed, first, 16) == want


class TestSimplexSample:
    def test_frozen_first_sample(self):
        v = simplex_sample(3, seed=0, index=0)
        assert v == (
            0.7840771960151878,
            0.20614504910614975,
            0.009777754878662495,
        )

    def test_returns_normalized_vector(self):
        v = simplex_sample(5, seed=9, index=3)
        assert type(v) is tuple and all(type(t) is float for t in v)
        assert math.fsum(v) == pytest.approx(1.0, abs=1e-12)
        assert all(t > 0.0 for t in v)

    def test_block_rows_match_single_samples(self):
        rows = simplex_sample_block(4, seed=11, count=8, start=5)
        for i in range(8):
            v = simplex_sample(4, seed=11, index=5 + i)
            assert tuple(rows[i]) == v

    def test_column_blocks_match_rows(self):
        # a block of one sample per column is summed in numpy's order for a
        # row, so its samples equal the rows' to the bit: every remainder
        # mod 8, and the halving beyond 128 coordinates
        for n in range(2, 300):
            count = 5
            want = simplex_sample_block(n, seed=6, count=count, start=9)
            ramp = oracle._gamma_ramp(count, n, cols=True)
            cols = np.empty((n, count))
            oracle._sample_rows(6, 9 * n, ramp, np.empty_like(ramp), cols.T)
            np.testing.assert_array_equal(cols.T, want, err_msg=f"n = {n}")

    def test_counter_blocks_are_disjoint(self):
        a = simplex_sample_block(3, seed=1, count=10, start=0)
        b = simplex_sample_block(3, seed=1, count=10, start=10)
        joined = simplex_sample_block(3, seed=1, count=20, start=0)
        np.testing.assert_array_equal(np.vstack([a, b]), joined)

    def test_uniform_coordinate_mean(self):
        # coordinates of a uniform simplex point have mean 1/n; check
        # within 3 standard errors, sd of one coordinate < 1/n
        n, count = 4, 20000
        rows = simplex_sample_block(n, seed=3, count=count)
        mean = rows[:, 0].mean()
        se = rows[:, 0].std() / math.sqrt(count)
        assert abs(mean - 1.0 / n) < 3.0 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            simplex_sample_block(1, seed=0, count=4)
        with pytest.raises(ValueError):
            simplex_sample_block(3, seed=0, count=0)


class TestRatioRows:
    @pytest.mark.parametrize("n", [3, 7, 25, 100, 255, 256, 300])
    @pytest.mark.parametrize("alpha", [-60.0, -1.3, 0.25, 2.5, 200.0])
    def test_matches_ratio_gap(self, n, alpha):
        # sampled rows, and the probe rows, which hold zero coordinates
        # for alpha > 0; the samples also as one per column, the layout they
        # take below n = 256.  Probes stay rows: where A - G cancels, the
        # column layout's sums, one coordinate after another, lose about
        # ten times the accuracy of numpy's pairwise sums of a row
        e = ExponentPair.from_alpha(alpha)
        probes = oracle._boundary_probes(n, e)
        samples = simplex_sample_block(n, seed=4, count=300)
        rows = np.vstack([samples, probes])
        want = [ratio_gap(tuple(row), e) for row in rows]
        got = oracle._ratio_rows(rows, e)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        got = oracle._ratio_rows(np.asfortranarray(samples), e)
        np.testing.assert_allclose(got, want[:300], rtol=1e-12, atol=0.0)
        assert (np.min(probes) == 0.0) == (alpha > 0)

    def test_large_negative_order_regression(self):
        # unnormalized powers of the smallest coordinate overflow here
        e = ExponentPair.from_alpha(-60.0)
        rep = monte_carlo_extremes(best_constants(3, e), samples=100_000, seed=0,
                                   grid=MIN_GRID)
        assert rep.observed_min == pytest.approx(
            ratio_gap(rep.arg_min, e), rel=1e-12, abs=0.0
        )

    def test_k_zero_probes_are_the_family_ends(self):
        # k coordinates at zero give ((n-k)/n)^(1-r); k = 1 and k = n-1 only
        n, e = 5, ExponentPair.from_alpha(2.0)
        probes = oracle._boundary_probes(n, e)
        assert probes.shape == (6, n)
        got = oracle._ratio_rows(probes[:2], e)
        want = [((n - k) / n) ** (1.0 - e.r) for k in (1, n - 1)]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestGridScan:
    def test_closed_form_ends_attained(self):
        # r = 2: the ends hold the exact extremes; next to x = 0 the grid's
        # points reach the end value to rounding
        params = ProfileParams(n=5, e=ExponentPair.from_alpha(0.5))
        ge = grid_scan_two_value(params, grid=MIN_GRID + 1)
        assert ge.includes_endpoints
        assert ge.min_value == pytest.approx(1.25, abs=1e-12)
        assert ge.max_value == pytest.approx(5.0, abs=1e-12)
        assert ge.arg_x_max < 1e-12
        assert ge.arg_x_min == params.x_hi

    def test_scan_reaches_the_end_beyond_t_min(self, monkeypatch):
        # for large alpha the solvers' edge t_min stops short of the ends:
        # at (3, 60) the right side's ratio there is about 0.6590.  With the
        # closed-form end points replaced by the center value r, which is
        # never an extremum, the scanned points alone reach the end value
        # (n/(n-1))^(r-1) = 0.67119
        e = ExponentPair.from_alpha(60.0)
        params = ProfileParams(n=3, e=e)
        at_end = _endpoint_values(3, e.r)[1]
        right = Side(params, "right")
        assert right.ratio(np.array([right.t_min]))[0] < at_end - 0.01
        t = list(grid_points(params, MIN_GRID))[1][1]
        assert t[-1] == pytest.approx(right.t_end, rel=1e-9)
        monkeypatch.setattr(oracle, "_endpoint_values", lambda n, r: (r, r))
        ge = grid_scan_two_value(params, grid=MIN_GRID)
        assert ge.max_value == pytest.approx(at_end, abs=1e-12)
        assert params.x_hi - ge.arg_x_max < 1e-100

    def test_interior_extreme_matches_certificate(self):
        # steps of about 1.2e-3 in log(X/(1 - X)) on each side
        e = ExponentPair.from_alpha(2.0)
        cert = best_constants(4, e)
        ge = grid_scan_two_value(ProfileParams(n=4, e=e), grid=1_000_000)
        assert ge.min_value == pytest.approx(cert.omega, abs=1e-7)
        assert ge.min_value >= cert.omega
        assert ge.arg_x_min == pytest.approx(cert.x_star, rel=2e-3)

    def test_negative_r_excludes_endpoints(self):
        params = ProfileParams(n=3, e=ExponentPair.from_alpha(-1.0))
        ge = grid_scan_two_value(params, grid=MIN_GRID)
        assert not ge.includes_endpoints
        assert ge.points == MIN_GRID
        assert ge.min_value < -100.0  # divergence recorded next to the ends
        assert 0.0 < ge.arg_x_min < params.x_hi

    def test_floor_grid_attains_the_certificate(self):
        # of ~400 random instances the floor resolves this extremum worst:
        # midway between two points it would miss by 9.6e-8 * |b|
        e = ExponentPair.from_alpha(-0.3942)
        cert = best_constants(4, e)
        ge = grid_scan_two_value(ProfileParams(n=4, e=e), grid=MIN_GRID)
        b = cert.upper_bound
        assert 0.0 <= b - ge.max_value < 0.1 * oracle.GRID_TOL * abs(b)

    def test_extremum_next_to_the_center_is_resolved(self):
        # n x* - 1 = -2.2e-5: points evenly spaced in log t missed the
        # constant by 7.2e-7 even at 1e6 points
        n, e = 43791, ExponentPair.from_alpha(34.0)
        cert = best_constants(n, e)
        ge = grid_scan_two_value(ProfileParams(n=n, e=e), grid=MIN_GRID)
        assert 0.0 <= ge.min_value - cert.lower_bound < 0.1 * oracle.GRID_TOL

    def test_right_side_stops_at_the_center_band(self):
        # ending the right side at n y = 1 - 1e-9, i.e. |n x - 1| = 1e-9/(n-1),
        # put points deep inside the band, where the ratio read +22.2 here
        n, e = 571718, ExponentPair.from_alpha(-0.1238)
        cert = best_constants(n, e)
        ge = grid_scan_two_value(ProfileParams(n=n, e=e), grid=MIN_GRID)
        assert 0.0 <= cert.upper_bound - ge.max_value < oracle.GRID_TOL

    def test_small_grid_rejected(self):
        params = ProfileParams(n=3, e=ExponentPair.from_alpha(2.0))
        with pytest.raises(ValueError, match=str(MIN_GRID)):
            grid_scan_two_value(params, grid=MIN_GRID - 1)

    def test_huge_grid_rejected(self):
        params = ProfileParams(n=3, e=ExponentPair.from_alpha(2.0))
        with pytest.raises(ValueError, match="1e8"):
            grid_scan_two_value(params, grid=10**8 + 1)

    def test_fields(self):
        params = ProfileParams(n=3, e=ExponentPair.from_alpha(2.0))
        ge = grid_scan_two_value(params, grid=MIN_GRID)
        assert isinstance(ge, GridExtreme)
        assert ge.points == MIN_GRID + 2  # half per side and both ends
        assert "step" not in ge.to_payload()


class TestMonteCarlo:
    def test_worker_count_does_not_change_payload(self):
        n, e = 3, ExponentPair.from_alpha(-1.0)
        cert = best_constants(n, e)
        kw = dict(samples=20_000, seed=7, grid=MIN_GRID)
        p1 = monte_carlo_extremes(cert, workers=1, **kw).to_payload()
        p4 = monte_carlo_extremes(cert, workers=4, **kw).to_payload()
        assert json.dumps(p1, sort_keys=True) == json.dumps(p4, sort_keys=True)

    def test_scratch_is_allocated_per_worker(self, monkeypatch):
        # each worker builds one ramp (with its two buffers) for all of its
        # chunks, not one per chunk: 1e5 samples make 13 chunks.  The ramps
        # of one sample regenerate arg_min and arg_max
        ramp = oracle._gamma_ramp
        calls = []

        def counted(count, n, cols):
            if count > 1:
                calls.append(count)
            return ramp(count, n, cols)

        monkeypatch.setattr(oracle, "_gamma_ramp", counted)
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        for workers, most in ((1, 1), (3, 3)):
            calls.clear()
            monte_carlo_extremes(cert, samples=100_000, seed=3, workers=workers,
                                 grid=MIN_GRID)
            assert 1 <= len(calls) <= most, workers

    @pytest.mark.parametrize("n", [100, 300])
    def test_workers_share_scratch_over_a_ragged_chunk(self, n):
        # one sample per column at n = 100, rows at n = 300; 10001 samples
        # leave a last chunk of 1809, whose last block is short
        e = ExponentPair.from_alpha(0.25)
        cert = best_constants(n, e)
        kw = dict(samples=10_001, seed=2, grid=MIN_GRID)
        p1 = monte_carlo_extremes(cert, workers=1, **kw).to_payload()
        p3 = monte_carlo_extremes(cert, workers=3, **kw).to_payload()
        assert json.dumps(p1, sort_keys=True) == json.dumps(p3, sort_keys=True)

    def test_chunking_does_not_change_payload(self, monkeypatch):
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        payloads = []
        for chunk in (1000, 7001):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            payloads.append(monte_carlo_extremes(cert, samples=12_000, seed=1,
                                                 grid=MIN_GRID).to_payload())
        assert payloads[0] == payloads[1]

    def test_no_violations_on_correct_certificate(self):
        n, e = 4, ExponentPair.from_alpha(2.0)
        rep = monte_carlo_extremes(best_constants(n, e), samples=50_000, seed=0,
                                   grid=MIN_GRID)
        assert rep.violations == 0
        cert = rep.cert
        assert cert.lower_bound <= rep.observed_min <= rep.observed_max <= cert.upper_bound

    def test_arg_extremes_regenerate(self):
        n, e = 4, ExponentPair.from_alpha(2.0)
        rep = monte_carlo_extremes(best_constants(n, e), samples=10_000, seed=5,
                                   grid=MIN_GRID)
        for arg in (rep.arg_min, rep.arg_max):
            assert type(arg) is tuple and len(arg) == n
            assert math.fsum(arg) == pytest.approx(1.0, abs=1e-12)

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            monte_carlo_extremes(best_constants(3, ExponentPair.from_alpha(2.0)),
                                 samples=9_999, grid=MIN_GRID)

    def test_sample_cap_enforced_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before checking the sample count")

        monkeypatch.setattr(oracle, "_sample_rows", no_sampling)
        with pytest.raises(ValueError, match="between 10000 and 1e8"):
            monte_carlo_extremes(best_constants(4, ExponentPair.from_alpha(2.0)),
                                 samples=10**8 + 1, grid=MIN_GRID)

    def test_grid_floor_enforced_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before checking the grid")

        monkeypatch.setattr(oracle, "_sample_rows", no_sampling)
        # blocks of columns below n = 256, of rows from there on
        for n in (3, 7, 100, 255, 256, 300):
            with pytest.raises(ValueError, match=str(MIN_GRID)):
                monte_carlo_extremes(best_constants(n, ExponentPair.from_alpha(2.0)),
                                     samples=10_000, grid=MIN_GRID - 1)

    def test_n_cap_enforced_before_any_array(self, monkeypatch):
        # one past the cap is refused before the sampler's counter ramp,
        # which at n = 1e9 asked for 7.45 GiB; the cap itself gets that far
        def no_arrays(*args):
            raise AssertionError("built a ramp before checking n")

        monkeypatch.setattr(oracle, "_gamma_ramp", no_arrays)
        e = ExponentPair.from_alpha(-1.0)
        for n in (oracle.MAX_N + 1, 10**9):
            with pytest.raises(ValueError, match=f"verify takes n up to {oracle.MAX_N},"):
                monte_carlo_extremes(best_constants(n, e), samples=10_000,
                                     grid=MIN_GRID)
        with pytest.raises(AssertionError, match="before checking n"):
            monte_carlo_extremes(best_constants(oracle.MAX_N, e), samples=10_000,
                                 grid=MIN_GRID)

    def test_nan_value_is_a_violation(self, monkeypatch):
        # NaN fails every comparison, so it must be flagged explicitly
        def with_nan(rows, e, scratch=None):
            vals = kernel(rows, e, scratch)
            vals[0] = math.nan
            return vals

        kernel = oracle._ratio_rows
        monkeypatch.setattr(oracle, "_ratio_rows", with_nan)
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(cert, samples=10_000, seed=0, grid=MIN_GRID)
        assert rep.violations >= 1
        assert check_bounds(rep).ok is False

    def test_negative_alpha_probes_are_observations(self):
        # boundary probes dive toward -inf for alpha < 0 but are recorded,
        # not counted against the one-sided bounds
        n, e = 3, ExponentPair.from_alpha(-1.0)
        rep = monte_carlo_extremes(best_constants(n, e), samples=10_000, seed=2,
                                   grid=MIN_GRID)
        assert rep.violations == 0
        assert rep.probe_min < -100.0

    # reports of 20000 samples at seed 3, as the sampler of rows gives them
    # at every n: observed min and max, probe min and max, and arg_min and
    # arg_max (the coordinates at n = 5, the sha256 of their float64 bytes
    # at larger n).  n = 5 takes blocks of columns, n = 300 blocks of rows
    FROZEN = {
        (5, -1.3): (
            -14.015357055166467, -0.5321208006115278,
            -11645808.630038543, -17.292420847429213,
            (0.00447384151311286, 0.005975098816110197, 0.023704750801671795,
             0.960021711435898, 0.005824597433207292),
            (0.04169248527897598, 0.2447130930828888, 0.2442276092822113,
             0.22912951262818823, 0.24023729972773553),
        ),
        (100, 0.25): (
            2.8860039052848827, 4.949637836034911,
            1.0306101521283644, 1000000.0,
            "4885edd0720ba32dcfbe746f27134afd1b40bd28726254ea248d89847b13ff37",
            "8e9232b525893de6e4c1bd5986b59aa5402d2efcf1a66b86c9c9263551f173bb",
        ),
        (300, 2.5): (
            0.3144323438850154, 0.4922331762418275,
            0.032638278743414906, 0.9979986645884356,
            "cc12d6fd8873e1a803a7af80291309f73aee82b9f7c0bf0e8f454f78caeaed4a",
            "e4d243a77b14941ad615b8df31dd1262f008b2147f5145af74376e00bcb92442",
        ),
    }

    @pytest.mark.parametrize("n,alpha", list(FROZEN))
    def test_report_is_frozen(self, n, alpha):
        # every sample is the same to the bit in either layout; from n = 8
        # on, a block of columns sums a sample's terms in another order, so
        # only the observed values there may move, by rounding
        rep = monte_carlo_extremes(best_constants(n, ExponentPair.from_alpha(alpha)),
                                   samples=20_000, seed=3, grid=MIN_GRID)
        lo, hi, probe_lo, probe_hi, arg_lo, arg_hi = self.FROZEN[(n, alpha)]
        if 8 <= n < 256:
            assert rep.observed_min == pytest.approx(lo, rel=1e-13, abs=0.0)
            assert rep.observed_max == pytest.approx(hi, rel=1e-13, abs=0.0)
        else:
            assert (rep.observed_min, rep.observed_max) == (lo, hi)
        assert (rep.probe_min, rep.probe_max) == (probe_lo, probe_hi)
        for arg, want in ((rep.arg_min, arg_lo), (rep.arg_max, arg_hi)):
            if n > 5:
                arg = hashlib.sha256(np.array(arg).tobytes()).hexdigest()
            assert arg == want


class TestCheckBounds:
    def test_passes_on_correct_certificate(self):
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(cert, samples=20_000, seed=0, grid=MIN_GRID)
        chk = check_bounds(rep)
        assert isinstance(chk, BoundsCheck)
        assert chk.ok
        assert chk.failures == ()

    def test_tolerance_formula(self):
        # one fixed tolerance relative to each bound, whatever the grid
        n, e = 5, ExponentPair.from_alpha(1 / 13)
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(cert, samples=10_000, seed=0, grid=MIN_GRID)
        chk = check_bounds(rep)
        assert chk.ok
        assert chk.tol_min == oracle.GRID_TOL * cert.lower_bound
        assert chk.tol_max == oracle.GRID_TOL * 5.0**12
        # an unbounded side has nothing to scale by
        e = ExponentPair.from_alpha(-1.0)
        cert = best_constants(3, e)
        rep = monte_carlo_extremes(cert, samples=10_000, seed=0, grid=MIN_GRID)
        assert check_bounds(rep).tol_min == oracle.GRID_TOL

    def test_tampered_bound_fails_with_named_sample(self):
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        bad = dataclasses.replace(cert, upper_bound=cert.upper_bound - 0.1)
        rep = monte_carlo_extremes(bad, samples=10_000, seed=7, grid=MIN_GRID)
        chk = check_bounds(rep)
        assert not chk.ok
        assert rep.violations > 0
        assert rep.violation_examples  # offending tuples are recorded
        assert "ratio" in chk.failures[0] and "at (" in chk.failures[0]

    def test_tampered_omega_fails_closeness(self):
        # certified-extremum side must be attained by the grid
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        bad = dataclasses.replace(cert, lower_bound=cert.lower_bound - 5e-4)
        rep = monte_carlo_extremes(bad, samples=10_000, seed=7, grid=MIN_GRID)
        chk = check_bounds(rep)
        assert not chk.ok
        assert any("certified lower bound" in f for f in chk.failures)

    def test_old_large_n_certificate_fails(self):
        # the upper bound certified at (1000, -1) before the solvers worked
        # in the small coordinate sits 1.8e-6 below the sharp constant
        n, e = 1000, ExponentPair.from_alpha(-1.0)
        old = dataclasses.replace(best_constants(n, e), upper_bound=-0.0090238158)
        rep = monte_carlo_extremes(old, samples=10_000, seed=0, grid=DEFAULT_GRID)
        chk = check_bounds(rep)
        assert not chk.ok
        assert any("exceeds upper bound" in f for f in chk.failures)
        assert any("certified upper bound" in f for f in chk.failures)

    @pytest.mark.parametrize("n,e", [
        (3, ExponentPair.from_r(-1.0)),  # NEG_R, upper
        (4, ExponentPair.from_alpha(2.0)),  # FRAC_R, lower
        (3, ExponentPair.from_r(1.4)),  # LOW_R_SMALL_N, upper
        (3, ExponentPair.from_r(5.0)),  # HIGH_R_SMALL_N, lower
    ])
    def test_moved_certified_bound_fails(self, n, e):
        # outward by 1e-5 relative the grid cannot attain it; inward by
        # 1e-6 relative the grid escapes it
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(cert, samples=10_000, seed=0, grid=DEFAULT_GRID)
        assert check_bounds(rep).ok
        side = "lower" if cert.lower_kind == "certified-extremum" else "upper"
        b = getattr(cert, f"{side}_bound")
        outward = -1.0 if side == "lower" else 1.0
        escape = "undercuts" if side == "lower" else "exceeds"
        for shift, named in ((1e-5, f"certified {side} bound"), (-1e-6, escape)):
            moved = {f"{side}_bound": b + outward * shift * max(1.0, abs(b))}
            chk = check_bounds(
                dataclasses.replace(rep, cert=dataclasses.replace(cert, **moved)))
            assert not chk.ok
            assert any(named in f for f in chk.failures), (shift, chk.failures)

    def test_each_side_escapes_by_its_own_scale(self):
        # the closed-form upper bound 25^12 = 6e16 would give a shared
        # slack of 6e7 against the lower bound 1.63; moved inward by 1e-6
        # relative, the lower bound is undercut by the probes and the grid
        n, e = 25, ExponentPair.from_r(13.0)
        cert = best_constants(n, e)
        assert cert.upper_bound > 1e16
        moved = dataclasses.replace(
            cert, lower_bound=cert.lower_bound * (1.0 + 1e-6))
        rep = monte_carlo_extremes(moved, samples=10_000, seed=0, grid=MIN_GRID)
        assert rep.violations > 0
        chk = check_bounds(rep)
        assert any("undercuts lower bound" in f for f in chk.failures)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_grid_extreme_fails(self, bad):
        # the upper bound is closed-form here, so only the finiteness check
        # and a finite slack scale can reject an infinite grid max
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(cert, samples=10_000, seed=0, grid=MIN_GRID)
        ge = dataclasses.replace(rep.grid_extreme, max_value=bad)
        chk = check_bounds(dataclasses.replace(rep, grid_extreme=ge))
        assert not chk.ok
        assert any("not finite" in f for f in chk.failures)

    def test_payload_structure(self):
        n, e = 3, ExponentPair.from_alpha(-1.0)
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(cert, samples=10_000, seed=0, grid=MIN_GRID)
        payload = rep.to_payload()
        assert isinstance(rep, OracleReport)
        assert payload["samples"] == 10_000
        assert "workers" not in payload  # must not leak into the artifact
        assert payload["grid_extreme"]["n"] == 3
        assert len(payload["arg_min"]) == 3

    def test_payloads_hold_floats_not_texts(self):
        # the CLI's writers alone turn a float into text; the certificate's
        # upper bound is moved inside the range so violations are listed
        cert = best_constants(3, ExponentPair.from_alpha(-1.0))
        cert = dataclasses.replace(cert, upper_bound=cert.upper_bound - 0.5)
        rep = monte_carlo_extremes(cert, samples=10_000, seed=0, grid=MIN_GRID)
        chk = check_bounds(rep)
        assert not chk.ok and rep.violation_examples

        def leaves(obj):
            if isinstance(obj, dict):
                obj = list(obj.values())
            if not isinstance(obj, (list, tuple)):
                return [obj]
            return [leaf for v in obj for leaf in leaves(v)]

        found = leaves([cert.to_payload(), rep.to_payload(), chk.to_payload()])
        types = {type(v) for v in found}
        assert float in types and types <= {float, int, bool, str, type(None)}
        for text in (v for v in found if isinstance(v, str)):
            with pytest.raises(ValueError):
                float(text)
        assert type(rep.to_payload()["violation_examples"][0]["value"]) is float


def grid_points(params: ProfileParams, grid: int):
    # (side, t) for each side as one array: half of the grid each, in
    # increasing x
    for name, count in (("left", (grid + 1) // 2), ("right", grid // 2)):
        side = Side(params, name)
        v = np.concatenate([v0 + step * np.arange(m, dtype=float)
                            for v0, step, m in oracle._runs(side, count)])
        yield side, 1.0 / (params.n * (1.0 + np.exp(-v)))


def whole_array_scan(params: ProfileParams, grid: int) -> GridExtreme:
    # the grid scan over whole-side arrays, plus the ends for r > 0
    n, e = params.n, params.e
    sides = list(grid_points(params, grid))
    xs = np.concatenate([side.x(t) for side, t in sides])
    vals = np.concatenate([side.ratio(t) for side, t in sides])
    include = e.r > 0
    if include:
        lo, hi = _endpoint_values(n, e.r)
        xs = np.concatenate([[0.0], xs, [params.x_hi]])
        vals = np.concatenate([[lo], vals, [hi]])
    imin, imax = int(np.argmin(vals)), int(np.argmax(vals))
    return GridExtreme(
        n=n, e=e, points=len(xs), includes_endpoints=include,
        min_value=float(vals[imin]), arg_x_min=float(xs[imin]),
        max_value=float(vals[imax]), arg_x_max=float(xs[imax]),
    )


class TestStreaming:
    """The oracle's blocks give what whole-array evaluation gives.

    Samples match bit for bit in either layout.  Their ratios match the
    row kernel's bit for bit in blocks of rows and below 8 coordinates;
    from 8 coordinates on, blocks of columns match within 1e-13.
    """

    @pytest.mark.parametrize("n", [3, 7, 100, 255, 256, 300])
    def test_block_samples_match_the_wrapper(self, monkeypatch, n):
        # coordinates per block: below n = 256 a block holds one sample per
        # column, n + 2 of them here, and from n = 256 on it holds rows, 3
        # of them here; neither divides the 8192 samples of a chunk, so the
        # last block of each chunk is ragged.  At n = 300 the block is
        # smaller than one row, and holds one row
        stream = {256: 3 * 256, 300: 40}.get(n, n * (n + 2))
        monkeypatch.setattr(oracle, "_STREAM", stream)
        kernel = oracle._ratio_rows
        blocks, block_vals, layouts = [], [], []

        def spy(rows, e, scratch=None):
            if scratch is not None:
                blocks.append(rows.copy())
                layouts.append(rows.flags.c_contiguous)
            vals = kernel(rows, e, scratch)
            if scratch is not None:
                block_vals.append(vals)
            return vals

        monkeypatch.setattr(oracle, "_ratio_rows", spy)
        e = ExponentPair.from_alpha(-1.3 if n in (7, 255) else 2.5)
        samples = 10_000
        rep = monte_carlo_extremes(best_constants(n, e), samples=samples, seed=4,
                                   grid=MIN_GRID)
        rows = simplex_sample_block(n, seed=4, count=samples)
        per = max(1, stream // n)
        assert max(len(b) for b in blocks) == per
        assert set(layouts) == {per <= n}
        np.testing.assert_array_equal(np.vstack(blocks), rows)
        got = np.concatenate(block_vals)
        if per <= n or n < 8:
            # rows, and columns below 8 coordinates, where numpy adds a
            # row's terms one by one as a column block's sums do
            want = kernel(rows, e)
            np.testing.assert_array_equal(got, want)
        else:
            # the sums of a block of columns run down its columns, one
            # coordinate after another, not in numpy's pairwise order for a
            # row: from 8 coordinates on the values may move by rounding
            want = kernel(np.asfortranarray(rows), e)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_allclose(want, kernel(rows, e), rtol=1e-13, atol=0.0)
        assert rep.observed_min == want.min()
        assert rep.observed_max == want.max()

    def test_scratch_is_the_fresh_temporary(self):
        e = ExponentPair.from_alpha(-60.0)
        rows = simplex_sample_block(25, seed=2, count=300)
        want = oracle._ratio_rows(rows, e)
        got = oracle._ratio_rows(rows.copy(), e, np.empty_like(rows))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(oracle._ratio_rows(rows, e, rows), want)

    @pytest.mark.parametrize("grid", [1000, 1001, 123_457])
    @pytest.mark.parametrize("n,alpha", [(4, 2.0), (5, -1.0)])
    @pytest.mark.parametrize("block", [None, 333])
    def test_grid_matches_the_materialised_scan(self, monkeypatch, grid, n, alpha,
                                                block):
        # r > 0 and r < 0; a 333-point block leaves a ragged last block on
        # each side, and an odd grid gives the left side one more point.
        # How the points stream does not depend on the floor, which grids
        # this small would be under
        monkeypatch.setattr(oracle, "MIN_GRID", 1000)
        if block is not None:
            monkeypatch.setattr(oracle, "_GRID_BLOCK", block)
        params = ProfileParams(n=n, e=ExponentPair.from_alpha(alpha))
        got = grid_scan_two_value(params, grid=grid)
        want = whole_array_scan(params, grid)
        assert got.points == want.points
        for field in dataclasses.fields(GridExtreme):
            assert getattr(got, field.name) == getattr(want, field.name), field.name

    @pytest.mark.parametrize("n,alpha", [
        (5, -1.84313), (10, 6.4), (3, 0.890063), (4, 0.1), (20, 0.8),
        (25, 0.24436), (100, 0.25), (100, 2 / 3), (3, -60.0), (1000, -1.0),
        (3000, 2.0), (7, 1000.0), (64, 0.01), (30, -0.5), (4, 0.75), (300, 2.5),
    ])
    def test_block_evaluator_is_the_reference_ratio(self, monkeypatch, n, alpha):
        # every block the scan evaluates, each run's ragged last one too,
        # holds the bits of t at v and of _ratio at the coordinates
        # Side._coords forms, so a change to _power_sum moves the grid too
        params = ProfileParams(n=n, e=ExponentPair.from_alpha(alpha))
        kernel = Side.ratio_into
        blocks = {"left": [], "right": []}

        def spy(side, t, out, work):
            vals = kernel(side, t, out, work)
            blocks[side.side].append((t.copy(), vals.copy()))
            return vals

        monkeypatch.setattr(Side, "ratio_into", spy)
        grid_scan_two_value(params, grid=MIN_GRID)
        sizes = [len(t) for side in blocks.values() for t, _ in side]
        assert max(sizes) == oracle._GRID_BLOCK > min(sizes)
        for side, want_t in grid_points(params, MIN_GRID):
            t = np.concatenate([t for t, _ in blocks[side.side]])
            np.testing.assert_array_equal(t, want_t)
            vals = np.concatenate([v for _, v in blocks[side.side]])
            with np.errstate(all="ignore"):
                want = _ratio(np, n, alpha, *side._coords(want_t, np))
            np.testing.assert_array_equal(vals, want)

    @pytest.mark.parametrize("n,alpha", [
        (3, 60.0), (3, -60.0), (3, 0.01), (100, 2.5), (1000, -1.0),
        (64, 0.01), (oracle.MAX_N, 60.0), (oracle.MAX_N, -60.0),
        (oracle.MAX_N, 0.2),
    ])
    def test_the_side_fixes_the_larger_power_term(self, n, alpha):
        # Side.ratio_into takes the larger term of the power sum from the
        # side and the sign of alpha alone: it relies on l1 < 0 < l2 on the
        # left and l2 < 0 < l1 on the right at every grid point, from t_end
        # to the edge of the center band
        params = ProfileParams(n=n, e=ExponentPair.from_alpha(alpha))
        for side, t in grid_points(params, MIN_GRID):
            assert t.min() == pytest.approx(side.t_end, rel=1e-9)
            band = (1 if side.side == "left" else n - 1) * CENTER_BAND
            assert 1.0 - n * t.max() == pytest.approx(band, rel=1e-6)
            _, _, _, l1, l2 = side._coords(t, np)
            lo, hi = (l1, l2) if side.side == "left" else (l2, l1)
            assert (lo < 0.0).all() and (hi > 0.0).all(), side.side

    def test_first_nan_of_the_grid_wins(self, monkeypatch):
        # NaNs in the middle of two later blocks of the left side: as with
        # np.argmin and np.argmax over the whole grid, both extremes are
        # the first one
        monkeypatch.setattr(oracle, "_GRID_BLOCK", 1000)
        n, e = 4, ExponentPair.from_alpha(2.0)
        params = ProfileParams(n=n, e=e)
        grid = MIN_GRID
        targets = next(grid_points(params, grid))[1][[2499, 3499]]
        kernel = Side.ratio_into

        def with_nan(side, t, out, work):
            vals = kernel(side, t, out, work)
            if side.side == "left":
                vals[np.isin(t, targets)] = math.nan
            return vals

        monkeypatch.setattr(Side, "ratio_into", with_nan)
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(cert, samples=10_000, seed=0, grid=grid)
        ge = rep.grid_extreme
        assert math.isnan(ge.min_value) and math.isnan(ge.max_value)
        assert ge.arg_x_min == ge.arg_x_max == targets[0]
        chk = check_bounds(rep)
        assert not chk.ok
        for name in ("min", "max"):
            named = f"grid {name} nan at x={targets[0]} is not finite"
            assert any(f.startswith(named) for f in chk.failures)

    def test_memory_does_not_grow_with_n(self):
        # traced allocations are deterministic: whole-chunk temporaries
        # (8192 rows of 1000 coordinates, 65 MB each) and whole-grid arrays
        # (8 MB each) peaked at about 310 MB here
        e = ExponentPair.from_alpha(-1.0)
        cert = best_constants(1000, e)
        tracemalloc.start()
        try:
            monte_carlo_extremes(cert, samples=10_000, grid=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
