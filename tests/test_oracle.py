"""Counter-based sampling, grid scans, and certificate checking."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from meangap import oracle
from meangap.constants import EPS_HAT, _endpoint_values, best_constants
from meangap.means import ExponentPair, SampleVector, ratio_gap
from meangap.oracle import (
    BoundsCheck,
    GridExtreme,
    InstanceMismatchError,
    OracleReport,
    check_bounds,
    grid_scan_two_value,
    monte_carlo_extremes,
    simplex_sample,
    simplex_sample_block,
    splitmix64,
)
from meangap.profile import ProfileParams, f_profile


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


class TestSplitmix64:
    def test_golden_words_seed_zero(self):
        got = splitmix64(0, np.arange(4, dtype=np.uint64))
        assert [int(t) for t in got] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_matches_integer_reference(self):
        for seed in (0, 42, 2**63):
            got = splitmix64(seed, np.arange(16, dtype=np.uint64))
            want = [ref_splitmix(seed, c) for c in range(16)]
            assert [int(t) for t in got] == want


class TestSimplexSample:
    def test_frozen_first_sample(self):
        v = simplex_sample(3, seed=0, index=0)
        assert v.xs == (
            0.7840771960151878,
            0.20614504910614975,
            0.009777754878662495,
        )

    def test_returns_normalized_vector(self):
        v = simplex_sample(5, seed=9, index=3)
        assert isinstance(v, SampleVector)
        assert v.is_normalized()
        assert all(t > 0.0 for t in v.xs)

    def test_block_rows_match_single_samples(self):
        rows = simplex_sample_block(4, seed=11, count=8, start=5)
        for i in range(8):
            v = simplex_sample(4, seed=11, index=5 + i)
            assert tuple(rows[i]) == v.xs

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
    @pytest.mark.parametrize("n", [3, 25, 100])
    @pytest.mark.parametrize("alpha", [-60.0, -1.3, 0.25, 2.5, 200.0])
    def test_matches_ratio_gap(self, n, alpha):
        # sampled rows, and the probe rows, which hold zero coordinates
        # for alpha > 0
        e = ExponentPair.from_alpha(alpha)
        probes = oracle._boundary_probes(n, e)
        rows = np.vstack([simplex_sample_block(n, seed=4, count=300), probes])
        got = oracle._ratio_rows(rows, e)
        want = [ratio_gap(tuple(row), e) for row in rows]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert (np.min(probes) == 0.0) == (alpha > 0)

    def test_large_negative_order_regression(self):
        # unnormalized powers of the smallest coordinate overflow here
        e = ExponentPair.from_alpha(-60.0)
        rep = monte_carlo_extremes(3, e, samples=100_000, seed=0, grid=10_000)
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
        # r = 2 endpoints are exact grid values
        params = ProfileParams(n=5, e=ExponentPair.from_alpha(0.5))
        ge = grid_scan_two_value(params, grid=200_001)
        assert ge.includes_endpoints
        assert ge.min_value == pytest.approx(1.25, abs=1e-12)
        assert ge.max_value == pytest.approx(5.0, abs=1e-12)
        assert ge.arg_x_max == 0.0
        assert ge.arg_x_min == params.x_hi

    def test_interior_extreme_matches_certificate(self):
        e = ExponentPair.from_alpha(2.0)
        cert = best_constants(4, e)
        ge = grid_scan_two_value(ProfileParams(n=4, e=e), grid=1_000_000)
        assert ge.min_value == pytest.approx(cert.omega, abs=1e-6)
        assert abs(ge.arg_x_min - cert.x_star) <= 2.0 * ge.step

    def test_negative_r_excludes_endpoints(self):
        params = ProfileParams(n=3, e=ExponentPair.from_alpha(-1.0))
        ge = grid_scan_two_value(params, grid=10_000)
        assert not ge.includes_endpoints
        assert ge.points == 10_000  # the ends replaced by their offsets
        assert ge.min_value < -100.0  # divergence recorded at the offsets
        assert 0.0 < ge.arg_x_min < params.x_hi

    def test_small_grid_rejected(self):
        params = ProfileParams(n=3, e=ExponentPair.from_alpha(2.0))
        with pytest.raises(ValueError):
            grid_scan_two_value(params, grid=999)

    def test_huge_grid_rejected(self):
        # from about 1e9 points the grid step drops below the 1e-9/n offsets
        params = ProfileParams(n=3, e=ExponentPair.from_alpha(2.0))
        with pytest.raises(ValueError, match="1e8"):
            grid_scan_two_value(params, grid=10**8 + 1)

    def test_fields(self):
        params = ProfileParams(n=3, e=ExponentPair.from_alpha(2.0))
        ge = grid_scan_two_value(params, grid=2000)
        assert isinstance(ge, GridExtreme)
        assert ge.points == 2002  # both ends and their 1e-9/n offsets
        assert ge.step == pytest.approx(params.x_hi / 1999.0)
        assert ge.min_curvature >= 0.0


class TestMonteCarlo:
    def test_worker_count_does_not_change_payload(self):
        n, e = 3, ExponentPair.from_alpha(-1.0)
        cert = best_constants(n, e)
        kw = dict(samples=20_000, seed=7, cert=cert, grid=10_000)
        p1 = monte_carlo_extremes(n, e, workers=1, **kw).to_payload()
        p4 = monte_carlo_extremes(n, e, workers=4, **kw).to_payload()
        assert json.dumps(p1, sort_keys=True) == json.dumps(p4, sort_keys=True)

    def test_chunking_does_not_change_payload(self):
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        a = monte_carlo_extremes(n, e, samples=12_000, seed=1, cert=cert,
                                 grid=10_000, chunk=1000)
        b = monte_carlo_extremes(n, e, samples=12_000, seed=1, cert=cert,
                                 grid=10_000, chunk=7001)
        assert a.to_payload() == b.to_payload()

    def test_no_violations_on_correct_certificate(self):
        n, e = 4, ExponentPair.from_alpha(2.0)
        rep = monte_carlo_extremes(n, e, samples=50_000, seed=0, grid=10_000)
        assert rep.violations == 0
        assert rep.lower_bound <= rep.observed_min <= rep.observed_max <= rep.upper_bound

    def test_arg_extremes_regenerate(self):
        n, e = 4, ExponentPair.from_alpha(2.0)
        rep = monte_carlo_extremes(n, e, samples=10_000, seed=5, grid=10_000)
        assert isinstance(rep.arg_min, SampleVector)
        assert rep.arg_min.is_normalized()
        assert rep.arg_max.is_normalized()

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            monte_carlo_extremes(3, ExponentPair.from_alpha(2.0), samples=9_999,
                                 grid=10_000)

    def test_instance_mismatch(self):
        cert = best_constants(3, ExponentPair.from_alpha(2.0))
        with pytest.raises(InstanceMismatchError):
            monte_carlo_extremes(4, ExponentPair.from_alpha(2.0), samples=10_000,
                                 cert=cert, grid=10_000)

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
        rep = monte_carlo_extremes(n, e, samples=10_000, seed=0, cert=cert,
                                   grid=10_000)
        assert rep.violations >= 1
        assert check_bounds(rep, cert).ok is False

    def test_negative_alpha_probes_are_observations(self):
        # boundary probes dive toward -inf for alpha < 0 but are recorded,
        # not counted against the one-sided bounds
        n, e = 3, ExponentPair.from_alpha(-1.0)
        rep = monte_carlo_extremes(n, e, samples=10_000, seed=2, grid=10_000)
        assert rep.violations == 0
        assert rep.probe_min < -100.0


class TestCheckBounds:
    def test_passes_on_correct_certificate(self):
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(n, e, samples=20_000, seed=0, cert=cert,
                                   grid=100_000)
        chk = check_bounds(rep, cert)
        assert isinstance(chk, BoundsCheck)
        assert chk.ok
        assert chk.failures == ()

    def test_tolerance_formula(self):
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(n, e, samples=20_000, seed=0, cert=cert,
                                   grid=100_000)
        ge = rep.grid_extreme
        chk = check_bounds(rep, cert)
        assert chk.tol_min == max(1e-5, 10.0 * ge.step * ge.min_curvature)
        assert chk.tol_grid == max(chk.tol_min, chk.tol_max)
        explicit = check_bounds(rep, cert, tol=1e-3)
        assert explicit.tol_min == explicit.tol_max == 1e-3

    def test_tampered_bound_fails_with_named_sample(self):
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        bad = dataclasses.replace(cert, upper_bound=cert.upper_bound - 0.1)
        rep = monte_carlo_extremes(n, e, samples=10_000, seed=7, cert=bad,
                                   grid=10_000)
        chk = check_bounds(rep, bad)
        assert not chk.ok
        assert rep.violations > 0
        assert rep.violation_examples  # offending tuples are recorded
        assert "ratio" in chk.failures[0] and "at (" in chk.failures[0]

    def test_tampered_omega_fails_closeness(self):
        # certified-extremum side must be attained by the grid
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        bad = dataclasses.replace(cert, lower_bound=cert.lower_bound - 5e-4)
        rep = monte_carlo_extremes(n, e, samples=10_000, seed=7, cert=bad,
                                   grid=100_000)
        chk = check_bounds(rep, bad)
        assert not chk.ok
        assert any("certified lower bound" in f for f in chk.failures)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_grid_extreme_fails(self, bad):
        # the upper bound is closed-form here, so only the finiteness check
        # and a finite slack scale can reject an infinite grid max
        n, e = 4, ExponentPair.from_alpha(2.0)
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(n, e, samples=10_000, seed=0, cert=cert,
                                   grid=10_000)
        ge = dataclasses.replace(rep.grid_extreme, max_value=bad)
        chk = check_bounds(dataclasses.replace(rep, grid_extreme=ge), cert)
        assert not chk.ok
        assert any("not finite" in f for f in chk.failures)

    def test_report_certificate_mismatch(self):
        e = ExponentPair.from_alpha(2.0)
        cert3 = best_constants(3, e)
        cert4 = best_constants(4, e)
        rep = monte_carlo_extremes(3, e, samples=10_000, seed=0, cert=cert3,
                                   grid=10_000)
        with pytest.raises(InstanceMismatchError):
            check_bounds(rep, cert4)

    def test_payload_structure(self):
        n, e = 3, ExponentPair.from_alpha(-1.0)
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(n, e, samples=10_000, seed=0, cert=cert,
                                   grid=10_000)
        payload = rep.to_payload()
        assert isinstance(rep, OracleReport)
        assert payload["samples"] == 10_000
        assert "workers" not in payload  # must not leak into the artifact
        assert payload["grid_extreme"]["n"] == 3
        assert len(payload["arg_min"]) == 3


def materialised_scan(params: ProfileParams, grid: int) -> GridExtreme:
    # the grid scan as one whole-grid array, np.linspace plus the ends
    n, e, hi = params.n, params.e, params.x_hi
    eps = EPS_HAT / n
    base = np.linspace(0.0, hi, grid)
    include = e.r > 0
    if include:
        xs = np.concatenate([[0.0, eps], base[1:-1], [hi - eps, hi]])
    else:
        xs = np.concatenate([[eps], base[1:-1], [hi - eps]])
    f = f_profile(xs, params)
    with np.errstate(divide="ignore"):
        vals = f / (f - 1.0)
    if include:
        vals[0], vals[-1] = _endpoint_values(n, e.r)
    imin, imax = int(np.argmin(vals)), int(np.argmax(vals))

    def curvature(i):
        if i == 0 or i == len(vals) - 1:
            return 0.0
        hl = float(xs[i] - xs[i - 1])
        hr = float(xs[i + 1] - xs[i])
        sl = (float(vals[i]) - float(vals[i - 1])) / hl
        sr = (float(vals[i + 1]) - float(vals[i])) / hr
        return abs(2.0 * (sr - sl) / (hl + hr))

    return GridExtreme(
        n=n, e=e, points=len(xs), includes_endpoints=include,
        step=hi / (grid - 1),
        min_value=float(vals[imin]), arg_x_min=float(xs[imin]),
        max_value=float(vals[imax]), arg_x_max=float(xs[imax]),
        min_curvature=curvature(imin), max_curvature=curvature(imax),
    )


class TestStreaming:
    """The oracle's blocks give what whole-array evaluation gives, bit for bit."""

    @pytest.mark.parametrize("n", [3, 7, 100])
    def test_block_samples_match_the_wrapper(self, monkeypatch, n):
        # 40 coordinates per block: 13 rows at n = 3 and 5 at n = 7, so the
        # last block of each 8192-row chunk is ragged; at n = 100 the block
        # is smaller than one row, and holds one row
        monkeypatch.setattr(oracle, "_STREAM", 40)
        kernel = oracle._ratio_rows
        blocks, block_vals = [], []

        def spy(rows, e, scratch=None):
            if scratch is not None:
                blocks.append(rows.copy())
            vals = kernel(rows, e, scratch)
            if scratch is not None:
                block_vals.append(vals)
            return vals

        monkeypatch.setattr(oracle, "_ratio_rows", spy)
        e = ExponentPair.from_alpha(-1.3 if n == 7 else 2.5)
        samples = 10_000
        rep = monte_carlo_extremes(n, e, samples=samples, seed=4, grid=1000)
        rows = simplex_sample_block(n, seed=4, count=samples)
        want = kernel(rows, e)
        assert max(len(b) for b in blocks) == max(1, 40 // n)
        np.testing.assert_array_equal(np.vstack(blocks), rows)
        np.testing.assert_array_equal(np.concatenate(block_vals), want)
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
        # r > 0 and r < 0; a 333-point block puts block edges next to the
        # extremes' neighbours and leaves a ragged last block
        if block is not None:
            monkeypatch.setattr(oracle, "_STREAM", block)
        params = ProfileParams(n=n, e=ExponentPair.from_alpha(alpha))
        got = grid_scan_two_value(params, grid=grid)
        want = materialised_scan(params, grid)
        for field in dataclasses.fields(GridExtreme):
            assert getattr(got, field.name) == getattr(want, field.name), field.name

    def test_first_nan_of_the_grid_wins(self, monkeypatch):
        # NaNs in the middle of two later blocks: as with np.argmin and
        # np.argmax over the whole grid, both extremes are the first one
        monkeypatch.setattr(oracle, "_STREAM", 1000)
        n, e = 4, ExponentPair.from_alpha(2.0)
        params = ProfileParams(n=n, e=e)
        grid = 10_000
        targets = np.linspace(0.0, params.x_hi, grid)[[5499, 7499]]

        def with_nan(xs, p):
            f = f_profile(xs, p)
            f[np.isin(xs, targets)] = math.nan
            return f

        monkeypatch.setattr(oracle, "f_profile", with_nan)
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(n, e, samples=10_000, seed=0, cert=cert,
                                   grid=grid)
        ge = rep.grid_extreme
        assert math.isnan(ge.min_value) and math.isnan(ge.max_value)
        assert ge.arg_x_min == ge.arg_x_max == targets[0]
        chk = check_bounds(rep, cert)
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
            monte_carlo_extremes(1000, e, samples=10_000, cert=cert, grid=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
