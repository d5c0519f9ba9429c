"""Counter-based sampling, grid scans, and certificate checking."""

import dataclasses
import json
import math

import numpy as np
import pytest

from meangap import oracle
from meangap.constants import best_constants
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
from meangap.profile import ProfileParams


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
        def with_nan(rows, e):
            vals = kernel(rows, e)
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
