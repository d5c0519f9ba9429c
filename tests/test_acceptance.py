"""Acceptance checks: one test per criterion, one verdict line each.

These run the full pipeline at production sample sizes (1e5 Monte Carlo
draws, 1e6 grid points) and must stay green together in well under two
minutes.  Run with -s to see the verdict lines on success.
"""

import json

import numpy as np
import pytest

from meangap.constants import (
    InterpolationConstants,
    best_constants,
    interpolation_constants,
    power_form_check,
    sweep_constants,
    augment_with_gm,
)
from meangap.means import ExponentPair, ratio_gap
from meangap.oracle import (
    check_bounds,
    monte_carlo_extremes,
    simplex_sample_block,
)
from meangap.profile import (
    ProfileParams,
    W_func,
    f_profile,
    f_prime,
    g_profile,
    g_prime,
    g_second,
    p_profile,
    p_prime,
    p_second,
    W_prime,
)
from meangap.reduction import curve_params, curve_point, h_power_sum, h_prime, lemma1_ratio
from meangap.regimes import RegimeTag, classify

DIR3 = (-0.8, 0.2, 0.6)
DIR5 = (-0.9, -0.2, -0.1, 0.5, 0.7)


def _verdict(tag: str, text: str) -> None:
    print(f"[{tag}] PASS  {text}")


def test_c01_endpoint_bounds_enclose_monte_carlo():
    checked = 0
    for n, alpha in ((5, 0.5), (4, 0.5), (6, 1.0 / 3.0)):
        e = ExponentPair.from_alpha(alpha)
        cert = best_constants(n, e)
        lo = (n / (n - 1.0)) ** (e.r - 1.0)
        hi = n ** (e.r - 1.0)
        assert cert.lower_bound == lo and cert.upper_bound == hi
        rep = monte_carlo_extremes(cert, samples=100_000, seed=2026)
        assert rep.violations == 0
        # vanishing-coordinate probes are part of the report
        assert rep.probe_max <= hi + 1e-9
        assert rep.probe_min >= lo - 1e-9
        checked += rep.samples
    _verdict("c01", f"closed-form bounds hold on {checked} samples plus probes")


def test_c02_certified_extremes_inside_published_brackets():
    omega2 = best_constants(4, ExponentPair.from_alpha(2.0)).omega
    omega1 = best_constants(3, ExponentPair.from_alpha(-1.0)).omega
    assert 0.402492 - 1e-9 <= omega2 <= 0.5 + 1e-9
    assert -1.0 - 1e-9 <= omega1 <= -0.5 + 1e-9
    _verdict("c02", f"omega2={omega2:.9f} in [0.402492, 0.5], "
                    f"omega1={omega1:.9f} in [-1, -0.5]")


CROSS_CHECK_INSTANCES = (
    (3, ExponentPair.from_r(-1.0)),
    (4, ExponentPair.from_alpha(2.0)),
    (3, ExponentPair.from_r(1.4)),
    (5, ExponentPair.from_alpha(0.5)),
    (5, ExponentPair.from_r(5.0)),
    (3, ExponentPair.from_r(5.0)),
)


def test_c03_grid_and_monte_carlo_confirm_certificates():
    for i, (n, e) in enumerate(CROSS_CHECK_INSTANCES):
        cert = best_constants(n, e)
        rep = monte_carlo_extremes(cert, samples=100_000, seed=40 + i, grid=1_000_000)
        assert rep.violations == 0, (n, e.r)
        ge = rep.grid_extreme
        if cert.lower_kind == "certified-extremum":
            assert abs(ge.min_value - cert.lower_bound) <= 1e-5, (n, e.r)
        elif cert.lower_kind == "closed-form":
            assert abs(ge.min_value - cert.lower_bound) <= 1e-9, (n, e.r)
        if cert.upper_kind == "certified-extremum":
            assert abs(ge.max_value - cert.upper_bound) <= 1e-5, (n, e.r)
        elif cert.upper_kind == "closed-form":
            assert abs(ge.max_value - cert.upper_bound) <= 1e-9, (n, e.r)
        assert check_bounds(rep).ok, (n, e.r)
    _verdict("c03", "6 instances: 1e6-point grids match certificates, "
                    "6e5 samples inside bounds")


def test_c04_regime_classification():
    expect = {
        (3, -1.0): RegimeTag.NEG_R,
        (4, 0.5): RegimeTag.FRAC_R,
        (3, 1.4): RegimeTag.LOW_R_SMALL_N,
        (5, 2.0): RegimeTag.LOW_R_LARGE_N,
        (3, 5.0): RegimeTag.HIGH_R_SMALL_N,
        (5, 5.0): RegimeTag.HIGH_R_LARGE_N,
    }
    for (n, r), tag in expect.items():
        assert classify(n, ExponentPair.from_r(r)).tag is tag, (n, r)
    # r = 2 sits on the small/large boundary and resolves large for every n
    for n in (3, 4, 7, 23, 100):
        assert classify(n, ExponentPair.from_r(2.0)).tag is RegimeTag.LOW_R_LARGE_N
    assert classify(3, ExponentPair.from_r(3.0)).tag is RegimeTag.HIGH_R_LARGE_N
    assert classify(3, ExponentPair.from_r(3.0000001)).tag is RegimeTag.HIGH_R_SMALL_N
    _verdict("c04", "6 regime tags plus boundary ties resolve as published")


FD_INSTANCES = (
    (3, ExponentPair.from_alpha(-1.0)),
    (4, ExponentPair.from_alpha(2.0)),
    (3, ExponentPair.from_r(1.4)),
    (3, ExponentPair.from_r(5.0)),
)


def _fd_points(params: ProfileParams) -> np.ndarray:
    span = params.x_hi
    xs = np.linspace(0.05 * span, 0.95 * span, 140)
    xs = xs[np.abs(xs - 1.0 / params.n) > 0.02 * span]
    assert len(xs) >= 100
    return xs[:100]


def test_c05_derivatives_match_finite_differences():
    for n, e in FD_INSTANCES:
        params = ProfileParams(n=n, e=e)
        xs = _fd_points(params)
        h1 = 1e-6 * params.x_hi
        h2 = 1e-5 * params.x_hi
        for func, deriv in ((g_profile, g_prime), (p_profile, p_prime),
                            (f_profile, f_prime), (W_func, W_prime)):
            fd = (func(xs + h1, params) - func(xs - h1, params)) / (2.0 * h1)
            np.testing.assert_allclose(deriv(xs, params), fd, rtol=1e-5,
                                       atol=1e-12)
        for func, deriv in ((g_profile, g_second), (p_profile, p_second)):
            fd = (func(xs + h2, params) - 2.0 * func(xs, params)
                  + func(xs - h2, params)) / h2 ** 2
            np.testing.assert_allclose(deriv(xs, params), fd, rtol=1e-4,
                                       atol=1e-10)
    cp = curve_params(6.0, 6.0)
    width = cp.t_hi - cp.t_lo
    ts = np.linspace(cp.t_lo + 0.02 * width, cp.t_hi - 0.02 * width, 100)
    ht = 1e-6 * width
    for r in (2.0, 0.5, -1.0, 5.0):
        for t in ts:
            fd = (h_power_sum(t + ht, cp, r)
                  - h_power_sum(t - ht, cp, r)) / (2.0 * ht)
            assert h_prime(t, cp, r) == pytest.approx(fd, rel=1e-5, abs=1e-12)
    _verdict("c05", "7 derivative formulas agree with central differences "
                    "at rtol 1e-5 (first) and 1e-4 (second)")


def test_c06_perturbation_ratio_first_order_limit():
    orders = ((0.0, 1.0, 0.5, 1.0), (2.0, 1.0, 1.0, 0.0), (-1.0, 0.0, 1.0, 2.0))
    eps_grid = (1e-2, 1e-3, 1e-4)
    for direction in (DIR3, DIR5):
        for a, b, c, d in orders:
            limit = (a - b) / (c - d)
            errs = [abs(lemma1_ratio(1.0, direction, eps, a, b, c, d) - limit)
                    for eps in eps_grid]
            assert all(err <= 1.0 * eps for err, eps in zip(errs, eps_grid))
            slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
            assert slope >= 1.0, (len(direction), (a, b, c, d), slope)
    _verdict("c06", "6 order tuples x 2 dimensions: |ratio - limit| <= eps, "
                    "fitted order >= 1")


def test_c07_triple_curve_power_sum_monotone():
    cp = curve_params(6.0, 6.0)
    ts = np.linspace(cp.t_lo, cp.t_hi, 1000)
    pts = [curve_point(float(t), cp) for t in ts]
    for pt in pts:
        assert abs(pt.x + pt.y + pt.z - 6.0) < 1e-10
        assert abs(pt.x * pt.y * pt.z - 6.0) < 1e-10
    for r, decreasing in ((2.0, True), (0.5, False), (-1.0, False)):
        hs = np.array([h_power_sum(float(t), cp, r) for t in ts])
        diffs = np.diff(hs)
        assert np.all(diffs < 0.0) if decreasing else np.all(diffs > 0.0), r
        assert hs.max() == (hs[0] if decreasing else hs[-1])
        assert hs.min() == (hs[-1] if decreasing else hs[0])
    _verdict("c07", "1000-point curve: residuals < 1e-10, power sums "
                    "strictly monotone with endpoint extremes")


def test_c08_sweep_trends_and_gm_augmentation():
    certs2 = sweep_constants(ExponentPair.from_alpha(2.0), 3, 30)
    omegas2 = [c.omega for c in certs2]
    assert all(b < a for a, b in zip(omegas2, omegas2[1:]))
    assert omegas2[-1] < 30.0 ** -0.5
    certs1 = sweep_constants(ExponentPair.from_alpha(-1.0), 3, 30)
    omegas1 = [c.omega for c in certs1]
    assert all(b > a for a, b in zip(omegas1, omegas1[1:]))
    assert all(w < 0.0 for w in omegas1)
    assert omegas1[-1] > omegas1[0]
    rng = np.random.default_rng(7)
    tuples = [tuple(row) for row in rng.uniform(0.05, 5.0, size=(10_000, 4))]
    for alpha in (-1.0, 0.5, 2.0):
        e = ExponentPair.from_alpha(alpha)
        for row in tuples:
            orig = ratio_gap(row, e)
            aug = augment_with_gm(row, e)
            slack = 1e-9 * max(1.0, abs(orig))
            if alpha < 1.0:
                assert aug >= orig - slack
            else:
                assert aug <= orig + slack
    _verdict("c08", "omega trends strict for n=3..30, gm augmentation "
                    "direction holds on 3x10^4 ratio pairs")


def test_c09_interpolation_sandwich_and_power_form():
    e = ExponentPair.from_alpha(0.5)
    ic = interpolation_constants(5, e)
    assert (ic.delta, ic.eta) == (1.25, 5.0)
    rows = simplex_sample_block(5, seed=11, count=100_000)
    A = rows.mean(axis=1)
    G = np.exp(np.log(rows).mean(axis=1))
    P = np.sqrt(rows).mean(axis=1) ** 2
    lo = ic.delta * P + (1.0 - ic.delta) * G
    hi = ic.eta * P + (1.0 - ic.eta) * G
    scale = np.maximum(1.0, np.abs(A))
    assert np.all(lo <= A + 1e-9 * scale)
    assert np.all(A <= hi + 1e-9 * scale)
    # the same constants transferred to the tuple of r-th powers
    a2, g2, mid = A ** 2, G ** 2, (rows ** 2).mean(axis=1)
    scale2 = np.maximum(1.0, np.abs(mid))
    assert np.all(ic.delta * a2 + (1.0 - ic.delta) * g2 <= mid + 1e-9 * scale2)
    assert np.all(mid <= ic.eta * a2 + (1.0 - ic.eta) * g2 + 1e-9 * scale2)
    for row in rows[:100]:
        assert power_form_check(row, e, ic)
    corner = (0.0, 0.0, 0.0, 0.0, 1.0)
    tightened = InterpolationConstants(delta=ic.delta, eta=ic.eta - 1e-3)
    assert power_form_check(corner, e, ic)
    assert not power_form_check(corner, e, tightened)
    # direct witness: at the corner A = 1/5 exceeds the tightened cap
    A_c, G_c, P_c = 0.2, 0.0, 0.04
    assert A_c > tightened.eta * P_c + (1.0 - tightened.eta) * G_c + 1e-9
    _verdict("c09", "(delta, eta) = (1.25, 5) sandwich holds on 1e5 samples "
                    "in both forms; eta - 1e-3 breaks at the corner")


def test_c10_verification_is_deterministic_across_workers():
    n, e = 4, ExponentPair.from_alpha(2.0)
    cert = best_constants(n, e)
    payloads = []
    for workers in (1, 4, 1):
        rep = monte_carlo_extremes(cert, samples=100_000, seed=0, workers=workers)
        chk = check_bounds(rep)
        blob = json.dumps({"report": rep.to_payload(),
                           "check": chk.to_payload()}, sort_keys=True)
        payloads.append(blob.encode())
    assert payloads[0] == payloads[1] == payloads[2]
    _verdict("c10", "verify payloads byte-identical for workers 1, 4 and "
                    "a repeated run")
