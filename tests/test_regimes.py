"""Regime classification and the W = 1 crossing locator."""

import math

import pytest

from meangap.means import ExponentPair
from meangap.profile import ProfileParams, Side, W_func
from meangap.regimes import (
    MU_OFFSET,
    CriticalPoint,
    RegimeTag,
    classify,
    locate_mu,
)
from meangap.solver import BracketError


def turning_side(n, r):
    # the side of the regime's extremum and W = 1 crossing
    e = ExponentPair.from_r(r)
    return Side(ProfileParams(n=n, e=e), classify(n, e).nu_side)


CASES = [
    (3, -1.0, RegimeTag.NEG_R),
    (5, -0.25, RegimeTag.NEG_R),
    (4, 0.5, RegimeTag.FRAC_R),
    (3, 0.2, RegimeTag.FRAC_R),
    (3, 1.4, RegimeTag.LOW_R_SMALL_N),
    (3, 1.2, RegimeTag.LOW_R_SMALL_N),
    (5, 2.0, RegimeTag.LOW_R_LARGE_N),
    (3, 2.0, RegimeTag.LOW_R_LARGE_N),
    (10, 1.5, RegimeTag.LOW_R_LARGE_N),
    (3, 5.0, RegimeTag.HIGH_R_SMALL_N),
    (4, 4.5, RegimeTag.HIGH_R_SMALL_N),
    (5, 5.0, RegimeTag.HIGH_R_LARGE_N),
    (7, 3.0, RegimeTag.HIGH_R_LARGE_N),
]


@pytest.mark.parametrize("n,r,tag", CASES)
def test_classification(n, r, tag):
    assert classify(n, ExponentPair.from_r(r)).tag is tag


class TestBoundaries:
    def test_r_two_is_always_large_n(self):
        for n in (3, 4, 10, 100):
            assert classify(n, ExponentPair.from_r(2.0)).tag is RegimeTag.LOW_R_LARGE_N

    def test_n_equal_r_is_large_n(self):
        assert classify(3, ExponentPair.from_r(3.0)).tag is RegimeTag.HIGH_R_LARGE_N

    def test_just_above_n_is_small_n(self):
        e = ExponentPair.from_r(3.0000001)
        assert classify(3, e).tag is RegimeTag.HIGH_R_SMALL_N

    def test_n_equal_threshold_low_r(self):
        # n = r/(r-1) exactly: r = 1.5, threshold n = 3
        assert classify(3, ExponentPair.from_r(1.5)).tag is RegimeTag.LOW_R_LARGE_N
        assert classify(3, ExponentPair.from_r(1.4)).tag is RegimeTag.LOW_R_SMALL_N


class TestRegimeStructure:
    def test_mu_sides(self):
        sides = {
            RegimeTag.NEG_R: "right",
            RegimeTag.FRAC_R: "left",
            RegimeTag.LOW_R_SMALL_N: "left",
            RegimeTag.HIGH_R_SMALL_N: "right",
        }
        for (n, r) in [(3, -1.0), (4, 0.5), (3, 1.4), (3, 5.0)]:
            reg = classify(n, ExponentPair.from_r(r))
            assert reg.nu_side == sides[reg.tag]
            # the search runs from the center out to a far edge inside the domain
            t_min = Side(ProfileParams(n=n, e=ExponentPair.from_r(r)), reg.nu_side).t_min
            assert 0.0 < t_min < 1.0 / n

    def test_monotone_regimes_have_no_mu(self):
        for (n, r) in [(5, 2.0), (5, 5.0)]:
            reg = classify(n, ExponentPair.from_r(r))
            assert reg.nu_side is None
            assert reg.nu_kind == "none"
            assert reg.label is None

    def test_bracket_excludes_center_guard(self):
        # the trivial W = 1 root at x = 1/n stays outside the search band
        cp = locate_mu(turning_side(3, -1.0))
        assert cp.t <= (1.0 - MU_OFFSET) / 3.0

    def test_shape_table(self):
        kinds = {
            RegimeTag.NEG_R: ("min", "right", "omega_1"),
            RegimeTag.FRAC_R: ("max", "left", "omega_2"),
            RegimeTag.LOW_R_SMALL_N: ("min", "left", "omega_3"),
            RegimeTag.HIGH_R_SMALL_N: ("max", "right", "omega_4"),
        }
        for (n, r) in [(3, -1.0), (4, 0.5), (3, 1.4), (3, 5.0)]:
            reg = classify(n, ExponentPair.from_r(r))
            assert (reg.nu_kind, reg.nu_side, reg.label) == kinds[reg.tag]

    def test_one_record_per_regime(self):
        # the instances of a regime share its one record
        records = {}
        for n, r, tag in CASES:
            reg = classify(n, ExponentPair.from_r(r))
            assert records.setdefault(tag, reg) is reg
        assert len(records) == len(RegimeTag)

    def test_rejects_non_pair(self):
        with pytest.raises(TypeError):
            classify(3, -1.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            classify(2, ExponentPair.from_r(2.0))


class TestLocateMu:
    # 50-digit reference crossings
    FROZEN = {
        (3, -1.0): 0.4,
        (4, 0.5): 1.0 / 6.0,
        (3, 1.4): 0.0017067803545728435,
        (3, 5.0): 0.49482952961176666,
    }

    @pytest.mark.parametrize("n,r", sorted(FROZEN))
    def test_frozen_crossings(self, n, r):
        cp = locate_mu(turning_side(n, r))
        assert isinstance(cp, CriticalPoint)
        assert cp.mu == pytest.approx(self.FROZEN[(n, r)], abs=1e-12)
        assert abs(cp.residual) <= 1e-11

    @pytest.mark.parametrize("n,r", sorted(FROZEN))
    def test_crossing_is_a_sign_change(self, n, r):
        side = turning_side(n, r)
        params = side.params
        cp = locate_mu(side)
        d = 1e-6
        left = W_func(cp.mu - d, params) - 1.0
        right = W_func(cp.mu + d, params) - 1.0
        assert left * right < 0.0

    @pytest.mark.parametrize("n,r", sorted(FROZEN))
    def test_guess_either_side_finds_the_same_crossing(self, n, r):
        # one crossing on the side: a guess moves where the search starts
        side = turning_side(n, r)
        v_mu = side.v(locate_mu(side).t)
        for shift, step in ((-3.0, 0.5), (3.0, 0.5), (1e-3, 1e-4), (-1e-3, 1e-4)):
            cp = locate_mu(side, guess=(v_mu + shift, step))
            assert cp.mu == pytest.approx(self.FROZEN[(n, r)], abs=1e-12)

    @pytest.mark.parametrize("n,r", sorted(FROZEN))
    def test_first_probe_past_the_start_is_mid_side(self, objective_probes, n, r):
        # with no guess the search probes n t = 1/2, v = 0, after its start
        side = turning_side(n, r)
        cp = locate_mu(side)
        assert objective_probes[:2] == [
            (n, "W", math.log((1.0 - MU_OFFSET) / MU_OFFSET)), (n, "W", 0.0)]
        assert cp.mu == pytest.approx(self.FROZEN[(n, r)], abs=1e-12)

    def test_mu_on_declared_side(self):
        for (n, r) in [(3, -1.0), (4, 0.5), (3, 1.4), (3, 5.0)]:
            side = turning_side(n, r)
            cp = locate_mu(side)
            if side.side == "right":
                assert cp.mu > 1.0 / n
            else:
                assert cp.mu < 1.0 / n

    def test_failure_is_bracket_error(self):
        # the turning side of (5, 5.5) forged onto the monotone (5, 2) finds
        # no crossing and must say so instead of silently widening the search
        donor = classify(5, ExponentPair.from_r(5.5))
        forged = Side(ProfileParams(n=5, e=ExponentPair.from_r(2.0)), donor.nu_side)
        with pytest.raises(BracketError):
            locate_mu(forged)
