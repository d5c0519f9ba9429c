"""Regime classification and the W = 1 crossing locator."""

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
            assert reg.has_mu
            assert reg.mu_side == sides[reg.tag]
            # the search runs from the center out to a far edge inside the domain
            t_min = Side(ProfileParams(n=n, e=reg.e), reg.mu_side).t_min
            assert 0.0 < t_min < 1.0 / n

    def test_monotone_regimes_have_no_mu(self):
        for (n, r) in [(5, 2.0), (5, 5.0)]:
            reg = classify(n, ExponentPair.from_r(r))
            assert not reg.has_mu
            assert reg.mu_side is None
            assert reg.f_shape.nu_kind == "none"

    def test_bracket_excludes_center_guard(self):
        # the trivial W = 1 root at x = 1/n stays outside the search band
        e = ExponentPair.from_r(-1.0)
        params = ProfileParams(n=3, e=e)
        reg = classify(3, e)
        cp = locate_mu(params, reg)
        assert cp.t <= (1.0 - MU_OFFSET) / 3.0

    def test_shape_table(self):
        kinds = {
            RegimeTag.NEG_R: ("min", "right", 1),
            RegimeTag.FRAC_R: ("max", "left", 2),
            RegimeTag.LOW_R_SMALL_N: ("min", "left", 3),
            RegimeTag.HIGH_R_SMALL_N: ("max", "right", 4),
        }
        for (n, r) in [(3, -1.0), (4, 0.5), (3, 1.4), (3, 5.0)]:
            reg = classify(n, ExponentPair.from_r(r))
            shape = reg.f_shape
            kind, side, idx = kinds[reg.tag]
            assert shape.nu_kind == kind
            assert shape.nu_side == side
            assert shape.nu_index == idx

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
        e = ExponentPair.from_r(r)
        params = ProfileParams(n=n, e=e)
        cp = locate_mu(params, classify(n, e))
        assert isinstance(cp, CriticalPoint)
        assert cp.mu == pytest.approx(self.FROZEN[(n, r)], abs=1e-12)
        assert abs(cp.residual) <= 1e-11

    @pytest.mark.parametrize("n,r", sorted(FROZEN))
    def test_crossing_is_a_sign_change(self, n, r):
        e = ExponentPair.from_r(r)
        params = ProfileParams(n=n, e=e)
        cp = locate_mu(params, classify(n, e))
        d = 1e-6
        left = W_func(cp.mu - d, params) - 1.0
        right = W_func(cp.mu + d, params) - 1.0
        assert left * right < 0.0

    def test_none_for_monotone_regime(self):
        e = ExponentPair.from_r(2.0)
        params = ProfileParams(n=5, e=e)
        assert locate_mu(params, classify(5, e)) is None

    def test_instance_mismatch_rejected(self):
        e = ExponentPair.from_r(-1.0)
        params = ProfileParams(n=3, e=e)
        with pytest.raises(ValueError):
            locate_mu(params, classify(4, e))

    def test_mu_on_declared_side(self):
        for (n, r) in [(3, -1.0), (4, 0.5), (3, 1.4), (3, 5.0)]:
            e = ExponentPair.from_r(r)
            params = ProfileParams(n=n, e=e)
            reg = classify(n, e)
            cp = locate_mu(params, reg)
            if reg.mu_side == "right":
                assert cp.mu > 1.0 / n
            else:
                assert cp.mu < 1.0 / n

    def test_failure_is_bracket_error(self):
        # a regime forged onto a monotone instance finds no crossing and
        # must say so instead of silently widening the search
        e = ExponentPair.from_r(2.0)
        params = ProfileParams(n=5, e=e)
        donor = classify(5, ExponentPair.from_r(5.5))
        forged = type(donor)(
            tag=donor.tag, n=5, e=e, has_mu=True, mu_side=donor.mu_side,
            f_shape=donor.f_shape,
        )
        with pytest.raises(BracketError):
            locate_mu(params, forged)
