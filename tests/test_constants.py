"""Certificates, closed-form bounds, sandwich weights, and payloads."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meangap.constants import (
    ExtremumCertificate,
    InterpolationConstants,
    augment_with_gm,
    best_constants,
    interpolation_constants,
    power_form_check,
    ratio_from_f,
    sweep_constants,
    wen_reference,
)
from meangap.means import ExponentPair, ratio_gap
from meangap.regimes import RegimeTag
from meangap.solver import UncertifiedInstance

simplex3 = st.lists(
    st.floats(min_value=1e-4, max_value=1.0), min_size=3, max_size=3
).map(lambda xs: tuple(t / sum(xs) for t in xs))


class TestRatioFromF:
    def test_involution(self):
        for v in (-3.0, -0.5, 0.2, 2.0, 7.5):
            assert ratio_from_f(ratio_from_f(v)) == pytest.approx(v, rel=1e-15)

    def test_strictly_decreasing(self):
        vals = [ratio_from_f(v) for v in (1.5, 2.0, 3.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            ratio_from_f(1.0)


class TestWenReference:
    def test_frozen_value(self):
        assert wen_reference(4, 0.5) == pytest.approx(
            0.40249223594996214, rel=1e-15
        )

    def test_none_for_r_at_least_one(self):
        assert wen_reference(4, 1.0) is None
        assert wen_reference(4, 2.0) is None


# 50-digit certified data per turning regime
FROZEN_CERTS = {
    (3, -1.0): dict(
        tag=RegimeTag.NEG_R, mu=0.4, nu=0.4739500876445742,
        x_star=0.41731750727312478, omega=-0.90096030150908885,
        lower=-math.inf, upper=-0.90096030150908885,
        kinds=("unbounded", "certified-extremum"), nu_kind="min",
    ),
    (4, 2.0): dict(
        tag=RegimeTag.FRAC_R, mu=1.0 / 6.0, nu=-0.78095425034084923,
        x_star=0.13279871131480413, omega=0.43850326317556205,
        lower=0.43850326317556205, upper=(4.0 / 3.0) ** -0.5,
        kinds=("certified-extremum", "closed-form"), nu_kind="max",
    ),
    (3, 1.0 / 1.4): dict(
        tag=RegimeTag.LOW_R_SMALL_N, mu=0.0017067803545728435,
        nu=2.8119089646430036, x_star=7.9679837582878281e-6,
        omega=1.5519041074985949, lower=1.5**0.4, upper=1.5519041074985949,
        kinds=("closed-form", "certified-extremum"), nu_kind="min",
    ),
    (3, 0.2): dict(
        tag=RegimeTag.HIGH_R_SMALL_N, mu=0.49482952961176666,
        nu=1.324399417686907, x_star=0.49898104017198568,
        omega=4.0826195901656848, lower=4.0826195901656848, upper=81.0,
        kinds=("certified-extremum", "closed-form"), nu_kind="max",
    ),
}


@pytest.mark.parametrize("n,alpha", sorted(FROZEN_CERTS))
def test_frozen_certificates(n, alpha):
    want = FROZEN_CERTS[(n, alpha)]
    cert = best_constants(n, ExponentPair.from_alpha(alpha))
    assert cert.regime is want["tag"]
    assert cert.mu == pytest.approx(want["mu"], abs=1e-12)
    assert cert.nu == pytest.approx(want["nu"], rel=1e-12)
    assert cert.omega == pytest.approx(want["omega"], rel=1e-12)
    assert cert.x_star == pytest.approx(want["x_star"], rel=1e-10)
    assert cert.lower_bound == pytest.approx(want["lower"], rel=1e-12)
    assert cert.upper_bound == pytest.approx(want["upper"], rel=1e-12)
    assert (cert.lower_kind, cert.upper_kind) == want["kinds"]
    assert cert.nu_kind == want["nu_kind"]
    assert cert.omega == pytest.approx(ratio_from_f(cert.nu), rel=1e-15)


class TestCertificateStructure:
    def test_monotone_regime_closed_form(self):
        cert = best_constants(5, ExponentPair.from_alpha(0.5))
        assert cert.regime is RegimeTag.LOW_R_LARGE_N
        assert (cert.lower_bound, cert.upper_bound) == (1.25, 5.0)
        assert cert.mu is None and cert.nu is None and cert.omega is None
        assert cert.x_star is None and cert.omega_bracket is None
        assert cert.nu_kind == "none"

    def test_high_r_large_n_closed_form(self):
        cert = best_constants(5, ExponentPair.from_alpha(0.2))
        assert cert.regime is RegimeTag.HIGH_R_LARGE_N
        assert (cert.lower_bound, cert.upper_bound) == (2.44140625, 625.0)

    def test_omega_brackets(self):
        # a-priori brackets: r-side always, plus Wen below and a Lord-type
        # cap for alpha = -1
        neg = best_constants(3, ExponentPair.from_alpha(-1.0))
        assert neg.omega_bracket == (-1.0, -0.5)
        frac = best_constants(4, ExponentPair.from_alpha(2.0))
        assert frac.omega_bracket[0] == pytest.approx(0.40249223594996214)
        assert frac.omega_bracket[1] == 0.5
        assert frac.wen_observed == pytest.approx(0.40249223594996214)

    def test_nu_matches_bracket_membership(self):
        for (n, alpha) in FROZEN_CERTS:
            cert = best_constants(n, ExponentPair.from_alpha(alpha))
            lo, hi = cert.omega_bracket
            assert lo - 1e-9 <= cert.omega <= hi + 1e-9

    def test_n_two_message(self):
        with pytest.raises(ValueError, match="n = 2"):
            best_constants(2, ExponentPair.from_alpha(2.0))

    def test_payload_is_json_stable(self):
        cert = best_constants(3, ExponentPair.from_alpha(-1.0))
        p1 = json.dumps(cert.to_payload(), sort_keys=True)
        p2 = json.dumps(best_constants(3, ExponentPair.from_alpha(-1.0)).to_payload(),
                        sort_keys=True)
        assert p1 == p2
        assert "omega" in cert.to_payload()
        assert cert.to_payload()["regime"] == "NEG_R"


class TestSweep:
    def test_single_n_allowed(self):
        certs = sweep_constants(ExponentPair.from_alpha(0.75), 3, 3)
        assert len(certs) == 1
        assert certs[0].regime is RegimeTag.LOW_R_SMALL_N

    def test_range_and_order(self):
        certs = sweep_constants(ExponentPair.from_alpha(2.0), 3, 6)
        assert [c.n for c in certs] == [3, 4, 5, 6]

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            sweep_constants(ExponentPair.from_alpha(2.0), 4, 3)
        with pytest.raises(ValueError):
            sweep_constants(ExponentPair.from_alpha(2.0), 2, 5)

    # mean W and f' probes per certificate over n = 3..40, as measured
    # with Brent-Dekker narrowing and the crossing search from mid-side
    WARM_PROBES = {2.0: 15.3, -1.0: 16.4}
    COLD_PROBES = {2.0: 19.5, -1.0: 22.4}

    @staticmethod
    def _per_certificate(probes, ns):
        # every certificate probes both of its searches' objectives
        for n in ns:
            assert {name for m, name, _ in probes if m == n} == {"W", "f_prime"}, n
        return len(probes) / len(ns)

    @pytest.mark.parametrize("alpha", [2.0, -1.0])
    def test_profile_evaluations_per_certificate(self, objective_probes, alpha):
        # each n starts both searches from its neighbours' solutions
        certs = sweep_constants(ExponentPair.from_alpha(alpha), 3, 40)
        assert all(c.x_star is not None for c in certs)
        ns = [c.n for c in certs]
        assert self._per_certificate(objective_probes, ns) <= self.WARM_PROBES[alpha]

    @pytest.mark.parametrize("alpha", [2.0, -1.0])
    def test_profile_evaluations_per_cold_certificate(self, objective_probes, alpha):
        # one certificate with no neighbour: the crossing search starts
        # from the middle of the side
        e = ExponentPair.from_alpha(alpha)
        ns = range(3, 41)
        for n in ns:
            assert best_constants(n, e).x_star is not None
        assert self._per_certificate(objective_probes, ns) <= self.COLD_PROBES[alpha]

    @pytest.mark.parametrize("alpha", [2.0, -1.0, -0.5, 1.5, 3.0])
    def test_sweep_rows_match_single_certificates(self, alpha):
        # a warm start moves only where a search stops inside its final
        # bracket; f is flat there, up to its own rounding (about 1.3e-14
        # relative at n = 165, alpha = 3, over +-1e-10 in v around x*)
        e = ExponentPair.from_alpha(alpha)
        certs = sweep_constants(e, 3, 200)
        for warm in certs:
            cold = best_constants(warm.n, e)
            assert (warm.regime, warm.lower_kind, warm.upper_kind) == (
                cold.regime, cold.lower_kind, cold.upper_kind)
            for a, b in ((warm.lower_bound, cold.lower_bound),
                         (warm.upper_bound, cold.upper_bound)):
                assert a == b or abs(a - b) <= 1e-14 * max(1.0, abs(b))

    def test_one_best_constants_call_per_n(self, monkeypatch):
        # the benchmark counts certificate probes under best_constants
        import meangap.constants as constants

        calls = []
        original = constants.best_constants

        def counted(n, *args, **kwargs):
            calls.append(n)
            return original(n, *args, **kwargs)

        monkeypatch.setattr(constants, "best_constants", counted)
        sweep_constants(ExponentPair.from_alpha(2.0), 3, 40)
        assert calls == list(range(3, 41))

    @pytest.mark.parametrize("k", [38, 44, 47, 50, 53])
    def test_no_extremum_from_rounding_at_huge_n(self, k):
        # at n = 2^k and alpha = 2, f' changes sign near the center only
        # through lost digits and has the same sign at mu and at t_min; the
        # first of those sign changes gave lower bounds 5e-9 to 3e-7
        # relative above the end value n^(r-1), which bounds the inf
        n = 2**k
        try:
            cert = best_constants(n, ExponentPair.from_alpha(2.0))
        except UncertifiedInstance:
            return
        assert cert.lower_bound <= n**-0.5 * (1.0 + 1e-12)

    # upper bounds at n = 2^40..2^44, kept since the W scan that refused
    # n = 2^45..2^53 as usage errors was deleted; they carry the power
    # sum's rounding of P - 1 (1e-6 relative at alpha = -1 and -1/2), so
    # the search's own width moves their last digits (up to 1.4e-13)
    KEPT = {
        -1.0: (-2.831331604768132e-11, -1.4482632177013081e-11,
               -7.404131060924904e-12, -3.783389609469244e-12,
               -1.932356654994784e-12),
        -0.5: (-5.388162990909792e-11, -2.7583620206866665e-11,
               -1.4113134818527284e-11, -7.217081450442099e-12,
               -3.688769674968255e-12),
        -60.0: (-7.845059831694682e-13, -4.0144029274256835e-13,
                -2.0530083809499282e-13, -1.049343512441492e-13,
                -5.360596734189161e-14),
    }

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, -60.0])
    def test_no_certificate_past_the_power_sum_precision(self, alpha):
        # past n = 2^44 the power sum's rounding of P - 1 (about n eps)
        # moved the bound by up to 0.22 relative: those n are refused
        e = ExponentPair.from_alpha(alpha)
        for k, bound in zip(range(40, 45), self.KEPT[alpha]):
            assert best_constants(2**k, e).upper_bound == bound
        for k in range(45, 54):
            with pytest.raises(UncertifiedInstance, match="n eps"):
                best_constants(2**k, e)


class TestInterpolation:
    def test_delta_eta_are_the_bounds(self):
        e = ExponentPair.from_alpha(0.5)
        consts = interpolation_constants(5, e)
        assert isinstance(consts, InterpolationConstants)
        assert (consts.delta, consts.eta) == (1.25, 5.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="one-sided"):
            interpolation_constants(3, ExponentPair.from_alpha(-1.0))

    @given(xs=simplex3)
    def test_sandwich_holds_on_simplex(self, xs):
        e = ExponentPair.from_alpha(2.0)
        assert power_form_check(xs, e)

    def test_power_form_known_weights(self):
        e = ExponentPair.from_alpha(0.5)
        consts = InterpolationConstants(delta=1.25, eta=5.0)
        assert power_form_check((0.2, 0.2, 0.2, 0.2, 0.2), e, consts)
        assert power_form_check((0.5, 0.3, 0.1, 0.05, 0.05), e, consts)

    def test_tightened_eta_fails_at_corner(self):
        # (0,...,0,1) attains the upper weight; shaving 1e-3 breaks it
        e = ExponentPair.from_alpha(0.5)
        consts = InterpolationConstants(delta=1.25, eta=5.0 - 1e-3)
        assert not power_form_check((0.0, 0.0, 0.0, 0.0, 1.0), e, consts)

    def test_r_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            power_form_check((0.2, 0.3, 0.5), ExponentPair.from_alpha(-0.5))


class TestAugmentWithGm:
    @given(xs=simplex3)
    def test_direction_low_alpha(self, xs):
        # appending G pulls the ratio weakly up for alpha < 1
        e = ExponentPair.from_alpha(0.5)
        base = ratio_gap(xs, e)
        assert augment_with_gm(xs, e) >= base - 1e-9 * max(1.0, abs(base))

    @given(xs=simplex3)
    def test_direction_high_alpha(self, xs):
        e = ExponentPair.from_alpha(2.0)
        base = ratio_gap(xs, e)
        assert augment_with_gm(xs, e) <= base + 1e-9 * max(1.0, abs(base))

    @given(xs=simplex3)
    def test_direction_negative_alpha(self, xs):
        e = ExponentPair.from_alpha(-1.0)
        base = ratio_gap(xs, e)
        assert augment_with_gm(xs, e) >= base - 1e-9 * max(1.0, abs(base))
