"""Brent-Dekker narrowing and the outward search against scipy and closed forms."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize

from meangap import solver
from meangap.solver import (
    BracketError,
    MaxIterationsError,
    SolveResult,
    find_root,
    search_outward,
)


def counted(fn):
    """fn with a list of the points it was called at, as .probes."""
    def wrapper(x):
        wrapper.probes.append(x)
        return fn(x)
    wrapper.probes = []
    return wrapper


class TestBracket:
    def test_rejects_empty(self):
        with pytest.raises(BracketError):
            find_root(math.cos, 2.0, 2.0, tol=1e-11)
        with pytest.raises(BracketError):
            find_root(math.cos, 3.0, 1.0, tol=1e-11)

    @pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.nan)])
    def test_rejects_nan_end(self, lo, hi):
        fn = counted(math.cos)
        with pytest.raises(BracketError):
            find_root(fn, lo, hi, tol=1e-11)
        assert fn.probes == []


class TestFindRoot:
    def test_cosine_root(self):
        res = find_root(math.cos, 1.0, 2.0, tol=1e-13)
        assert res.x_star == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_matches_scipy_brentq(self):
        fn = lambda x: x**3 - 2.0 * x - 5.0
        res = find_root(fn, 2.0, 3.0, tol=1e-13)
        ref = optimize.brentq(fn, 2.0, 3.0, xtol=1e-14)
        assert res.x_star == pytest.approx(ref, abs=1e-12)

    def test_exact_zero_at_endpoint(self):
        res = find_root(lambda x: x - 1.0, 1.0, 2.0, tol=1e-11)
        assert res.x_star == 1.0
        assert res.iterations == 0
        fn = counted(lambda x: x - 2.0)
        res = find_root(fn, 1.0, 2.0, tol=1e-11)
        assert (res.x_star, res.value, res.width, res.iterations) == (2.0, 0.0, 0.0, 0)
        assert fn.probes == [1.0, 2.0]

    def test_infinite_endpoint_values_use_sign_only(self):
        fn = lambda x: math.inf if x <= 0.25 else (x - 0.5)
        res = find_root(fn, 0.0, 0.4, tol=1e-12)
        assert res.x_star == pytest.approx(0.25, abs=1e-11)
        # only the signs of -inf and +inf are known: the bracket halves
        # with every probe, 20 of them from width 1 to 1e-6
        fn = counted(lambda x: -math.inf if x < 0.3 else math.inf)
        res = find_root(fn, 0.0, 1.0, tol=1e-6)
        assert len(fn.probes) == 2 + 20
        assert res.width <= 1e-6
        assert abs(res.x_star - 0.3) <= 1e-6
        # a finite value at the other end: the probes bisect until both ends
        # of the bracket are finite, then interpolate
        fn = counted(lambda x: math.log(x) if x > 0.0 else -math.inf)
        res = find_root(fn, 0.0, 3.0, tol=1e-13)
        assert len(fn.probes) <= 12
        assert res.x_star == pytest.approx(1.0, abs=1e-13)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, tol=1e-11)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            find_root(math.cos, 1.0, 2.0, tol=0.0)

    def test_iteration_cap(self, monkeypatch):
        # a transcendental root that no probe hits exactly: eight steps
        # close the bracket neither to 1e-30 nor to two adjacent doubles
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 8)
        with pytest.raises(MaxIterationsError):
            find_root(lambda x: math.exp(x) - 3.0, 0.0, 2.0, tol=1e-30)

    def test_steep_objective_converges_in_few_evaluations(self):
        # the secant of [-20, 1] sits next to -20, where f = -2 against
        # f(1) = 5e21: the safeguards must bisect the bracket down to where
        # the secant is good, without spending dozens of probes
        fn = counted(lambda x: math.expm1(50.0 * x) - 1.0)
        tol = 1e-12
        res = find_root(fn, -20.0, 1.0, tol=tol)
        assert len(fn.probes) <= 17
        w = res.width
        assert w <= tol
        # x_star is one end of the final bracket, and f is increasing
        assert fn(res.x_star - w) < 0.0 < fn(res.x_star + w)
        assert res.x_star == pytest.approx(math.log(2.0) / 50.0, abs=tol)

    def test_tol_below_the_spacing_of_the_root_ends_at_adjacent_doubles(self):
        # doubles near 40.4 are 7.1e-15 apart, and the root lies between
        # two of them: a tol/2 step rounds onto the end it starts from, and
        # the bracket closes to one spacing
        fn = lambda x: (x - 40.4) + 3e-15
        res = find_root(fn, 1.0, 100.0, tol=1e-15)
        x, w = res.x_star, res.width
        other = x + w if res.value < 0.0 else x - w
        assert math.nextafter(x, other) == other
        assert (fn(other) > 0.0) != (res.value > 0.0)
        assert {x, other} == {math.nextafter(40.4, 0.0), 40.4}

    @pytest.mark.parametrize("fn,lo,hi", [
        (math.cos, 1.0, 2.0),
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.expm1(50.0 * x) - 1.0, -20.0, 1.0),
        (lambda x: (x - 40.4) + 3e-15, 1.0, 100.0),
    ])
    def test_returns_the_end_with_the_smaller_value(self, fn, lo, hi):
        res = find_root(fn, lo, hi, tol=1e-12)
        x, w = res.x_star, res.width
        assert res.value == fn(x) != 0.0
        # the other end of the final bracket is a width away, across the
        # sign change
        other = [y for y in (x - w, x + w) if (fn(y) > 0.0) != (res.value > 0.0)]
        assert len(other) == 1
        assert abs(res.value) <= abs(fn(other[0]))

    def test_deterministic(self):
        fn = lambda x: math.expm1(x) - 1.0
        a = find_root(fn, 0.0, 2.0, tol=1e-11)
        b = find_root(fn, 0.0, 2.0, tol=1e-11)
        assert a == b

    @given(root=st.floats(min_value=0.05, max_value=0.95))
    def test_recovers_planted_root(self, root):
        res = find_root(lambda x: (x - root), 0.0, 1.0, tol=1e-13)
        assert res.x_star == pytest.approx(root, abs=1e-12)

    def test_result_fields(self):
        res = find_root(math.cos, 1.0, 2.0, tol=1e-10)
        assert isinstance(res, SolveResult)
        assert res.width <= 1e-10
        assert res.iterations > 0


class TestSearchOutward:
    def test_stops_at_the_first_sign_change(self):
        # roots at 3.5 and 10.5; the probes 0, 1, 3, 7 step over the first
        fn = counted(lambda x: (x - 3.5) * (x - 10.5))
        res = search_outward(fn, 0.0, 100.0, tol=1e-13)
        assert fn.probes[:4] == [0.0, 1.0, 3.0, 7.0]
        assert max(fn.probes) == 7.0
        assert res.x_star == pytest.approx(3.5, abs=1e-13)
        assert res.iterations == len(fn.probes) - 1

    def test_steps_either_way_and_stop_at_the_edge(self):
        fn = counted(lambda x: x + 5.5)
        res = search_outward(fn, 0.0, -100.0, tol=1e-13)
        assert fn.probes[:4] == [0.0, -1.0, -3.0, -7.0]
        assert res.x_star == pytest.approx(-5.5, abs=1e-13)
        # the step from 3 to 7 would pass the edge: the edge is probed
        fn = counted(lambda x: x - 4.9)
        res = search_outward(fn, 0.0, 5.0, tol=1e-13)
        assert fn.probes[:4] == [0.0, 1.0, 3.0, 5.0]
        assert res.x_star == pytest.approx(4.9, abs=1e-13)

    def test_no_sign_change_out_to_the_edge_raises(self):
        fn = counted(lambda x: x * x + 1.0)
        with pytest.raises(BracketError):
            search_outward(fn, 0.0, 30.0, tol=1e-11)
        assert fn.probes == [0.0, 1.0, 3.0, 7.0, 15.0, 30.0]
        with pytest.raises(BracketError):
            search_outward(fn, 2.0, 2.0, tol=1e-11)

    def test_known_value_at_start_is_not_probed_again(self):
        fn = counted(lambda x: x - 4.5)
        res = search_outward(fn, 0.0, 100.0, tol=1e-13, f_start=-4.5)
        assert fn.probes[:3] == [1.0, 3.0, 7.0]
        assert 0.0 not in fn.probes
        assert res.x_star == pytest.approx(4.5, abs=1e-13)
        assert res.iterations == len(fn.probes)

    def test_guess_steps_on_toward_the_edge(self):
        # the guess has the sign of the start: the root lies beyond it
        fn = counted(lambda x: x - 4.5)
        res = search_outward(fn, 0.0, 100.0, tol=1e-13, f_start=-4.5,
                             guess=(4.0, 0.25))
        assert fn.probes[:3] == [4.0, 4.25, 4.75]
        assert res.x_star == pytest.approx(4.5, abs=1e-13)

    def test_guess_past_the_root_steps_back_toward_start(self):
        fn = counted(lambda x: x - 4.5)
        res = search_outward(fn, 0.0, 100.0, tol=1e-13, f_start=-4.5,
                             guess=(5.0, 0.25))
        assert fn.probes[:3] == [5.0, 4.75, 4.25]
        assert res.x_star == pytest.approx(4.5, abs=1e-13)
        # stepping back to start uses its known value rather than a probe
        fn = counted(lambda x: x - 0.1)
        res = search_outward(fn, 0.0, 100.0, tol=1e-13, f_start=-0.1,
                             guess=(5.0, 1.0))
        assert fn.probes[:3] == [5.0, 4.0, 2.0]
        assert 0.0 not in fn.probes
        assert res.x_star == pytest.approx(0.1, abs=1e-13)

    def test_exact_zero_at_start_or_guess_is_returned(self):
        # a zero at start or at the guess ends the search there, no bracket
        fn = counted(lambda x: x - 3.0)
        res = search_outward(fn, 3.0, 100.0, tol=1e-13)
        assert (res.x_star, res.value, res.width, res.iterations) == (3.0, 0.0, 0.0, 0)
        assert fn.probes == [3.0]
        res = search_outward(fn, 3.0, 100.0, tol=1e-13, f_start=0.0, guess=(5.0, 1.0))
        assert (res.x_star, res.iterations) == (3.0, 0)
        assert fn.probes == [3.0]
        fn = counted(lambda x: x - 5.0)
        res = search_outward(fn, 0.0, 100.0, tol=1e-13, f_start=-5.0, guess=(5.0, 1.0))
        assert (res.x_star, res.value, res.width, res.iterations) == (5.0, 0.0, 0.0, 1)
        assert fn.probes == [5.0]

    def test_guess_outside_the_search_is_ignored(self):
        for point in (-1.0, 0.0, 30.0, 40.0):
            fn = counted(lambda x: x - 4.9)
            res = search_outward(fn, 0.0, 30.0, tol=1e-13, guess=(point, 0.5))
            assert fn.probes[:4] == [0.0, 1.0, 3.0, 7.0]
            assert res.x_star == pytest.approx(4.9, abs=1e-13)

    def test_guess_without_a_sign_change_to_the_edge_raises(self):
        fn = counted(lambda x: x * x + 1.0)
        with pytest.raises(BracketError):
            search_outward(fn, 0.0, 30.0, tol=1e-11, guess=(10.0, 1.0))
        assert fn.probes == [0.0, 10.0, 11.0, 13.0, 17.0, 25.0, 30.0]


# the three objectives whose probes are pinned: a smooth root, narrowed
# to adjacent doubles by search_outward; a step from -1 to 2 whose values
# at the ends of the bracket are -inf and +inf, which no step may
# interpolate through; and one on a bracket so wide that the
# inverse-quadratic step p/q overflows
SMOOTH = lambda x: x**3 - 2.0 * x - 5.0
STEP = lambda x: (-math.inf if x <= 0.0 else math.inf if x >= 1.0
                  else -1.0 if x < 0.7 else 2.0)
WIDE = lambda x: math.log(x) - 700.0


class TestPinnedSteps:
    """Every point find_root and search_outward probe, as float.hex, and
    the result's fields: a change to the narrowing's bookkeeping that
    moves one probe fails here."""

    @pytest.mark.parametrize("objective,search,args,kwargs,probes,result", [
        (SMOOTH, find_root, (2.0, 3.0), dict(tol=1e-13),
         "0x1.0000000000000p+1 0x1.8000000000000p+1 0x1.0787878787878p+1 "
         "0x1.0c3e8d48e17cfp+1 0x1.0c1985cff025bp+1 0x1.0c1a433245fb4p+1 "
         "0x1.0c1a4350819e4p+1 0x1.0c1a435081973p+1",
         ("0x1.0c1a4350819e4p+1", "0x1.0000000000000p-48", "0x1.c400000000000p-45", 6)),
        (SMOOTH, search_outward, (0.0, 100.0), dict(tol=1e-16),
         "0x0.0p+0 0x1.0000000000000p+0 0x1.8000000000000p+1 0x1.8ba2e8ba2e8bap+0 "
         "0x1.22e8ba2e8ba2ep+1 0x1.03ef73cfe2781p+1 0x1.0b520c4ad3aedp+1 "
         "0x1.0c1b6cc2ac391p+1 0x1.0c1a4249ee79ap+1 0x1.0c1a43508046bp+1 "
         "0x1.0c1a4350819e3p+1 0x1.0c1a4350819e4p+1",
         ("0x1.0c1a4350819e3p+1", "-0x1.0000000000000p-50", "0x1.0000000000000p-51", 11)),
        (STEP, find_root, (0.0, 1.0), dict(tol=1e-6),
         "0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p-1 0x1.8000000000000p-1 "
         "0x1.2aaaaaaaaaaabp-1 0x1.5555555555556p-1 0x1.6aaaaaaaaaaabp-1 "
         "0x1.5c71c71c71c72p-1 0x1.638e38e38e38ep-1 0x1.671c71c71c71cp-1 "
         "0x1.64bda12f684bdp-1 0x1.65ed097b425ecp-1 0x1.6684bda12f684p-1 "
         "0x1.661f9add3c0c9p-1 0x1.66522c3f35ba6p-1 0x1.666b74f032915p-1 "
         "0x1.665a99cf8a020p-1 0x1.6663075fde49ap-1 0x1.66673e28086d8p-1 "
         "0x1.66646ef7ec559p-1 0x1.6665d68ffa618p-1 0x1.66668a5c01678p-1 "
         "0x1.6666127ea7638p-1 0x1.66664e6d54658p-1 0x1.66666c64aae68p-1",
         ("0x1.66664e6d54658p-1", "-0x1.0000000000000p+0", "0x1.df75681000000p-21", 23)),
        (STEP, search_outward, (-2.0, 5.0), dict(tol=1e-6),
         "-0x1.0000000000000p+1 -0x1.0000000000000p+0 0x1.0000000000000p+0 "
         "0x0.0p+0 0x1.0000000000000p-1 0x1.8000000000000p-1 0x1.2aaaaaaaaaaabp-1 "
         "0x1.5555555555556p-1 0x1.6aaaaaaaaaaabp-1 0x1.5c71c71c71c72p-1 "
         "0x1.638e38e38e38ep-1 0x1.671c71c71c71cp-1 0x1.64bda12f684bdp-1 "
         "0x1.65ed097b425ecp-1 0x1.6684bda12f684p-1 0x1.661f9add3c0c9p-1 "
         "0x1.66522c3f35ba6p-1 0x1.666b74f032915p-1 0x1.665a99cf8a020p-1 "
         "0x1.6663075fde49ap-1 0x1.66673e28086d8p-1 0x1.66646ef7ec559p-1 "
         "0x1.6665d68ffa618p-1 0x1.66668a5c01678p-1 0x1.6666127ea7638p-1 "
         "0x1.66664e6d54658p-1 0x1.66666c64aae68p-1",
         ("0x1.66664e6d54658p-1", "-0x1.0000000000000p+0", "0x1.df75681000000p-21", 26)),
        (WIDE, find_root, (1.0, 1.7e308), dict(tol=1e290),
         "0x1.0000000000000p+0 0x1.e42d130773b76p+1023 0x1.dd8a58d02073ap+1023 "
         "0x1.dd8a58d02073ap+1022 0x1.dd8a58d02073ap+1021 0x1.dd8a58d02073ap+1020 "
         "0x1.dd8a58d02073ap+1019 0x1.dd8a58d02073ap+1018 0x1.dd8a58d02073ap+1017 "
         "0x1.dd8a58d02073ap+1016 0x1.dd8a58d02073ap+1015 0x1.dd8a58d02073ap+1014 "
         "0x1.dd8a58d02073ap+1013 0x1.dd8a58d02073ap+1012 0x1.dd8a58d02073ap+1011 "
         "0x1.dd8a58d02073ap+1010 0x1.dd8a58d02073ap+1009 0x1.d75cbd4d86e89p+1009 "
         "0x1.d94813639da3cp+1009 0x1.d945e0733e819p+1009 0x1.d945df4f8ec1bp+1009",
         ("0x1.d945df4f8ec1bp+1009", "0x0.0p+0", "0x1.23afbfe000000p+985", 19)),
        (WIDE, search_outward, (1.0, 1.7e308), dict(tol=1e290, guess=(2.0, 1.6e308)),
         "0x1.0000000000000p+0 0x1.0000000000000p+1 0x1.c7b1f3cac7433p+1023 "
         "0x1.c17b6cfa75510p+1023 0x1.c17b6cfa75510p+1022 0x1.c17b6cfa75510p+1021 "
         "0x1.c17b6cfa75510p+1020 0x1.c17b6cfa75510p+1019 0x1.c17b6cfa75510p+1018 "
         "0x1.c17b6cfa75510p+1017 0x1.c17b6cfa75510p+1016 0x1.c17b6cfa75510p+1015 "
         "0x1.c17b6cfa75510p+1014 0x1.c17b6cfa75510p+1013 0x1.c17b6cfa75510p+1012 "
         "0x1.c17b6cfa75510p+1011 0x1.c17b6cfa75510p+1010 0x1.c17b6cfa75510p+1009 "
         "0x1.e2ed708386ec6p+1009 0x1.d9845183d5b95p+1009 0x1.d945dc8ebc882p+1009 "
         "0x1.d945df4fbd2bdp+1009 0x1.d945df4f8eb8dp+1009",
         ("0x1.d945df4f8eb8dp+1009", "0x0.0p+0", "0x1.7398000000000p+974", 22)),
    ])
    def test_probes_are_pinned(self, objective, search, args, kwargs, probes, result):
        fn = counted(objective)
        res = search(fn, *args, **kwargs)
        assert [x.hex() for x in fn.probes] == probes.split()
        assert (res.x_star.hex(), res.value.hex(), res.width.hex(), res.iterations) == result
