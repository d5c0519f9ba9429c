"""The bisection solver against scipy and closed forms."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize

from meangap.solver import (
    Bracket,
    BracketError,
    MaxIterationsError,
    SolveResult,
    find_root,
)


class TestBracket:
    def test_width(self):
        assert Bracket(1.0, 3.5).width == 2.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Bracket(2.0, 2.0)
        with pytest.raises(ValueError):
            Bracket(3.0, 1.0)


class TestFindRoot:
    def test_cosine_root(self):
        res = find_root(math.cos, Bracket(1.0, 2.0), tol=1e-13)
        assert res.x_star == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_matches_scipy_brentq(self):
        fn = lambda x: x**3 - 2.0 * x - 5.0
        res = find_root(fn, Bracket(2.0, 3.0), tol=1e-13)
        ref = optimize.brentq(fn, 2.0, 3.0, xtol=1e-14)
        assert res.x_star == pytest.approx(ref, abs=1e-12)

    def test_exact_zero_at_endpoint(self):
        res = find_root(lambda x: x - 1.0, Bracket(1.0, 2.0))
        assert res.x_star == 1.0
        assert res.iterations == 0

    def test_infinite_endpoint_values_use_sign_only(self):
        fn = lambda x: math.inf if x <= 0.25 else (x - 0.5)
        res = find_root(fn, Bracket(0.0, 0.4), tol=1e-12)
        assert res.x_star == pytest.approx(0.25, abs=1e-11)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            find_root(math.cos, Bracket(1.0, 2.0), tol=0.0)

    def test_iteration_cap(self):
        with pytest.raises(MaxIterationsError):
            find_root(lambda x: x - 0.1234, Bracket(0.0, 1.0), tol=1e-30,
                      max_iter=8)

    def test_deterministic(self):
        fn = lambda x: math.expm1(x) - 1.0
        a = find_root(fn, Bracket(0.0, 2.0))
        b = find_root(fn, Bracket(0.0, 2.0))
        assert a == b

    @given(root=st.floats(min_value=0.05, max_value=0.95))
    def test_recovers_planted_root(self, root):
        res = find_root(lambda x: (x - root), Bracket(0.0, 1.0), tol=1e-13)
        assert res.x_star == pytest.approx(root, abs=1e-12)

    def test_result_fields(self):
        res = find_root(math.cos, Bracket(1.0, 2.0), tol=1e-10)
        assert isinstance(res, SolveResult)
        assert res.residual_or_width <= 1e-10
        assert res.iterations > 0
