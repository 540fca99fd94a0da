"""The shared boundary search: geometric bracketing and bisection."""

import math

import pytest

from ncorlicz.solve import bisect, bracket


class TestBracket:
    def test_first_point_fails(self):
        assert bracket(lambda x: x < 1.0, 4.0, 2.0, 10) == (None, 4.0)

    def test_walk_up(self):
        assert bracket(lambda x: x < 10.0, 1.0, 2.0, 10) == (8.0, 16.0)

    def test_walk_down(self):
        assert bracket(lambda x: x > 0.1, 1.0, 0.5, 10) == (0.125, 0.0625)

    def test_limit_counts_multiplications(self):
        tried = []

        def holds(x):
            tried.append(x)
            return True

        assert bracket(holds, 1.0, 2.0, 3) is None
        assert tried == [1.0, 2.0, 4.0, 8.0]
        # the last allowed point may still fail
        assert bracket(lambda x: x < 8.0, 1.0, 2.0, 3) == (4.0, 8.0)


class TestBisect:
    def test_relative_rule(self):
        got = bisect(lambda x: x * x >= 2.0, 2.0, 1.0, rtol=1e-12)
        assert got >= math.sqrt(2.0)
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_absolute_rule_at_zero(self):
        got = bisect(lambda x: x <= 0.0, 0.0, 1.0, rtol=1e-10, atol=1e-10)
        assert got == 0.0

    def test_keeps_the_holding_side(self):
        boundary = 0.3
        below = bisect(lambda x: x <= boundary, 0.0, 1.0, rtol=1e-12, atol=1e-12)
        above = bisect(lambda x: x >= boundary, 1.0, 0.0, rtol=1e-12, atol=1e-12)
        assert below <= boundary <= above
        assert above - below <= 3e-12

    def test_already_within_tolerance(self):
        calls = []

        def holds(x):
            calls.append(x)
            return True

        assert bisect(holds, 1.0, 1.0 + 1e-13, rtol=1e-12) == 1.0
        assert calls == []
