"""The shared boundary search: geometric bracketing and bisection."""

import math

import numpy as np
import pytest

from ncorlicz.solve import BATCH, bisect, bracket


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


def _batched(predicate, calls=None):
    """A batched predicate from a scalar one, recording each batch it gets."""

    def holds(xs):
        if calls is not None:
            calls.append(list(xs))
        return np.array([predicate(float(x)) for x in xs], dtype=bool)

    return holds


class TestBatchedBracket:
    def test_first_point_fails(self):
        assert bracket(_batched(lambda x: x < 1.0), 4.0, 2.0, 10, batched=True) == (None, 4.0)

    def test_same_pair_as_one_point_walk(self):
        for holds, x, factor in ((lambda x: x < 10.0, 1.0, 2.0),
                                 (lambda x: x > 0.1, 1.0, 0.5),
                                 (lambda x: x < 1e6, 1.0, 2.0)):
            want = bracket(holds, x, factor, 40)
            assert bracket(_batched(holds), x, factor, 40, batched=True) == want

    def test_limit_counts_multiplications(self):
        calls = []
        assert bracket(_batched(lambda x: True, calls), 1.0, 2.0, 20, batched=True) is None
        # 21 points in consecutive batches: a full batch, then the rest
        assert [len(c) for c in calls] == [BATCH, 21 - BATCH]
        assert sum(calls, []) == [2.0 ** i for i in range(21)]
        # the last allowed point may still fail
        got = bracket(_batched(lambda x: x < 2.0 ** 20), 1.0, 2.0, 20, batched=True)
        assert got == (2.0 ** 19, 2.0 ** 20)


class TestBatchedBisect:
    def test_relative_rule(self):
        got = bisect(_batched(lambda x: x * x >= 2.0), 2.0, 1.0, rtol=1e-12, batched=True)
        assert got >= math.sqrt(2.0)
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_absolute_rule_at_zero(self):
        got = bisect(_batched(lambda x: x <= 0.0), 0.0, 1.0, rtol=1e-10, atol=1e-10,
                     batched=True)
        assert got == 0.0

    def test_keeps_the_holding_side(self):
        boundary = 0.3
        below = bisect(_batched(lambda x: x <= boundary), 0.0, 1.0, rtol=1e-12,
                       atol=1e-12, batched=True)
        above = bisect(_batched(lambda x: x >= boundary), 1.0, 0.0, rtol=1e-12,
                       atol=1e-12, batched=True)
        assert below <= boundary <= above
        assert above - below <= 3e-12

    def test_batches_are_interior_and_even(self):
        calls = []
        bisect(_batched(lambda x: x <= 0.3, calls), 0.0, 1.0, rtol=1e-3, atol=1e-3,
               batched=True)
        first = np.array(calls[0])
        assert first.size == BATCH
        np.testing.assert_allclose(first, np.arange(1, BATCH + 1) / (BATCH + 1))
        assert len(calls) == 3  # each round cuts the pair BATCH + 1 ways

    def test_already_within_tolerance(self):
        calls = []
        assert bisect(_batched(lambda x: True, calls), 1.0, 1.0 + 1e-13, rtol=1e-12,
                      batched=True) == 1.0
        assert calls == []
