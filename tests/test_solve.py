"""The shared searches: geometric bracketing, bisection and the convex minimum."""

import math

import numpy as np
import pytest

from ncorlicz.solve import BATCH, bisect, bracket, minimize


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


def _recorded(fn, calls):
    """A row-wise objective from fn(rows, x), recording each array it gets."""

    def f(rows, x):
        calls.append(np.array(x))
        return fn(rows, x)

    return f


GEOMETRIC = 2.0 ** np.arange(-10, 11)


class TestMinimize:
    def test_rows_are_independent_problems(self):
        centres = np.array([0.3, 7.0, 250.0])
        least, at = minimize(lambda rows, x: (x - centres[rows, None]) ** 2 + 1.0,
                             np.tile(GEOMETRIC, (3, 1)), rtol=1e-12)
        np.testing.assert_allclose(least, 1.0, rtol=1e-12)
        np.testing.assert_allclose(at, centres, rtol=1e-5)

    def test_kink_within_certified_bound(self):
        for c in (math.pi / 3, 0.01 * math.e, 123.456):
            least, at = minimize(lambda rows, x: abs(x - c) + 1.0, GEOMETRIC[None, :],
                                 rtol=1e-12)
            assert 1.0 <= least[0] <= 1.0 + 1e-12
            assert abs(at[0] - c) <= 1e-12

    def test_linear_end_minimum_stops_after_one_round(self):
        calls = []
        least, at = minimize(_recorded(lambda rows, x: x + 1.0, calls), GEOMETRIC[None, :],
                             rtol=1e-12)
        assert (least[0], at[0]) == (GEOMETRIC[0] + 1.0, GEOMETRIC[0])
        # the first pass, then one round of all BATCH interior points
        assert [c.shape for c in calls] == [(1, GEOMETRIC.size), (1, BATCH)]

    def test_each_point_evaluated_once(self):
        calls = []
        minimize(_recorded(lambda rows, x: np.cosh(x - 0.7), calls), GEOMETRIC[None, :],
                 rtol=1e-12)
        points = np.concatenate([c.ravel() for c in calls])
        assert len(set(points.tolist())) == len(points)
        # later rounds reuse the kept least point and its neighbours
        assert all(c.shape == (1, BATCH - 1) for c in calls[2:])

    def test_infinite_values(self):
        edge = 0.37

        def capped(rows, x):
            return np.where(x < edge * (rows[:, None] + 1), np.inf, x)

        least, at = minimize(capped, np.tile(GEOMETRIC, (2, 1)), rtol=1e-12)
        np.testing.assert_allclose(least, [edge, 2 * edge], rtol=1e-14)
        # no finite value on the first pass: the row's least value is +inf
        least, _ = minimize(lambda rows, x: np.full(x.shape, np.inf), GEOMETRIC[None, :],
                            rtol=1e-12)
        assert least[0] == math.inf

    def test_absolute_floor_at_a_zero_end(self):
        calls = []
        start = np.concatenate([[0.0], GEOMETRIC])[None, :]
        least, at = minimize(_recorded(lambda rows, x: x * x, calls), start, rtol=1e-12,
                             atol=1e-20)
        assert (least[0], at[0]) == (0.0, 0.0)
        # the relative bound alone never certifies a least value of zero
        assert len(calls) <= 13
