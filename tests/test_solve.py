"""The shared searches: geometric bracketing, bisection and the convex minimum."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncorlicz.solve import BATCH, bisect, bisect_rows, bracket, bracket_rows, minimize


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
        # no point beyond x * factor**limit is tried, and that one is
        assert max(tried) == 8.0
        # the last allowed point may still fail
        assert bracket(lambda x: x < 8.0, 1.0, 2.0, 3) == (4.0, 8.0)

    def test_a_walk_that_never_fails_calls_four_times_a_round(self):
        calls = []
        assert bracket(lambda x: calls.append(x) or True, 1.0, 2.0, 40) is None
        # 41 points: rounds of 15, 15 and 11, searched in 4, 4 and 3 calls
        assert len(calls) == 11


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

    def test_a_pair_a_few_subnormals_wide_ends(self):
        # (no - yes) / 16 rounds to 0 there: the round's points must still move
        unit = math.ulp(0.0)
        boundary = 100.5 * unit
        for width in range(2, 9):
            calls = []

            def holds(x):
                calls.append(x)
                assert len(calls) < 1000, "the cut does not move"
                return x <= boundary

            assert bisect(holds, 100 * unit, (100 + width) * unit, 2.0 ** -52, unit) == 100 * unit
            rounds = []

            def rows_hold(rows, xs):
                rounds.append(rows)
                assert len(rounds) < 100, "the cut does not move"
                return xs <= np.array([100.5, 200.5])[rows, None] * unit

            got = bisect_rows(rows_hold, np.array([100.0, 200.0]) * unit,
                              np.array([100.0 + width, 200.0 + width]) * unit, 2.0 ** -52, unit)
            assert got.tolist() == [100 * unit, 200 * unit]

    def test_four_calls_a_round(self):
        calls, rounds = [], []
        got = bisect(lambda x: calls.append(x) or x <= 0.3, 0.0, 1.0, rtol=1e-12, atol=1e-12)
        assert got == _one_row_bisect(lambda x: x <= 0.3, 0.0, 1.0, rounds, rtol=1e-12,
                                      atol=1e-12)
        assert len(calls) == 4 * len(rounds)


def _rows(predicate, calls=None):
    """A rows predicate from a scalar one, recording the points of each call."""

    def holds(rows, xs):
        if calls is not None:
            calls.append(xs.copy())
        return np.vectorize(predicate, otypes=[bool])(xs)

    return holds


def _one_row_bracket(predicate, x, factor, limit, calls=None):
    """``bracket_rows`` on one problem, answered the way ``bracket`` answers."""
    last, first = bracket_rows(_rows(predicate, calls), np.array([x]), factor, limit)
    if math.isnan(first[0]):
        return None
    return (None if math.isnan(last[0]) else float(last[0])), float(first[0])


def _one_row_bisect(predicate, yes, no, calls=None, **tols):
    return float(bisect_rows(_rows(predicate, calls), np.array([yes]), np.array([no]),
                             **tols)[0])


def _edges():
    """A boundary, a start and a tolerance pair of the one-point searches."""
    return st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e3),
                     st.floats(2.0 ** -52, 1e-12), st.sampled_from([0.0, math.ulp(0.0)]))


class TestOnePointIsOneRow:
    """A one-point search is the one-row search of the same predicate, bit for bit."""

    @given(_edges(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bisect(self, edge, below):
        boundary, width, rtol, atol = edge
        # with atol = 0 a pair at a subnormal boundary never meets the relative rule
        assume(atol > 0.0 or abs(boundary) >= 1e-300)
        if below:  # holds below the boundary: yes < no
            holds, yes, no = (lambda x: x <= boundary), boundary - width, boundary + width
        else:
            holds, yes, no = (lambda x: x >= boundary), boundary + width, boundary - width
        assert bisect(holds, yes, no, rtol, atol) == _one_row_bisect(holds, yes, no, rtol=rtol,
                                                                     atol=atol)

    @given(st.floats(1e-6, 1e6), st.floats(1e-3, 1e3), st.sampled_from([2.0, 0.5, 3.0]),
           st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_bracket(self, edge, x, factor, limit):
        holds = (lambda v: v < edge) if factor > 1 else (lambda v: v > edge)
        assert bracket(holds, x, factor, limit) == _one_row_bracket(holds, x, factor, limit)


class TestBatchedBracket:
    def test_first_point_fails(self):
        assert _one_row_bracket(lambda x: x < 1.0, 4.0, 2.0, 10) == (None, 4.0)

    def test_same_pair_as_one_point_walk(self):
        for holds, x, factor in ((lambda x: x < 10.0, 1.0, 2.0),
                                 (lambda x: x > 0.1, 1.0, 0.5),
                                 (lambda x: x < 1e6, 1.0, 2.0)):
            assert _one_row_bracket(holds, x, factor, 40) == bracket(holds, x, factor, 40)

    def test_limit_counts_multiplications(self):
        calls = []
        assert _one_row_bracket(lambda x: True, 1.0, 2.0, 20, calls) is None
        # 21 points in consecutive batches: a full batch, then the rest
        assert [c.shape for c in calls] == [(1, BATCH), (1, 21 - BATCH)]
        assert np.concatenate(calls, axis=1)[0].tolist() == [2.0 ** i for i in range(21)]
        # the last allowed point may still fail
        got = _one_row_bracket(lambda x: x < 2.0 ** 20, 1.0, 2.0, 20)
        assert got == (2.0 ** 19, 2.0 ** 20)


class TestBatchedBisect:
    def test_relative_rule(self):
        got = _one_row_bisect(lambda x: x * x >= 2.0, 2.0, 1.0, rtol=1e-12)
        assert got >= math.sqrt(2.0)
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_absolute_rule_at_zero(self):
        assert _one_row_bisect(lambda x: x <= 0.0, 0.0, 1.0, rtol=1e-10, atol=1e-10) == 0.0

    def test_keeps_the_holding_side(self):
        boundary = 0.3
        below = _one_row_bisect(lambda x: x <= boundary, 0.0, 1.0, rtol=1e-12, atol=1e-12)
        above = _one_row_bisect(lambda x: x >= boundary, 1.0, 0.0, rtol=1e-12, atol=1e-12)
        assert below <= boundary <= above
        assert above - below <= 3e-12

    def test_batches_are_interior_and_even(self):
        calls = []
        _one_row_bisect(lambda x: x <= 0.3, 0.0, 1.0, calls, rtol=1e-3, atol=1e-3)
        assert calls[0].shape == (1, BATCH)
        np.testing.assert_allclose(calls[0][0], np.arange(1, BATCH + 1) / (BATCH + 1))
        assert len(calls) == 3  # each round cuts the pair BATCH + 1 ways

    def test_already_within_tolerance(self):
        calls = []
        assert _one_row_bisect(lambda x: True, 1.0, 1.0 + 1e-13, calls, rtol=1e-12) == 1.0
        assert calls == []


def _thresholds(rows, xs, edges):
    """Row r holds below edges[r]: independent problems with known boundaries."""
    return xs < edges[rows, None]


class TestRows:
    EDGES = np.array([0.3, 7.0, 1e-3, 250.0, 2.0 ** 30, 1.0])

    def test_bracket_rows_equal_their_one_row_calls(self):
        for factor, limit in ((2.0, 40), (0.5, 40), (3.0, 25)):
            start = np.array([1.0, 0.1, 5.0, 1.0, 1.0, 1.0])
            last, first = bracket_rows(lambda rows, xs: _thresholds(rows, xs, self.EDGES),
                                       start, factor, limit)
            for r, edge in enumerate(self.EDGES):
                one = _one_row_bracket(lambda x: x < edge, start[r], factor, limit)
                got = None if math.isnan(first[r]) else (
                    None if math.isnan(last[r]) else float(last[r]), float(first[r]))
                assert got == one

    def test_a_walk_that_never_fails_is_reported_per_row(self):
        # rows 1 and 3 never reach their edge within 10 doublings
        edges = np.array([4.0, 1e9, 0.5, np.inf])
        last, first = bracket_rows(lambda rows, xs: _thresholds(rows, xs, edges),
                                   np.ones(4), 2.0, 10)
        assert first.tolist()[::2] == [4.0, 1.0]
        assert np.isnan(first[1]) and np.isnan(first[3])
        assert last[1] == last[3] == 2.0 ** 10
        assert last[0] == 2.0 and np.isnan(last[2])

    def test_bisect_rows_equal_their_one_row_calls(self):
        yes = np.array([0.0, 1.0, 0.0, 100.0, 1.0, 0.5])
        no = np.array([1.0, 10.0, 1.0, 1e3, 2.0 ** 31, 1.5])
        got = bisect_rows(lambda rows, xs: _thresholds(rows, xs, self.EDGES), yes, no,
                          rtol=1e-13, atol=1e-15)
        for r, edge in enumerate(self.EDGES):
            assert got[r] == _one_row_bisect(lambda x: x < edge, yes[r], no[r],
                                             rtol=1e-13, atol=1e-15)
            assert got[r] < edge

    def test_no_rows(self):
        def never(rows, xs):
            raise AssertionError("no row to evaluate")

        last, first = bracket_rows(never, np.array([]), 2.0, 10)
        assert last.shape == first.shape == (0,)
        assert bisect_rows(never, np.array([]), np.array([]), rtol=1e-9).shape == (0,)

    def test_a_converged_row_is_never_evaluated_again(self):
        seen = []

        def holds(rows, xs):
            seen.append(rows.copy())
            return xs <= np.array([0.3, 0.7])[rows, None]

        # row 0 starts within a loose tolerance of its boundary, row 1 far from it
        yes, no = np.array([0.29, 0.0]), np.array([0.31, 1.0])
        got = bisect_rows(holds, yes, no, rtol=0.0, atol=0.05)
        assert got[0] == 0.29  # finished before the first round: never moved
        assert all(r.tolist() == [1] for r in seen)
        # rows that finish in different rounds drop out as they finish
        seen.clear()
        got = bisect_rows(holds, np.zeros(2), np.array([0.5, 1e6]), rtol=0.0, atol=1e-3)
        sets = [r.tolist() for r in seen]
        assert sets[0] == [0, 1] and sets[-1] == [1]
        assert sets == sorted(sets, key=len, reverse=True)  # once gone, never back
        assert got[0] <= 0.3 <= got[0] + 1e-3 and got[1] <= 0.7 <= got[1] + 1e-3
        assert got[0] == _one_row_bisect(lambda x: x <= 0.3, 0.0, 0.5, rtol=0.0, atol=1e-3)


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
