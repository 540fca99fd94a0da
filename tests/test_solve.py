"""The shared searches: geometric bracketing, bisection and the convex minimum.

A search of one row takes the Python path of ``bracket_rows`` and
``bisect_rows`` (``TestBracket``, ``TestBisect``), a search of several rows
the numpy path (``TestBatchedBracket``, ``TestBatchedBisect``); a row's answer
is the same on both (``TestOnePointIsOneRow``, ``TestRows``).  A predicate
that gives values instead of booleans guides the cut (``TestValueGuidedCut``).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncorlicz.solve import _FRACTIONS, BATCH, bisect_rows, bracket_rows, minimize


def _convex(kind, c, s):
    """A convex function of x: smooth, kinked, linear, or +inf on one side of c."""
    return {
        "square": lambda x: s * (x - c) ** 2 + 1.0,
        "kink": lambda x: s * np.abs(x - c) + 0.5,
        "linear": lambda x: s * x + c,
        "inf_below": lambda x: np.where(x < c, np.inf, s * x),
        "inf_above": lambda x: np.where(x > c, np.inf, (x - 0.5 * c) ** 2),
    }[kind]


class TestMinimizeOneRow:
    @given(st.lists(st.tuples(st.sampled_from(["square", "kink", "linear", "inf_below",
                                               "inf_above"]),
                              st.floats(1e-3, 1e3), st.floats(1e-2, 1e2)),
                    min_size=2, max_size=6),
           st.sampled_from([1e-12, 1e-9, 1e-3]), st.sampled_from([0.0, 1e-20]))
    @settings(max_examples=150, deadline=None)
    def test_one_row_is_its_row_of_many(self, rows, rtol, atol):
        fns = [_convex(*row) for row in rows]

        def f(idx, x):  # each row evaluated alone, whatever the other rows are
            return np.array([fns[i](xr) for i, xr in zip(idx.tolist(), x)])

        least, at = minimize(f, np.tile(GEOMETRIC, (len(rows), 1)), rtol, atol)
        for r, fn in enumerate(fns):
            one = minimize(lambda idx, x: fn(x), GEOMETRIC[None, :], rtol, atol)
            assert (one[0].tobytes(), one[1].tobytes()) == \
                (least[r:r + 1].tobytes(), at[r:r + 1].tobytes())


def _rows(predicates, calls=None):
    """A rows predicate from one scalar predicate per row, recording the points of each call."""

    def holds(rows, xs):
        if calls is not None:
            calls.append(xs.copy())
        return np.array([[predicates[r](x) for x in row]
                         for r, row in zip(rows.tolist(), xs.tolist())], dtype=bool)

    return holds


def _bracket(predicates, starts, factor, limit, calls=None):
    """``bracket_rows`` per row: (last held or None, first failed), or None when none failed."""
    last, first = bracket_rows(_rows(predicates, calls), np.array(starts, dtype=float), factor,
                               limit)
    return [None if math.isnan(f) else (None if math.isnan(h) else h, f)
            for h, f in zip(last.tolist(), first.tolist())]


def _bisect(predicates, yes, no, calls=None, **tols):
    return bisect_rows(_rows(predicates, calls), np.array(yes, dtype=float),
                       np.array(no, dtype=float), **tols).tolist()


class TestBracket:
    def test_first_point_fails(self):
        assert _bracket([lambda x: x < 1.0], [4.0], 2.0, 10) == [(None, 4.0)]

    def test_walk_up(self):
        assert _bracket([lambda x: x < 10.0], [1.0], 2.0, 10) == [(8.0, 16.0)]

    def test_walk_down(self):
        assert _bracket([lambda x: x > 0.1], [1.0], 0.5, 10) == [(0.125, 0.0625)]

    def test_limit_counts_multiplications(self):
        calls = []
        assert _bracket([lambda x: True], [1.0], 2.0, 20, calls) == [None]
        # 21 points in consecutive batches: a full batch, then the rest
        assert [c.shape for c in calls] == [(1, BATCH), (1, 21 - BATCH)]
        assert np.concatenate(calls, axis=1)[0].tolist() == [2.0 ** i for i in range(21)]
        # the last allowed point may still fail
        assert _bracket([lambda x: x < 2.0 ** 20], [1.0], 2.0, 20) == [(2.0 ** 19, 2.0 ** 20)]

    def test_a_walk_that_never_fails_calls_once_a_round(self):
        calls = []
        assert _bracket([lambda x: True], [1.0], 2.0, 40, calls) == [None]
        # 41 points: rounds of 15, 15 and 11, each one call on one row
        assert [c.shape for c in calls] == [(1, BATCH), (1, BATCH), (1, 11)]


class TestBisect:
    def test_relative_rule(self):
        [got] = _bisect([lambda x: x * x >= 2.0], [2.0], [1.0], rtol=1e-12)
        assert got >= math.sqrt(2.0)
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_absolute_rule_at_zero(self):
        assert _bisect([lambda x: x <= 0.0], [0.0], [1.0], rtol=1e-10, atol=1e-10) == [0.0]

    def test_keeps_the_holding_side(self):
        boundary = 0.3
        [below] = _bisect([lambda x: x <= boundary], [0.0], [1.0], rtol=1e-12, atol=1e-12)
        [above] = _bisect([lambda x: x >= boundary], [1.0], [0.0], rtol=1e-12, atol=1e-12)
        assert below <= boundary <= above
        assert above - below <= 3e-12

    def test_already_within_tolerance(self):
        calls = []
        assert _bisect([lambda x: True], [1.0], [1.0 + 1e-13], calls, rtol=1e-12) == [1.0]
        assert calls == []

    def test_a_pair_a_few_subnormals_wide_ends(self):
        # (no - yes) / 16 rounds to 0 there: the round's points must still move
        unit = math.ulp(0.0)
        for width in range(2, 9):
            for rows in ([0], [0, 1]):  # the one-row path and the many-row path
                rounds = []

                def holds(rows, xs):
                    rounds.append(rows)
                    assert len(rounds) < 100, "the cut does not move"
                    return xs <= np.array([100.5, 200.5])[rows, None] * unit

                starts = np.array([100.0, 200.0])[rows] * unit
                got = bisect_rows(holds, starts, starts + width * unit, 2.0 ** -52, unit)
                assert got.tolist() == starts.tolist()

    def test_one_call_a_round(self):
        calls = []
        [got] = _bisect([lambda x: x <= 0.3], [0.0], [1.0], calls, rtol=1e-12, atol=1e-12)
        assert 0.3 - 2e-12 <= got <= 0.3
        # one call a round, on one row of that round's BATCH points: each
        # round cuts the pair 16 ways, and 16**-10 < 1e-12 < 16**-9
        assert [c.shape for c in calls] == [(1, BATCH)] * 10
        yes, no = 0.0, 1.0
        for c in calls:
            assert c[0].tolist() == (yes + (no - yes) * _FRACTIONS).tolist()
            i = int((c[0] > 0.3).argmax())
            yes, no = (c[0, i - 1] if i else yes), c[0, i]


def _edges():
    """A boundary, a start and a tolerance pair of the one-row searches."""
    return st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e3),
                     st.floats(2.0 ** -52, 1e-12), st.sampled_from([0.0, math.ulp(0.0)]))


class TestOnePointIsOneRow:
    """A search of one row is its row of a many-row search, bit for bit."""

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
        one = _bisect([holds], [yes], [no], rtol=rtol, atol=atol)
        assert one == _bisect([holds, lambda x: x <= 0.7], [yes, 0.0], [no, 1.0], rtol=rtol,
                              atol=atol)[:1]

    @given(st.floats(1e-6, 1e6), st.floats(1e-3, 1e3), st.sampled_from([2.0, 0.5, 3.0]),
           st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_bracket(self, edge, x, factor, limit):
        holds = (lambda v: v < edge) if factor > 1 else (lambda v: v > edge)
        one = _bracket([holds], [x], factor, limit)
        assert one == _bracket([holds, lambda v: True], [x, 1.0], factor, limit)[:1]


class TestBatchedBracket:
    def test_first_point_fails(self):
        got = _bracket([lambda x: x < 1.0, lambda x: x < 10.0], [4.0, 1.0], 2.0, 10)
        assert got == [(None, 4.0), (8.0, 16.0)]

    def test_same_pair_as_one_point_walk(self):
        ups = [lambda x: x < 10.0, lambda x: x < 1e6, lambda x: x < 1.0]
        downs = [lambda x: x > 0.1, lambda x: x > 1e-9]
        for predicates, factor in ((ups, 2.0), (downs, 0.5)):
            many = _bracket(predicates, [1.0] * len(predicates), factor, 40)
            assert many == [_bracket([p], [1.0], factor, 40)[0] for p in predicates]

    def test_limit_counts_multiplications(self):
        calls = []
        assert _bracket([lambda x: True] * 2, [1.0, 3.0], 2.0, 20, calls) == [None, None]
        # 21 points a row in consecutive batches: a full batch, then the rest
        assert [c.shape for c in calls] == [(2, BATCH), (2, 21 - BATCH)]
        walked = np.concatenate(calls, axis=1).tolist()
        assert walked == [[s * 2.0 ** i for i in range(21)] for s in (1.0, 3.0)]
        # the last allowed point may still fail
        got = _bracket([lambda x: x < 2.0 ** 20, lambda x: True], [1.0, 1.0], 2.0, 20)
        assert got == [(2.0 ** 19, 2.0 ** 20), None]


class TestBatchedBisect:
    def test_relative_rule(self):
        got = _bisect([lambda x: x * x >= 2.0, lambda x: x * x >= 3.0], [2.0, 2.0], [1.0, 1.0],
                      rtol=1e-12)
        for root, value in zip((math.sqrt(2.0), math.sqrt(3.0)), got):
            assert value >= root
            assert value == pytest.approx(root, rel=1e-12)

    def test_absolute_rule_at_zero(self):
        got = _bisect([lambda x: x <= 0.0, lambda x: x <= 0.5], [0.0, 0.0], [1.0, 1.0],
                      rtol=1e-10, atol=1e-10)
        assert got[0] == 0.0

    def test_keeps_the_holding_side(self):
        boundary = 0.3
        below, above = _bisect([lambda x: x <= boundary, lambda x: x >= boundary], [0.0, 1.0],
                               [1.0, 0.0], rtol=1e-12, atol=1e-12)
        assert below <= boundary <= above
        assert above - below <= 3e-12

    def test_batches_are_interior_and_even(self):
        calls = []
        _bisect([lambda x: x <= 0.3, lambda x: x <= 0.7], [0.0, 0.0], [1.0, 1.0], calls,
                rtol=1e-3, atol=1e-3)
        assert calls[0].shape == (2, BATCH)
        for row in calls[0]:
            np.testing.assert_allclose(row, np.arange(1, BATCH + 1) / (BATCH + 1))
        assert len(calls) == 3  # each round cuts the pair BATCH + 1 ways

    def test_already_within_tolerance(self):
        calls = []
        got = _bisect([lambda x: True] * 2, [1.0, 2.0], [1.0 + 1e-13, 2.0 - 1e-13], calls,
                      rtol=1e-12)
        assert got == [1.0, 2.0]
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
                [one] = _bracket([lambda x: x < edge], [start[r]], factor, limit)
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
            assert [got[r]] == _bisect([lambda x: x < edge], [yes[r]], [no[r]],
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
        assert [got[0]] == _bisect([lambda x: x <= 0.3], [0.0], [0.5], rtol=0.0, atol=1e-3)


def _shape(kind, k, z):
    """A value rising through 0 at z = 0, in units of the distance k z from the boundary."""
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "convex":
            return np.expm1(k * z)
        if kind == "concave":
            return -np.expm1(-k * z)
        if kind == "kinked":  # a broken line, kinked at z = 0.37: convex for k > 1
            return np.where(z <= 0.37, z, z + (k - 1.0) * (z - 0.37))
        if kind == "capped":  # convex, then +inf from z = 0.5 / k on
            return np.where(k * z < 0.5, np.expm1(z), np.inf)
        return np.where(z <= 0.0, -1.0, 1.0)


_KINDS = ["convex", "concave", "kinked", "capped", "sign"]


def _problems():
    """Rows of value searches: (kind, slope k, boundary, holds below it, yes, no)."""
    row = st.tuples(st.sampled_from(_KINDS), st.floats(0.01, 100.0), st.floats(-1e3, 1e3),
                    st.booleans(), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    return st.lists(row, min_size=1, max_size=6)


def _value_rows(problems, calls):
    """The rows values of ``problems``, recording each row's evaluated points."""

    def values(rows, xs):
        out = np.empty(xs.shape)
        for i, r in enumerate(rows.tolist()):
            kind, k, edge, below, _, _ = problems[r]
            calls[r].extend(xs[i].tolist())
            out[i] = _shape(kind, k, (xs[i] - edge) if below else (edge - xs[i]))
        return out

    return values


class TestValueGuidedCut:
    """Values guide the cut; the answer keeps the even cut's guarantee."""

    @given(_problems(), st.sampled_from([1e-13, 1e-9, 1e-6]), st.sampled_from([0.0, 1e-12]))
    @settings(max_examples=150, deadline=None)
    def test_each_answer_holds_and_meets_the_stopping_rule(self, problems, rtol, atol):
        yes = [edge - a if below else edge + a for _, _, edge, below, a, _ in problems]
        no = [edge + b if below else edge - b for _, _, edge, below, _, b in problems]
        assume(atol > 0.0 or all(abs(p[2]) >= 1e-3 for p in problems))
        calls = [[] for _ in problems]
        values = _value_rows(problems, calls)
        got = bisect_rows(values, np.array(yes), np.array(no), rtol, atol)
        for r, (y0, n0, answer) in enumerate(zip(yes, no, got.tolist())):
            tried = np.array(calls[r] + [n0])
            failing = tried[~(values(np.array([r]), tried[None])[0] <= 0.0)]
            # the failing point nearest the answer on the side of no
            side = failing[(failing - answer) * (n0 - y0) > 0]
            near = side[np.abs(side - answer).argmin()]
            assert answer == y0 or values(np.array([r]), np.array([[answer]]))[0, 0] <= 0.0
            assert abs(near - answer) <= atol + rtol * max(abs(answer), abs(near))

    @given(_problems(), st.sampled_from([1e-13, 1e-9, 1e-6]), st.sampled_from([0.0, 1e-12]))
    @settings(max_examples=150, deadline=None)
    def test_one_row_is_its_row_of_many(self, problems, rtol, atol):
        yes = np.array([edge - a if below else edge + a for _, _, edge, below, a, _ in problems])
        no = np.array([edge + b if below else edge - b for _, _, edge, below, _, b in problems])
        assume(atol > 0.0 or all(abs(p[2]) >= 1e-3 for p in problems))
        values = _value_rows(problems, [[] for _ in problems])
        many = bisect_rows(values, yes, no, rtol, atol)
        for r in range(len(problems)):
            one = bisect_rows(lambda rows, xs, r=r: values(rows + r, xs), yes[r:r + 1],
                              no[r:r + 1], rtol, atol)
            assert one.tolist() == many[r:r + 1].tolist()

    @given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.booleans(),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_signs_take_the_even_points(self, edge, a, b, below, two_rows):
        # a value of -1 or +1 gives no window: every round cuts 16 ways, at the
        # points a boolean predicate is given
        yes, no = (edge - a, edge + b) if below else (edge + a, edge - b)
        rows = 2 if two_rows else 1
        seen = []
        for signs in (True, False):
            calls = []

            def holds(rows_, xs, signs=signs):
                calls.append(xs.copy())
                h = xs <= edge if below else xs >= edge
                return np.where(h, -1.0, 1.0) if signs else h

            got = bisect_rows(holds, np.full(rows, yes), np.full(rows, no), 1e-12, 1e-12)
            seen.append((got.tolist(), [c.tolist() for c in calls]))
        assert seen[0] == seen[1]
        assert seen[1][1][0][0] == (yes + (no - yes) * _FRACTIONS).tolist()


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
