"""The two searches of the package: a monotone boundary and a convex minimum.

Every scaling problem in the package is the boundary of a monotone
predicate: the Luxemburg and trace-modular norms, formal inverses, the
detected gauge thresholds, the inverse running weight, the
exponential-moment membership walk and the regularity walk.  There is one
walk and one cut.  ``bracket_rows`` walks geometrically until the predicate
first fails; ``bisect_rows`` cuts a (holds, fails) pair a round until it is
within the caller's tolerance, guided by the predicate's values when it
gives any.  Callers keep their own tolerances and their own answer to a
walk that never ends.

Both solve independent problems, one per row: the predicate
``holds(rows, points)`` gets BATCH points of every unfinished row as one
array, so the norm solves of a corpus share each numpy pass, and a row's
answer is bit for bit its one-row call's.  A search of one point, such as a
formal inverse or a detected threshold, is the one-row call: one predicate
call a round on one row of that round's points.

``minimize`` finds and certifies the least values of many convex functions
at once: the Amemiya norm and the values of a numeric conjugate.  One
function, such as one Amemiya norm, is its one-row call, in Python floats.
"""

from __future__ import annotations

import functools
import math

import numpy as np

BATCH = 15
GRID = BATCH + 2  # a minimize round's grid: BATCH interior points and both ends
_TRIPLE = np.array([-1, 0, 1])
_NEIGHBOURS = np.clip(np.arange(GRID), 1, GRID - 2)[:, None] + _TRIPLE
_KNOWN = np.array([0, GRID // 2, GRID - 1])  # a kept least point and its neighbours
_INTERIOR = np.arange(1, GRID - 1)
_NEW = np.setdiff1d(_INTERIOR, _KNOWN)
_INTERIOR_LIST, _NEW_LIST = _INTERIOR.tolist(), _NEW.tolist()
# A bisection round's points, as fractions of the pair from ``yes``: (no - yes) * j/16
# rounds as j * ((no - yes) / 16) does where that quotient is exact, and still moves
# where a pair a few subnormals wide makes the quotient 0.
_FRACTIONS = np.arange(1, BATCH + 1) / (BATCH + 1)
_FRACTION_LIST = _FRACTIONS.tolist()
# A guided round's, as fractions of its window: offset so that none lies on a predicted root.
_GUIDED = (np.arange(BATCH) + 0.3) / BATCH
_GUIDED_LIST, _CUTS = _GUIDED.tolist(), np.array([_FRACTIONS, _GUIDED]).T
INF = math.inf
_NAN = [math.nan]
_ONE_ROW = np.arange(1)


def bracket_rows(holds, x: np.ndarray, factor: float,
                 limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Geometric walks of independent problems, one per entry of x, until each first fails.

    ``holds(rows, points)`` answers, for the problems numbered ``rows``,
    whether each holds at the matching row of ``points``: booleans, or
    values that hold where they are <= 0.  Each round gives every problem
    still walking the next BATCH points of its walk x * factor**i,
    i = 0, ..., limit, each point the previous one times ``factor``.
    Returns per problem the last point that held (NaN when x itself failed)
    and the first point that failed (NaN when every tried point held).
    """
    known = _walk(holds, x, factor, limit)
    return known[0].copy(), known[1].copy()


def _walk(holds, x: np.ndarray, factor: float, limit: int) -> np.ndarray:
    """``bracket_rows`` as ``_cut``'s known points: last held, first failed, next; values."""
    x = np.array(x, dtype=float)
    if x.size == 1:
        return _walk_one_row(holds, float(x[0]), factor, limit)
    known = np.full((6, x.size), np.nan)
    rows, held, left = np.arange(x.size), known[::3].copy(), limit + 1
    while left > 0 and rows.size:
        # the grid of points and values: the last point walked, this round's, NaN
        grid = np.full((2, min(BATCH, left) + 2, rows.size), np.nan)
        grid[:, 0] = held
        points = grid[0, 1:-1]
        points[0], points[1:] = x, factor
        np.multiply.accumulate(points, axis=0, out=points)
        left -= len(points)
        grid[1, 1:-1] = _values(holds(rows, points.T)).T
        ok = grid[1, 1:-1] <= 0.0
        hit = ~np.logical_and.reduce(ok, axis=0)
        around = grid.take(ok.argmin(axis=0) * rows.size + _around(*grid.shape[1:]))
        known[:, rows[hit]] = around[:, hit]
        rows, held = rows[~hit], grid[:, -2, ~hit]
        x = held[0] * factor
    known[::3, rows] = held
    return known


def bisect_rows(holds, yes: np.ndarray, no: np.ndarray, rtol: float,
                atol: float = 0.0) -> np.ndarray:
    """The boundaries of independent problems, one per entry of ``yes``.

    Each problem's pair (``yes`` holds, ``no`` fails) is cut until
    |no - yes| <= atol + rtol * max(|yes|, |no|), ``holds`` as for
    ``bracket_rows``.  A round gives it BATCH interior points of each
    unfinished pair, evenly across the window between the secant root of
    the pair and the root of the line through ``no`` and the point after it
    (widened by the tolerance); for values convex or concave along the pair
    it holds the boundary.  With no values, a value not finite, no such
    line or a window not narrower than half the pair, the points cut the
    pair into BATCH + 1 equal parts.  The new pair is the first failing
    point and the point before it, and a finished problem is not evaluated
    again.  Returns the ``yes`` ends.
    """
    return _cut(holds, np.concatenate(([yes, no], np.full((4, np.size(yes)), np.nan))), rtol, atol)


def _cut(holds, known: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    """``bisect_rows`` from ``_walk``'s known points and values."""
    if known.shape[1] == 1:
        return np.array([_cut_one_row(holds, known[:, 0].tolist(), rtol, atol)])
    out, rows = known[0].copy(), np.arange(known.shape[1])
    while rows.size:
        y, n, after, fy, fn, f_after = known
        d = n - y
        width, tol = np.abs(d), atol + rtol * np.maximum(np.abs(y), np.abs(n))
        going = width > tol
        if not np.logical_and.reduce(going):
            out[rows] = y
            rows, known = rows[going], known[:, going]
            continue
        # the window, as fractions lo to lo + w of the pair from yes
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = (f_after - fn) / ((after - n) / d)
            s, t, pad = fy / (fy - fn), 1.0 - fn / slope, tol / width
            lo = np.fmax(np.minimum(s, t) - pad, 0.0)
            w = np.fmin(np.maximum(s, t) + pad, 1.0) - lo
        guided = (slope > 0.0) & (slope < INF) & (w < 0.5)
        # the grid of points and values: yes, BATCH new points, no and the point after
        grid = np.empty((2, BATCH + 3, rows.size))
        grid[:, :1], grid[:, -2:] = known.reshape(2, 3, -1)[:, :1], known.reshape(2, 3, -1)[:, 1:]
        points = grid[0, 1:-2]
        np.add(y + d * (lo * guided), d * np.fmax(w, ~guided) * _CUTS.take(guided.view(np.int8), 1),
               out=points)
        grid[1, 1:-2] = _values(holds(rows, points.T)).T
        at = (grid[1, 1:-1] <= 0.0).argmin(axis=0)  # the new yes, before the first failing point
        known = grid.take(at * rows.size + _around(*grid.shape[1:]))
    return out


def _values(answer: np.ndarray) -> np.ndarray:
    """A predicate's answers as values: -1 where a boolean holds and +1 where it fails."""
    return np.where(answer, -1.0, 1.0) if answer.dtype == bool else answer


@functools.lru_cache
def _around(width: int, size: int) -> np.ndarray:
    """Where a (2, width, size) grid keeps, per column, the points and values before, at and
    after the first point of ``grid[:, 1:]`` that fails, less that point's index times size."""
    return np.array([[0], [1], [2], [width], [width + 1], [width + 2]]) * size + np.arange(size)


# One problem alone: the same points, pairs and least values as its row in a
# many-row call, in Python floats.  The rows bookkeeping takes about forty numpy
# calls a round, more than a one-row solve spends in its predicate.

def _walk_one_row(holds, x: float, factor: float, limit: int) -> np.ndarray:
    xs, fs, left = _NAN, _NAN, limit + 1
    while left > 0:
        points = [x]
        for _ in range(min(BATCH, left) - 1):
            points.append(points[-1] * factor)
        left -= len(points)
        values = _values(holds(_ONE_ROW, np.array([points]))[0]).tolist()
        i = next((j for j, v in enumerate(values) if not v <= 0.0), None)
        xs, fs = xs[-1:] + points, fs[-1:] + values
        if i is not None:
            return np.array([(xs + _NAN)[i:i + 3] + (fs + _NAN)[i:i + 3]]).T
        x = points[-1] * factor
    return np.array([xs[-1:] + _NAN * 2 + fs[-1:] + _NAN * 2]).T


def _cut_one_row(holds, known: list, rtol: float, atol: float) -> float:
    yes, no, after, fy, fn, f_after = known
    while True:
        d = no - yes
        width, tol = abs(d), atol + rtol * max(abs(yes), abs(no))
        if not width > tol:
            return yes
        start, step, fractions = yes, d, _FRACTION_LIST
        b = (after - no) / d
        slope = (f_after - fn) / b if b else math.nan
        if 0.0 < slope < INF:
            s, t, pad = fy / (fy - fn), 1.0 - fn / slope, tol / width
            lo = max(min(s, t) - pad, 0.0)
            w = min(max(s, t) + pad, 1.0) - lo
            if w < 0.5:
                start, step, fractions = yes + d * lo, d * w, _GUIDED_LIST
        points = [start + step * f for f in fractions]
        values = _values(holds(_ONE_ROW, np.array([points]))[0]).tolist()
        i = next((j for j, v in enumerate(values) if not v <= 0.0), BATCH)
        xs, fs = [yes] + points + [no, after], [fy] + values + [fn, f_after]
        yes, no, after, fy, fn, f_after = xs[i:i + 3] + fs[i:i + 3]


def _minimize_one_row(f, points: list, rtol: float, atol: float) -> tuple[float, float]:
    fx = f(_ONE_ROW, np.array([points]))[0].tolist()
    i = min(max(fx.index(min(fx)), 1), len(fx) - 2)
    ends, a = fx[i - 1:i + 2], points[i - 1]
    h, cols = (points[i + 1] - a) / (GRID - 1), _INTERIOR_LIST
    while True:
        grid = [ends[0]] + [ends[1]] * (GRID - 2) + [ends[2]]
        for c, value in zip(cols, f(_ONE_ROW, np.array([[a + h * c for c in cols]]))[0].tolist()):
            grid[c] = value
        i = grid.index(best := min(grid))
        k = min(max(i, 1), GRID - 2)
        ends = grid[k - 1:k + 2]
        if (best + max(ends) - 2.0 * ends[1] <= atol + rtol * abs(best) or math.isinf(best)
                or a + h == a):
            return best, a + i * h
        a, h, cols = a + h * (k - 1), h * (2.0 / (GRID - 1)), _NEW_LIST


def minimize(f, points: np.ndarray, rtol: float,
             atol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Least values of independent convex functions, one per row of ``points``.

    ``f(rows, x)`` evaluates the functions numbered ``rows`` at the matching
    rows of x; values may be +inf.  Each sorted row of ``points`` spans the
    interval searched.  After a first pass over them, each round lays GRID
    evenly spaced points from a row's least point's left neighbour to its
    right one (the end point and the next two at an end) and evaluates
    those not yet known: BATCH - 1 of them per row.  Convexity then puts
    the minimum within max(f_{i-1}, f_{i+1}) - f_i of the least value f_i,
    or within f_0 + f_2 - 2 f_1 of f_0 at an end.  A row stops when that is
    at most atol + rtol |f_i|, when f_i is +inf, or when its grid spacing
    is below an ulp.  Returns the least values and where they were found.
    One row runs in Python floats: no value may be NaN, as ``min`` and ``argmin`` differ there.
    """
    rows = np.arange(len(points))
    least, at = np.empty(len(points)), np.empty(len(points))
    # +inf values make inf - inf in the bound: NaN there is no certificate
    with np.errstate(invalid="ignore", over="ignore"):
        if len(points) == 1:
            least[0], at[0] = _minimize_one_row(f, points[0].tolist(), rtol, atol)
            return least, at
        fx = f(rows, points)
        near = np.minimum(np.maximum(fx.argmin(axis=1), 1), fx.shape[1] - 2)[:, None] + _TRIPLE
        ends = fx[rows[:, None], near]
        a = points[rows[:, None], near[:, :1]]
        h = (points[rows[:, None], near[:, 2:]] - a) / (GRID - 1)
        cols = _INTERIOR
        while rows.size:
            grid = np.empty((rows.size, GRID))
            grid[:, _KNOWN] = ends
            grid[:, cols] = f(rows, a + h * cols)
            r = np.arange(rows.size)[:, None]
            i = grid.argmin(axis=1)
            ends = grid[r, _NEIGHBOURS[i]]
            best = grid[r[:, 0], i]
            bound = best + np.maximum.reduce(ends, axis=1) - 2.0 * ends[:, 1]
            done = (bound <= atol + rtol * abs(best)) | np.isinf(best) | (a + h == a)[:, 0]
            if done.any():
                least[rows[done]] = best[done]
                at[rows[done]] = (a[:, 0] + i * h[:, 0])[done]
                rows, a, h, i, ends = (v[~done] for v in (rows, a, h, i, ends))
            a = a + h * _NEIGHBOURS[i, :1]
            h = h * (2.0 / (GRID - 1))
            cols = _NEW
    return least, at

