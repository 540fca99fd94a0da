"""The two searches of the package: a monotone boundary and a convex minimum.

Every scaling problem in the package is the boundary of a monotone
predicate: the Luxemburg and trace-modular norms, formal inverses, the
detected gauge thresholds, the inverse running weight, the
exponential-moment membership walk and the regularity walk.  There is one
walk and one cut.  ``bracket_rows`` walks geometrically until the predicate
first fails; ``bisect_rows`` cuts a (holds, fails) pair into BATCH + 1
equal parts a round until it is within the caller's tolerance.  Callers keep
their own tolerances and their own answer to a walk that never ends.

Both solve independent problems, one per row: the predicate
``holds(rows, points)`` gets BATCH points of every unfinished row as one
array, so the norm solves of a corpus share each numpy pass, and a row's
answer is bit for bit its one-row call's.  A search of one point, such as a
formal inverse or a detected threshold, is the one-row call: one predicate
call a round on one row of that round's points.

``minimize`` finds and certifies the least values of many convex functions
at once: the Amemiya norm and the values of a numeric conjugate.
"""

from __future__ import annotations

import math

import numpy as np

BATCH = 15
GRID = BATCH + 2  # a minimize round's grid: BATCH interior points and both ends
_TRIPLE = np.array([-1, 0, 1])
_NEIGHBOURS = np.clip(np.arange(GRID), 1, GRID - 2)[:, None] + _TRIPLE
_KNOWN = np.array([0, GRID // 2, GRID - 1])  # a kept least point and its neighbours
_INTERIOR = np.arange(1, GRID - 1)
_NEW = np.setdiff1d(_INTERIOR, _KNOWN)
# A bisection round's points, as fractions of the pair from ``yes``: (no - yes) * j/16
# rounds as j * ((no - yes) / 16) does where that quotient is exact, and still moves
# where a pair a few subnormals wide makes the quotient 0.
_FRACTIONS = np.arange(1, BATCH + 1) / (BATCH + 1)
_FRACTION_LIST = _FRACTIONS.tolist()
_ONE_ROW = np.arange(1)


def bracket_rows(holds, x: np.ndarray, factor: float,
                 limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Geometric walks of independent problems, one per entry of x, until each first fails.

    ``holds(rows, points)`` answers, for the problems numbered ``rows``,
    whether each holds at the matching row of ``points``.  Each round gives
    every problem still walking the next BATCH points of its walk
    x * factor**i, i = 0, ..., limit, each point the previous one times
    ``factor``.  Returns per problem the last point that held (NaN when x
    itself failed) and the first point that failed (NaN when every tried
    point held).
    """
    x = np.array(x, dtype=float)
    if x.size == 1:
        last, first = _bracket_one_row(holds, float(x[0]), factor, limit)
        return np.array([last]), np.array([first])
    last, first = np.full(x.size, np.nan), np.full(x.size, np.nan)
    rows, held = np.arange(x.size), last.copy()
    left = limit + 1
    while left > 0 and rows.size:
        points = np.empty((rows.size, min(BATCH, left)))
        points[:, 0], points[:, 1:] = x, factor
        np.multiply.accumulate(points, axis=1, out=points)
        left -= points.shape[1]
        fails = ~holds(rows, points)
        i = fails.argmax(axis=1)
        r = np.arange(rows.size)
        found, before = points[r, i], np.where(i > 0, points[r, i - 1], held)
        hit = fails.any(axis=1)
        last[rows[hit]], first[rows[hit]] = before[hit], found[hit]
        rows, held = rows[~hit], points[~hit, -1]
        x = held * factor
    last[rows] = held
    return last, first


def bisect_rows(holds, yes: np.ndarray, no: np.ndarray, rtol: float,
                atol: float = 0.0) -> np.ndarray:
    """The boundaries of independent problems, one per entry of ``yes``.

    Each problem's pair (``yes`` holds, ``no`` fails) is cut until
    |no - yes| <= atol + rtol * max(|yes|, |no|).  A round gives
    ``holds(rows, points)`` BATCH evenly spaced interior points of each
    unfinished pair; the new pair is the first failing point and the point
    before it.  A finished problem is not evaluated again.  Returns the
    ``yes`` ends.
    """
    out = np.array(yes, dtype=float)
    if out.size == 1:
        return np.array([_bisect_one_row(holds, float(out[0]), float(no[0]), rtol, atol)])
    rows, y, n = np.arange(out.size), out.copy(), np.array(no, dtype=float)
    while rows.size:
        going = np.abs(n - y) > atol + rtol * np.maximum(np.abs(y), np.abs(n))
        if not np.logical_and.reduce(going):
            out[rows] = y
            rows, y, n = rows[going], y[going], n[going]
            continue
        # each row's grid: yes, its BATCH interior points, no
        grid = np.empty((rows.size, BATCH + 2))
        grid[:, 0], grid[:, -1] = y, n
        np.add(y[:, None], (n - y)[:, None] * _FRACTIONS, out=grid[:, 1:-1])
        fails = np.ones((rows.size, BATCH + 1), dtype=bool)
        np.logical_not(holds(rows, grid[:, 1:-1]), out=fails[:, :-1])
        # the first failing point, counted from yes; BATCH + 1 (no) when none failed
        at = fails.argmax(axis=1) + np.arange(0, grid.size, BATCH + 2)
        y, n = grid.take(at), grid.take(at + 1)
    return out


# One problem alone: the same points and pairs as its row in a many-row
# call, kept in Python floats.  A numpy operation on a one-element array
# costs as much as on a hundred, and the rows bookkeeping takes about twenty
# of them per round, more than a one-row solve spends in its predicate.
# A round is one call of ``holds`` on the one row of its points.

def _bracket_one_row(holds, x: float, factor: float, limit: int) -> tuple[float, float]:
    last, left = math.nan, limit + 1
    while left > 0:
        points = [x]
        for _ in range(min(BATCH, left) - 1):
            points.append(points[-1] * factor)
        left -= len(points)
        fails = ~holds(_ONE_ROW, np.array([points]))[0]
        i = int(fails.argmax())
        if fails[i]:
            return (points[i - 1] if i else last), points[i]
        last = points[-1]
        x = last * factor
    return last, math.nan


def _bisect_one_row(holds, yes: float, no: float, rtol: float, atol: float) -> float:
    while abs(no - yes) > atol + rtol * max(abs(yes), abs(no)):
        gap = no - yes
        points = [yes + gap * f for f in _FRACTION_LIST]
        fails = ~holds(_ONE_ROW, np.array([points]))[0]
        i = int(fails.argmax())
        if fails[i]:
            yes, no = (points[i - 1] if i else yes), points[i]
        else:
            yes = points[-1]
    return yes


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
    """
    rows = np.arange(len(points))
    least, at = np.empty(len(points)), np.empty(len(points))
    # +inf values make inf - inf in the bound: NaN there is no certificate
    with np.errstate(invalid="ignore", over="ignore"):
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
