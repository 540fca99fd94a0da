"""The two searches of the package: a monotone boundary and a convex minimum.

Every scaling problem in the package is the boundary of a monotone
predicate: the Luxemburg and trace-modular norms, formal inverses, the
detected gauge thresholds, the inverse running weight, the
exponential-moment membership walk and the regularity walk.
``bracket`` walks geometrically until the predicate first fails;
``bisect`` narrows a (holds, fails) pair to the caller's tolerance.  Callers
keep their own tolerances and their own answer to a walk that never ends.

A ``batched`` search hands the predicate BATCH points at once, as an array,
and reads back a boolean array: the norm solves evaluate one scaling or
BATCH scalings in a single numpy pass at nearly the same cost.  A batched
walk tries the points of the one-point walk BATCH at a time and returns the
same pair; a batched bisection cuts the pair into BATCH + 1 equal parts per
round instead of two.

``minimize`` finds and certifies the least values of many convex functions
at once: the Amemiya norm and the values of a numeric conjugate.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

Predicate = Callable[[float], bool]

BATCH = 15
GRID = BATCH + 2  # a minimize round's grid: BATCH interior points and both ends
_TRIPLE = np.array([-1, 0, 1])
_NEIGHBOURS = np.clip(np.arange(GRID), 1, GRID - 2)[:, None] + _TRIPLE
_KNOWN = np.array([0, GRID // 2, GRID - 1])  # a kept least point and its neighbours
_INTERIOR = np.arange(1, GRID - 1)
_NEW = np.setdiff1d(_INTERIOR, _KNOWN)


def _first_failure(holds, points: list[float], batched: bool) -> Optional[int]:
    """Index of the first point where ``holds`` fails, or None."""
    if not batched:
        return None if holds(points[0]) else 0
    fails = ~np.asarray(holds(np.array(points)), dtype=bool)
    return int(np.argmax(fails)) if fails.any() else None


def bracket(holds: Predicate, x: float, factor: float, limit: int,
            *, batched: bool = False) -> Optional[tuple[Optional[float], float]]:
    """Multiply x by ``factor`` while ``holds(x)``.

    ``holds`` is tried at x * factor**i for i = 0, ..., limit, in order; a
    batched predicate gets the next BATCH of those points per call.  Returns
    (the last point that held, or None when x itself failed; the first point
    that failed), or None when every tried point held.
    """
    last = None
    left = limit + 1
    while left > 0:
        points = []
        for _ in range(min(BATCH if batched else 1, left)):
            points.append(x)
            x *= factor
        left -= len(points)
        i = _first_failure(holds, points, batched)
        if i is not None:
            return (points[i - 1] if i else last), points[i]
        last = points[-1]
    return None


def bisect(holds: Predicate, yes: float, no: float, rtol: float,
           atol: float = 0.0, *, batched: bool = False) -> float:
    """Boundary of ``holds`` between ``yes`` (holds) and ``no`` (fails).

    Narrows the pair, keeping ``holds(yes)`` true and ``holds(no)`` false,
    until |no - yes| <= atol + rtol * max(|yes|, |no|); returns ``yes``.
    One-point calls halve the pair; a batched predicate gets BATCH evenly
    spaced interior points, and the new pair is the first failing point and
    the point before it.
    """
    while abs(no - yes) > atol + rtol * max(abs(yes), abs(no)):
        if batched:
            step = (no - yes) / (BATCH + 1)
            points = [yes + j * step for j in range(1, BATCH + 1)]
        else:
            points = [0.5 * (yes + no)]
        i = _first_failure(holds, points, batched)
        if i is None:
            yes = points[-1]
        else:
            yes, no = (points[i - 1] if i else yes), points[i]
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
