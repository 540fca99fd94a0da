"""The boundary of a monotone predicate: geometric bracketing, then bisection.

Every scaling problem in the package is this one search: the Luxemburg and
trace-modular norms, the Amemiya domain edge and its walks down and up to
the minimum, formal inverses, the detected gauge thresholds, the inverse
running weight, the exponential-moment membership walk and the regularity
walk.
``bracket`` walks geometrically until the predicate first fails;
``bisect`` narrows a (holds, fails) pair to the caller's tolerance.  Callers
keep their own tolerances and their own answer to a walk that never ends.

A ``batched`` search hands the predicate BATCH points at once, as an array,
and reads back a boolean array: the norm solves evaluate one scaling or
BATCH scalings in a single numpy pass at nearly the same cost.  A batched
walk tries the points of the one-point walk BATCH at a time and returns the
same pair; a batched bisection cuts the pair into BATCH + 1 equal parts per
round instead of two.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

Predicate = Callable[[float], bool]

BATCH = 15


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
