"""The boundary of a monotone predicate: geometric bracketing, then bisection.

Every scaling problem in the package is this one search: the Luxemburg and
trace-modular norms, the Amemiya domain edge, formal inverses, the detected
gauge thresholds, the inverse running weight and the regularity walk.
``bracket`` walks geometrically until the predicate first fails;
``bisect`` narrows a (holds, fails) pair to the caller's tolerance.  Callers
keep their own tolerances and their own answer to a walk that never ends.
"""

from __future__ import annotations

from typing import Callable, Optional

Predicate = Callable[[float], bool]


def bracket(holds: Predicate, x: float, factor: float,
            limit: int) -> Optional[tuple[Optional[float], float]]:
    """Multiply x by ``factor`` while ``holds(x)``.

    ``holds`` is tried at x * factor**i for i = 0, ..., limit.  Returns
    (the last point that held, or None when x itself failed; the first point
    that failed), or None when every tried point held.
    """
    last = None
    for _ in range(limit + 1):
        if not holds(x):
            return last, x
        last, x = x, x * factor
    return None


def bisect(holds: Predicate, yes: float, no: float, rtol: float,
           atol: float = 0.0) -> float:
    """Boundary of ``holds`` between ``yes`` (holds) and ``no`` (fails).

    Halves the pair, keeping ``holds(yes)`` true and ``holds(no)`` false,
    until |no - yes| <= atol + rtol * max(|yes|, |no|); returns ``yes``.
    """
    while abs(no - yes) > atol + rtol * max(abs(yes), abs(no)):
        mid = 0.5 * (yes + no)
        if holds(mid):
            yes = mid
        else:
            no = mid
    return yes
