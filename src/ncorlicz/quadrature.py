"""Adaptive quadrature with explicit divergence detection.

Integrands here are products of a gauge applied to a decreasing function and
a weight density; the only singular point is the left endpoint 0.  Divergence
is an answer, not a failure: integrals that blow up report +inf via a dyadic
head test rather than erroring out.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate

from .errors import NcorliczError, NumericError

DIVERGENCE_CAP = 1e12
ABS_TOL = 1e-10
REL_TOL = 1e-8

# Dyadic head terms f(10^-k) * 10^-k must decay at least this fast, eventually,
# for the head integral to be declared finite.
_HEAD_DECAY = 0.995
_HEAD_DEPTH = 280


def head_diverges(f, hi: float = 1e-2) -> bool:
    """Decide whether the integral of ``f`` over (0, hi] diverges at 0.

    Samples g_k = f(10^-k) * 10^-k for decades down to 1e-280: overflow at any
    depth, or a tail that stops decaying geometrically, signals divergence.
    Sum-comparable with the true integral since f is monotone near 0.
    """
    start = max(2, int(-math.log10(hi)) + 1)
    terms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(start, _HEAD_DEPTH):
            t = 10.0 ** (-k)
            val = float(f(t))
            if math.isnan(val) or math.isinf(val):
                return True
            terms.append(val * t)
    terms = np.array(terms)
    if terms.size < 3 or np.all(terms == 0.0):
        return False
    # deepest non-negligible stretch must be decaying
    tiny = 1e-280
    for i in range(len(terms) - 1, 0, -1):
        if terms[i] > tiny:
            if terms[i] > _HEAD_DECAY * terms[i - 1]:
                return True
            return False
    return False


def integrate_sentinel(f, a: float, b: float, *, abs_tol: float = ABS_TOL,
                       rel_tol: float = REL_TOL, cap: float = DIVERGENCE_CAP,
                       singular_at_zero: bool = False) -> float:
    """Integrate f over [a, b] (b may be inf); returns +inf on divergence.

    Raises NumericError carrying the achieved error estimate when the
    quadrature neither converges nor looks divergent, and NumericError when
    it fails outright.  An error of the package raised by f propagates
    unchanged.
    """
    if b <= a:
        return 0.0
    if singular_at_zero and a == 0.0 and head_diverges(f, hi=min(b, 1e-2)):
        return math.inf

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if math.isinf(b):
                    res1, err1 = integrate.quad(f, a, a + 1.0, limit=200,
                                                epsabs=abs_tol, epsrel=rel_tol)
                    res2, err2 = integrate.quad(f, a + 1.0, math.inf, limit=200,
                                                epsabs=abs_tol, epsrel=rel_tol)
                    result, err = res1 + res2, err1 + err2
                else:
                    result, err = integrate.quad(f, a, b, limit=200,
                                                 epsabs=abs_tol, epsrel=rel_tol)
            except NcorliczError:
                raise  # the integrand's own error (DomainError is also a ValueError)
            except (ValueError, ArithmeticError) as exc:
                # scipy rejects its input with ValueError; numpy and math fail with
                # ArithmeticError: a failure, never a divergence
                raise NumericError(f"quadrature failed: {exc}") from exc

    if math.isnan(result) or result > cap:
        return math.inf
    if err > 100.0 * max(abs_tol, rel_tol * abs(result), 1e-300):
        if singular_at_zero and a == 0.0 and head_diverges(f, hi=min(b, 1e-2)):
            return math.inf
        raise NumericError(
            f"quadrature did not converge (error estimate {err:.3g})", achieved=err)
    return float(result)
