"""Double-exponential quadrature on the log scale, with a three-valued tail verdict.

Every integral of parametric data runs on one fixed rule: tanh-sinh
(Takahasi and Mori, 1974) in u = log(1/t) below t = 1 and in v = log t
above it.  An interval [lo, hi] of t becomes at most two intervals of the
log variable, each ending at DEPTH where it is open (lo = 0, hi = +inf), so
every node t lies in [e^-DEPTH, e^DEPTH] and stays a normal float.  The
rule at LEVEL has 407 nodes, tau = j / 64 for |j| <= 203; the level below
is its nodes of even j, so the difference of the two estimates costs no
extra sample.  Where it misses REL_TOL, one refinement is allowed: level
LEVEL + 1 adds the 406 nodes between.  After that the integral raises
NumericError with its achieved error.  Nodes are built on first use.

Beyond DEPTH (below t = e^-700, or above e^700) the integral is judged
from G(u) = f(e^-u) e^-u (f(e^v) e^v above t = 1) at DEPTH/4, DEPTH/2 and
DEPTH.  The exponents of its two halvings, a12 and a23, fit
log G = c - alpha log u - r u through the three: alpha = 2 a12 - a23 and
r DEPTH = 4 log 2 (a23 - a12), a test on the logarithmic scale in the
style of Bertrand's.  (An open part that starts deeper than DEPTH/4, where a
gauge's kink cuts it, is judged at three depths inside it; the exponents
are then per halving of u.)

- a23 <= DELTA (G does not fall over the last halving), r DEPTH < -RATE,
  or a sample that overflows to +inf: divergent, +inf.  A G that grows or
  levels off at depth (u - c, c - e^-u) can bend like a rate; it is here.
- r DEPTH > RATE: an exponential decay under way.  Finite; the model's
  tail (G(DEPTH) / r) * int_0^1 (1 - log(s) / (r DEPTH))^-alpha ds, by the
  same rule, is added.
- Otherwise r reads as 0 and the exponent a23 decides, with slack DELTA
  plus the drift |a23 - a12| carried over the log2(DEPTH) halvings left:
  finite above 1 + slack, adding the power tail DEPTH G(DEPTH) / (a23 - 1);
  divergent below 1 - slack; undecided between, which raises
  UndecidedError and never reads as finite or +inf.  An exponent test
  cannot tell 1/u from the convergent 1/(u log^2 u).

The spread of a tail (a power tail from a12 against a23; a rate tail
against G(DEPTH) over the rate of the last pair alone, plus the level
difference of its own integral) and 64 ulps of the value are part of the
achieved error; the verdict is taken row by row, in Python floats.  A
slowly varying factor such as a power of log u biases the fit, and the
spread shows that bias only in part.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import NcorliczError, NumericError, UndecidedError

DEPTH = 700.0
DELTA = 0.05
RATE = 0.2
REL_TOL = 1e-8
ABS_TOL = 1e-10
LEVEL = 6
_TAU_MAX = 203 / 64  # the last node of LEVEL: its weight is below 1e-14 of the interval
_ROUNDING = 2.0 ** -46  # 64 ulps of the value: the sums and the fitted exponents round
_LN2 = math.log(2.0)
_HALVINGS = math.log2(DEPTH)
_FINITE, _DIVERGENT, _UNDECIDED = 0, 1, 2


class Nodes(NamedTuple):
    """The nodes of the rule on one interval [lo, hi] of t, then the depths of its open ends."""

    interval: tuple[float, float]
    t: np.ndarray        # the nodes of LEVEL, then the three depths of each open end
    weights: np.ndarray  # the weights of the nodes for dt
    coarse: np.ndarray   # LEVEL - 1 on the same nodes: twice every other weight, 0 between
    depths: list         # the depths u1 < u2 < u3 = DEPTH of each open end, in the log variable


def _rule(level: int) -> tuple[np.ndarray, np.ndarray]:
    """tanh-sinh on (0, 1) at tau = j / 2^level, |tau| <= _TAU_MAX: the nodes and weights.

    s = (1 + tanh q) / 2 with q = (pi / 2) sinh tau, each side of 1/2
    computed without cancellation.
    """
    n = round(_TAU_MAX * 2 ** level)
    tau = np.arange(-n, n + 1) / 2 ** level
    q = 0.5 * math.pi * np.sinh(tau)
    e = np.exp(-2.0 * np.abs(q))
    s = np.where(q < 0, e, 1.0) / (1.0 + e)
    return s, math.pi * np.cosh(tau) * e / (1.0 + e) ** 2 / 2 ** level


@functools.cache
def _levels() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights of LEVEL, LEVEL - 1 on them (even j), and the nodes LEVEL + 1 adds (odd j).

    Built on the first quadrature, not at import.
    """
    s, w = _rule(LEVEL)
    coarse = np.where(np.arange(s.size) % 2 == s.size // 2 % 2, 2.0 * w, 0.0)
    s_fine, w_fine = _rule(LEVEL + 1)
    out = (s, w, coarse, s_fine[1::2], w_fine[1::2])
    for a in out:
        a.setflags(write=False)
    return out


def _parts(lo: float, hi: float) -> list[tuple[float, float, float, bool]]:
    """The log-scale intervals of [lo, hi]: (a, b, sign, open) with t = e^(sign y), y in [a, b]."""
    parts = []
    if lo < 1.0:
        a = -math.log(min(hi, 1.0))
        parts.append((a, DEPTH if lo == 0.0 else -math.log(lo), -1.0, lo == 0.0))
    if hi > 1.0:
        a = math.log(max(lo, 1.0))
        parts.append((a, DEPTH if math.isinf(hi) else math.log(hi), 1.0, math.isinf(hi)))
    return parts


def _mapped(lo: float, hi: float, s: np.ndarray, weights: list[np.ndarray]):
    """The rule (0, 1) -> t on each part of [lo, hi]: nodes, then each weight row times dt/ds."""
    ts, ws = [], [[] for _ in weights]
    for a, b, sign, _ in _parts(lo, hi):
        span = max(b - a, 0.0)
        t = np.exp(sign * (a + span * s))
        ts.append(t)
        for out, w in zip(ws, weights):
            out.append(span * w * t)
    return [np.concatenate(x) for x in (ts, *ws)]


def _depths(a: float) -> list[float]:
    """Where the tail of an open part [a, DEPTH] is judged: DEPTH/4, DEPTH/2 and DEPTH.

    A part that starts deeper than DEPTH/4 (a gauge's kink cut there) is
    judged inside it instead, from a quarter of the way in, with u2 the
    geometric mean of u1 and DEPTH.
    """
    u1 = DEPTH / 4 if a <= DEPTH / 4 else a + (DEPTH - a) / 4
    return [u1, math.sqrt(u1 * DEPTH), DEPTH]


def nodes(lo: float, hi: float) -> Nodes:
    """The nodes of LEVEL on [lo, hi] (0 <= lo < hi <= +inf) and its depths, read-only."""
    s, w, coarse, _, _ = _levels()
    t, weights, coarse = _mapped(lo, hi, s, [w, coarse])
    ends = [(sign, _depths(a)) for a, _, sign, is_open in _parts(lo, hi) if is_open]
    t = np.concatenate([t, *(np.exp(sign * np.array(u)) for sign, u in ends)])
    for a in (t, weights, coarse):
        a.setflags(write=False)
    return Nodes((lo, hi), t, weights, coarse, [u for _, u in ends])


def finer(node: Nodes) -> tuple[np.ndarray, np.ndarray]:
    """The nodes LEVEL + 1 adds on the interval of ``node``, and their weights."""
    _, _, _, s, w = _levels()
    return tuple(_mapped(*node.interval, s, [w]))


def sample(fn, t: np.ndarray) -> np.ndarray:
    """``fn(t)``, where an arithmetic failure of fn is NumericError, never a value.

    The package's own errors pass unchanged.  A sample that overflows to
    +inf is a value: the verdict reads it.
    """
    try:
        return fn(t)
    except NcorliczError:
        raise
    except (ValueError, ArithmeticError) as exc:
        raise NumericError(f"quadrature failed: {exc}") from exc


def _rate_tail_integral(alpha: float, z: float) -> tuple[float, float]:
    """int_0^1 (1 - log(s) / z)^-alpha ds at LEVEL, and its level difference."""
    s, w, coarse, _, _ = _levels()
    with np.errstate(over="ignore"):
        g = (1.0 - np.log(s) / z) ** -alpha
    fine = float(g @ w)
    return fine, abs(fine - float(g @ coarse))


def _exponent(a: float, b: float) -> float:
    """log2(a / b) for positive floats, also where a / b leaves the floats."""
    ratio = a / b
    return math.log2(ratio) if 0.0 < ratio < math.inf else math.log2(a) - math.log2(b)


def _tail(g: list[float], u: list[float], head: float):
    """The verdict from G at the depths u (DEPTH/4, DEPTH/2, DEPTH), beyond an integral ``head``.

    Returns (state, tail, spread, alpha, rate).  a12 and a23 are the
    exponents of the two pairs per halving of u, whatever their span.  A
    rate tail below 1e-17 of the head (twice G(DEPTH) / r bounds it when
    alpha >= 0 or r DEPTH > 2|alpha|) is left out, and its bound counts as
    spread.
    """
    g1, g2, g3 = g
    u1, u2, u3 = u
    if math.isinf(g1) or math.isinf(g2) or math.isinf(g3):
        return _DIVERGENT, 0.0, 0.0, math.nan, math.nan
    if g3 == 0.0:
        return _FINITE, 0.0, 0.0, math.nan, math.nan
    if g1 == 0.0 or g2 == 0.0:
        return _UNDECIDED, 0.0, 0.0, math.nan, math.nan
    span = math.log2(u2 / u1)  # halvings per pair: 1 at DEPTH/4, DEPTH/2, DEPTH
    a12, a23 = _exponent(g1, g2) / span, _exponent(g2, g3) / span
    rate = _LN2 * span * (a23 - a12) / ((u3 - u2) - (u2 - u1))
    alpha, z = a12 - rate * (u2 - u1) / (_LN2 * span), rate * u3
    if a23 <= DELTA or z < -RATE:  # G does not fall over the last halving, or grows
        return _DIVERGENT, 0.0, 0.0, alpha, rate
    if z > RATE:
        bound = 2.0 * g3 / rate if alpha >= 0.0 or z > -2.0 * alpha else math.inf
        if bound <= 1e-17 * head:
            return _FINITE, 0.0, bound, alpha, rate
        j, j_err = _rate_tail_integral(alpha, z)
        tail = g3 / rate * j
        last_pair = g3 * (u3 - u2) / (_LN2 * span * a23)  # G(DEPTH) / the rate of the last pair
        return _FINITE, tail, abs(tail - last_pair) + g3 / rate * j_err, alpha, rate
    slack = DELTA + _HALVINGS * abs(a23 - a12) / span
    if a23 < 1.0 - slack:
        return _DIVERGENT, 0.0, 0.0, alpha, rate
    if a23 > 1.0 + slack:
        tail = DEPTH * g3 / (a23 - 1.0)
        return _FINITE, tail, abs(tail - DEPTH * g3 / (a12 - 1.0)), alpha, rate
    return _UNDECIDED, 0.0, 0.0, alpha, rate


def integrals(f: np.ndarray, node: Nodes, refine) -> tuple[np.ndarray, np.ndarray]:
    """The integral of each row of samples over the interval of ``node``, and its achieved error.

    An integral that diverges is +inf, with error 0.  ``f`` holds one
    integrand per row at ``node.t``, and ``refine(rows)`` the rows numbered
    ``rows`` at the nodes ``finer(node)``; it is called only for rows whose
    two levels disagree.  The achieved error is the difference of the last
    two levels, the spread of the tails and 64 ulps of the value.  Raises,
    for the first such row, NumericError at a NaN sample or where the
    refined rule still misses REL_TOL, and UndecidedError where a tail is
    undecided.
    """
    n = node.weights.size
    head = f[:, :n]
    with np.errstate(invalid="ignore"):
        value = head @ node.weights
        err = np.abs(value - head @ node.coarse)
    # samples are >= 0: a NaN sum is a NaN sample, an infinite one an infinite sample
    if math.isnan(np.add.reduce(value) + np.add.reduce(f[:, n:], axis=None)):
        raise NumericError("the integrand is NaN at a quadrature node")
    value, err = value.tolist(), err.tolist()
    depths = (f[:, n:] * node.t[n:]).reshape(len(value), -1, 3).tolist()
    out, achieved = [], []
    for i, (v, e, ends) in enumerate(zip(value, err, depths)):
        verdicts = [_tail(g, u, v) for g, u in zip(ends, node.depths)] if not math.isinf(v) else []
        states = [x[0] for x in verdicts]
        if math.isinf(v) or _DIVERGENT in states:
            out.append(math.inf)
            achieved.append(0.0)
            continue
        if _UNDECIDED in states:
            _, _, _, alpha, rate = verdicts[states.index(_UNDECIDED)]
            raise UndecidedError(
                f"tail undecided: G(u) ~ u^-alpha e^(-r u) with alpha = {alpha:.6g}, "
                f"r = {rate:.6g}", alpha=alpha, rate=rate)
        v += sum(x[1] for x in verdicts)
        spread = sum(x[2] for x in verdicts) + _ROUNDING * abs(v)
        e += spread
        if not e <= max(ABS_TOL, REL_TOL * abs(v)):
            f_fine = refine(np.array([i]))
            if np.isnan(f_fine).any():
                raise NumericError("the integrand is NaN at a quadrature node")
            level = value[i]
            fine = 0.5 * level + float(f_fine[0] @ finer(node)[1])
            if math.isinf(fine):
                out.append(math.inf)
                achieved.append(0.0)
                continue
            v += fine - level
            e = abs(fine - level) + spread
            if not e <= max(ABS_TOL, REL_TOL * abs(v)):
                raise NumericError(f"quadrature did not converge (error estimate {e:.3g})",
                                   achieved=e)
        out.append(v)
        achieved.append(e)
    return np.array(out), np.array(achieved)
