"""Convex gauges on [0, inf): evaluation, conjugation, inversion, composition.

A gauge phi here is a convex nondecreasing function with phi(0) = 0 and
phi(u) -> inf, allowed to take the value +inf beyond a finite cap.  Two
thresholds drive all branch logic: ``a_phi`` (largest zero) and ``b_phi``
(supremum of finiteness).  Values are IEEE doubles with ``math.inf`` as the
extended value; +inf absorbs under addition and positive scaling.

All gauge objects are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvalidOrliczError, NumericError
from .solve import bisect_rows, bracket_rows, minimize

INF = math.inf

# Tolerance ladder: closed-form paths exact, bisection 1e-10 relative,
# conjugate/quadrature paths 1e-8 (each numeric layer loses ~2 digits).
BISECT_RTOL = 1e-10
# Threshold detection of custom gauges probes (0, DETECT_TOP] and resolves each
# threshold to within two ulps; the zero walk starts at DETECT_TOL.
DETECT_TOP = 1e30
DETECT_TOL = 1e-12
# Numeric conjugates: the doubling walk's last octave and the certified tolerance
CONJUGATE_OCTAVES = 40
CONJUGATE_RTOL = 1e-13
CONJUGATE_ATOL = 1e-20  # ends searches toward v = 0, far below a modular's resolution
# Doubling probes sample this many decades around 1, 24 points each
DELTA2_DECADES = 6


@dataclass(frozen=True, eq=False)
class OrliczFunction:
    """A convex gauge with thresholds, conjugate and formal inverse hooks.

    ``delta2_all_t`` is three-valued: True / False are authoritative builtin
    verdicts on whether phi(2u) <= K phi(u) holds for every u > 0; None means
    unknown (custom or composed gauges without a derivable verdict).
    """

    kind: str
    params: tuple = ()
    a_phi: float = 0.0
    b_phi: float = INF
    value_at_b: float = INF
    delta2_all_t: Optional[bool] = None
    delta2_constant: Optional[float] = None
    _vector: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)
    _conjugate_factory: Optional[Callable[[], "OrliczFunction"]] = field(
        default=None, repr=False)
    _inverse_closed: Optional[Callable[[float], float]] = field(
        default=None, repr=False)

    def __call__(self, u: float) -> float:
        return eval_gauge(self, u)

    def eval_many(self, u: np.ndarray) -> np.ndarray:
        """phi at each entry of u, which must be nonnegative (unchecked).

        The one cap rule of the package: beyond a finite b_phi the value is
        +inf, at it ``value_at_b``, and below it the gauge's formula, which
        is only ever called at min(u, b_phi).  NaN stays NaN.  Overflow to
        +inf is a value, and a caller that makes it on purpose silences
        numpy's warning around its own loop (``np.errstate``), once per
        solve rather than once per call.
        """
        u = np.asarray(u, dtype=float)
        b = self.b_phi
        if b == INF:
            return np.asarray(self._vector(u), dtype=float)
        beyond = np.where(u == b, self.value_at_b, u * INF)  # +inf past b > 0, NaN at NaN
        return np.where(u < b, self._vector(np.minimum(u, b)), beyond)

    def describe(self) -> str:
        ps = ", ".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.kind}({ps})" if ps else self.kind


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------

def scaled_power(coeff: float, p: float, kind: str = "scaled_power") -> OrliczFunction:
    """phi(t) = coeff * t**p with p >= 1, coeff > 0."""
    if p < 1 or coeff <= 0:
        raise InvalidOrliczError(f"scaled power needs p >= 1, coeff > 0 (got {p}, {coeff})")

    def vec(u):
        return coeff * np.power(u, p)

    if p > 1:
        q = p / (p - 1.0)
        dual_coeff = (p - 1.0) * p ** (-q) * coeff ** (1.0 - q)
        conj = lambda: scaled_power(dual_coeff, q)
    else:
        conj = lambda: _capped_linear(0.0, coeff)

    return OrliczFunction(
        kind=kind,
        params=(("coeff", coeff), ("p", p)),
        a_phi=0.0, b_phi=INF, value_at_b=INF,
        delta2_all_t=True, delta2_constant=2.0 ** p,
        _vector=vec,
        _conjugate_factory=conj,
        _inverse_closed=lambda t: (t / coeff) ** (1.0 / p),
    )


def power(p: float) -> OrliczFunction:
    """phi(t) = t**p, p >= 1."""
    return scaled_power(1.0, p, kind="power")


def power_over_p(p: float) -> OrliczFunction:
    """phi(t) = t**p / p, the self-dual-normalized power family."""
    return scaled_power(1.0 / p, p, kind="power_over_p")


def cosh_minus_one() -> OrliczFunction:
    """phi(t) = cosh t - 1; the gauge of exponential-moment regularity."""

    # Each form avoids the cancellation of cosh u - 1 and its kin near 0,
    # where they read 0 for u below about 1e-8, and the hypot avoids the
    # overflow of u * u above about 1.3e154.
    def vec(u):
        return 2.0 * np.sinh(0.5 * u) ** 2

    def conj_vec(u):
        # sup_v(uv - cosh v + 1) attained at v = arcsinh u:
        # u arcsinh u - (sqrt(1 + u^2) - 1); the ratio tends to 1 at u = +inf
        return u * (np.arcsinh(u) - np.divide(u, np.hypot(1.0, u) + 1.0, out=np.ones_like(u),
                                              where=np.isfinite(u)))

    def conj():
        return OrliczFunction(
            kind="cosh_minus_one_conjugate",
            a_phi=0.0, b_phi=INF, value_at_b=INF,
            delta2_all_t=True, delta2_constant=4.0,
            _vector=conj_vec,
            _conjugate_factory=cosh_minus_one,
            _inverse_closed=None,
        )

    return OrliczFunction(
        kind="cosh_minus_one",
        a_phi=0.0, b_phi=INF, value_at_b=INF,
        delta2_all_t=False, delta2_constant=None,
        _vector=vec,
        _conjugate_factory=conj,
        _inverse_closed=lambda t: 2.0 * math.asinh(math.sqrt(0.5 * t)),
    )


def exp_minus_one() -> OrliczFunction:
    """phi(t) = e**t - 1."""

    def vec(u):
        return np.expm1(u)

    def conj_vec(u):
        u = np.asarray(u, dtype=float)
        out = np.where(u <= 1.0, 0.0, u * np.log(np.maximum(u, 1.0)) - u + 1.0)
        return np.where(np.isinf(u), np.inf, out)

    def conj():
        return OrliczFunction(
            kind="exp_minus_one_conjugate",
            a_phi=1.0, b_phi=INF, value_at_b=INF,
            delta2_all_t=False, delta2_constant=None,
            _vector=conj_vec,
            _conjugate_factory=exp_minus_one,
            _inverse_closed=None,
        )

    return OrliczFunction(
        kind="exp_minus_one",
        a_phi=0.0, b_phi=INF, value_at_b=INF,
        delta2_all_t=False, delta2_constant=None,
        _vector=vec,
        _conjugate_factory=conj,
        _inverse_closed=lambda t: math.log1p(t),
    )


def t_log1p() -> OrliczFunction:
    """phi(t) = t * log(1 + t); grows just faster than linear, Delta2 with K = 4."""

    def vec(u):
        return u * np.log1p(u)

    return OrliczFunction(
        kind="t_log1p",
        a_phi=0.0, b_phi=INF, value_at_b=INF,
        delta2_all_t=True, delta2_constant=4.0,
        _vector=vec,
        _conjugate_factory=None,  # numeric
        _inverse_closed=None,
    )


def _zero_then_linear(a: float, slope: float, kind: str = "zero_then_linear") -> OrliczFunction:
    if a <= 0 or slope <= 0:
        raise InvalidOrliczError(f"zero_then_linear needs a > 0, slope > 0 (got {a}, {slope})")

    def vec(u):
        return slope * np.maximum(0.0, u - a)

    return OrliczFunction(
        kind=kind,
        params=(("a", a), ("slope", slope)),
        a_phi=a, b_phi=INF, value_at_b=INF,
        delta2_all_t=False, delta2_constant=None,
        _vector=vec,
        _conjugate_factory=lambda: _capped_linear(a, slope),
        _inverse_closed=lambda t: a + t / slope,
    )


def zero_then_linear(a: float) -> OrliczFunction:
    """phi = 0 on [0, a], then t - a; the canonical gauge with a_phi > 0."""
    return _zero_then_linear(a, 1.0)


def _capped_linear(slope: float, cap: float, kind: str = "capped_linear") -> OrliczFunction:
    """phi(t) = slope * t on [0, cap], +inf beyond; slope 0 gives the flat/indicator gauge."""
    if cap <= 0 or slope < 0:
        raise InvalidOrliczError(f"capped_linear needs cap > 0, slope >= 0 (got {slope}, {cap})")

    def vec(u):
        return slope * u

    if slope > 0:
        inv = lambda t: min(t / slope, cap)
        conj = lambda: _zero_then_linear(slope, cap)
        a = 0.0
    else:
        inv = lambda t: cap
        conj = lambda: scaled_power(cap, 1.0)
        a = cap

    return OrliczFunction(
        kind=kind,
        params=(("slope", slope), ("cap", cap)),
        a_phi=a, b_phi=cap, value_at_b=slope * cap,
        delta2_all_t=False, delta2_constant=None,
        _vector=vec,
        _conjugate_factory=conj,
        _inverse_closed=inv,
    )


def linear_until_cap(b: float) -> OrliczFunction:
    """phi(t) = t on [0, b], +inf beyond; norms built on it are sup-norm-like."""
    return _capped_linear(1.0, b, kind="linear_until_cap")


def custom(evaluate: Callable[[float], float], *, name: str = "custom",
           a_phi: Optional[float] = None, b_phi: Optional[float] = None,
           delta2_all_t: Optional[bool] = None) -> OrliczFunction:
    """Wrap an arbitrary scalar gauge; thresholds are detected when omitted.

    The callable must define a convex nondecreasing function with
    evaluate(0) = 0.  Delta2 stays unknown unless the caller asserts it.
    """
    vec = np.vectorize(lambda u: float(evaluate(float(u))), otypes=[float])
    if b_phi is None:
        b_phi = _detect_finiteness_cap(vec)
    if a_phi is None:
        a_phi = _detect_largest_zero(vec, b_phi)
    vb = float(evaluate(b_phi)) if b_phi < INF else INF
    return OrliczFunction(
        kind=name, a_phi=a_phi, b_phi=b_phi, value_at_b=vb,
        delta2_all_t=delta2_all_t, delta2_constant=None,
        _vector=vec, _conjugate_factory=None, _inverse_closed=None,
    )


def _detect_finiteness_cap(vec) -> float:
    """b_phi of the vectorized gauge ``vec``, to within two ulps; NaN counts as finite."""

    def infinite(rows, u):
        return np.isinf(vec(u))

    # halve from 1 down to 2**-40 < 1e-12 looking for a finite value
    first_finite = bracket_rows(infinite, np.array([1.0]), 0.5, 40)[1]
    if math.isnan(first_finite[0]):
        raise InvalidOrliczError("gauge is infinite on all of (0, inf)")
    if not np.isinf(vec(DETECT_TOP)):
        return INF
    return float(bisect_rows(lambda rows, u: ~infinite(rows, u), first_finite,
                             np.array([DETECT_TOP]), rtol=2.0 ** -52, atol=math.ulp(0.0))[0])


def _detect_largest_zero(vec, b_phi: float) -> float:
    """a_phi of the vectorized gauge ``vec``, to within two ulps; 0 below the walk's start.

    The walk doubles from min(DETECT_TOL, b_phi / 2) up to b_phi, so a zero
    below that start reads as 0, as the float underflow of t^p near 0 does.
    Starting lower would report such an underflow point as a_phi.
    """
    hi = min(b_phi, DETECT_TOP)

    def zero(rows, u):
        return vec(np.minimum(u, hi)) == 0.0

    # double from below 1e-12 until the walk reaches hi
    u = min(DETECT_TOL, hi / 2)
    last, first_positive = bracket_rows(zero, np.array([u]), 2.0, math.ceil(math.log2(hi / u)))
    if math.isnan(first_positive[0]):
        raise InvalidOrliczError("gauge is identically zero on (0, inf)")
    if math.isnan(last[0]):
        return 0.0
    return float(bisect_rows(zero, last, np.minimum(first_positive, hi),
                             rtol=2.0 ** -52, atol=math.ulp(0.0))[0])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def eval_gauge(phi: OrliczFunction, u: float) -> float:
    """phi(u) for one u >= 0: the one-element case of ``OrliczFunction.eval_many``."""
    if u < 0:
        raise DomainError(f"gauge argument must be nonnegative, got {u}")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(phi.eval_many(np.array([u]))[0])


def conjugate(phi: OrliczFunction) -> OrliczFunction:
    """Legendre conjugate phi*(u) = sup_{v>0} (uv - phi(v)); closed form when known."""
    if phi._conjugate_factory is not None:
        return phi._conjugate_factory()
    return _numeric_conjugate(phi)


def _sup_slope_at_zero(phi: OrliczFunction) -> float:
    eps = 1e-9
    s1 = eval_gauge(phi, eps) / eps
    s2 = eval_gauge(phi, eps / 4) / (eps / 4)
    if s2 <= s1 * 0.999:  # still shrinking: slope tends to 0
        return 0.0
    return s2


def _sup_slope_at_infinity(phi: OrliczFunction) -> float:
    if phi.b_phi < INF:
        return INF
    v = 1e12
    s1 = eval_gauge(phi, v) / v
    s0 = eval_gauge(phi, v / 4) / (v / 4)
    if math.isinf(s1) or s1 > s0 * (1 + 1e-9):  # still growing at the far end
        return INF
    return s1


def _conjugate_values(phi: OrliczFunction, u: np.ndarray) -> np.ndarray:
    """sup_{v in [0, b_phi]} (uv - phi(v)) for each u, as rows of one search.

    Each row starts from v = 0, 2^0, ..., 2^40, scaled to end at a finite
    b_phi; a maximum still at 2^40 under an infinite b_phi is +inf.
    """
    u = np.asarray(u, dtype=float)
    out = np.where(u > 0, INF, u * 0.0)  # 0 at u = 0, NaN stays NaN
    live = np.isfinite(u) & (u > 0)
    slopes = u[live]
    top = phi.b_phi if phi.b_phi < INF else 2.0 ** CONJUGATE_OCTAVES
    walk = np.concatenate([[0.0], top * 0.5 ** np.arange(CONJUGATE_OCTAVES, -1, -1)])

    def objective(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
        return phi.eval_many(v) - slopes[rows, None] * v

    least, at = minimize(objective, np.broadcast_to(walk, (slopes.size, walk.size)),
                         CONJUGATE_RTOL, CONJUGATE_ATOL)
    out[live] = np.where((at == top) & (phi.b_phi == INF), INF, np.maximum(0.0, -least))
    return out


def _numeric_conjugate(phi: OrliczFunction) -> OrliczFunction:
    a_star = _sup_slope_at_zero(phi)
    b_star = _sup_slope_at_infinity(phi)
    vb = float(_conjugate_values(phi, np.array([b_star]))[0]) if b_star < INF else INF
    return OrliczFunction(
        kind=f"conjugate({phi.kind})",
        a_phi=a_star, b_phi=b_star, value_at_b=vb,
        delta2_all_t=False if a_star > 0 else None,
        delta2_constant=None,
        _vector=lambda u: _conjugate_values(phi, u),
        _conjugate_factory=None,
        _inverse_closed=None,
    )


def formal_inverse(phi: OrliczFunction, t: float) -> float:
    """sup{s : phi(s) <= t}; equals a_phi at t = 0 and b_phi for t at or beyond the cap value.

    Without a closed form, a doubling walk and a bisection to relative
    BISECT_RTOL (and one subnormal absolute, so a boundary near 0 still ends).
    """
    if t < 0:
        raise DomainError(f"formal inverse argument must be nonnegative, got {t}")
    if t == 0:
        return phi.a_phi
    if phi._inverse_closed is not None:
        s = phi._inverse_closed(t)
        return min(s, phi.b_phi)
    if phi.b_phi < INF and t >= phi.value_at_b:
        return phi.b_phi

    def below(rows, s):  # phi(s) - t, convex in s: it holds where <= 0
        return phi.eval_many(s) - t

    lo = phi.a_phi
    with np.errstate(over="ignore", invalid="ignore"):
        if phi.b_phi < INF:
            hi = phi.b_phi
        else:
            start = max(1.0, 2.0 * lo)
            hi = bracket_rows(below, np.array([start]), 2.0, int(math.log2(1e154 / start)))[1][0]
            if math.isnan(hi):
                raise NumericError("formal inverse bracket exceeded 1e154")
        return float(bisect_rows(below, np.array([lo]), np.array([hi]),
                                 rtol=BISECT_RTOL, atol=math.ulp(0.0))[0])


def compose_orlicz(psi: OrliczFunction, phi2: OrliczFunction) -> OrliczFunction:
    """The gauge t -> psi(phi2(t)) with thresholds propagated exactly.

    Raises InvalidOrliczError when the composition degenerates to 0 or +inf
    on all of (0, inf).  The composed thresholds always satisfy
    a >= a_phi2 and b <= b_phi2.
    """
    try:
        a1 = formal_inverse(phi2, psi.a_phi)
        b1 = phi2.b_phi if psi.b_phi == INF else formal_inverse(phi2, psi.b_phi)
    except NumericError as exc:
        # an unbracketable inverse means the composition never leaves 0
        raise InvalidOrliczError(
            "composed gauge is identically zero on (0, inf)") from exc
    if b1 <= 0:
        raise InvalidOrliczError("composed gauge is infinite on all of (0, inf)")
    if math.isinf(a1):
        raise InvalidOrliczError("composed gauge is identically zero on (0, inf)")
    if a1 < phi2.a_phi - 1e-12 * max(1.0, phi2.a_phi) or \
            b1 > phi2.b_phi * (1 + 1e-12) + 1e-300:
        raise NumericError("composed thresholds violate monotonicity bookkeeping")

    psi_vec, phi2_vec = psi.eval_many, phi2.eval_many

    def vec(u):
        return psi_vec(phi2_vec(u))

    if b1 < INF:
        inner = min(eval_gauge(phi2, b1), psi.b_phi)
        vb = eval_gauge(psi, inner)
    else:
        vb = INF

    if a1 > 0 or b1 < INF:
        d2 = False
    elif psi.delta2_all_t and phi2.delta2_all_t:
        d2 = True
    else:
        d2 = None

    # sup{t : psi(phi2(t)) <= s} = phi2^{-1}(psi^{-1}(s)) by left continuity
    inv = lambda s: formal_inverse(phi2, formal_inverse(psi, s))

    return OrliczFunction(
        kind=f"compose({psi.kind},{phi2.kind})",
        a_phi=a1, b_phi=b1, value_at_b=vb,
        delta2_all_t=d2, delta2_constant=None,
        _vector=vec,
        _conjugate_factory=None,
        _inverse_closed=inv,
    )


@dataclass(frozen=True)
class Delta2Report:
    """Outcome of a doubling-constant probe.

    ``satisfied`` echoes the builtin verdict when one exists, or False when a
    sampled witness phi(2u) = inf, phi(u) < inf proves failure; otherwise None
    (finitely many samples cannot certify the condition).  ``constant`` is the
    largest sampled ratio phi(2u)/phi(u).
    """

    satisfied: Optional[bool]
    constant: Optional[float]
    authoritative: bool


def delta2_probe(phi: OrliczFunction) -> Delta2Report:
    """Sample phi(2u)/phi(u) on a log grid spanning DELTA2_DECADES decades around 1."""
    grid = np.logspace(-DELTA2_DECADES / 2.0, DELTA2_DECADES / 2.0, 24 * DELTA2_DECADES)
    with np.errstate(over="ignore", invalid="ignore"):
        fu = phi.eval_many(grid)
        f2u = phi.eval_many(2.0 * grid)
    witness = np.isinf(f2u) & np.isfinite(fu) & (fu > 0)
    if np.any(witness):
        if phi.delta2_all_t is not None:
            return Delta2Report(phi.delta2_all_t, None, True)
        return Delta2Report(False, None, True)
    mask = np.isfinite(fu) & (fu > 0) & np.isfinite(f2u)
    khat = float(np.max(f2u[mask] / fu[mask])) if np.any(mask) else None
    if phi.delta2_all_t is not None:
        const = phi.delta2_constant if phi.delta2_constant is not None else khat
        return Delta2Report(phi.delta2_all_t, const, True)
    return Delta2Report(None, khat, False)


def convexity_gap(phi: OrliczFunction, grid: np.ndarray) -> float:
    """Worst midpoint-convexity violation of phi on a grid inside [0, b_phi)."""
    grid = np.asarray(grid, dtype=float)
    grid = grid[(grid >= 0) & (grid < phi.b_phi)]
    grid = np.sort(grid)
    u, v = np.meshgrid(grid, grid)
    keep = u < v
    u, v = u[keep], v[keep]
    with np.errstate(over="ignore", invalid="ignore"):
        fm = phi.eval_many(0.5 * (u + v))
        fu, fv = phi.eval_many(u), phi.eval_many(v)
    ok = np.isfinite(fu) & np.isfinite(fv) & np.isfinite(fm)
    gap = fm[ok] - 0.5 * (fu[ok] + fv[ok]) - 1e-12 * (1.0 + fv[ok])
    return float(np.max(gap)) if gap.size else 0.0
