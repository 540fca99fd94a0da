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
from .solve import bisect, bracket, minimize

INF = math.inf

# Tolerance ladder: closed-form paths exact, bisection 1e-10 relative,
# conjugate/quadrature paths 1e-8 (each numeric layer loses ~2 digits).
BISECT_RTOL = 1e-10
# Threshold detection of custom gauges probes (0, DETECT_TOP] and resolves to
# DETECT_TOL, absolute and relative.
DETECT_TOP = 1e30
DETECT_TOL = 1e-12
# Numeric conjugates: the doubling walk's last octave and the certified tolerance
CONJUGATE_OCTAVES = 40
CONJUGATE_RTOL = 1e-13
CONJUGATE_ATOL = 1e-20  # ends searches toward v = 0, far below a modular's resolution


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
        """Vectorized evaluation; assumes nonnegative input."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._vector(np.asarray(u, dtype=float))
        return np.asarray(out, dtype=float)

    def conjugate(self) -> "OrliczFunction":
        return conjugate(self)

    def inverse(self, t: float) -> float:
        return formal_inverse(self, t)

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

    def vec(u):
        return np.cosh(u) - 1.0

    def conj_vec(u):
        # sup_v(uv - cosh v + 1) attained at v = arcsinh u
        return u * np.arcsinh(u) - np.sqrt(1.0 + u * u) + 1.0

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
        _inverse_closed=lambda t: math.acosh(1.0 + t),
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
        u = np.asarray(u, dtype=float)
        return np.where(u > cap, np.inf, slope * u)

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
        b_phi = _detect_finiteness_cap(evaluate)
    if a_phi is None:
        a_phi = _detect_largest_zero(evaluate, b_phi)
    vb = float(evaluate(b_phi)) if b_phi < INF else INF
    return OrliczFunction(
        kind=name, a_phi=a_phi, b_phi=b_phi, value_at_b=vb,
        delta2_all_t=delta2_all_t, delta2_constant=None,
        _vector=vec, _conjugate_factory=None, _inverse_closed=None,
    )


def _detect_finiteness_cap(fn) -> float:
    def finite(u: float) -> bool:
        return not math.isinf(fn(u))

    # halve from 1 down to 2**-40 < 1e-12 looking for a finite value
    found = bracket(lambda u: not finite(u), 1.0, 0.5, 40)
    if found is None:
        raise InvalidOrliczError("gauge is infinite on all of (0, inf)")
    if finite(DETECT_TOP):
        return INF
    return bisect(finite, found[1], DETECT_TOP, rtol=DETECT_TOL, atol=DETECT_TOL)


def _detect_largest_zero(fn, b_phi: float) -> float:
    hi = min(b_phi, DETECT_TOP)

    def zero(u: float) -> bool:
        return fn(min(u, hi)) == 0.0

    # double from below 1e-12 until the walk reaches hi
    u = min(DETECT_TOL, hi / 2)
    found = bracket(zero, u, 2.0, math.ceil(math.log2(hi / u)))
    if found is None:
        raise InvalidOrliczError("gauge is identically zero on (0, inf)")
    last, first_positive = found
    if last is None:
        return 0.0
    return bisect(zero, last, min(first_positive, hi), rtol=DETECT_TOL, atol=DETECT_TOL)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def eval_gauge(phi: OrliczFunction, u: float) -> float:
    """Evaluate phi(u); +inf exactly beyond b_phi (or at it, when the cap value is inf)."""
    if u < 0:
        raise DomainError(f"gauge argument must be nonnegative, got {u}")
    if u > phi.b_phi:
        return INF
    if u == phi.b_phi and phi.b_phi < INF:
        return phi.value_at_b
    out = float(phi.eval_many(np.array([u]))[0])
    return out


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
        fv = np.where(v < phi.b_phi, phi.eval_many(v), phi.value_at_b)
        return fv - slopes[rows, None] * v

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
    """sup{s : phi(s) <= t}; equals b_phi for t at or beyond the cap value."""
    if t < 0:
        raise DomainError(f"formal inverse argument must be nonnegative, got {t}")
    if phi._inverse_closed is not None:
        s = phi._inverse_closed(t)
        return min(s, phi.b_phi)
    if phi.b_phi < INF and t >= phi.value_at_b:
        return phi.b_phi

    def below(s: float) -> bool:
        return eval_gauge(phi, s) <= t

    lo = phi.a_phi
    if phi.b_phi < INF:
        hi = phi.b_phi
    else:
        start = max(1.0, 2.0 * lo)
        found = bracket(below, start, 2.0, int(math.log2(1e154 / start)))
        if found is None:
            raise NumericError("formal inverse bracket exceeded 1e154")
        hi = found[1]
    return bisect(below, lo, hi, rtol=BISECT_RTOL, atol=BISECT_RTOL)


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

    inv = None
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


def delta2_probe(phi: OrliczFunction, grid_decades: int = 6) -> Delta2Report:
    """Sample phi(2u)/phi(u) on a log grid spanning ``grid_decades`` decades around 1."""
    if grid_decades < 1:
        raise DomainError("grid_decades must be >= 1")
    grid = np.logspace(-grid_decades / 2.0, grid_decades / 2.0, 24 * grid_decades)
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
    fm = phi.eval_many(0.5 * (u + v))
    fu, fv = phi.eval_many(u), phi.eval_many(v)
    ok = np.isfinite(fu) & np.isfinite(fv) & np.isfinite(fm)
    gap = fm[ok] - 0.5 * (fu[ok] + fv[ok]) - 1e-12 * (1.0 + fv[ok])
    return float(np.max(gap)) if gap.size else 0.0
