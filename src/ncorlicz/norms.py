"""Modulars, Luxemburg and Amemiya norms, weighted pairings, regularity probes.

Scaling convention: ``modular(mu, phi, inv_scale, ctx)`` is the integral of
phi(inv_scale * mu(t)) against the weight (Lebesgue when ``ctx`` is None).
The Luxemburg norm is inf{lam > 0 : modular(mu, phi, 1/lam) <= 1}; the
Amemiya norm is inf_k (1 + modular(mu, phi, k)) / k.  The Luxemburg norm
coincides with the trace-modular route through functional calculus, which
``kunze_norm`` computes independently; callers compare the two routes.
Every boundary search goes through ``solve.bracket`` and ``solve.bisect``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import optimize

from .algebra import AlgebraElement, TracedAlgebra, _svd_blocks, _trace_calculus, trace
from .errors import DomainError, NumericError, StructuralError, UnboundedNormError
from .orlicz import OrliczFunction, conjugate, cosh_minus_one
from .quadrature import integrate_sentinel
from .rearrangement import (
    ParametricForm,
    RearrangementFunction,
    StepForm,
    WeightedContext,
    _interval_masses,
    singular_values,
)
from .solve import bisect, bracket

INF = math.inf
DEFAULT_TOL = 1e-9
MODULAR_SLACK = 1e-9  # absolute slack at the modular <= 1 boundary
BRACKET_LIMIT = 200
AMEMIYA_K_CAP = 1e9
AMEMIYA_K_FLOOR = 1e-300


def _live_pieces(mu: StepForm, ctx: Optional[WeightedContext]) -> tuple[np.ndarray, np.ndarray]:
    """Values and weight masses of the pieces of mu with positive weight mass.

    Pieces of zero mass are left out, so an infinite gauge there counts for
    nothing.  Durations of a StepForm are positive by construction.
    """
    if ctx is None:
        return mu.values, mu.durations
    masses = ctx.piece_masses(mu.breakpoints)
    live = masses > 0
    return mu.values[live], masses[live]


def _step_modular(values: np.ndarray, masses: np.ndarray, phi: OrliczFunction,
                  inv_scales: np.ndarray) -> np.ndarray:
    """The modular at each scaling: one pass of phi over scalings x pieces.

    NaN from the gauge raises NumericError.
    """
    args = inv_scales[:, None] * values
    fv = phi.eval_many(args)
    out = fv @ masses  # phi >= 0 and masses > 0: only a NaN value makes a NaN sum
    if math.isnan(out.sum()):
        bad = float(args[np.isnan(fv)][0])
        raise NumericError(f"gauge {phi.describe()} returned NaN at {bad:.6g}")
    return out


def _weighted_integral(h, mu: ParametricForm,
                       weight: Optional[RearrangementFunction]) -> float:
    """Integral of h(mu(t)) against ``weight`` (Lebesgue when None); may be +inf.

    ``h`` is a scalar function with h(0) = 0, so nothing beyond mu's support
    counts.  A flat mu integrates exactly; a step weight splits the
    quadrature at its jumps.  This is the one place where parametric data
    meet a weight: modulars, Laplace probes and pairings all come here.
    """
    if mu.constant_level is not None:
        val = h(mu.constant_level)
        if val == 0.0:
            return 0.0
        span = mu.support if weight is None else weight.head_integral(mu.support)
        if math.isinf(val):
            return INF if span > 0 else 0.0
        return val * span if not math.isinf(span) else INF

    def h_of_mu(t: float) -> float:
        return h(mu.evaluate(t))

    # infinite values of h on a set of positive measure force +inf
    if math.isinf(h_of_mu(min(1e-8, mu.support / 2))):
        return INF

    top = mu.support
    if weight is None:
        return integrate_sentinel(h_of_mu, 0.0, top, singular_at_zero=mu.singular_at_zero)
    if isinstance(weight, StepForm):
        total = 0.0
        edges = np.concatenate([[0.0], weight.breakpoints])
        for lo, hi, wval in zip(edges[:-1], edges[1:], weight.values):
            hi_eff = min(hi, top)
            if hi_eff <= lo:
                break
            piece = integrate_sentinel(h_of_mu, float(lo), float(hi_eff),
                                       singular_at_zero=mu.singular_at_zero and lo == 0.0)
            total += wval * piece
            if math.isinf(total):
                return INF
        return total

    def integrand(t: float) -> float:
        return h_of_mu(t) * weight.evaluate(t)

    hi = min(top, weight.support)
    return integrate_sentinel(integrand, 0.0, hi, singular_at_zero=mu.singular_at_zero)


def modular(mu: RearrangementFunction, phi: OrliczFunction, inv_scale,
            ctx: Optional[WeightedContext] = None):
    """Integral of phi(inv_scale * mu) against the weight; may be +inf.

    Exact for step-by-step data, where ``inv_scale`` may also be an array of
    scalings and the result is the array of modulars; parametric inputs go
    through sentinel quadrature, one scaling at a time.  Pieces of zero
    weight mass contribute nothing even where the gauge is infinite (the
    norm only sees weight-a.e. classes).
    """
    scales = np.asarray(inv_scale, dtype=float)
    if not scales.min(initial=INF) > 0:
        raise DomainError(f"inv_scale must be positive, got {inv_scale}")
    if isinstance(mu, StepForm):
        out = _step_modular(*_live_pieces(mu, ctx), phi, scales.reshape(-1))
        return out.reshape(scales.shape) if scales.ndim else float(out[0])
    if scales.ndim:
        raise DomainError("an array of scalings needs step data")
    k = float(inv_scale)
    return _weighted_integral(lambda v: float(phi.eval_many(np.array([v * k]))[0]),
                              mu, None if ctx is None else ctx.weight)


def _norm_bisect(modular_at, seed: float, tol: float, batched: bool = False) -> float:
    """inf{lam > 0 : modular_at(lam) <= 1}, bracketed from ``seed``.

    A ``batched`` ``modular_at`` takes an array of scalings and returns the
    array of modulars.
    """

    def feasible(lam):
        return modular_at(lam) <= 1.0 + MODULAR_SLACK

    def infeasible(lam):
        return np.logical_not(feasible(lam))

    lam = seed if 0.0 < seed < INF else 1.0
    # batches probe scalings far from the norm, where the modular overflows
    # to +inf: a value, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        down = bracket(feasible, lam, 0.5, BRACKET_LIMIT + 1, batched=batched)
        if down is None:
            return 0.0  # feasible at arbitrarily small scalings
        yes, no = down
        if yes is None:  # lam itself is infeasible: walk up
            up = bracket(infeasible, lam * 2.0, 2.0, BRACKET_LIMIT, batched=batched)
            if up is None:
                raise UnboundedNormError("no finite scaling brings the modular below one")
            last, yes = up
            no = lam if last is None else last
        return bisect(feasible, yes, no, rtol=tol, batched=batched)


def luxemburg_norm(mu: RearrangementFunction, phi: OrliczFunction,
                   ctx: Optional[WeightedContext] = None,
                   tol: float = DEFAULT_TOL) -> float:
    """inf{lam > 0 : modular(mu, phi, 1/lam, ctx) <= 1}; 0 for vanishing mu.

    Step data are solved in batches of scalings against piece masses
    computed once per solve.
    """
    if not 0 < tol <= 1e-3:
        raise DomainError("tol must lie in (0, 1e-3]")
    if mu.is_zero:
        return 0.0
    seed = mu.sup_value
    if isinstance(mu, StepForm):
        values, masses = _live_pieces(mu, ctx)
        return _norm_bisect(lambda lams: _step_modular(values, masses, phi, 1.0 / lams),
                            seed, tol, batched=True)
    return _norm_bisect(lambda lam: modular(mu, phi, 1.0 / lam, ctx), seed, tol)


def kunze_norm(alg: TracedAlgebra, a: AlgebraElement, phi: OrliczFunction,
               tol: float = DEFAULT_TOL) -> float:
    """Trace-modular norm inf{lam : tr phi(|a|/lam) <= 1} via functional calculus.

    An independent code path from ``luxemburg_norm``: each block is
    decomposed once, and each probed scaling rebuilds phi(|a|/lam) as a
    matrix and traces it, treating inadmissible functional calculus as a
    modular value of +inf.  The two routes agree; the ``norm`` command and
    the verification suite compare them.
    """
    if not 0 < tol <= 1e-3:
        raise DomainError("tol must lie in (0, 1e-3]")
    if a.algebra != alg:
        raise StructuralError("element does not belong to the given algebra")
    svd = _svd_blocks(a)
    seed = max((float(s[0]) for _, s, _ in svd if s.size), default=0.0)
    if seed == 0.0:
        return 0.0
    return _norm_bisect(lambda lams: _trace_calculus(alg, phi, svd, 1.0 / lams),
                        seed, tol, batched=True)


def amemiya_norm(mu: RearrangementFunction, phi: OrliczFunction,
                 ctx: Optional[WeightedContext] = None,
                 tol: float = DEFAULT_TOL) -> float:
    """inf_{k>0} (1 + modular(mu, phi, k, ctx)) / k via unimodal search.

    The objective is the slope from (0, -1) to the convex modular curve,
    hence unimodal in k.  A monotone-decreasing tail (linear-at-infinity
    gauges) is reported at the k-cap; an objective that is infinite for all
    probed k raises UnboundedNormError.
    """
    if mu.is_zero:
        return 0.0

    seen: dict[float, float] = {}  # the walks and the final candidates revisit points

    def objective(k: float) -> float:
        if k <= 0:
            return INF
        if k not in seen:
            m = modular(mu, phi, k, ctx)
            seen[k] = INF if math.isinf(m) else (1.0 + m) / k
        return seen[k]

    def finite(k: float) -> bool:
        return not math.isinf(objective(k))

    found = bracket(lambda k: not finite(k), 1.0, 0.5, BRACKET_LIMIT)
    if found is None:
        raise UnboundedNormError("Amemiya objective infinite for all probed k")

    def octaves_past(k: float, bound: float) -> int:
        # a walk by factors of two from k reaches past ``bound`` in 1 + this many steps
        return int(abs(math.log2(bound / k)))

    # geometric walks to an interior bracket around the minimum; k is a power of two
    k = found[1]
    down = bracket(lambda x: objective(x) < objective(2.0 * x), k / 2.0, 0.5,
                   octaves_past(k, AMEMIYA_K_FLOOR))
    if down is None:
        raise NumericError("Amemiya search underflow")
    k = down[0] or k
    up = bracket(lambda x: objective(x) < objective(x / 2.0), 2.0 * k, 2.0,
                 octaves_past(k, AMEMIYA_K_CAP))
    if up is None:
        # infimum approached in the k -> inf limit (linear-at-infinity gauges)
        return objective(AMEMIYA_K_CAP)
    k = up[0] or k
    f_k = objective(k)

    lo, hi = k / 2.0, 2.0 * k
    # the right edge may be infinite (finite cap gauges); shrink to the boundary
    if not finite(hi):
        hi = bisect(finite, k, hi, rtol=1e-12)

    res = optimize.minimize_scalar(
        objective, bounds=(lo, hi), method="bounded",
        options={"xatol": max(1e-13 * hi, 1e-8 * (hi - lo) * tol ** 0.5)})
    candidates = [float(res.fun), f_k, objective(lo), objective(hi)]
    best = min(c for c in candidates if not math.isnan(c))
    if math.isinf(best):
        raise UnboundedNormError("Amemiya objective infinite for all probed k")
    return best


# ---------------------------------------------------------------------------
# Pairings
# ---------------------------------------------------------------------------

def pairing_integral(mu_a: RearrangementFunction, mu_b: RearrangementFunction,
                     power: float = 1.0) -> float:
    """Integral of mu_a(t)^power * mu_b(t) dt; exact for step-by-step data.

    A step mu_a against parametric mu_b pairs with the mass mu_b puts on
    each of its pieces; a parametric mu_a is integrated against mu_b as a
    weight.
    """
    if isinstance(mu_a, StepForm) and isinstance(mu_b, StepForm):
        if mu_a.is_zero or mu_b.is_zero:
            return 0.0
        edges = np.unique(np.concatenate([[0.0], mu_a.breakpoints, mu_b.breakpoints]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        va = np.array([mu_a.evaluate(float(t)) for t in mids])
        vb = np.array([mu_b.evaluate(float(t)) for t in mids])
        return float(np.dot(va ** power * vb, np.diff(edges)))

    if isinstance(mu_a, StepForm):
        return float(mu_a.values ** power @ _interval_masses(mu_b, mu_a.breakpoints))
    return _weighted_integral(lambda v: v ** power, mu_a, mu_b)


def tau_x(mu_f: RearrangementFunction, ctx: WeightedContext) -> float:
    """Quasi-trace pairing: integral of mu_f against the weight density."""
    return pairing_integral(mu_f, ctx.weight)


# ---------------------------------------------------------------------------
# Duality / Hoelder machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    dual_norm: float
    primal_norm: float
    slack: float
    passed: bool
    sampled_sup: Optional[float]
    sampled_sup_ok: bool


def holder_check(alg: TracedAlgebra, f: AlgebraElement, g: AlgebraElement,
                 phi: OrliczFunction, tol: float = 1e-8,
                 probes: Sequence[AlgebraElement] = ()) -> HolderReport:
    """|tr(fg)| <= (dual gauge norm of f) * (gauge norm of g).

    The dual factor is the Amemiya norm in the conjugate gauge — the computable
    form of the pairing norm sup{tr|fg'| : norm of g' <= 1}.  When ``probes``
    are given, that sup is also estimated over them, each scaled to gauge
    norm one; the estimate can falsify but not certify the bound.
    """
    lhs = abs(trace(alg, f @ g))
    dual = amemiya_norm(singular_values(alg, f), conjugate(phi))
    primal = luxemburg_norm(singular_values(alg, g), phi)
    rhs = dual * primal
    passed = lhs <= rhs + tol * (1.0 + rhs) if not math.isinf(rhs) else True

    sampled, sampled_ok = None, True
    if probes:
        best = 0.0
        for gp in probes:
            nrm = luxemburg_norm(singular_values(alg, gp), phi)
            if nrm == 0.0:
                continue
            prod = f @ (gp * (1.0 / nrm))
            best = max(best, singular_values(alg, prod).total_integral())
        sampled = best
        sampled_ok = best <= dual + tol * (1.0 + dual)

    return HolderReport(lhs=float(lhs), rhs=float(rhs), dual_norm=dual,
                        primal_norm=primal, slack=float(rhs - lhs), passed=passed,
                        sampled_sup=sampled, sampled_sup_ok=sampled_ok)


# ---------------------------------------------------------------------------
# Exponential-moment regularity
# ---------------------------------------------------------------------------

def laplace_probe(mu_g: RearrangementFunction, ctx: WeightedContext, s: float) -> float:
    """Integral of exp(s * mu_g(t)) against the weight; divergence reports +inf.

    Computed as the weight mass plus the integral of expm1(s * mu_g), which
    vanishes beyond mu_g's support.  For s < 0 the result lies in (0, mass],
    so only s > 0 can diverge, and ``quant_membership`` probes that side alone.
    """
    if isinstance(mu_g, StepForm):
        values, masses = _live_pieces(mu_g, ctx)
        with np.errstate(over="ignore"):
            excess = float(np.abs(np.expm1(s * values)) @ masses)
    else:
        def h(v: float) -> float:
            try:
                return abs(math.expm1(s * v))
            except OverflowError:
                return INF

        excess = _weighted_integral(h, mu_g, ctx.weight)
    return ctx.mass + math.copysign(excess, s)


def quant_membership(mu_g: RearrangementFunction, ctx: WeightedContext) -> bool:
    """Exponential moments finite at some probed s = 2^0, ..., 2^-40.

    For mu_g >= 0 the moment at -s is at most the weight mass, so finiteness
    at +s alone puts the whole interval (-s, s) inside the transform's
    domain by convexity, which is exactly membership of 0 in the interior of
    the domain.  Only +s is probed.
    """
    walk = bracket(lambda s: math.isinf(laplace_probe(mu_g, ctx, s)), 1.0, 0.5, 40)
    return walk is not None


@dataclass(frozen=True)
class RegularityReport:
    member_via_laplace: bool
    member_via_norm: bool

    @property
    def agree(self) -> bool:
        return self.member_via_laplace == self.member_via_norm


def pistone_sempi_equivalence(mu_g: RearrangementFunction,
                              ctx: WeightedContext) -> RegularityReport:
    """Exponential-moment membership versus cosh-gauge modular finiteness.

    The Laplace route probes exponential moments near 0 (``quant_membership``);
    the norm route doubles the scaling over 60 octaves looking for a finite
    cosh-minus-one modular.  The two booleans agree whenever the numerics are
    sound.
    """
    a = quant_membership(mu_g, ctx)
    psi = cosh_minus_one()
    walk = bracket(lambda lam: math.isinf(modular(mu_g, psi, 1.0 / lam, ctx)),
                   1.0, 2.0, 60)
    return RegularityReport(member_via_laplace=a, member_via_norm=walk is not None)


# ---------------------------------------------------------------------------
# Moment chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    lhs: float
    rhs: float
    slack: float
    passed: bool


def moment_bound_check(alg: TracedAlgebra, x: AlgebraElement, y: AlgebraElement,
                       n: int, tol: float = 1e-9,
                       factor: float = 2.0) -> MomentReport:
    """tr(x y^n) <= 2n * integral of mu(y)^n mu(x).

    ``factor`` scales the 2n constant and exists so the verification suite can
    demonstrate that a weakened constant is caught; leave it at 2.0.
    """
    if n < 1:
        raise DomainError("moment order must be >= 1")
    if not x.is_positive() or not y.is_positive():
        raise DomainError("moment bound requires positive inputs")
    tx = trace(alg, x).real
    if abs(tx - 1.0) > 1e-8:
        raise DomainError(f"x must have unit trace, got {tx}")
    lhs = trace(alg, x @ y.matrix_power(n)).real
    rhs = factor * n * pairing_integral(singular_values(alg, y),
                                        singular_values(alg, x), power=n)
    return MomentReport(lhs=float(lhs), rhs=float(rhs), slack=float(rhs - lhs),
                        passed=lhs <= rhs + tol * (1.0 + abs(rhs)))
