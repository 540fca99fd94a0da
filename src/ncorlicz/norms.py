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
    singular_values,
)
from .solve import bisect, bracket

INF = math.inf
DEFAULT_TOL = 1e-9
MODULAR_SLACK = 1e-9  # absolute slack at the modular <= 1 boundary
BRACKET_LIMIT = 200
AMEMIYA_K_CAP = 1e9


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


def _parametric_modular(mu: ParametricForm, phi: OrliczFunction, inv_scale: float,
                        ctx: Optional[WeightedContext]) -> float:
    # flat functions integrate exactly; phi(0) = 0 kills every tail
    if mu.constant_level is not None:
        val = float(phi.eval_many(np.array([mu.constant_level * inv_scale]))[0])
        if val == 0.0:
            return 0.0
        if ctx is None:
            span = mu.support
        else:
            span = ctx.mass if math.isinf(mu.support) else ctx.F(mu.support)
        if math.isinf(val):
            return INF if span > 0 else 0.0
        return val * span if not math.isinf(span) else INF

    def gauge_of_mu(t: float) -> float:
        v = mu.evaluate(t)
        return float(phi.eval_many(np.array([v * inv_scale]))[0])

    # infinite gauge values on a set of positive measure force +inf
    probe = gauge_of_mu(min(1e-8, mu.support / 2))
    if math.isinf(probe):
        return INF

    top = mu.support
    if ctx is None:
        return integrate_sentinel(gauge_of_mu, 0.0, top,
                                  singular_at_zero=mu.singular_at_zero)
    w = ctx.weight
    if isinstance(w, StepForm):
        total = 0.0
        edges = np.concatenate([[0.0], w.breakpoints])
        for lo, hi, wval in zip(edges[:-1], edges[1:], w.values):
            hi_eff = min(hi, top)
            if hi_eff <= lo:
                break
            piece = integrate_sentinel(gauge_of_mu, float(lo), float(hi_eff),
                                       singular_at_zero=mu.singular_at_zero and lo == 0.0)
            total += wval * piece
            if math.isinf(total):
                return INF
        return total

    def integrand(t: float) -> float:
        return gauge_of_mu(t) * w.evaluate(t)

    hi = min(top, w.support)
    return integrate_sentinel(integrand, 0.0, hi,
                              singular_at_zero=mu.singular_at_zero)


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
    return _parametric_modular(mu, phi, float(inv_scale), ctx)


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
                 tol: float = DEFAULT_TOL, k_cap: float = AMEMIYA_K_CAP) -> float:
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

    # geometric walk to an interior bracket around the minimum
    k = found[1]
    f_k = objective(k)
    while objective(k / 2.0) < f_k:
        k /= 2.0
        f_k = objective(k)
        if k < 1e-300:
            raise NumericError("Amemiya search underflow")
    while True:
        f_up = objective(2.0 * k)
        if not f_up < f_k:
            break
        k *= 2.0
        f_k = f_up
        if k >= k_cap:
            # infimum approached in the k -> inf limit (linear-at-infinity gauges)
            return objective(k_cap)

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
    """Integral of mu_a(t)^power * mu_b(t) dt; exact for step-by-step data."""
    if isinstance(mu_a, StepForm) and isinstance(mu_b, StepForm):
        if mu_a.is_zero or mu_b.is_zero:
            return 0.0
        edges = np.unique(np.concatenate([[0.0], mu_a.breakpoints, mu_b.breakpoints]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        va = np.array([mu_a.evaluate(float(t)) for t in mids])
        vb = np.array([mu_b.evaluate(float(t)) for t in mids])
        return float(np.dot(va ** power * vb, np.diff(edges)))

    def integrand(t: float) -> float:
        return mu_a.evaluate(t) ** power * mu_b.evaluate(t)

    singular = (getattr(mu_a, "singular_at_zero", False)
                or getattr(mu_b, "singular_at_zero", False))
    hi = min(mu_a.support, mu_b.support)
    return integrate_sentinel(integrand, 0.0, hi, singular_at_zero=singular)


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
    """Integral of exp(s * mu_g(t)) against the weight; divergence reports +inf."""
    if s == 0.0:
        return ctx.mass
    w = ctx.weight
    if isinstance(mu_g, StepForm):
        if mu_g.is_zero:
            return ctx.mass
        with np.errstate(over="ignore"):
            ev = np.exp(s * mu_g.values)
        masses = ctx.piece_masses(mu_g.breakpoints)
        tail = ctx.mass - float(np.sum(masses))
        if np.any(np.isinf(ev) & (masses > 0)):
            return INF
        ok = np.isfinite(ev)
        return float(np.dot(ev[ok], masses[ok])) + tail

    if mu_g.constant_level is not None:
        level = mu_g.constant_level
        head = ctx.F(mu_g.support) if not math.isinf(mu_g.support) else ctx.mass
        tail = ctx.mass - head
        val = math.exp(s * level) if s * level < 700 else INF
        return val * head + tail if not math.isinf(val) or head == 0 else INF

    def integrand(t: float) -> float:
        arg = s * mu_g.evaluate(t)
        if arg >= 709.0:
            return INF
        if arg <= -745.0:
            return 0.0
        return math.exp(arg) * w.evaluate(t)

    top = mu_g.support
    head = integrate_sentinel(integrand, 0.0, top,
                              singular_at_zero=mu_g.singular_at_zero and s > 0)
    if math.isinf(head):
        return INF
    tail = ctx.mass - ctx.F(top) if not math.isinf(top) else 0.0
    return head + tail


def quant_membership(mu_g: RearrangementFunction, ctx: WeightedContext,
                     probe_schedule: Optional[np.ndarray] = None) -> bool:
    """Two-sided exponential moments finite for some probed s > 0.

    Finiteness at +s and -s puts the whole interval (-s, s) inside the
    transform's domain by convexity of the exponential integrand, which is
    exactly membership of 0 in the interior of the domain.
    """
    if probe_schedule is None:
        probe_schedule = 2.0 ** (-np.arange(0, 41, dtype=float))
    for s in probe_schedule:
        if s <= 0:
            raise DomainError("probe schedule must be positive")
        if not math.isinf(laplace_probe(mu_g, ctx, float(s))) and \
                not math.isinf(laplace_probe(mu_g, ctx, float(-s))):
            return True
    return False


@dataclass(frozen=True)
class RegularityReport:
    member_via_laplace: bool
    member_via_norm: bool

    @property
    def agree(self) -> bool:
        return self.member_via_laplace == self.member_via_norm


def pistone_sempi_equivalence(mu_g: RearrangementFunction, ctx: WeightedContext,
                              octaves: int = 60) -> RegularityReport:
    """Exponential-moment membership versus cosh-gauge modular finiteness.

    The Laplace route probes two-sided moments near 0; the norm route doubles
    the scaling over ``octaves`` octaves looking for a finite cosh-minus-one
    modular.  The two booleans agree whenever the numerics are sound.
    """
    a = quant_membership(mu_g, ctx)
    psi = cosh_minus_one()
    walk = bracket(lambda lam: math.isinf(modular(mu_g, psi, 1.0 / lam, ctx)),
                   1.0, 2.0, octaves)
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
