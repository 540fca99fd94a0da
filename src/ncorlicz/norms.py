"""Modulars, Luxemburg and Amemiya norms, weighted pairings, regularity probes.

Scaling convention: ``modular(mu, phi, inv_scale, ctx)`` is the integral of
phi(inv_scale * mu(t)) against the weight (Lebesgue when ``ctx`` is None).
The Luxemburg norm is inf{lam > 0 : modular(mu, phi, 1/lam) <= 1}; the
Amemiya norm is inf_k (1 + modular(mu, phi, k)) / k.  The Luxemburg norm
coincides with the trace-modular route through functional calculus, which
``kunze_norm`` computes independently; callers compare the two routes.
Every boundary search goes through ``solve.bracket`` and ``solve.bisect``,
and the Amemiya minimum through ``solve.minimize``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    TracedAlgebra,
    _are_positive,
    _svd_blocks,
    _trace_calculus,
    trace,
)
from .errors import (DomainError, NumericError, StructuralError, UnboundedNormError,
                     batch_or_loop)
from .orlicz import OrliczFunction, conjugate, cosh_minus_one
from .quadrature import integrate_sentinel
from .rearrangement import (
    ParametricForm,
    RearrangementFunction,
    StepForm,
    WeightedContext,
    _interval_masses,
    singular_values,
    singular_values_many,
)
from .solve import bisect, bisect_rows, bracket, bracket_rows, minimize

INF = math.inf
DEFAULT_TOL = 1e-9
MODULAR_SLACK = 1e-9  # absolute slack at the modular <= 1 boundary
BRACKET_LIMIT = 200
AMEMIYA_K_CAP = 1e9
# Rows solved together at most: a corpus solve's temporaries (Amemiya's first
# pass is rows x 231 scalings x pieces) stay within about a megabyte.
ROWS_PER_SOLVE = 32
# The Amemiya search's first pass: s = K_CAP / k = 2^0, ..., 2^(30 + BRACKET_LIMIT)
_AMEMIYA_S = 2.0 ** np.arange(math.ceil(math.log2(AMEMIYA_K_CAP)) + BRACKET_LIMIT + 1)
_NO_SCALING = "no finite scaling brings the modular below one"


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
    """The modular of each row of step data at each of its row's scalings.

    ``values`` and ``masses`` hold one row of live pieces per problem and
    ``inv_scales`` one row of scalings: one pass of phi over rows x scalings
    x pieces.  A NaN from the gauge gives a NaN modular (phi >= 0 and
    masses > 0: nothing else does), which the caller reports.
    """
    fv = phi.eval_many(inv_scales[:, :, None] * values[:, None, :])
    return np.matmul(fv, masses[:, :, None])[..., 0]


def _nan_error(phi: OrliczFunction, values: np.ndarray, inv_scales: np.ndarray) -> NumericError:
    """The error for the first argument, in evaluation order, where phi gives NaN."""
    args = inv_scales[:, None] * values
    bad = float(args[np.isnan(phi.eval_many(args))][0])
    return NumericError(f"gauge {phi.describe()} returned NaN at {bad:.6g}")


def _grouped(keys, size: int) -> list[list[int]]:
    """Input positions grouped by key, at most ``size`` to a group, in input order."""
    open_groups: dict = {}
    groups = []
    for i, key in enumerate(keys):
        group = open_groups.get(key)
        if group is None or len(group) == size:
            group = open_groups[key] = []
            groups.append(group)
        group.append(i)
    return groups


def _step_rows(mus: Sequence[StepForm], ctx: Optional[WeightedContext]):
    """The nonzero step forms grouped by live piece count, zero-padding none.

    Yields (input indices, values, masses) with one row per form and at most
    ROWS_PER_SOLVE rows.  Rows of one group share a shape, so every row is
    evaluated by exactly the numpy calls of its one-form solve, and its
    value is bit for bit the same.
    """
    pieces = {}
    for i, mu in enumerate(mus):
        if not isinstance(mu, StepForm):
            raise DomainError("a many-form solve needs step data")
        if not mu.is_zero:
            pieces[i] = _live_pieces(mu, ctx)
    live = list(pieces)
    for group in _grouped((pieces[i][0].size for i in live), ROWS_PER_SOLVE):
        idx = [live[g] for g in group]
        yield (np.array(idx), np.array([pieces[i][0] for i in idx]),
               np.array([pieces[i][1] for i in idx]))


def _step_rows_modular(values: np.ndarray, masses: np.ndarray, phi: OrliczFunction):
    """``modular(rows, inv_scales)`` over one group of ``_step_rows``.

    A NaN raises at once the error of its row's first NaN: in a one-row
    solve, the error of the one-form solve.
    """

    def modular_at(rows, inv_scales):
        v, w = (values, masses) if rows.size == len(values) else (values[rows], masses[rows])
        m = _step_modular(v, w, phi, inv_scales)
        if math.isnan(np.add.reduce(m, axis=None)):
            r = np.isnan(m).any(axis=1).argmax()
            raise _nan_error(phi, v[r], inv_scales[r])
        return m

    return modular_at


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
    norm only sees weight-a.e. classes).  NaN from the gauge raises
    NumericError.
    """
    scales = np.asarray(inv_scale, dtype=float)
    if not scales.min(initial=INF) > 0:
        raise DomainError(f"inv_scale must be positive, got {inv_scale}")
    if isinstance(mu, StepForm):
        values, masses = _live_pieces(mu, ctx)
        flat = scales.reshape(1, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _step_modular(values[None], masses[None], phi, flat)[0]
            if math.isnan(out.sum()):
                raise _nan_error(phi, values, flat[0])
        return out.reshape(scales.shape) if scales.ndim else float(out[0])
    if scales.ndim:
        raise DomainError("an array of scalings needs step data")
    k = float(inv_scale)
    with np.errstate(over="ignore", invalid="ignore"):
        return _weighted_integral(lambda v: float(phi.eval_many(np.array([v * k]))[0]),
                                  mu, None if ctx is None else ctx.weight)


def _norm_bisect(modular_at, seed: float, tol: float) -> float:
    """inf{lam > 0 : modular_at(lam) <= 1}, bracketed from ``seed``.

    The one-point search of parametric data, where each modular is a
    quadrature.
    """

    def feasible(lam):
        return modular_at(lam) <= 1.0 + MODULAR_SLACK

    lam = seed if 0.0 < seed < INF else 1.0
    down = bracket(feasible, lam, 0.5, BRACKET_LIMIT + 1)
    if down is None:
        return 0.0  # feasible at arbitrarily small scalings
    yes, no = down
    if yes is None:  # lam itself is infeasible: walk up
        up = bracket(lambda x: not feasible(x), lam * 2.0, 2.0, BRACKET_LIMIT)
        if up is None:
            raise UnboundedNormError(_NO_SCALING)
        last, yes = up
        no = lam if last is None else last
    return bisect(feasible, yes, no, rtol=tol)


def _norm_bisect_rows(modular_at, seeds: np.ndarray, tol: float) -> np.ndarray:
    """inf{lam > 0 : modular <= 1} for each row, bracketed from its seed.

    ``modular_at(rows, inv_scales)`` gives the modulars of the rows numbered
    ``rows`` at the matching rows of scalings.  Each row walks down from its
    seed BATCH scalings at a time, walks up when the seed is infeasible,
    then bisects: the steps of the one-point search, with every row's
    numbers its own.  NaN marks a row that no finite scaling brings below
    one.
    """

    def feasible(rows, lams):
        return modular_at(rows, 1.0 / lams) <= 1.0 + MODULAR_SLACK

    def on(subset):
        if subset.size == seeds.size:
            return feasible
        return lambda rows, lams: feasible(subset[rows], lams)

    lam = np.where((seeds > 0.0) & (seeds < INF), seeds, 1.0)
    # walks probe scalings far from the norm, where the modular overflows
    # to +inf: a value, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        yes, no = bracket_rows(feasible, lam, 0.5, BRACKET_LIMIT + 1)
        up = (np.isnan(yes) & ~np.isnan(no)).nonzero()[0]  # the seed is infeasible
        if up.size:
            infeasible = on(up)
            last, yes[up] = bracket_rows(lambda rows, lams: ~infeasible(rows, lams),
                                         lam[up] * 2.0, 2.0, BRACKET_LIMIT)
            no[up] = np.where(np.isnan(last), lam[up], last)
        # a down walk that never failed: feasible at arbitrarily small scalings
        out = np.where(np.isnan(no), 0.0, np.nan)
        todo = (~np.isnan(yes + no)).nonzero()[0]
        if todo.size:
            out[todo] = bisect_rows(on(todo), yes[todo], no[todo], rtol=tol)
    return out


def _check_tol(tol: float) -> None:
    if not 0 < tol <= 1e-3:
        raise DomainError("tol must lie in (0, 1e-3]")


def luxemburg_norms(mus: Sequence[StepForm], phi: OrliczFunction,
                    ctx: Optional[WeightedContext] = None,
                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """``luxemburg_norm`` of many step forms: one solve per group of ``_step_rows``.

    Each value is bit for bit the one-form value; errors follow
    ``batch_or_loop``.
    """
    _check_tol(tol)

    def solve(forms):
        out = np.zeros(len(forms))
        for idx, values, masses in _step_rows(forms, ctx):
            out[idx] = _norm_bisect_rows(_step_rows_modular(values, masses, phi),
                                         np.array([forms[i].sup_value for i in idx]), tol)
        if np.isnan(out).any():
            raise UnboundedNormError(_NO_SCALING)
        return out

    return batch_or_loop(solve, mus)


def luxemburg_norm(mu: RearrangementFunction, phi: OrliczFunction,
                   ctx: Optional[WeightedContext] = None,
                   tol: float = DEFAULT_TOL) -> float:
    """inf{lam > 0 : modular(mu, phi, 1/lam, ctx) <= 1}; 0 for vanishing mu.

    Step data are the one-row case of ``luxemburg_norms``; parametric data
    are bisected one quadrature at a time.
    """
    if isinstance(mu, StepForm):
        return float(luxemburg_norms([mu], phi, ctx, tol)[0])
    _check_tol(tol)
    if mu.is_zero:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return _norm_bisect(lambda lam: modular(mu, phi, 1.0 / lam, ctx), mu.sup_value, tol)


def kunze_norms(elements: Sequence[AlgebraElement], phi: OrliczFunction,
                tol: float = DEFAULT_TOL) -> np.ndarray:
    """``kunze_norm`` of many elements: one solve per algebra and ROWS_PER_SOLVE elements.

    The blocks of the elements of one algebra are decomposed by one stacked
    SVD, and every probe traces phi over rows x scalings in one
    ``_trace_calculus`` call.  Each value is bit for bit the one-form value;
    errors follow ``batch_or_loop``.
    """
    _check_tol(tol)

    def solve(items):
        out = np.zeros(len(items))
        for members in _grouped((a.algebra for a in items), ROWS_PER_SOLVE):
            alg = items[members[0]].algebra
            svd = _svd_blocks([items[i] for i in members])
            seeds = np.max([s[:, 0] for s, _, _ in svd], axis=0)
            live = seeds > 0.0
            if not live.all():
                members, seeds = np.array(members)[live], seeds[live]
                svd = [tuple(x[live] for x in block) for block in svd]
            if not seeds.size:
                continue

            def trace_modular(rows, inv_scales, svd=svd, alg=alg):
                if rows.size == len(svd[0][0]):
                    return _trace_calculus(alg, phi, svd, inv_scales)
                return _trace_calculus(alg, phi, [tuple(x[rows] for x in block) for block in svd],
                                       inv_scales)

            out[members] = _norm_bisect_rows(trace_modular, seeds, tol)
        if np.isnan(out).any():
            raise UnboundedNormError(_NO_SCALING)
        return out

    return batch_or_loop(solve, elements)


def kunze_norm(alg: TracedAlgebra, a: AlgebraElement, phi: OrliczFunction,
               tol: float = DEFAULT_TOL) -> float:
    """Trace-modular norm inf{lam : tr phi(|a|/lam) <= 1} via functional calculus.

    An independent code path from ``luxemburg_norm``: each block is
    decomposed once, and each probed scaling rebuilds phi(|a|/lam) as a
    matrix and traces it, treating inadmissible functional calculus as a
    modular value of +inf.  The two routes agree; the ``norm`` command and
    the verification suite compare them.  The one-element case of
    ``kunze_norms``.
    """
    _check_tol(tol)
    if a.algebra != alg:
        raise StructuralError("element does not belong to the given algebra")
    return float(kunze_norms([a], phi, tol)[0])


def amemiya_norms(mus: Sequence[StepForm], phi: OrliczFunction,
                  ctx: Optional[WeightedContext] = None,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
    """``amemiya_norm`` of many step forms: one convex search per group of ``_step_rows``.

    Each value is bit for bit the one-form value; errors follow
    ``batch_or_loop``.
    """

    def solve(forms):
        out = np.zeros(len(forms))
        for idx, values, masses in _step_rows(forms, ctx):
            modular_at = _step_rows_modular(values, masses, phi)

            def objective(rows, s, modular_at=modular_at):
                k = AMEMIYA_K_CAP / s
                return (1.0 + modular_at(rows, k)) / k

            out[idx] = minimize(objective, _AMEMIYA_S[None].repeat(len(idx), axis=0),
                                1e-3 * tol)[0]
        if np.isinf(out).any():
            raise UnboundedNormError("Amemiya objective infinite for all probed k")
        return out

    return batch_or_loop(solve, mus)


def amemiya_norm(mu: RearrangementFunction, phi: OrliczFunction,
                 ctx: Optional[WeightedContext] = None,
                 tol: float = DEFAULT_TOL) -> float:
    """inf_{k>0} (1 + modular(mu, phi, k, ctx)) / k for step data.

    The objective is convex in s = K_CAP / k (a perspective of the modular),
    searched from s = 2^0, ..., 2^(30 + BRACKET_LIMIT).  The value lies at
    most 1e-3 * tol (relative) above the minimum, so comparisons at ``tol``
    see the Luxemburg bisection's error, not this one.  A minimum at s = 1 is
    reported at the k-cap; an objective infinite for all probed k raises
    UnboundedNormError.  The one-row case of ``amemiya_norms``.
    """
    if not isinstance(mu, StepForm):
        raise DomainError("the Amemiya norm needs step data")
    return float(amemiya_norms([mu], phi, ctx, tol)[0])


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
        va, vb = mu_a.evaluate_many(mids), mu_b.evaluate_many(mids)
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


def holder_checks(triples: Sequence[tuple[TracedAlgebra, AlgebraElement, AlgebraElement]],
                  gauges: Sequence[OrliczFunction],
                  tol: float = 1e-8) -> list[list[HolderReport]]:
    """``holder_check`` without probes over many (alg, f, g) and gauges.

    |tr(fg)| and the singular values of f and g are computed once per
    triple, and each gauge takes one Amemiya and one Luxemburg solve over
    all the triples.  Errors follow ``batch_or_loop``, one gauge at a time.
    Returns one list of reports per gauge, in the order of ``triples``.
    """

    @functools.cache
    def parts(i):
        alg, f, g = triples[i]
        return abs(trace(alg, f @ g)), singular_values(alg, f), singular_values(alg, g)

    def solve(phi, rows):
        got = [parts(i) for i in rows]
        duals = amemiya_norms([mu_f for _, mu_f, _ in got], conjugate(phi)).tolist()
        primals = luxemburg_norms([mu_g for _, _, mu_g in got], phi).tolist()
        row = []
        for (left, _, _), dual, primal in zip(got, duals, primals):
            rhs = dual * primal
            passed = left <= rhs + tol * (1.0 + rhs) if not math.isinf(rhs) else True
            row.append(HolderReport(lhs=float(left), rhs=float(rhs), dual_norm=dual,
                                    primal_norm=primal, slack=float(rhs - left),
                                    passed=passed, sampled_sup=None, sampled_sup_ok=True))
        return row

    return [batch_or_loop(lambda rows: solve(phi, rows), range(len(triples)))
            for phi in gauges]


def holder_check(alg: TracedAlgebra, f: AlgebraElement, g: AlgebraElement,
                 phi: OrliczFunction, tol: float = 1e-8,
                 probes: Sequence[AlgebraElement] = ()) -> HolderReport:
    """|tr(fg)| <= (dual gauge norm of f) * (gauge norm of g).

    The dual factor is the Amemiya norm in the conjugate gauge — the computable
    form of the pairing norm sup{tr|fg'| : norm of g' <= 1}.  When ``probes``
    are given, that sup is also estimated over them, each scaled to gauge
    norm one; the estimate can falsify but not certify the bound.
    """
    rep = holder_checks([(alg, f, g)], [phi], tol)[0][0]
    if not probes:
        return rep

    def pairings(gs):
        nrms = luxemburg_norms(singular_values_many(alg, gs), phi).tolist()
        prods = [f @ (gp * (1.0 / nrm)) for gp, nrm in zip(gs, nrms) if nrm != 0.0]
        return [mu.total_integral() for mu in singular_values_many(alg, prods)]

    best = max([0.0, *batch_or_loop(pairings, probes)])
    return replace(rep, sampled_sup=best,
                   sampled_sup_ok=best <= rep.dual_norm + tol * (1.0 + rep.dual_norm))


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


def moment_bound_checks(alg: TracedAlgebra, xs: Sequence[AlgebraElement],
                        ys: Sequence[AlgebraElement], orders: Sequence[int],
                        tol: float = 1e-9, factor: float = 2.0) -> list[list[MomentReport]]:
    """``moment_bound_check`` of many pairs (x, y) at many orders n.

    Validates each input once, by one stacked positivity test per block,
    and decomposes each once, by one ``singular_values_many`` call.
    Returns one list of reports per pair, one report per order.  Each report
    is bit for bit the one-form report; errors follow ``batch_or_loop`` over
    the pairs.
    """
    if any(n < 1 for n in orders):
        raise DomainError("moment order must be >= 1")

    def solve(pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        if not _are_positive([*xs, *ys]).all():
            raise DomainError("moment bound requires positive inputs")
        lhs = []
        for x, y in pairs:
            tx = trace(alg, x).real
            if abs(tx - 1.0) > 1e-8:
                raise DomainError(f"x must have unit trace, got {tx}")
            lhs.append([trace(alg, x @ y.matrix_power(n)).real for n in orders])
        mus = singular_values_many(alg, [*xs, *ys])
        reports = []
        for row, mu_x, mu_y in zip(lhs, mus, mus[len(xs):]):
            reports.append([])
            for n, left in zip(orders, row):
                rhs = factor * n * pairing_integral(mu_y, mu_x, power=n)
                reports[-1].append(MomentReport(lhs=float(left), rhs=float(rhs),
                                                slack=float(rhs - left),
                                                passed=left <= rhs + tol * (1.0 + abs(rhs))))
        return reports

    return batch_or_loop(solve, list(zip(xs, ys)))


def moment_bound_check(alg: TracedAlgebra, x: AlgebraElement, y: AlgebraElement,
                       n: int, tol: float = 1e-9,
                       factor: float = 2.0) -> MomentReport:
    """tr(x y^n) <= 2n * integral of mu(y)^n mu(x).

    ``factor`` scales the 2n constant and exists so the verification suite can
    demonstrate that a weakened constant is caught; leave it at 2.0.  The
    one-pair, one-order case of ``moment_bound_checks``.
    """
    return moment_bound_checks(alg, [x], [y], [n], tol, factor)[0][0]
