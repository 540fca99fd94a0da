"""Modulars, Luxemburg and Amemiya norms, weighted pairings, regularity probes.

Scaling convention: ``modular(mu, phi, inv_scale, ctx)`` is the integral of
phi(inv_scale * mu(t)) against the weight (Lebesgue when ``ctx`` is None).
The Luxemburg norm is inf{lam > 0 : modular(mu, phi, 1/lam) <= 1}; the
Amemiya norm is inf_k (1 + modular(mu, phi, k)) / k.  The Luxemburg norm
coincides with the trace-modular route through functional calculus, which
``kunze_norm`` computes independently; callers compare the two routes.
Every Luxemburg and trace-modular norm takes the same walks and the same
cut, guided by the modular's values (``solve.bracket_rows`` and
``solve.bisect_rows``): step and trace data answer a round in one numpy
pass, parametric data one pass over their cached quadrature samples.
The Amemiya minimum is found by ``solve.minimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import quadrature
from .algebra import (
    AlgebraElement,
    TracedAlgebra,
    _are_positive,
    _svd_blocks,
    _trace_calculus,
    trace,
)
from .errors import (DomainError, NcorliczError, NumericError, StructuralError,
                     UnboundedNormError, batch_or_loop)
from .orlicz import OrliczFunction, conjugate, cosh_minus_one
from .quadrature import DEPTH
from .rearrangement import (
    ParametricForm,
    RearrangementFunction,
    StepForm,
    WeightedContext,
    _interval_masses,
    singular_values_many,
)
from .solve import _cut, _walk, bisect_rows, bracket_rows, minimize

INF = math.inf
DEFAULT_TOL = 1e-9
MODULAR_SLACK = 1e-9  # absolute slack at the modular <= 1 boundary
BRACKET_LIMIT = 200
_HEAD, _BIG = 7, np.finfo(float).max  # a norm's down walk starts 2**_HEAD above its seed
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


def _rows(mus: Sequence[RearrangementFunction], ctx: Optional[WeightedContext],
          phi: OrliczFunction):
    """The nonzero forms in groups of one solve: (input indices, seeds, modular_at).

    ``modular_at(rows, inv_scales)`` gives the modulars of the group's rows
    numbered ``rows`` at the matching rows of scalings, and the seeds are
    the forms' sup values.  Each parametric form is a one-row group over its
    cached quadrature samples.  Step forms are grouped by live piece count,
    zero-padding none, at most ROWS_PER_SOLVE rows to a group: rows of one
    group share a shape, so every row is evaluated by exactly the numpy
    calls of its one-form solve, and its value is bit for bit the same.
    Zero forms are left out, so their norms stay 0.
    """
    pieces = {}
    for i, mu in enumerate(mus):
        if mu.is_zero:
            continue
        if isinstance(mu, StepForm):
            pieces[i] = _live_pieces(mu, ctx)
        else:
            yield (np.array([i]), np.array([mu.sup_value]),
                   lambda rows, inv_scales, mu=mu: modular(mu, phi, inv_scales[0], ctx)[None])
    live = list(pieces)
    for group in _grouped((pieces[i][0].size for i in live), ROWS_PER_SOLVE):
        idx = [live[g] for g in group]
        yield (np.array(idx), np.array([mus[i].sup_value for i in idx]),
               _step_rows_modular(np.array([pieces[i][0] for i in idx]),
                                  np.array([pieces[i][1] for i in idx]), phi))


def _step_rows_modular(values: np.ndarray, masses: np.ndarray, phi: OrliczFunction):
    """``modular_at(rows, inv_scales)`` over rows of step data.

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


def _pieces(mu: ParametricForm, weight: Optional[RearrangementFunction], end: float):
    """The intervals of [0, end] with one weight each: (lo, hi, step value or None).

    One interval for Lebesgue measure (value 1) and for a parametric weight
    (None: its samples), one per jump for a step weight.
    """
    if weight is None:
        return [(0.0, end, 1.0)]
    if not isinstance(weight, StepForm):
        return [(0.0, end, None)]
    lows = np.concatenate([[0.0], weight.breakpoints[:-1]]).tolist()
    return [(lo, min(hi, end), value)
            for lo, hi, value in zip(lows, weight.breakpoints.tolist(), weight.values.tolist())
            if lo < end]


def _preimages(mu: ParametricForm, levels: np.ndarray, top: float) -> np.ndarray:
    """Where mu falls to each of ``levels`` for good: sup{t <= top : mu(t) > level}.

    ``top`` where mu stays above the level up to top (up to e^DEPTH for
    top = +inf), and otherwise one rows bisection of log t to 1e-12.  A
    cut below e^-(DEPTH - 4) reads as 0: the integral left lies under the
    float floor there, and the kink's rise would hide its decay from the
    tail's depths.
    """
    deepest = DEPTH - 4.0
    last = math.exp(DEPTH) if math.isinf(top) else math.nextafter(top, 0.0)
    first, end = mu.evaluate_many(np.array([math.exp(-deepest), last]))
    out = np.where(levels < first, top, 0.0)
    cut = ((levels < first) & (levels >= end)).nonzero()[0]
    if cut.size:
        def above(rows, y):
            return mu.evaluate_many(np.exp(y)) > levels[cut[rows], None]

        y_top = DEPTH if math.isinf(top) else math.log(top)
        out[cut] = np.exp(bisect_rows(above, np.full(cut.size, -deepest),
                                      np.full(cut.size, y_top), rtol=0.0, atol=1e-12))
    return out


def _weighted_integral(h, mu: ParametricForm, weight: Optional[RearrangementFunction],
                       rows: int, ends: Optional[np.ndarray] = None) -> np.ndarray:
    """Integrals of ``rows`` integrands h(mu(t)) against ``weight`` (Lebesgue when None); may be +inf.

    ``h(values, rows)`` gives the integrands numbered ``rows`` at mu's
    ``values``, one row each, with h(0) = 0, so nothing beyond mu's support
    counts.  ``ends``, when given, ends each row's interval where its
    integrand reaches 0 for good (a gauge's kink).  A flat mu integrates
    exactly.  Otherwise each interval of ``_pieces`` is one
    ``quadrature.integrals`` pass over the samples mu caches for it, times
    the step weight's value or the weight's own samples on the same nodes;
    a row that is +inf after a piece skips the rest.  A row with its own end
    samples afresh.  This is the one place where
    parametric data meet a weight: modulars, Laplace probes and pairings
    all come here.
    """
    every = np.arange(rows)
    top = mu.support if weight is None else min(mu.support, weight.support)
    if mu.constant_level is not None:
        val = h(np.array([mu.constant_level]), every)[:, 0]
        span = mu.support if weight is None else weight.head_integral(mu.support)
        with np.errstate(invalid="ignore"):
            return np.where(val == 0.0, 0.0, val * span) if span > 0 else np.zeros(rows)
    if ends is None:
        groups = [(every, top, True)]
    else:
        own = (ends < top).nonzero()[0]
        groups = [(np.setdiff1d(every, own), top, True)] + [
            (np.array([i]), float(ends[i]), False) for i in own.tolist()]
    out = np.zeros(rows)
    for idx, end, cache in groups:
        if not idx.size or end <= 0.0:
            continue
        for lo, hi, value in _pieces(mu, weight, end):
            node, values = mu.sampled(lo, hi, cache)
            f = h(values, idx)
            if value is None:
                f = _weighted(f, weight.sampled(lo, hi, cache)[1])

            def refine(sub, node=node, value=value, idx=idx, cache=cache):
                g = h(mu.sampled_finer(node, cache), idx[sub])
                return g if value is not None else _weighted(g, weight.sampled_finer(node, cache))

            piece = quadrature.integrals(f, node, refine)[0]
            out[idx] += piece if value is None else value * piece
            idx = idx[out[idx] < INF]  # a row already +inf needs no further piece
            if not idx.size:
                break
    return out


def _weighted(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Integrand rows times the weight's samples; 0 where the weight is, even at +inf."""
    with np.errstate(invalid="ignore"):
        return np.where(w > 0, f * w, 0.0)


def modular(mu: RearrangementFunction, phi: OrliczFunction, inv_scale,
            ctx: Optional[WeightedContext] = None):
    """Integral of phi(inv_scale * mu) against the weight; may be +inf.

    ``inv_scale`` may be an array of scalings, and the result is then the
    array of modulars: one numpy pass over the pieces of step data (exact),
    or over the cached quadrature samples of parametric data.  On parametric
    data a scaling with inv_scale * mu(0+) > b_phi gives +inf before any
    quadrature, and a gauge that vanishes up to a_phi > 0 ends each
    scaling's interval where k mu falls to a_phi.  Pieces of zero weight
    mass contribute nothing even where the gauge is infinite (the norm only
    sees weight-a.e. classes).  NaN from the gauge raises NumericError.
    """
    scales = np.asarray(inv_scale, dtype=float)
    if not scales.min(initial=INF) > 0:
        raise DomainError(f"inv_scale must be positive, got {inv_scale}")
    flat = scales.reshape(1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(mu, StepForm):
            values, masses = _live_pieces(mu, ctx)
            out = _step_rows_modular(values[None], masses[None], phi)(np.arange(1), flat)[0]
        else:
            out = np.full(scales.size, INF)
            # phi(k mu) = +inf on some (0, eps), which every admissible weight charges
            live = (~(flat[0] * mu.sup_value > phi.b_phi)).nonzero()[0]
            if live.size:
                k = flat[0, live]
                weight = None if ctx is None else ctx.weight
                ends = None
                if phi.a_phi > 0:
                    top = mu.support if weight is None else min(mu.support, weight.support)
                    ends = _preimages(mu, phi.a_phi / k, top)
                out[live] = _weighted_integral(_parametric_integrand(phi, k), mu, weight, k.size,
                                               ends)
    return out.reshape(scales.shape) if scales.ndim else float(out[0])


def _parametric_integrand(phi: OrliczFunction, k: np.ndarray):
    """h(values, rows) = phi(k[rows] * values), one row per scaling.

    A NaN from the gauge raises the step data's error at its first argument;
    a NaN among mu's values is left to the quadrature's own error.
    """

    def h(values, rows):
        f = phi.eval_many(k[rows, None] * values)
        if math.isnan(np.add.reduce(f, axis=None)) and not np.isnan(values).any():
            raise _nan_error(phi, values, k[rows])
        return f

    return h


def _feasible(modular_at):
    """Rows values for ``_norm_bisect_rows``: modular - (1 + MODULAR_SLACK), <= 0 if feasible."""
    return lambda rows, lams: modular_at(rows, 1.0 / lams) - (1.0 + MODULAR_SLACK)


def _norm_bisect_rows(value, seeds: np.ndarray, tol: float) -> np.ndarray:
    """inf{lam > 0 : modular <= 1} for each row, bracketed from its seed.

    ``value`` is ``_feasible``'s.  Each row walks down BATCH scalings at a
    time from 2**_HEAD times its seed, which brackets most norms in one
    round, walks up when that start is infeasible, then cuts, guided by the
    values of the walk's last round.  Every row's numbers are its own.  NaN
    marks a row that no finite scaling brings below one.
    """

    def on(holds, subset):
        if subset.size == seeds.size:
            return holds
        return lambda rows, lams: holds(subset[rows], lams)

    # walks probe scalings far from the norm, where the modular overflows
    # to +inf: a value, not a warning; each way they reach 2**201 times the seed
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.minimum(np.where((seeds > 0.0) & (seeds < INF), seeds, 1.0) * 2.0 ** _HEAD, _BIG)
        known = _walk(value, lam, 0.5, BRACKET_LIMIT + 1 + _HEAD)
        yes, no = known[0], known[1]
        up = (np.isnan(yes) & ~np.isnan(no)).nonzero()[0]  # the start is infeasible
        if up.size:
            last, yes[up] = bracket_rows(on(lambda rows, lams: ~(value(rows, lams) <= 0.0), up),
                                         lam[up] * 2.0, 2.0, BRACKET_LIMIT - _HEAD)
            no[up] = np.where(np.isnan(last), lam[up], last)
            known[2:, up] = np.nan
        # a down walk that never failed: feasible at arbitrarily small scalings
        out = np.where(np.isnan(no), 0.0, np.nan)
        todo = (~np.isnan(yes + no)).nonzero()[0]
        if todo.size:
            out[todo] = _cut(on(value, todo), known[:, todo], tol, 0.0)
    return out


def _check_tol(tol: float) -> None:
    if not 0 < tol <= 1e-3:
        raise DomainError("tol must lie in (0, 1e-3]")


def luxemburg_norms(mus: Sequence[RearrangementFunction], phi: OrliczFunction,
                    ctx: Optional[WeightedContext] = None,
                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """``luxemburg_norm`` of many forms: one solve per group of ``_rows``.

    Each value is bit for bit the one-form value; errors follow
    ``batch_or_loop``.
    """
    _check_tol(tol)

    def solve(forms):
        out = np.zeros(len(forms))
        for idx, seeds, modular_at in _rows(forms, ctx, phi):
            out[idx] = _norm_bisect_rows(_feasible(modular_at), seeds, tol)
        if np.isnan(out).any():
            raise UnboundedNormError(_NO_SCALING)
        return out

    return batch_or_loop(solve, mus)


def luxemburg_norm(mu: RearrangementFunction, phi: OrliczFunction,
                   ctx: Optional[WeightedContext] = None,
                   tol: float = DEFAULT_TOL) -> float:
    """inf{lam > 0 : modular(mu, phi, 1/lam, ctx) <= 1}; 0 for vanishing mu.

    The one-row case of ``luxemburg_norms``: step data answer each 15-point
    round in one numpy pass, parametric data in one ``modular`` pass over
    their cached quadrature samples.
    """
    return float(luxemburg_norms([mu], phi, ctx, tol)[0])


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

            out[members] = _norm_bisect_rows(_feasible(trace_modular), seeds, tol)
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


def amemiya_norms(mus: Sequence[RearrangementFunction], phi: OrliczFunction,
                  ctx: Optional[WeightedContext] = None,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
    """``amemiya_norm`` of many forms: one convex search per group of ``_rows``.

    Each value is bit for bit the one-form value; errors follow
    ``batch_or_loop``.
    """
    _check_tol(tol)

    def solve(forms):
        out = np.zeros(len(forms))
        for idx, _, modular_at in _rows(forms, ctx, phi):

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
    """inf_{k>0} (1 + modular(mu, phi, k, ctx)) / k; 0 for vanishing mu.

    The objective is convex in s = K_CAP / k (a perspective of the modular),
    searched from s = 2^0, ..., 2^(30 + BRACKET_LIMIT).  The value lies at
    most 1e-3 * tol (relative) above the minimum, so comparisons at ``tol``
    see the Luxemburg bisection's error, not this one.  A minimum at s = 1 is
    reported at the k-cap; an objective infinite for all probed k raises
    UnboundedNormError.  The one-row case of ``amemiya_norms``.
    """
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
    with np.errstate(over="ignore"):
        return float(_weighted_integral(lambda values, rows: values[None] ** power,
                                        mu_a, mu_b, 1)[0])


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

    |tr(fg)| of each triple and one ``singular_values_many`` call over all
    the f and g serve every gauge, which takes one Amemiya and one
    Luxemburg solve.  Errors follow ``batch_or_loop``, one gauge at a time,
    each gauge computing its own parts when the shared ones fail.  Returns
    one list of reports per gauge, in the order of ``triples``.
    """

    def parts(items):
        return ([abs(trace(alg, f @ g)) for alg, f, g in items],
                singular_values_many([f for _, f, _ in items] + [g for _, _, g in items]))

    def solve(phi, items):
        lefts, mus = shared if items is triples and shared else parts(items)
        duals = amemiya_norms(mus[:len(items)], conjugate(phi)).tolist()
        primals = luxemburg_norms(mus[len(items):], phi).tolist()
        row = []
        for left, dual, primal in zip(lefts, duals, primals):
            rhs = dual * primal
            passed = left <= rhs + tol * (1.0 + rhs) if not math.isinf(rhs) else True
            row.append(HolderReport(lhs=float(left), rhs=float(rhs), dual_norm=dual,
                                    primal_norm=primal, slack=float(rhs - left),
                                    passed=passed, sampled_sup=None, sampled_sup_ok=True))
        return row

    try:
        shared = parts(triples)
    except (NcorliczError, np.linalg.LinAlgError):
        shared = None
    return [batch_or_loop(lambda items: solve(phi, items), triples) for phi in gauges]


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
        nrms = luxemburg_norms(singular_values_many(gs), phi).tolist()
        prods = [f @ (gp * (1.0 / nrm)) for gp, nrm in zip(gs, nrms) if nrm != 0.0]
        return [mu.total_integral() for mu in singular_values_many(prods)]

    best = max([0.0, *batch_or_loop(pairings, probes)])
    return replace(rep, sampled_sup=best,
                   sampled_sup_ok=best <= rep.dual_norm + tol * (1.0 + rep.dual_norm))


# ---------------------------------------------------------------------------
# Exponential-moment regularity
# ---------------------------------------------------------------------------

def laplace_probe(mu_g: RearrangementFunction, ctx: WeightedContext, s):
    """Integral of exp(s * mu_g(t)) against the weight; divergence reports +inf.

    Computed as the weight mass plus the integral of expm1(s * mu_g), which
    vanishes beyond mu_g's support.  ``s`` may be an array of exponents, and
    the result is then the array of probes: one numpy pass over the pieces
    of step data, or over the cached quadrature samples of parametric data.
    For s < 0 the result lies in (0, mass], so only s > 0 can diverge, and
    ``quant_membership`` probes that side alone.  A NaN exponent raises
    DomainError.
    """
    exponents = np.asarray(s, dtype=float)
    if np.isnan(exponents).any():
        raise DomainError(f"s must not be NaN, got {s}")
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(mu_g, StepForm):
            values, masses = _live_pieces(mu_g, ctx)
            excess = np.abs(np.expm1(np.multiply.outer(exponents, values))) @ masses
        else:
            flat = exponents.reshape(-1)
            excess = _weighted_integral(
                lambda values, rows: np.abs(np.expm1(flat[rows, None] * values)),
                mu_g, ctx.weight, flat.size).reshape(exponents.shape)
    if exponents.ndim:
        return ctx.mass + np.copysign(excess, exponents)
    return ctx.mass + math.copysign(float(excess), float(exponents))


def quant_membership(mu_g: RearrangementFunction, ctx: WeightedContext) -> bool:
    """Exponential moments finite at some probed s = 2^0, ..., 2^-40.

    For mu_g >= 0 the moment at -s is at most the weight mass, so finiteness
    at +s alone puts the whole interval (-s, s) inside the transform's
    domain by convexity, which is exactly membership of 0 in the interior of
    the domain.  Only +s is probed, 15 exponents to a ``laplace_probe`` call.
    """
    def diverges(rows, s):
        return np.isinf(laplace_probe(mu_g, ctx, s[0]))[None]

    return not math.isnan(bracket_rows(diverges, np.array([1.0]), 0.5, 40)[1][0])


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
    the norm route doubles lam from 1 up to 2^60, halving the scaling 1/lam,
    looking for a finite cosh-minus-one modular, 15 scalings to a
    ``modular`` call.  The two booleans agree whenever the numerics are
    sound.
    """
    a = quant_membership(mu_g, ctx)
    psi = cosh_minus_one()

    def diverges(rows, lams):
        return np.isinf(modular(mu_g, psi, 1.0 / lams[0], ctx))[None]

    finite_at = bracket_rows(diverges, np.array([1.0]), 2.0, 60)[1][0]
    return RegularityReport(member_via_laplace=a, member_via_norm=not math.isnan(finite_at))


# ---------------------------------------------------------------------------
# Moment chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    lhs: float
    rhs: float
    slack: float
    passed: bool


def moment_bound_checks(xs: Sequence[AlgebraElement], ys: Sequence[AlgebraElement],
                        orders: Sequence[int], tol: float = 1e-9,
                        factor: float = 2.0) -> list[list[MomentReport]]:
    """``moment_bound_check`` of many pairs (x, y) of any algebras at many orders n.

    Validates each input once, by one stacked positivity test per algebra
    and block, and decomposes each once, by one ``singular_values_many``
    call.  Returns one list of reports per pair, one report per order.  Each
    report is bit for bit the one-form report; errors follow
    ``batch_or_loop`` over the pairs.
    """
    if any(n < 1 for n in orders):
        raise DomainError("moment order must be >= 1")

    def solve(pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        if not _are_positive([*xs, *ys]).all():
            raise DomainError("moment bound requires positive inputs")
        lhs = []
        for x, y in pairs:
            tx = trace(x.algebra, x).real
            if abs(tx - 1.0) > 1e-8:
                raise DomainError(f"x must have unit trace, got {tx}")
            lhs.append([trace(x.algebra, x @ y.matrix_power(n)).real for n in orders])
        mus = singular_values_many([*xs, *ys])
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
    if x.algebra != alg:
        raise StructuralError("element does not belong to the given algebra")
    return moment_bound_checks([x], [y], [n], tol, factor)[0][0]
