"""Named verification checks over seeded corpora.

Each check states a mathematical claim, runs it over a reproducible corpus,
and reports the worst observed slack (positive slack = violation).  The CLI
``verify`` command runs the whole registry; the acceptance tests run the
criteria-bearing checks at their contract scale.

A check is a function ``check_<name>(cfg, rng)`` under ``@_check(claim)``,
which registers it in ``CHECKS`` as ``<name>``.  It draws every sample from
its one generator ``rng`` and returns the sample count, the worst slack and
the verdict, plus a details dict when it has one.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import orlicz as og
from . import rearrangement as rg
from . import sampling as smp
from .algebra import AlgebraElement, TracedAlgebra, _by_algebra, _functions_of, _stacks, \
    _svd_blocks, abs_value, apply_function, apply_function_many, is_projection, \
    projection_trace_norm, trace
from .errors import NotMeasurableError, UnboundedNormError
from .morphisms import (
    _chain_checks,
    _unit_ball,
    absolute_continuity_check,
    apply_jordan,
    build_tau_T,
    composition_bound_check,
    interpolation_contraction_check,
    purity_check,
    radon_nikodym,
)
from .norms import (
    amemiya_norm,
    amemiya_norms,
    holder_checks,
    kunze_norm,
    kunze_norms,
    luxemburg_norm,
    luxemburg_norms,
    modular,
    moment_bound_checks,
    pistone_sempi_equivalence,
    tau_x,
)
from .rearrangement import (
    StepForm,
    WeightedContext,
    fack_kosaki_checks,
    rearrange_step,
    singular_values,
    singular_values_many,
    weighted_rearrangement,
)

INF = math.inf


@dataclass(frozen=True)
class Tolerances:
    """Central tolerance ladder; reports echo the effective values."""

    bisect: float = 1e-9
    slack: float = 1e-8
    norm_equivalence_rel: float = 1e-7
    exchange: float = 1e-10
    chain: float = 1e-9
    bound_slack: float = 1e-7
    isometry: float = 1e-8


@dataclass
class CheckResult:
    name: str
    claim: str
    samples: int
    worst_slack: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    scale: float = 1.0
    tolerances: Tolerances = field(default_factory=Tolerances)
    moment_factor: float = 2.0  # lowering this below 2 must make moment_chain fail

    def count(self, base: int) -> int:
        return max(1, int(round(base * self.scale)))


CHECKS: dict[str, Callable[[SuiteConfig, np.random.Generator], CheckResult]] = {}


def _check(claim: str):
    """Register ``check_<name>`` in CHECKS as ``<name>``, returning CheckResults.

    The body returns the remaining CheckResult fields in order: the sample
    count, the worst slack, the verdict, and details when it has them.
    """
    def register(body):
        name = body.__name__.removeprefix("check_")

        @functools.wraps(body)
        def check(cfg: SuiteConfig, rng: np.random.Generator) -> CheckResult:
            return CheckResult(name, claim, *body(cfg, rng))

        CHECKS[name] = check
        return check

    return register


def _rng_for(cfg: SuiteConfig, name: str) -> np.random.Generator:
    """The generator of one check, seeded by the suite seed and the CRC-32 of its name alone."""
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, zlib.crc32(name.encode())]))


def _corpus(cfg: SuiteConfig, base: int) -> list[TracedAlgebra]:
    """``cfg.count(base)`` algebras, cycling through the catalog shapes."""
    shapes = smp.algebra_shapes()
    return [shapes[i % len(shapes)] for i in range(cfg.count(base))]


def _norm_gauges() -> list[og.OrliczFunction]:
    return [og.power(1.0), og.power(2.0), og.power(3.0), og.cosh_minus_one(),
            og.linear_until_cap(1.0)]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@_check("inf{lam : tr phi(|a|/lam) <= 1} equals the Luxemburg norm of the "
        "singular value function, for every gauge including a finite cap")
def check_kunze_luxemburg_equivalence(cfg: SuiteConfig, rng):
    """Trace-modular and rearrangement-integral norms agree on random elements."""
    corpus = _corpus(cfg, 200)
    gauges = _norm_gauges()
    elements = smp.random_elements(corpus, rng)
    mus = singular_values_many(elements)
    worst = 0.0
    for phi in gauges:
        ks = kunze_norms(elements, phi, tol=cfg.tolerances.bisect).tolist()
        ls = luxemburg_norms(mus, phi, tol=cfg.tolerances.bisect).tolist()
        for k, l in zip(ks, ls):
            worst = max(worst, abs(k - l) / max(1.0, k, l))
    return len(corpus) * len(gauges), worst, worst <= cfg.tolerances.norm_equivalence_rel


@_check("singular values of phi(|a|) equal phi applied to the singular "
        "values of a, as step functions")
def check_rearrangement_exchange(cfg: SuiteConfig, rng):
    """Gauge and rearrangement commute: mu(phi(|a|)) = phi(mu(a)) pointwise."""
    corpus = _corpus(cfg, 200)
    elements = smp.random_elements(corpus, rng)
    worst = max([0.0, *_exchange_gaps(elements)])
    return len(corpus) * 4, worst, worst <= cfg.tolerances.exchange


def _exchange_gaps(elements) -> list[float]:
    """The largest exchange gap of each element over the four gauges."""
    cap = og.linear_until_cap(1.0)
    gauges = [og.power(2.0), og.cosh_minus_one(), og.zero_then_linear(0.5)]
    mus = singular_values_many(elements)
    gaps = [0.0] * len(elements)
    # the cap gauge on the elements rescaled to a spectrum below the cap
    rows = [i for i, mu in enumerate(mus) if mu.sup_value > 0]
    small = [elements[i] * (0.9 / mus[i].sup_value) for i in rows]
    for i, gap in zip(rows, _gaps_under(cap, small, singular_values_many(small))):
        gaps[i] = max(gaps[i], gap)
    for phi in gauges:
        for i, gap in enumerate(_gaps_under(phi, elements, mus)):
            gaps[i] = max(gaps[i], gap)
    return gaps


def _gaps_under(phi, elements, mus) -> list[float]:
    """max |mu(phi(|a|)) - phi(mu(a))| over the breakpoints of both, their midpoints
    and a point past both supports, for each element a with singular values mu."""
    lefts = singular_values_many(apply_function_many(phi, elements))
    gaps = []
    for left, mu in zip(lefts, mus):
        right = StepForm(mu.durations, phi.eval_many(mu.values))
        pts = np.concatenate([[0.0], left.breakpoints, right.breakpoints])
        pts = np.unique(np.concatenate([pts, 0.5 * (pts[1:] + pts[:-1]),
                                        [max(left.support, right.support) + 1.0]]))
        gaps.append(float(np.max(np.abs(left.evaluate_many(pts) - right.evaluate_many(pts)))))
    return gaps


@_check("|tr(fg)| <= (Amemiya norm of f in the conjugate gauge) * "
        "(Luxemburg norm of g); quadratic case matches the trace 2-norm")
def check_holder_pairing(cfg: SuiteConfig, rng):
    """|tr(fg)| is dominated by the dual-gauge/gauge norm product."""
    corpus = _corpus(cfg, 500)
    gauges = [og.power(2.0), og.cosh_minus_one(), og.exp_minus_one()]
    drawn = smp.random_elements([alg for alg in corpus for _ in "fg"], rng)
    triples = list(zip(corpus, drawn[::2], drawn[1::2]))
    reports = holder_checks(triples, gauges, tol=cfg.tolerances.slack)
    worst = 0.0
    for row in reports:
        for rep in row:
            worst = max(worst, rep.lhs - rep.rhs)
    # the quadratic gauge reduces to Cauchy-Schwarz in the trace 2-norm; its
    # dual and primal norms are the power(2) Hoelder report's
    cs_worst = 0.0
    for (alg, f, g), rep in zip(triples, reports[0]):
        two_f = math.sqrt(trace(alg, f @ f.adjoint()).real)
        two_g = math.sqrt(trace(alg, g @ g.adjoint()).real)
        cs_worst = max(cs_worst, abs(rep.dual_norm - two_f) / max(1.0, two_f),
                       abs(rep.primal_norm - two_g) / max(1.0, two_g))
    passed = worst <= cfg.tolerances.slack and cs_worst <= cfg.tolerances.norm_equivalence_rel
    return (len(corpus) * len(gauges), max(worst, cs_worst), passed,
            {"cauchy_schwarz_rel_error": cs_worst})


@_check("triangle inequality and absolute homogeneity of the weighted "
        "Luxemburg norm over step and exponential weights")
def check_weighted_norm_axioms(cfg: SuiteConfig, rng):
    """The weighted Luxemburg functional is a norm: triangle + homogeneity."""
    corpus = _corpus(cfg, 300)
    contexts = [
        WeightedContext(StepForm.from_raw([1.0, 1.0], [0.7, 0.3])),
        WeightedContext(StepForm.from_raw([0.5, 1.0, 2.0], [1.2, 0.6, 0.1])),
        WeightedContext(rg.exp_decay()),
    ]
    psi = og.cosh_minus_one()
    draws = []
    for alg in corpus:
        a = smp.random_element(alg, rng)
        b = smp.random_element(alg, rng)
        draws.append((a, b, float(rng.uniform(0.2, 5.0))))
    mus = singular_values_many([x for a, b, alpha in draws for x in (a, b, a + b, alpha * a)])
    worst = 0.0
    for c, ctx in enumerate(contexts):
        mine = range(c, len(draws), len(contexts))  # element i is weighted by context i mod 3
        norms = luxemburg_norms([mus[4 * i + k] for i in mine for k in range(4)], psi, ctx,
                                tol=cfg.tolerances.bisect).tolist()
        for j, (_, _, alpha) in enumerate(draws[c::len(contexts)]):
            na, nb, nab, nscaled = norms[4 * j:4 * j + 4]
            worst = max(worst, nab - (na + nb))
            worst = max(worst, abs(nscaled - alpha * na) / max(1.0, alpha * na))
    return len(corpus), worst, worst <= cfg.tolerances.slack


@_check("a decreasing step function equals its weighted rearrangement "
        "composed with the running weight integral; for arbitrary steps "
        "the weighted rearrangement is dominated by the Lebesgue one")
def check_weighted_rearrangement_identity(cfg: SuiteConfig, rng):
    """Decreasing functions are fixed points of the weighted rearrangement."""
    n = cfg.count(100)
    worst = 0.0
    ineq_worst = 0.0
    for _ in range(n):
        w = smp.random_weight_step(rng)
        ctx = WeightedContext(w)
        h = smp.random_decreasing_step(rng)
        # sample strictly inside pieces of h and inside the weight support
        for frac in (0.25, 0.5, 0.9):
            t = frac * min(h.support, w.support) * 0.999
            if t <= 0:
                continue
            s = ctx.F(t)
            if s >= ctx.mass:
                continue
            lhs = weighted_rearrangement(h, ctx, s)
            worst = max(worst, abs(lhs - h.evaluate(t)))
        # arbitrary (non-monotone) step: weighted head never exceeds Lebesgue
        perm = rng.permutation(h.values.size)
        hv = h.values[perm]
        lebesgue = rearrange_step(h.durations, hv, None)
        weighted = rearrange_step(h.durations, hv, w)
        for frac in (0.1, 0.5, 0.9):
            t = frac * h.support
            ineq_worst = max(ineq_worst,
                             weighted.evaluate(ctx.F(t)) - lebesgue.evaluate(t))
    tol = cfg.tolerances.exchange
    return n, max(worst, ineq_worst), worst <= tol and ineq_worst <= tol


@_check("two-sided exponential moments near zero are finite exactly when "
        "the cosh-minus-one weighted modular is finite at some scaling; "
        "catalog spans bounded, log-, power-divergent and reciprocal data")
def check_pistone_sempi_catalog(cfg: SuiteConfig, rng):
    """Exponential-moment membership agrees with cosh-gauge norm membership."""
    mus = [
        ("bounded_step", StepForm.from_raw([1.0, 1.0], [1.5, 0.5]), True),
        ("log_divergent", rg.log_reciprocal(1.0), True),
        ("power_divergent", rg.power_decay(0.5, 1.0), False),
        ("reciprocal", rg.reciprocal(1.0), False),
    ]
    weights = [
        ("exp_decay", WeightedContext(rg.exp_decay())),
        ("step", WeightedContext(StepForm.from_raw([1.0, 1.0], [0.7, 0.3]))),
    ]
    rows = []
    ok = True
    for mname, mu, expected in mus:
        for wname, ctx in weights:
            rep = pistone_sempi_equivalence(mu, ctx)
            rows.append({"mu": mname, "weight": wname,
                         "laplace": rep.member_via_laplace,
                         "norm": rep.member_via_norm,
                         "expected": expected})
            ok = ok and rep.agree and rep.member_via_laplace == expected
    return len(rows), 0.0 if ok else 1.0, ok, {"rows": rows}


@_check("the pairing of rearrangements is subadditive, homogeneous, "
        "tracial, faithful, continuous along increasing sequences, and "
        "returns the weight mass on the identity")
def check_quasi_trace_suite(cfg: SuiteConfig, rng):
    """The rearrangement pairing behaves like a finite faithful normal trace."""
    corpus = _corpus(cfg, 200)
    draws = []
    for alg in corpus:
        x = smp.random_state(alg, rng)
        a = smp.random_positive(alg, rng)
        b = smp.random_positive(alg, rng)
        alpha = float(rng.uniform(0.1, 4.0))
        draws.append((x, a, b, alpha, smp.random_element(alg, rng)))
    worst = 0.0
    exact_gap = 0.0
    for (_, _, _, alpha, _), forms in zip(draws, _quasi_trace_forms(draws)):
        mu_x, mu_a, mu_b, mu_ab, mu_cc, mu_cc_adj, mu_one, mu_capped = forms
        ctx = WeightedContext(mu_x)
        t_a = tau_x(mu_a, ctx)
        t_b = tau_x(mu_b, ctx)
        t_ab = tau_x(mu_ab, ctx)
        worst = max(worst, t_ab - (t_a + t_b))  # subadditivity
        worst = max(worst, abs(tau_x(mu_a.scaled(alpha), ctx) - alpha * t_a))
        worst = max(worst, abs(tau_x(mu_cc, ctx) - tau_x(mu_cc_adj, ctx)))
        if t_a <= 0:  # faithfulness on nonzero positives
            worst = max(worst, 1.0)
        # monotone continuity along spectral caps increasing to a
        prev = -INF
        for mu in mu_capped:
            v = tau_x(mu, ctx)
            worst = max(worst, prev - v - 1e-12)  # must be nondecreasing
            prev = v
        worst = max(worst, abs(prev - t_a))
        # pairing against the identity gives back the weight mass exactly
        exact_gap = max(exact_gap, abs(tau_x(mu_one, ctx) - ctx.mass))
    return (len(corpus), max(worst, exact_gap),
            worst <= cfg.tolerances.slack and exact_gap <= 1e-12)


def _quasi_trace_forms(draws) -> list[tuple]:
    """Per draw (x, a, b, alpha, c): the singular values of x, a, b, a + b, c*c,
    cc* and the identity, and of a with its spectrum capped at sup(a) k/6 for
    k = 1..5 and at 2 sup(a).  The identity of each algebra is decomposed once."""
    xs, as_, bs, _, cs = zip(*draws)
    m = len(draws)
    algebras = list(dict.fromkeys(a.algebra for a in as_))
    mus = singular_values_many([*xs, *as_, *bs, *(a + b for a, b in zip(as_, bs)),
                                *(c.adjoint() @ c for c in cs), *(c @ c.adjoint() for c in cs),
                                *(alg.identity() for alg in algebras)])
    ones = dict(zip(algebras, mus[6 * m:]))
    caps = np.array([[mu.sup_value * k / 6.0 for k in range(1, 6)] + [mu.sup_value * 2.0]
                     for mu in mus[m:2 * m]])
    per = caps.shape[1]

    def capped(alg, members, rows):
        forms = singular_values_many(_clip_spectra(alg, members, np.array(rows)))
        return [forms[i * per:(i + 1) * per] for i in range(len(members))]

    return [(*(mus[j * m + i] for j in range(6)), ones[a.algebra], forms)
            for i, (a, forms) in enumerate(zip(as_, _by_algebra(as_, capped, caps)))]


def _clip_spectra(alg, elements, caps: np.ndarray) -> list:
    """Each element with its spectrum capped at each cap of its row, in row order.

    One ``eigh`` per block decomposes all the elements; each capped block is
    v diag(min(w, cap)) v*.
    """
    blocks = []
    for n, stack in zip(alg.dims, _stacks(alg, elements)):
        w, v = np.linalg.eigh(0.5 * (stack + stack.conj().swapaxes(-1, -2)))
        diag = np.zeros(caps.shape + (n, n))
        diag[..., range(n), range(n)] = np.minimum(w[:, None, :], caps[:, :, None])
        blocks.append(v[:, None] @ diag @ v.conj().swapaxes(-1, -2)[:, None])
    return [alg.element([blk[i, j] for blk in blocks])
            for i in range(len(elements)) for j in range(caps.shape[1])]


@_check("moments of a positive variable against a state are dominated by "
        "2n times the rearrangement pairing of the n-th power")
def check_moment_chain(cfg: SuiteConfig, rng):
    """tr(x y^n) <= 2n * integral mu(y)^n mu(x) for unit-trace positive x."""
    corpus = _corpus(cfg, 200)
    orders = (1, 2, 3, 5)
    xs, ys = [], []
    for alg in corpus:
        xs.append(smp.random_state(alg, rng))
        ys.append(smp.random_positive(alg, rng))
    worst = -INF
    for row in moment_bound_checks(xs, ys, orders, factor=cfg.moment_factor):
        for rep in row:
            worst = max(worst, rep.lhs - rep.rhs)
    return len(corpus) * len(orders), worst, worst <= cfg.tolerances.slack


@_check("a_phi * norm <= sup norm; b_phi * norm >= sup norm; and "
        "tr phi(beta |a|) <= beta tr phi(|a|) for beta <= 1")
def check_gauge_threshold_bounds(cfg: SuiteConfig, rng):
    """Threshold inequalities tie gauge norms to the operator norm."""
    corpus = _corpus(cfg, 200)
    low = og.zero_then_linear(0.7)
    cap = og.linear_until_cap(1.3)
    scalers = [og.power(2.0), og.cosh_minus_one()]
    elements, betas = [], []
    for alg in corpus:
        elements.append(smp.random_element(alg, rng))
        betas.append(float(rng.uniform(0.05, 1.0)))
    mus = singular_values_many(elements)
    lows = luxemburg_norms(mus, low).tolist()
    caps = luxemburg_norms(mus, cap).tolist()

    def shrink_gaps(alg, elements, betas):
        """tr phi(beta |a|) - beta tr phi(|a|) per element and scaler: one decomposition each."""
        svd = _svd_blocks(elements)
        gaps = [[] for _ in elements]
        for phi in scalers:
            at_beta = _functions_of(phi, elements, svd, betas)
            at_one = _functions_of(phi, elements, svd, 1.0)
            for row, beta, fb, f1 in zip(gaps, betas, at_beta, at_one):
                row.append(trace(alg, fb).real - beta * trace(alg, f1).real)
        return gaps

    worst = 0.0
    for mu, n_low, n_cap, row in zip(mus, lows, caps, _by_algebra(elements, shrink_gaps, betas)):
        sup = mu.sup_value
        worst = max(worst, low.a_phi * n_low - sup)
        worst = max(worst, sup - cap.b_phi * n_cap)
        for gap in row:
            worst = max(worst, gap)
    return len(corpus), worst, worst <= cfg.tolerances.slack


@_check("the gauge norm of a projection equals one over the formal "
        "inverse of the gauge evaluated at the reciprocal trace")
def check_projection_norm_formula(cfg: SuiteConfig, rng):
    """Projection norms come from the formal inverse of the gauge at 1/trace."""
    corpus = _corpus(cfg, 50)
    gauges = [og.power(2.0), og.power(3.0), og.cosh_minus_one(),
              og.exp_minus_one(), og.linear_until_cap(1.0), og.t_log1p()]
    projections = [smp.random_projection(alg, rng) for alg in corpus]
    mus = singular_values_many(projections)
    worst = 0.0
    for j, phi in enumerate(gauges):
        mine = range(j, len(corpus), len(gauges))  # projection i has gauge i mod 6
        oracles = luxemburg_norms([mus[i] for i in mine], phi, tol=1e-10).tolist()
        for i, oracle in zip(mine, oracles):
            formula = projection_trace_norm(corpus[i], projections[i], phi)
            worst = max(worst, abs(formula - oracle) / max(1.0, formula))
    return len(corpus), worst, worst <= cfg.tolerances.slack


def _psi_phi2_pairs() -> list[tuple[str, og.OrliczFunction, og.OrliczFunction]]:
    return [
        ("identity*square", og.power(1.0), og.power(2.0)),
        ("square*square", og.power(2.0), og.power(2.0)),
        ("halfsquare*cosh", og.power_over_p(2.0), og.cosh_minus_one()),
        ("threshold*square", og.zero_then_linear(0.5), og.power(2.0)),
        ("exp*tlog", og.exp_minus_one(), og.t_log1p()),
    ]


@_check("unit-ball self-adjoint elements map into the ball of radius "
        "max(1, dual-gauge norm of the trace density); the four modular "
        "evaluation routes agree along the way")
def check_composition_bound(cfg: SuiteConfig, rng):
    """Composition operators are bounded by the dual-gauge norm of the density."""
    morphs = smp.morphism_catalog(rng)
    pairs = _psi_phi2_pairs()
    per = max(2, cfg.count(6)) + 2  # the probes, then a chain of two
    cases = [(J, psi, phi2) for _, J in morphs for _, psi, phi2 in pairs]
    drawn = smp.random_self_adjoints([J.source for J, _, _ in cases for _ in range(per)], rng)
    worst = -INF
    chain_worst = 0.0
    total = 0
    for c, (J, psi, phi2) in enumerate(cases):
        probes, chain = drawn[c * per:(c + 1) * per - 2], drawn[(c + 1) * per - 2:(c + 1) * per]
        rep = composition_bound_check(J, psi, phi2, probes, tol=cfg.tolerances.bound_slack)
        worst = max(worst, rep.max_ratio - rep.bound)
        total += rep.samples
        phi1 = og.compose_orlicz(psi, phi2)
        norms = luxemburg_norms(singular_values_many(chain), phi1)
        unit = [AlgebraElement(J.source, row)
                for row in zip(*_unit_ball(_stacks(J.source, chain), norms))]
        # the chain reuses the density's dual-gauge norm of the bound check
        for link in _chain_checks(J, psi, phi2, unit, cfg.tolerances.chain, rep.dual_norm):
            if link.hypothesis_ok:
                chain_worst = max(chain_worst, link.max_pairwise_gap)
                if not link.passed:
                    worst = max(worst, 1.0)
    passed = worst <= cfg.tolerances.bound_slack and chain_worst <= 1e-6
    return total, max(worst, 0.0), passed, {"max_chain_gap": chain_worst}


@_check("tr_source(e a) + tr_target(J((1-e) a)) is a faithful trace "
        "dominating the pulled-back trace on positives")
def check_tau_T_construction(cfg: SuiteConfig, rng):
    """The kernel-patched pulled-back trace is tracial, faithful, dominating."""
    morphs = smp.morphism_catalog(rng)
    worst = 0.0
    total = 0
    for _, J in morphs:
        tau_T = build_tau_T(J)
        for _ in range(cfg.count(8)):
            a = smp.random_element(J.source, rng)
            lhs = tau_T(a.adjoint() @ a).real
            rhs = tau_T(a @ a.adjoint()).real
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
            p = smp.random_positive(J.source, rng)
            tp = tau_T(p).real
            if tp <= 0:
                worst = max(worst, 1.0)
            pulled = trace(J.target, apply_jordan(J, p)).real
            worst = max(worst, pulled - tp)
            total += 1
    return total, worst, worst <= cfg.tolerances.slack


@_check("images under a positive map scaled by max(trace constant, "
        "image of identity) are submajorized by the input, and gauge "
        "norms contract accordingly")
def check_interpolation_contraction(cfg: SuiteConfig, rng):
    """Positive maps with trace and identity bounds contract gauge norms."""
    maps = smp.positive_map_catalog(rng)
    gauges = [og.power(2.0), og.cosh_minus_one()]
    per = max(2, cfg.count(300) // (len(maps) * len(gauges)))
    worst = -INF
    sub_ok = True
    total = 0
    for _, T in maps:
        for phi in gauges:
            positives = [smp.random_positive(T.source, rng) for _ in range(5)]
            probes = [smp.random_self_adjoint(T.source, rng) for _ in range(per)]
            rep = interpolation_contraction_check(T, phi, positives, probes,
                                                  tol=cfg.tolerances.slack)
            worst = max(worst, rep.max_norm_excess / max(1.0, rep.bound))
            sub_ok = sub_ok and rep.submajorization_ok and rep.positivity_ok
            total += rep.samples
    return total, max(worst, 0.0), sub_ok and worst <= cfg.tolerances.slack


@_check("a completely positive map dominates only its scalar multiples "
        "exactly when its Choi matrix has rank one")
def check_purity_detection(cfg: SuiteConfig, rng):
    """Choi rank one recognizes pure completely positive maps."""
    rows = []
    ok = True
    cases = [
        ("identity_channel", smp.identity_channel(2), True),
        ("isometry_compression", smp.isometry_compression_map(rng), True),
        ("depolarizing_m2", smp.depolarizing_map(2), False),
        ("pinching_m3", smp.pinching_map(3), False),
    ]
    for name, T, expected in cases:
        got = purity_check(T)
        rows.append({"map": name, "pure": got, "expected": expected})
        ok = ok and got == expected
    choi = smp.depolarizing_map(2).choi_matrix()
    eigs = np.sort(np.linalg.eigvalsh(choi))
    ok = ok and np.allclose(eigs, 0.5, atol=1e-10)  # four equal eigenvalues 1/2
    return len(cases), 0.0 if ok else 1.0, ok, {"rows": rows}


@_check("block morphisms preserve the symmetrized product, adjoints and "
        "absolute values; their trace pulls back through a central "
        "density; the pulled-back trace is epsilon-delta continuous")
def check_jordan_structure(cfg: SuiteConfig, rng):
    """Constructed morphisms satisfy the Jordan axioms and trace duality."""
    morphs = smp.morphism_catalog(rng)
    worst = 0.0
    total = 0
    for _, J in morphs:
        one = J.source.identity()
        jold = apply_jordan(J, one)
        if not is_projection(jold, 1e-10):
            worst = max(worst, 1.0)
        f = radon_nikodym(J)
        drawn = smp.random_elements([J.source] * (2 * cfg.count(6)), rng)
        for a, b in zip(drawn[::2], drawn[1::2]):
            sym = 0.5 * ((a @ b) + (b @ a))
            lhs = apply_jordan(J, sym)
            ja, jb = apply_jordan(J, a), apply_jordan(J, b)
            rhs = 0.5 * ((ja @ jb) + (jb @ ja))
            worst = max(worst, (lhs - rhs).sup_norm())
            worst = max(worst, (apply_jordan(J, a.adjoint()) - ja.adjoint()).sup_norm())
            worst = max(worst, abs(trace(J.target, ja) - trace(J.source, f @ a)))
            total += 1
        projections = [smp.random_projection(J.source, rng) for _ in range(8)]
        if not absolute_continuity_check(J, projections=projections).verified:
            worst = max(worst, 1.0)
        sa = smp.random_self_adjoint(J.source, rng)
        gap = (abs_value(apply_jordan(J, sa))
               - apply_jordan(J, abs_value(sa))).sup_norm()
        worst = max(worst, gap)
    return total, worst, worst <= 1e-9


@_check("mu_{t+s}(fg) <= mu_t(f) mu_s(g); mu(f*f) = mu(ff*); "
        "mu(alpha f) = |alpha| mu(f)")
def check_fack_kosaki(cfg: SuiteConfig, rng):
    """Singular-value product, symmetry and homogeneity inequalities."""
    corpus = _corpus(cfg, 40)
    drawn = smp.random_elements([alg for alg in corpus for _ in "fg"], rng)
    worst = 0.0
    for alg, f, g in zip(corpus, drawn[::2], drawn[1::2]):
        rep = fack_kosaki_checks(alg, f, g)
        worst = max(worst, rep.product_violation, rep.trace_symmetry_violation,
                    rep.homogeneity_violation)
    return len(corpus), worst, worst <= 1e-9


@_check("singular values are invariant under absolute value and "
        "adjoints, integrate to the trace of |a|, obey the distribution "
        "definition and the head-integral triangle inequality")
def check_rearrangement_laws(cfg: SuiteConfig, rng):
    """Distribution-function definition, symmetry, head totals, idempotence."""
    corpus = _corpus(cfg, 60)
    drawn = smp.random_elements([alg for alg in corpus for _ in "ab"], rng)
    worst = 0.0
    for alg, a, b in zip(corpus, drawn[::2], drawn[1::2]):
        mu = singular_values(alg, a)
        mu_abs = singular_values(alg, abs_value(a))
        mu_adj = singular_values(alg, a.adjoint())
        pts = np.concatenate([[0.0], mu.breakpoints, [mu.support + 1.0]])
        at = mu.evaluate_many(pts)
        worst = max(worst, float(np.max(np.abs(at - mu_abs.evaluate_many(pts)))),
                    float(np.max(np.abs(at - mu_adj.evaluate_many(pts)))))
        worst = max(worst, abs(mu.total_integral()
                               - trace(alg, abs_value(a)).real))
        # distribution oracle: mu_t(a) <= s iff weighted count of spectrum > s is <= t
        eigs, weights = [], []
        for w, blk in zip(alg.weights, abs_value(a).blocks):
            ev = np.linalg.eigvalsh(blk)
            eigs.extend(ev)
            weights.extend([w] * len(ev))
        eigs, weights = np.array(eigs), np.array(weights)
        ts = np.array([0.0, 0.3 * mu.support, 0.8 * mu.support])
        for t, mu_t in zip(ts.tolist(), mu.evaluate_many(ts).tolist()):
            for s in np.linspace(0, mu.sup_value * 1.1, 7):
                dist = float(weights[eigs > s].sum())
                lhs = mu_t <= s + 1e-12
                rhs = dist <= t + 1e-12
                if lhs != rhs:
                    worst = max(worst, 1.0)
        # triangle submajorization of sums
        mu_b = singular_values(alg, b)
        mu_ab = singular_values(alg, a + b)
        alphas = np.unique(np.concatenate([mu.breakpoints, mu_b.breakpoints,
                                           mu_ab.breakpoints]))
        gap = (mu_ab.head_integrals(alphas) - mu.head_integrals(alphas)
               - mu_b.head_integrals(alphas))
        worst = max(worst, float(np.max(gap, initial=-INF)))
        # canonicalization is idempotent
        again = StepForm(mu.durations.copy(), mu.values.copy())
        if again != mu:
            worst = max(worst, 1.0)
    return len(corpus), worst, worst <= 1e-9


@_check("midpoint convexity, sublinearity under shrinking, the pairing "
        "inequality with the conjugate, cap-aware inversion, "
        "biconjugation, and doubling-constant probes")
def check_orlicz_function_laws(cfg: SuiteConfig, rng):
    """Convexity, scaling, duality and inversion laws of the gauge catalog."""
    gauges = [og.power(1.0), og.power(2.0), og.power_over_p(3.0),
              og.cosh_minus_one(), og.exp_minus_one(), og.t_log1p(),
              og.zero_then_linear(1.0), og.linear_until_cap(1.0)]
    grid = np.concatenate([np.linspace(0.0, 3.0, 25), np.logspace(-3, 1, 15)])
    pairing = np.linspace(0.0, 2.5, 12)
    worst = 0.0
    for phi in gauges:
        worst = max(worst, og.convexity_gap(phi, grid))
        star = og.conjugate(phi)
        # as in eval_gauge: a capped gauge computes 0 * inf below its cap
        with np.errstate(over="ignore", invalid="ignore"):
            ft = phi.eval_many(grid)
            for beta in (0.1, 0.5, 0.9, 1.0):
                shrunk = phi.eval_many(beta * grid) - beta * ft
                worst = max(worst, float(np.max(shrunk, where=np.isfinite(ft), initial=-INF)))
            fu, gv = phi.eval_many(pairing), star.eval_many(pairing)
            young = pairing[:, None] * pairing - fu[:, None] - gv
        finite = np.isfinite(fu)[:, None] & np.isfinite(gv)
        worst = max(worst, float(np.max(young, where=finite, initial=-INF)))
        cap_value = phi.value_at_b if phi.b_phi < INF else INF
        for t in [0.0, 0.3, 1.0, 2.7, 11.0]:
            it = og.formal_inverse(phi, t)
            expected = min(t, cap_value) if phi.b_phi < INF else t
            if t <= 1e-15 and phi.a_phi > 0:
                worst = max(worst, abs(it - phi.a_phi))
            else:
                worst = max(worst, abs(phi(it) - expected) / max(1.0, expected)
                            if math.isfinite(expected) else 0.0)
    # biconjugation: closed-form pairs are exact, numeric path within 1e-7
    ts = np.linspace(0.05, 4.0, 12)
    for phi in [og.power(2.0), og.power_over_p(2.0), og.cosh_minus_one(),
                og.t_log1p()]:
        bic = og.conjugate(og.conjugate(phi))
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = phi.eval_many(ts), bic.eval_many(ts)
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(1.0, a))))
    # Delta2 probes: powers give the exact doubling constant, caps fail
    rep = og.delta2_probe(og.power(2.0))
    if not (rep.satisfied and abs(rep.constant - 4.0) <= 1e-12):
        worst = max(worst, 1.0)
    for phi in (og.linear_until_cap(1.0), og.cosh_minus_one()):
        if og.delta2_probe(phi).satisfied is not False:
            worst = max(worst, 1.0)
    return len(gauges), worst, worst <= 1e-6


@_check("the Amemiya norm lies between the Luxemburg norm and twice it; "
        "for the linear gauge it reproduces the total integral in the "
        "large-k limit")
def check_amemiya_sandwich(cfg: SuiteConfig, rng):
    """Luxemburg <= Amemiya <= 2 * Luxemburg, and the linear-gauge limit."""
    gauges = [og.power(1.0), og.power(2.0), og.cosh_minus_one(), og.exp_minus_one()]
    n = cfg.count(60)
    mus = [smp.random_decreasing_step(rng) for _ in range(n)]
    worst = 0.0
    for j, phi in enumerate(gauges):
        mine = mus[j::len(gauges)]  # form i has gauge i mod 4
        luxes = luxemburg_norms(mine, phi, tol=1e-10).tolist()
        for lux, ame in zip(luxes, amemiya_norms(mine, phi, tol=1e-10).tolist()):
            worst = max(worst, lux - ame, ame - 2.0 * lux)
    mu = smp.random_decreasing_step(rng)
    total = mu.total_integral()
    worst = max(worst, abs(amemiya_norm(mu, og.power(1.0)) - total) / max(1.0, total))
    return n, worst, worst <= cfg.tolerances.slack


@_check("the modular evaluated at the norm scaling is at most one, and "
        "any visibly smaller scaling pushes it above one")
def check_modular_at_norm(cfg: SuiteConfig, rng):
    """At the Luxemburg norm the modular sits at the unit boundary."""
    gauges = [og.power(2.0), og.cosh_minus_one(), og.exp_minus_one()]
    n = cfg.count(50)
    tol = 1e-9
    mus = [smp.random_decreasing_step(rng) for _ in range(n)]
    worst = 0.0
    for j, phi in enumerate(gauges):
        mine = mus[j::len(gauges)]  # form i has gauge i mod 3
        for mu, lam in zip(mine, luxemburg_norms(mine, phi, tol=tol).tolist()):
            if lam == 0:
                continue
            at = modular(mu, phi, 1.0 / lam)
            worst = max(worst, at - (1.0 + tol * 10))
            below = modular(mu, phi, 1.0 / (lam * (1.0 - 10.0 * tol)))
            if below <= 1.0 - tol:
                worst = max(worst, (1.0 - tol) - below)
    return n, worst, worst <= 1e-6


@_check("under a doubling gauge the norm is finite exactly when the "
        "unscaled modular is; a cap gauge admits finite norm with "
        "infinite modular")
def check_delta2_norm_finiteness(cfg: SuiteConfig, rng):
    """Doubling gauges: finite norm iff finite modular; cap gauges break it."""
    corpus = _corpus(cfg, 40)
    ok = True
    for alg in corpus:
        a = smp.random_element(alg, rng) * float(rng.uniform(0.5, 1000.0))
        mu = singular_values(alg, a)
        for phi in [og.power(2.0), og.power(3.0)]:
            finite_norm = True
            try:
                luxemburg_norm(mu, phi)
            except UnboundedNormError:
                finite_norm = False
            finite_modular = math.isfinite(modular(mu, phi, 1.0))
            ok = ok and (finite_norm == finite_modular)
    # converse failure witness for a non-doubling cap gauge
    cap = og.linear_until_cap(1.0)
    big = StepForm.from_raw([1.0], [5.0])
    witness_norm = luxemburg_norm(big, cap)
    witness_modular = modular(big, cap, 1.0)
    ok = ok and math.isfinite(witness_norm) and math.isinf(witness_modular)
    return len(corpus), 0.0 if ok else 1.0, ok, {"witness_norm": witness_norm}


@_check("for unit-ball elements of the composed gauge, the outer-gauge "
        "norm of the inner-gauge image never exceeds the composed norm")
def check_composed_gauge_norm_bound(cfg: SuiteConfig, rng):
    """Applying the inner gauge contracts from the composed to the outer norm."""
    corpus = _corpus(cfg, 50)
    pairs = _psi_phi2_pairs()
    worst = 0.0
    used = 0
    for i, (alg, a) in enumerate(zip(corpus, smp.random_self_adjoints(corpus, rng))):
        _, psi, phi2 = pairs[i % len(pairs)]
        phi1 = og.compose_orlicz(psi, phi2)
        nrm = luxemburg_norm(singular_values(alg, a), phi1)
        if nrm == 0:
            continue
        a = a * (0.85 / nrm)
        n1 = luxemburg_norm(singular_values(alg, a), phi1)
        try:
            inner = apply_function(phi2, a)
        except NotMeasurableError:
            continue
        npsi = luxemburg_norm(singular_values(alg, inner), psi)
        worst = max(worst, npsi - n1)
        used += 1
    return used, worst, worst <= cfg.tolerances.slack


@_check("on commuting data ordered like the density, the weighted "
        "Luxemburg norm equals the trace-modular norm of the re-weighted "
        "algebra, after the pairing is verified additive on that cone")
def check_commutative_reweighting_isometry(cfg: SuiteConfig, rng):
    """Weighted norms over a diagonal density match re-weighted trace norms."""
    n = cfg.count(40)
    psi_list = [og.cosh_minus_one(), og.power(2.0)]
    worst = 0.0
    additive_worst = 0.0
    for i in range(n):
        dim = int(rng.integers(2, 6))
        alg = TracedAlgebra((1,) * dim, (1.0,) * dim)
        xs = np.sort(rng.uniform(0.2, 2.0, size=dim))[::-1]
        x = alg.diagonal([[v] for v in xs])
        ctx = WeightedContext(singular_values(alg, x))
        reweighted = TracedAlgebra((1,) * dim, tuple(float(v) for v in xs))
        fa = np.sort(rng.uniform(0.0, 3.0, size=dim))[::-1]
        fb = np.sort(rng.uniform(0.0, 3.0, size=dim))[::-1]
        # additivity of the pairing on the similarly-ordered cone comes first
        mu_a = StepForm.from_raw(np.ones(dim), fa)
        mu_b = StepForm.from_raw(np.ones(dim), fb)
        mu_ab = StepForm.from_raw(np.ones(dim), fa + fb)
        additive_worst = max(additive_worst, abs(
            tau_x(mu_ab, ctx) - tau_x(mu_a, ctx) - tau_x(mu_b, ctx)))
        psi = psi_list[i % len(psi_list)]
        weighted = luxemburg_norm(mu_a, psi, ctx, tol=1e-10)
        rew_f = reweighted.diagonal([[v] for v in fa])
        rew = kunze_norm(reweighted, rew_f, psi, tol=1e-10)
        worst = max(worst, abs(weighted - rew) / max(1.0, rew))
    return (n, max(worst, additive_worst),
            worst <= cfg.tolerances.isometry and additive_worst <= 1e-10)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run_suite(cfg: SuiteConfig, names: Optional[list[str]] = None) -> dict:
    """Run the named checks (all by default) and assemble a sorted report."""
    selected = sorted(CHECKS) if names is None else sorted(names)
    results = []
    for name in selected:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
        results.append(CHECKS[name](cfg, _rng_for(cfg, name)))
    report = {
        "suite": "ncorlicz-verify",
        "seed": cfg.seed,
        "scale": cfg.scale,
        "tolerances": asdict(cfg.tolerances),
        "checks": [
            {"name": r.name, "claim": r.claim, "samples": r.samples,
             "worst_slack": r.worst_slack, "pass": r.passed,
             **({"details": r.details} if r.details else {})}
            for r in results
        ],
        "all_pass": all(r.passed for r in results),
    }
    return report
