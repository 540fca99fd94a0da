"""Decreasing rearrangements: step and parametric forms, weighted contexts.

The singular-value function of a block element is a right-continuous
decreasing step function whose durations are the block trace weights; it is
the common currency every norm in the toolkit integrates against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import quadrature
from .algebra import AlgebraElement, TracedAlgebra, _by_algebra, _stacks
from .errors import DomainError, NumericError, StructuralError, batch_or_loop
from .solve import bisect_rows, bracket_rows

INF = math.inf
SUBMAJOR_SLACK = 1e-10
_ZERO = np.zeros(1)  # the value past the support


@dataclass(frozen=True, eq=False)
class StepForm:
    """Canonical decreasing step function: strictly decreasing positive values.

    Zero is implicit beyond the last breakpoint; zero values and zero
    durations are dropped at construction, equal adjacent values merged.
    """

    durations: np.ndarray
    values: np.ndarray
    breakpoints: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = np.asarray(self.durations, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if d.shape != v.shape or d.ndim != 1:
            raise StructuralError("durations and values must be 1-d arrays of equal length")
        keep = (d > 0) & (v > 0)
        if keep.all():  # fresh arrays either way: the caller's stay writable and unshared
            d, v = d.copy(), v.copy()
        else:
            if (d < 0).any() or (v < 0).any():
                raise DomainError("durations and values must be nonnegative")
            d, v = d[keep], v[keep]
        # strictly decreasing values, the usual case, need neither check below
        if v.size > 1 and (v[1:] >= v[:-1]).any():
            if ((v[1:] - v[:-1]) > 1e-12 * (1.0 + v[:-1])).any():
                raise DomainError("step values must be nonincreasing")
            (d,), (v,), _, (size,) = _canonical_rows(d[None], v[None])
            d, v = d[:size], v[:size]
        b = np.cumsum(d)
        for x in (d, v, b):
            x.setflags(write=False)
        self.__dict__.update(durations=d, values=v, breakpoints=b)

    @classmethod
    def _of(cls, durations, values, breakpoints) -> "StepForm":
        """A form of canonical read-only arrays taken as they are, without ``__post_init__``."""
        form = object.__new__(cls)
        form.__dict__.update(durations=durations, values=values, breakpoints=breakpoints)
        return form

    @classmethod
    def from_raw(cls, durations, values) -> "StepForm":
        return cls(np.asarray(durations, dtype=float), np.asarray(values, dtype=float))

    @property
    def is_zero(self) -> bool:
        return self.values.size == 0

    @property
    def support(self) -> float:
        return float(self.breakpoints[-1]) if self.values.size else 0.0

    @property
    def sup_value(self) -> float:
        return float(self.values[0]) if self.values.size else 0.0

    def evaluate(self, t: float) -> float:
        return float(self.evaluate_many(np.array([t]))[0])

    def evaluate_many(self, ts: np.ndarray) -> np.ndarray:
        """``evaluate`` at each of the points ``ts``: one ``searchsorted``."""
        if (ts < 0).any():
            raise DomainError("rearrangement arguments must be nonnegative")
        return self._padded_values[np.searchsorted(self.breakpoints, ts, side="right")]

    @functools.cached_property
    def _padded_values(self) -> np.ndarray:
        """The values and 0, the value past the support, read-only; built on first use."""
        padded = np.concatenate((self.values, _ZERO))
        padded.setflags(write=False)
        return padded

    def head_integral(self, alpha: float) -> float:
        return float(self.head_integrals(np.array([alpha]))[0])

    def head_integrals(self, alphas: np.ndarray) -> np.ndarray:
        """``head_integral`` at each of ``alphas``: one ``np.interp`` on the running integral."""
        if (alphas < 0).any():
            raise DomainError("head integral bounds must be nonnegative")
        return np.interp(alphas, *self.running_integral)

    @functools.cached_property
    def running_integral(self) -> tuple[np.ndarray, np.ndarray]:
        """Knots (0 and the breakpoints) and the head integrals at them, read-only.

        Built on first use: most forms are never integrated.
        """
        knots = np.concatenate([[0.0], self.breakpoints])
        heads = np.concatenate([[0.0], np.cumsum(self.durations * self.values)])
        knots.setflags(write=False)
        heads.setflags(write=False)
        return knots, heads

    def total_integral(self) -> float:
        return self.head_integral(INF)

    def scaled(self, factor: float) -> "StepForm":
        if factor < 0:
            raise DomainError("scaling factor must be nonnegative")
        return StepForm(self.durations.copy(), self.values * factor)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepForm):
            return NotImplemented
        return (self.durations.shape == other.durations.shape
                and np.array_equal(self.durations, other.durations)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.durations.tobytes(), self.values.tobytes()))


@dataclass(frozen=True, eq=False)
class ParametricForm:
    """Decreasing right-continuous function given analytically.

    ``fn`` must be finite on (0, inf) (the value at 0 may be +inf), zero at
    and beyond ``support``.  ``fn_many``, when given, is ``fn`` on an array
    of points, overflowing to +inf; without it ``evaluate_many`` calls
    ``fn`` point by point.  ``cumulative`` is an optional closed form for
    the head integral, ``inverse_cumulative`` its inverse on [0, mass).
    ``singular_at_zero`` marks functions unbounded near 0; quadrature runs
    its tail test on every head integral either way.  ``constant_level``
    short-circuits integrals of flat functions exactly.

    A form caches its samples at the quadrature nodes of each interval it
    is integrated over (``sampled``), so every later integral over that
    interval is one array pass.
    """

    fn: Callable[[float], float]
    support: float = INF
    label: str = "parametric"
    cumulative: Optional[Callable[[float], float]] = None
    inverse_cumulative: Optional[Callable[[float], float]] = None
    singular_at_zero: bool = False
    constant_level: Optional[float] = None
    fn_many: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def is_zero(self) -> bool:
        return self.constant_level == 0.0

    @property
    def sup_value(self) -> float:
        return self.evaluate(0.0)

    def evaluate(self, t: float) -> float:
        if t < 0:
            raise DomainError(f"rearrangement argument must be nonnegative, got {t}")
        if t >= self.support:
            return 0.0
        return float(self.fn(t))

    def evaluate_many(self, ts: np.ndarray) -> np.ndarray:
        """``evaluate`` at each of the points ``ts``; a value past the floats is +inf."""
        if (ts < 0).any():
            raise DomainError("rearrangement arguments must be nonnegative")
        inside = ts < self.support
        if self.fn_many is not None:
            with np.errstate(over="ignore", divide="ignore"):
                return np.where(inside, self.fn_many(ts), 0.0)
        out = np.zeros(ts.shape)
        out[inside] = [self.fn(t) for t in ts[inside].tolist()]
        return out

    @functools.cached_property
    def _samples(self) -> dict:
        return {}

    def sampled(self, lo: float, hi: float, cache: bool = True):
        """The quadrature nodes of [lo, hi] and mu at them: one sampling per interval.

        An interval that depends on a scaling (a gauge's kink) passes
        ``cache=False``.
        """
        got = self._samples.get((lo, hi))
        if got is None:
            node = quadrature.nodes(lo, hi)
            got = node, quadrature.sample(self.evaluate_many, node.t)
            if cache:
                self._samples[(lo, hi)] = got
        return got

    def sampled_finer(self, node: quadrature.Nodes, cache: bool = True) -> np.ndarray:
        """mu at the nodes the refined rule adds on the interval of ``node``."""
        key = (*node.interval, "finer")
        got = self._samples.get(key)
        if got is None:
            got = quadrature.sample(self.evaluate_many, quadrature.finer(node)[0])
            if cache:
                self._samples[key] = got
        return got

    def head_integral(self, alpha: float) -> float:
        if alpha < 0:
            raise DomainError("head integral bound must be nonnegative")
        hi = min(alpha, self.support)
        if hi <= 0:
            return 0.0
        if self.constant_level is not None:
            if math.isinf(hi):
                return INF if self.constant_level > 0 else 0.0
            return self.constant_level * hi
        if self.cumulative is not None:
            return float(self.cumulative(hi))
        # the total is cached; a head up to alpha, which callers vary, is not
        cache = hi == self.support
        node, values = self.sampled(0.0, hi, cache)
        return float(quadrature.integrals(values[None], node,
                                          lambda rows: self.sampled_finer(node, cache)[None])[0][0])

    def head_integrals(self, alphas: np.ndarray) -> np.ndarray:
        """``head_integral`` at each of ``alphas``: a closed form, or the quadrature of [0, alpha]."""
        return np.array([self.head_integral(float(a)) for a in alphas])

    def total_integral(self) -> float:
        return self.head_integral(INF)


RearrangementFunction = Union[StepForm, ParametricForm]


# ---------------------------------------------------------------------------
# Named parametric catalog
# ---------------------------------------------------------------------------

def exp_decay() -> ParametricForm:
    """mu(t) = e^{-t} on [0, inf); mass 1."""
    return ParametricForm(
        fn=lambda t: math.exp(-t), support=INF, label="exp_decay",
        cumulative=lambda t: -math.expm1(-t) if not math.isinf(t) else 1.0,
        inverse_cumulative=lambda s: -math.log1p(-s), fn_many=lambda t: np.exp(-t),
    )


def log_reciprocal(support: float = 1.0) -> ParametricForm:
    """mu(t) = -log(t / support) on (0, support], 0 after; integrable though unbounded."""
    if support <= 0:
        raise DomainError("support must be positive")

    def fn(t):
        if t <= 0:
            return INF
        return max(0.0, -math.log(t / support))

    def cum(t):
        t = min(t, support)
        if t <= 0:
            return 0.0
        # integral of -log(s/c) from 0 to t is t (1 - log(t/c))
        return t * (1.0 - math.log(t / support))

    return ParametricForm(fn=fn, support=support, label="log_reciprocal",
                          cumulative=cum, singular_at_zero=True,
                          fn_many=lambda t: -np.log(t / support))


def power_decay(exponent: float, support: float = 1.0) -> ParametricForm:
    """mu(t) = (t / support)^(-exponent) on (0, support], 0 after."""
    if exponent <= 0 or support <= 0:
        raise DomainError("exponent and support must be positive")

    def fn(t):
        if t <= 0:
            return INF
        return (t / support) ** (-exponent)

    cum = None
    if exponent < 1:
        def cum(t):
            t = min(t, support)
            if t <= 0:
                return 0.0
            return support / (1.0 - exponent) * (t / support) ** (1.0 - exponent)

    return ParametricForm(fn=fn, support=support, label=f"power_decay({exponent:g})",
                          cumulative=cum, singular_at_zero=True,
                          fn_many=lambda t: (t / support) ** -exponent)


def reciprocal(support: float = 1.0) -> ParametricForm:
    """mu(t) = support / t on (0, support], 0 after; no exponential moment exists."""
    return power_decay(1.0, support)


def constant(level: float, support: float = INF) -> ParametricForm:
    """mu identically equal to ``level`` on [0, support)."""
    if level < 0:
        raise DomainError("level must be nonnegative")
    return ParametricForm(fn=lambda t: level, support=support,
                          label=f"constant({level:g})", constant_level=level,
                          fn_many=lambda t: np.full(t.shape, level))


# ---------------------------------------------------------------------------
# Singular values and evaluation
# ---------------------------------------------------------------------------

def singular_values_many(elements: Sequence[AlgebraElement]) -> list[StepForm]:
    """``singular_values`` of elements of any algebras: one stacked SVD per algebra and block.

    ``np.linalg.svd(..., compute_uv=False)`` gives each matrix of a stack
    the values it gives that matrix alone, bit for bit, so each form is the
    one-element form.  Errors (no convergence) follow ``batch_or_loop``.
    """
    return batch_or_loop(lambda items: _by_algebra(
        items, lambda alg, members: _step_forms(alg, _stacks(alg, members))), elements)


def _step_forms(alg: TracedAlgebra, stacks: Sequence[np.ndarray]) -> list[StepForm]:
    """The singular-value forms of the rows of per-block (rows, n, n) stacks of ``alg``:
    read-only views of the rows of ``_canonical_rows``, built without ``__post_init__``."""
    values = np.concatenate([np.linalg.svd(s, compute_uv=False) for s in stacks], axis=1)
    order = np.argsort(-values, axis=1, kind="stable")
    d, v, b, sizes = _canonical_rows(np.repeat(alg.weights, alg.dims)[order],
                                     values[np.arange(len(values))[:, None], order])
    return [StepForm._of(d[r, :k], v[r, :k], b[r, :k]) for r, k in enumerate(sizes.tolist())]


def _canonical_rows(d: np.ndarray, v: np.ndarray):
    """Rows of step data, positive values first, made canonical: read-only durations,
    values and breakpoints, each row's pieces first, and the piece counts.  Values <= 0
    or NaN are dropped; a run of equal values becomes one piece whose duration sums the
    run's in order.  Without runs ``d`` and ``v`` themselves are kept."""
    live = v > 0
    tie = live[:, 1:] & (v[:, 1:] == v[:, :-1])  # entry j + 1 joins the run of entry j
    if tie.any():
        d = d.copy()
        for j in np.flatnonzero(tie.any(axis=0)).tolist():
            d[:, j + 1] = np.where(tie[:, j], d[:, j] + d[:, j + 1], d[:, j + 1])
        live[:, :-1] &= ~tie  # the last entry of each run
        pieces = np.zeros((2, *d.shape))
        pieces[:, np.arange(d.shape[1]) < np.add.reduce(live, axis=1)[:, None]] = d[live], v[live]
        d, v = pieces
    b = np.cumsum(d, axis=1)
    for x in (d, v, b):
        x.setflags(write=False)
    return d, v, b, np.add.reduce(live, axis=1)


def singular_values(alg: TracedAlgebra, a: AlgebraElement) -> StepForm:
    """Decreasing singular-value step function; durations are block weights.

    The one-element case of ``singular_values_many``.
    """
    if a.algebra != alg:
        raise StructuralError("element does not belong to the given algebra")
    return singular_values_many([a])[0]


def submajorizes(x_mu: RearrangementFunction, y_mu: RearrangementFunction) -> bool:
    """True when every head integral of y is dominated by the one of x.

    For step pairs, checking at the union of breakpoints is exact: both heads
    are piecewise linear and concave.  Parametric inputs fall back to a dense
    grid with the total masses compared as the alpha -> inf limit.
    """
    if isinstance(x_mu, StepForm) and isinstance(y_mu, StepForm):
        alphas = np.unique(np.concatenate([x_mu.breakpoints, y_mu.breakpoints]))
    else:
        sup = [m.support for m in (x_mu, y_mu) if not math.isinf(m.support)]
        top = 2.0 * max(sup) if sup else 64.0
        alphas = np.unique(np.concatenate([
            np.logspace(-6, math.log10(top), 160),
            np.linspace(top / 160, top, 160),
            x_mu.breakpoints if isinstance(x_mu, StepForm) else np.array([]),
            y_mu.breakpoints if isinstance(y_mu, StepForm) else np.array([]),
        ]))
    if (y_mu.head_integrals(alphas) > x_mu.head_integrals(alphas) + SUBMAJOR_SLACK).any():
        return False
    return y_mu.total_integral() <= x_mu.total_integral() + SUBMAJOR_SLACK


# ---------------------------------------------------------------------------
# Weighted contexts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeightedContext:
    """A density weight w (a decreasing rearrangement) with finite positive mass.

    Supplies the running integral F(t) = int_0^t w, its inverse, and the total
    mass; these drive every weighted norm and pairing.
    """

    weight: RearrangementFunction
    mass: float = field(init=False)

    def __post_init__(self):
        m = self.weight.total_integral()
        if not (0.0 < m < INF):
            raise DomainError(f"weight must have finite positive mass, got {m}")
        object.__setattr__(self, "mass", float(m))

    def F(self, t: float) -> float:
        if t < 0:
            raise DomainError("F argument must be nonnegative")
        return self.weight.head_integral(t)

    def F_inverse(self, s: float) -> float:
        """Inverse of F on [0, mass); exact for step weights."""
        if not 0 <= s < self.mass:
            raise DomainError(f"F_inverse argument must lie in [0, mass), got {s}")
        w = self.weight
        if isinstance(w, StepForm):
            knots, heads = w.running_integral
            return float(np.interp(s, heads, knots))
        if w.inverse_cumulative is not None:
            return float(w.inverse_cumulative(s))

        def below(rows, t):  # F(t) - s, concave in t: it holds where <= 0
            return w.head_integrals(t.ravel()).reshape(t.shape) - s

        # doublings from 1 stop at 2**1023, the largest finite power of two
        last, hi = bracket_rows(below, np.array([1.0]), 2.0, 1023)
        if math.isnan(hi[0]):
            raise NumericError(f"running weight integral never exceeds {s}")
        return float(bisect_rows(below, np.nan_to_num(last), hi, rtol=1e-12, atol=1e-12)[0])

    def piece_masses(self, breakpoints: np.ndarray) -> np.ndarray:
        """Weight mass of each interval between consecutive breakpoints (0-prepended)."""
        return _interval_masses(self.weight, breakpoints)


def _interval_masses(weight: RearrangementFunction, ends: np.ndarray) -> np.ndarray:
    """Weight mass of each interval between consecutive ends (0-prepended)."""
    return np.diff(weight.head_integrals(np.concatenate([[0.0], ends])))


# ---------------------------------------------------------------------------
# Rearrangement with respect to a weight measure
# ---------------------------------------------------------------------------

def rearrange_step(durations, values, weight: RearrangementFunction | None = None) -> StepForm:
    """Decreasing rearrangement of an arbitrary step function.

    Rearranges with respect to the measure w(t)dt when ``weight`` is given,
    Lebesgue measure otherwise; exact: level sets are sorted by their measure.
    A weighted rearrangement vanishes at and beyond the weight's total mass.
    """
    d = np.asarray(durations, dtype=float)
    v = np.asarray(values, dtype=float)
    if d.shape != v.shape or d.ndim != 1:
        raise StructuralError("durations and values must be 1-d arrays of equal length")
    if np.any(d < 0) or np.any(v < 0):
        raise DomainError("durations and values must be nonnegative")
    masses = d if weight is None else _interval_masses(weight, np.cumsum(d))
    order = np.argsort(-v, kind="stable")
    form = StepForm(masses[order], v[order])
    return form if weight is None else _within_mass(form, weight.total_integral())


def _within_mass(form: StepForm, mass: float) -> StepForm:
    """``form`` with its tail cut back until its support is at most ``mass``.

    Piece masses summed in decreasing-value order round differently from the
    running weight integral, which can put the support a few ulps past the
    weight's total mass; the excess comes off the last piece.
    """
    if form.support <= mass:
        return form
    d = form.durations.copy()
    while d.size and (excess := float(np.cumsum(d)[-1]) - mass) > 0:
        if d[-1] > excess:
            d[-1] -= excess  # rounding may leave an ulp over; the next pass takes it
        else:
            d = d[:-1]
    return StepForm(d, form.values[:d.size])


def weighted_rearrangement(h, ctx: WeightedContext, s: float) -> float:
    """Decreasing rearrangement of h in the weight measure, evaluated at s.

    ``h`` may be a StepForm, a raw (durations, values) pair (not necessarily
    monotone), or a decreasing ParametricForm.  Arbitrary parametric inputs
    are rejected: only the decreasing case has a closed evaluation through
    the inverse of the running weight integral.
    """
    if s < 0:
        raise DomainError("evaluation point must be nonnegative")
    if isinstance(h, tuple):
        return rearrange_step(h[0], h[1], ctx.weight).evaluate(s)
    if isinstance(h, StepForm):
        return rearrange_step(h.durations, h.values, ctx.weight).evaluate(s)
    if isinstance(h, ParametricForm):
        if s >= ctx.mass:
            return 0.0
        return h.evaluate(ctx.F_inverse(s))
    raise StructuralError(f"unsupported input of type {type(h).__name__}")


# ---------------------------------------------------------------------------
# Singular-value inequality spot checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FackKosakiReport:
    product_violation: float
    trace_symmetry_violation: float
    homogeneity_violation: float
    samples: int

    @property
    def passed(self) -> bool:
        return (self.product_violation <= 1e-9
                and self.trace_symmetry_violation <= 1e-10
                and self.homogeneity_violation <= 1e-10)


def fack_kosaki_checks(alg: TracedAlgebra, f: AlgebraElement,
                       g: AlgebraElement) -> FackKosakiReport:
    """Verify mu_{t+s}(fg) <= mu_t(f) mu_s(g), mu(f*f) = mu(ff*), mu(af) = |a| mu(f)."""
    mu_f = singular_values(alg, f)
    mu_g = singular_values(alg, g)
    mu_fg = singular_values(alg, f @ g)
    pts = np.unique(np.concatenate([[0.0], mu_f.breakpoints, mu_g.breakpoints,
                                    mu_fg.breakpoints]))
    grid = np.unique(np.concatenate([pts, 0.5 * (pts[1:] + pts[:-1])]))

    at_f = mu_f.evaluate_many(grid)
    gap = mu_fg.evaluate_many(grid[:, None] + grid) - at_f[:, None] * mu_g.evaluate_many(grid)
    prod_viol = max(0.0, float(np.max(gap)))

    mu_ffs = singular_values(alg, f.adjoint() @ f)
    mu_fsf = singular_values(alg, f @ f.adjoint())
    pts = np.unique(np.concatenate([[0.0], mu_ffs.breakpoints, mu_fsf.breakpoints]))
    pts = np.concatenate([pts, pts * 0.5])
    tr_viol = float(np.max(np.abs(mu_ffs.evaluate_many(pts) - mu_fsf.evaluate_many(pts))))

    alpha = -2.0
    mu_af = singular_values(alg, alpha * f)
    hom_viol = float(np.max(np.abs(mu_af.evaluate_many(grid) - abs(alpha) * at_f)))

    return FackKosakiReport(prod_viol, tr_viol, hom_viol, samples=grid.size ** 2)
