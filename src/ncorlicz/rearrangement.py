"""Decreasing rearrangements: step and parametric forms, weighted contexts.

The singular-value function of a block element is a right-continuous
decreasing step function whose durations are the block trace weights; it is
the common currency every norm in the toolkit integrates against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .algebra import AlgebraElement, TracedAlgebra
from .errors import DomainError, NumericError, StructuralError, batch_or_loop
from .quadrature import integrate_sentinel
from .solve import bisect, bracket

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
            # merge exactly-equal adjacent values
            same = v[1:] == v[:-1]
            if same.any():
                d = np.bincount(np.concatenate([[0], np.cumsum(~same)]), weights=d)
                v = v[np.concatenate([[True], ~same])]
        object.__setattr__(self, "durations", d)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "breakpoints", np.cumsum(d))
        d.setflags(write=False)
        v.setflags(write=False)
        self.breakpoints.setflags(write=False)

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
        if t < 0:
            raise DomainError(f"rearrangement argument must be nonnegative, got {t}")
        idx = int(np.searchsorted(self.breakpoints, t, side="right"))
        return float(self.values[idx]) if idx < self.values.size else 0.0

    def evaluate_many(self, ts: np.ndarray) -> np.ndarray:
        """``evaluate`` at each of the points ``ts``: one ``searchsorted``."""
        if (ts < 0).any():
            raise DomainError("rearrangement arguments must be nonnegative")
        idx = np.searchsorted(self.breakpoints, ts, side="right")
        return np.concatenate((self.values, _ZERO))[idx]

    def head_integral(self, alpha: float) -> float:
        if alpha < 0:
            raise DomainError("head integral bound must be nonnegative")
        if self.is_zero:
            return 0.0
        cum = np.concatenate([[0.0], np.cumsum(self.durations * self.values)])
        if alpha >= self.support:
            return float(cum[-1])
        grid = np.concatenate([[0.0], self.breakpoints])
        return float(np.interp(alpha, grid, cum))

    def total_integral(self) -> float:
        return self.head_integral(INF)

    def scaled(self, factor: float) -> "StepForm":
        if factor < 0:
            raise DomainError("scaling factor must be nonnegative")
        return StepForm(self.durations.copy(), self.values * factor)

    def powered(self, n: float) -> "StepForm":
        return StepForm(self.durations.copy(), self.values ** n)

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
    and beyond ``support``.  ``cumulative`` is an optional closed form for
    the head integral, ``inverse_cumulative`` its inverse on [0, mass).
    ``singular_at_zero`` marks functions unbounded near 0 so quadrature can
    run the divergence sentinel.  ``constant_level`` short-circuits integrals
    of flat functions exactly.
    """

    fn: Callable[[float], float]
    support: float = INF
    label: str = "parametric"
    cumulative: Optional[Callable[[float], float]] = None
    inverse_cumulative: Optional[Callable[[float], float]] = None
    singular_at_zero: bool = False
    constant_level: Optional[float] = None

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
        return integrate_sentinel(self.fn, 0.0, hi,
                                  singular_at_zero=self.singular_at_zero)

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
        inverse_cumulative=lambda s: -math.log1p(-s),
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
                          cumulative=cum, singular_at_zero=True)


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
                          cumulative=cum, singular_at_zero=True)


def reciprocal(support: float = 1.0) -> ParametricForm:
    """mu(t) = support / t on (0, support], 0 after; no exponential moment exists."""
    return power_decay(1.0, support)


def constant(level: float, support: float = INF) -> ParametricForm:
    """mu identically equal to ``level`` on [0, support)."""
    if level < 0:
        raise DomainError("level must be nonnegative")
    return ParametricForm(fn=lambda t: level, support=support,
                          label=f"constant({level:g})", constant_level=level)


# ---------------------------------------------------------------------------
# Singular values and evaluation
# ---------------------------------------------------------------------------

def singular_values_many(alg: TracedAlgebra, elements: Sequence[AlgebraElement]) -> list[StepForm]:
    """``singular_values`` of many elements of ``alg``: one stacked SVD per block.

    ``np.linalg.svd(..., compute_uv=False)`` gives each matrix of a stack
    the values it gives that matrix alone, bit for bit, so each form is the
    one-element form.  Errors (a foreign element, no convergence) follow
    ``batch_or_loop``.
    """
    if not elements:
        return []
    durations = np.concatenate([np.full(n, w) for n, w in zip(alg.dims, alg.weights)])

    def decompose(items):
        if any(a.algebra != alg for a in items):
            raise StructuralError("element does not belong to the given algebra")
        values = np.concatenate([np.linalg.svd(np.array([a.blocks[k] for a in items]),
                                               compute_uv=False)
                                 for k in range(alg.n_blocks)], axis=1)
        order = np.argsort(-values, axis=1, kind="stable")
        return [StepForm(durations[o], v[o]) for o, v in zip(order, values)]

    return batch_or_loop(decompose, elements)


def singular_values(alg: TracedAlgebra, a: AlgebraElement) -> StepForm:
    """Decreasing singular-value step function; durations are block weights.

    The one-element case of ``singular_values_many``.
    """
    return singular_values_many(alg, [a])[0]


def submajorizes(x_mu: RearrangementFunction, y_mu: RearrangementFunction,
                 slack: float = SUBMAJOR_SLACK) -> bool:
    """True when every head integral of y is dominated by the one of x.

    For step pairs, checking at the union of breakpoints is exact: both heads
    are piecewise linear and concave.  Parametric inputs fall back to a dense
    grid with the total masses compared as the alpha -> inf limit.
    """
    if isinstance(x_mu, StepForm) and isinstance(y_mu, StepForm):
        alphas = np.unique(np.concatenate([x_mu.breakpoints, y_mu.breakpoints]))
        if alphas.size == 0:
            return True
    else:
        sup = [m.support for m in (x_mu, y_mu) if not math.isinf(m.support)]
        top = 2.0 * max(sup) if sup else 64.0
        alphas = np.unique(np.concatenate([
            np.logspace(-6, math.log10(top), 160),
            np.linspace(top / 160, top, 160),
            x_mu.breakpoints if isinstance(x_mu, StepForm) else np.array([]),
            y_mu.breakpoints if isinstance(y_mu, StepForm) else np.array([]),
        ]))
    for alpha in alphas:
        if y_mu.head_integral(float(alpha)) > x_mu.head_integral(float(alpha)) + slack:
            return False
    return y_mu.total_integral() <= x_mu.total_integral() + slack


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

    @property
    def t_x(self) -> float:
        """End of the weight's support: F is strictly increasing before it."""
        return self.weight.support

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
            cum = np.concatenate([[0.0], np.cumsum(w.durations * w.values)])
            grid = np.concatenate([[0.0], w.breakpoints])
            return float(np.interp(s, cum, grid))
        if w.inverse_cumulative is not None:
            return float(w.inverse_cumulative(s))

        def below(t: float) -> bool:
            return self.F(t) <= s

        # doublings from 1 stop at 2**1023, the largest finite power of two
        found = bracket(below, 1.0, 2.0, 1023)
        if found is None:
            raise NumericError(f"running weight integral never exceeds {s}")
        last, hi = found
        return bisect(below, 0.0 if last is None else last, hi, rtol=1e-12, atol=1e-12)

    def piece_masses(self, breakpoints: np.ndarray) -> np.ndarray:
        """Weight mass of each interval between consecutive breakpoints (0-prepended)."""
        return _interval_masses(self.weight, breakpoints)


def _interval_masses(weight: RearrangementFunction, ends: np.ndarray) -> np.ndarray:
    """Weight mass of each interval between consecutive ends (0-prepended).

    One ``np.interp`` on the cumulative weight for a step weight, which is
    the same interpolation ``StepForm.head_integral`` makes point by point.
    """
    grid = np.concatenate([[0.0], ends])
    if isinstance(weight, StepForm):
        cum = np.concatenate([[0.0], np.cumsum(weight.durations * weight.values)])
        f = np.interp(grid, np.concatenate([[0.0], weight.breakpoints]), cum)
    else:
        f = np.array([weight.head_integral(float(t)) for t in grid])
    return np.diff(f)


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


def fack_kosaki_checks(alg: TracedAlgebra, f: AlgebraElement, g: AlgebraElement,
                       grid: np.ndarray | None = None) -> FackKosakiReport:
    """Verify mu_{t+s}(fg) <= mu_t(f) mu_s(g), mu(f*f) = mu(ff*), mu(af) = |a| mu(f)."""
    mu_f = singular_values(alg, f)
    mu_g = singular_values(alg, g)
    mu_fg = singular_values(alg, f @ g)
    if grid is None:
        pts = np.unique(np.concatenate([[0.0], mu_f.breakpoints, mu_g.breakpoints,
                                        mu_fg.breakpoints]))
        grid = np.unique(np.concatenate([pts, 0.5 * (pts[1:] + pts[:-1])])) if pts.size > 1 else pts

    prod_viol = 0.0
    for t in grid:
        for s in grid:
            lhs = mu_fg.evaluate(float(t + s))
            rhs = mu_f.evaluate(float(t)) * mu_g.evaluate(float(s))
            prod_viol = max(prod_viol, lhs - rhs)

    mu_ffs = singular_values(alg, f.adjoint() @ f)
    mu_fsf = singular_values(alg, f @ f.adjoint())
    pts = np.unique(np.concatenate([[0.0], mu_ffs.breakpoints, mu_fsf.breakpoints]))
    tr_viol = max((abs(mu_ffs.evaluate(float(t)) - mu_fsf.evaluate(float(t)))
                   for t in pts), default=0.0)
    tr_viol = max(tr_viol, max((abs(mu_ffs.evaluate(float(t) * 0.5)
                                    - mu_fsf.evaluate(float(t) * 0.5)) for t in pts),
                               default=0.0))

    alpha = -2.0
    mu_af = singular_values(alg, alpha * f)
    hom_viol = max((abs(mu_af.evaluate(float(t)) - abs(alpha) * mu_f.evaluate(float(t)))
                    for t in grid), default=0.0)

    return FackKosakiReport(float(prod_viol), float(tr_viol), float(hom_viol),
                            samples=int(len(grid)) ** 2)
