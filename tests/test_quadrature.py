"""The log-scale tanh-sinh rule and its tail verdict, pinned by closed forms and step envelopes.

The log-singular data mu_p(t) = 1 / (t log^p(1/t)) on (0, e^-p] have the
total p^(1-p) / (p - 1), and in u = log(1/t) their integrand is exactly
u^-p: 28 % of the mass at p = 1.2, and more nearer 1, lies below
t = e^-700, where only the tail verdict reaches.
"""

import math

import numpy as np
import pytest

from ncorlicz import (
    NumericError,
    ParametricForm,
    StepForm,
    UnboundedNormError,
    UndecidedError,
    WeightedContext,
    cosh_minus_one,
    custom,
    exp_decay,
    log_reciprocal,
    luxemburg_norm,
    modular,
    power,
    power_decay,
    t_log1p,
    zero_then_linear,
)
from ncorlicz import quadrature
from ncorlicz.quadrature import DELTA, DEPTH, RATE

INF = math.inf


def _log_singular(p: float, calls=None) -> ParametricForm:
    support = math.exp(-p)

    def fn(t):
        if t <= 0.0:
            return INF
        if calls is not None:
            calls.append(t)
        return 1.0 / (t * (-math.log(t)) ** p)

    return ParametricForm(fn=fn, support=support, label=f"log_singular({p:g})",
                          singular_at_zero=True)


def _power_of_u(p: float) -> ParametricForm:
    """mu(t) = t^(r - 1) on (0, 1]: G(u) = e^(-r u), total 1 / r."""
    return ParametricForm(fn=lambda t: t ** (p - 1.0), support=1.0,
                          fn_many=lambda t: t ** (p - 1.0))


def _total_and_achieved(mu: ParametricForm):
    node, values = mu.sampled(0.0, mu.support)
    value, achieved = quadrature.integrals(values[None], node,
                                           lambda rows: mu.sampled_finer(node)[None])
    return float(value[0]), float(achieved[0])


class TestVerdict:
    @pytest.mark.parametrize("p", [1.1, 1.2, 1.3, 2.0, 3.0])
    def test_finite_within_the_achieved_error(self, p):
        got, achieved = _total_and_achieved(_log_singular(p))
        want = p ** (1.0 - p) / (p - 1.0)
        assert abs(got - want) <= achieved
        assert achieved <= 1e-13 * want
        assert _log_singular(p).total_integral() == got

    @pytest.mark.parametrize("p", [0.5, 0.9, 1.0 - 1.5 * DELTA])
    def test_divergent_below_one(self, p):
        assert _log_singular(p).total_integral() == INF

    @pytest.mark.parametrize("p", [1.0, 1.0 - 0.5 * DELTA, 1.0 + 0.5 * DELTA, 1.0 + 0.99 * DELTA])
    def test_undecided_within_delta_of_one(self, p):
        with pytest.raises(UndecidedError) as exc:
            _log_singular(p).total_integral()
        assert isinstance(exc.value, NumericError)
        assert exc.value.alpha == pytest.approx(p, abs=1e-9)
        assert abs(exc.value.rate) * DEPTH <= 1e-9

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_log_corrected_powers_are_undecided(self, q):
        # G(u) = 1 / (u log^q u): divergent for q = 1, convergent for q = 2; a fit of
        # u^-alpha e^(-r u) through three depths tells neither from 1/u
        mu = ParametricForm(fn=lambda t: 1.0 / (t * -math.log(t) * math.log(-math.log(t)) ** q),
                            support=math.exp(-3.0))
        with pytest.raises(UndecidedError):
            mu.total_integral()

    def test_a_slow_exponential_tail_is_never_infinite(self):
        # cosh(k log(1/t)) - 1 at k = 1/1.001: G(u) ~ e^(-u/1001) / 2, and half of
        # k^2 / (1 - k^2) = 499.75 lies beyond u = 700
        k = 1.0 / 1.001
        got = modular(log_reciprocal(1.0), cosh_minus_one(), k)
        assert got == pytest.approx(k * k / (1.0 - k * k), rel=1e-12)
        ctx = WeightedContext(exp_decay())
        assert math.isfinite(modular(log_reciprocal(1.0), cosh_minus_one(), k, ctx))

    def test_the_rate_boundary(self):
        # G(u) = e^(-r u): read as a rate, and finite, for r DEPTH > RATE; below, the
        # exponent of a halving (r DEPTH / (2 log 2) at most) decides: divergent
        above = 1.25 * RATE / DEPTH
        assert _power_of_u(above).total_integral() == pytest.approx(1.0 / above, rel=1e-12)
        assert _power_of_u(0.8 * RATE / DEPTH).total_integral() == INF

    def test_an_overflowing_sample_is_divergent(self):
        # t^-2 overflows to +inf at t = e^-700: a value, read as divergence
        assert power_decay(2.0).total_integral() == INF

    def test_a_nan_sample_is_an_error(self):
        mu = ParametricForm(fn=lambda t: math.nan if t < 1e-3 else 1.0, support=1.0)
        with pytest.raises(NumericError, match="NaN"):
            mu.total_integral()
        gauge = custom(lambda u: u * u if u < 3.0 else math.nan, name="nan_from_three")
        with pytest.raises(NumericError, match="NaN"):
            modular(log_reciprocal(1.0), gauge, 1.0)


class TestRule:
    def test_infinite_support(self):
        # int_0^inf (cosh(e^-t) - 1) dt = int_0^1 (cosh x - 1) / x dx = sum 1 / ((2n)! 2n)
        want = sum(1.0 / (math.factorial(2 * n) * 2 * n) for n in range(1, 12))
        assert modular(exp_decay(), cosh_minus_one(), 1.0) == pytest.approx(want, rel=1e-13)
        assert modular(exp_decay(), power(2.0), 1.0) == pytest.approx(0.5, rel=1e-13)

    @pytest.mark.parametrize("k", [0.5 / 300.0, 0.01, 0.5, 1.0, 2.0, 40.0])
    def test_a_gauge_kink_ends_the_interval(self, k):
        # max(0, k log(1/t) - 1/2) vanishes from t = e^(-1/(2k)) on: the integral is
        # k e^(-1/(2k)); at k = 1/600 the cut lies at u = 300, past the first depth
        got = modular(log_reciprocal(1.0), zero_then_linear(0.5), k)
        assert got == pytest.approx(k * math.exp(-0.5 / k), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("phi", [zero_then_linear(0.5), t_log1p()], ids=["kink", "tlog"])
    def test_a_tail_that_levels_off_or_grows_diverges(self, phi):
        # under the weight t^-1/2, (t/2)^-1/2 gives G(u) -> k sqrt 2 (kink) or G ~ k u (t log(1+t))
        # at every k: no finite scaling, though G bends like a rate at small k
        ctx = WeightedContext(power_decay(0.5, 1.0))
        with pytest.raises(UnboundedNormError):
            luxemburg_norm(power_decay(0.5, 2.0), phi, ctx)

    @pytest.mark.parametrize("p", [1.2, 2.0, 3.0])
    def test_norm_of_the_log_singular_data(self, p):
        # under t the Luxemburg norm is the total
        got = luxemburg_norm(_log_singular(p), power(1.0))
        assert got == pytest.approx(p ** (1.0 - p) / (p - 1.0), rel=1e-8)

    def test_samples_are_taken_once_per_interval(self):
        calls = []
        mu = _log_singular(2.0, calls)
        first = mu.total_integral()
        sampled = len(calls)
        assert sampled == 407 + 3
        assert mu.total_integral() == first
        modular(mu, power(2.0), np.linspace(0.1, 2.0, 15))
        assert len(calls) == sampled

    def test_one_refinement_then_an_error(self):
        # an arctan step of width 0.1: level 5 misses REL_TOL, level 7 meets it
        d, calls = 0.1, []

        def fn(t):
            calls.append(t)
            return math.atan((0.3 - t) / d) + 0.5 * math.pi

        def primitive(x):
            return x * math.atan(x) - 0.5 * math.log1p(x * x)

        want = d * (primitive(0.3 / d) - primitive(-0.5 / d)) + 0.4 * math.pi
        assert ParametricForm(fn=fn, support=0.8).total_integral() == pytest.approx(want, rel=1e-12)
        assert len(calls) == 407 + 3 + 406
        # a jump converges like the node spacing: the refined rule still misses
        with pytest.raises(NumericError, match="did not converge") as exc:
            ParametricForm(fn=lambda t: 1.0 if t < 0.3 else 0.5, support=0.8).total_integral()
        assert exc.value.achieved > 1e-3

    def test_rows_of_scalings_are_the_one_scaling_modulars(self):
        ks = np.geomspace(0.05, 0.9, 15)
        ctx = WeightedContext(StepForm.from_raw([0.3, 1.0, 2.0], [2.0, 1.0, 0.5]))
        for mu in (log_reciprocal(1.0), exp_decay(), power_decay(0.5)):
            for phi, c in ((cosh_minus_one(), ctx), (power(2.0), None), (zero_then_linear(0.5), ctx)):
                got = modular(mu, phi, ks, c)
                want = [modular(mu, phi, float(k), c) for k in ks]
                np.testing.assert_allclose(got, want, rtol=1e-14)


def _exp_cut_at(top: float) -> ParametricForm:
    return ParametricForm(fn=lambda t: math.exp(-t), support=top, fn_many=lambda t: np.exp(-t))


def _envelopes(top: float, n: int):
    """Step functions below and above e^-t on [0, top), on n pieces of equal drop in value."""
    grid = np.append(-np.log1p(-np.arange(n) / n * -math.expm1(-top)), top)
    values, d = np.exp(-grid), np.diff(grid)
    return StepForm.from_raw(d, values[1:]), StepForm.from_raw(d, values[:-1])


class TestStepEnvelope:
    """lower <= mu <= upper pointwise, so their exact step norms bracket the norm of mu.

    The envelopes of e^-t cut at t = 60 differ by at most 1/n, so the
    bracket narrows like 1/n; no quadrature enters it.
    """

    @pytest.mark.parametrize("phi", [power(2.0), power(3.0), cosh_minus_one()],
                             ids=["t2", "t3", "cosh"])
    @pytest.mark.parametrize("weight", [None, exp_decay()], ids=["lebesgue", "exp"])
    def test_norm_lies_between_the_envelopes(self, phi, weight):
        ctx = None if weight is None else WeightedContext(weight)
        lower, upper = _envelopes(60.0, 2000)
        lo, hi = luxemburg_norm(lower, phi, ctx), luxemburg_norm(upper, phi, ctx)
        assert lo <= luxemburg_norm(_exp_cut_at(60.0), phi, ctx) <= hi
        assert hi - lo <= 2e-3 * hi

    def test_the_quadratic_bracket(self):
        lower, upper = _envelopes(60.0, 2000)
        lo, hi = luxemburg_norm(lower, power(2.0)), luxemburg_norm(upper, power(2.0))
        assert (round(lo, 5), round(hi, 5)) == (0.70675, 0.70747)
        got = luxemburg_norm(_exp_cut_at(60.0), power(2.0))
        assert lo <= got <= hi
        assert got == pytest.approx(math.sqrt(-0.5 * math.expm1(-120.0)), rel=1e-9)
