"""Modulars, norms, pairings, regularity probes, and their inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncorlicz import (
    DomainError,
    NumericError,
    ParametricForm,
    StepForm,
    StructuralError,
    TracedAlgebra,
    UnboundedNormError,
    WeightedContext,
    amemiya_norm,
    amemiya_norms,
    apply_function,
    conjugate,
    constant,
    cosh_minus_one,
    custom,
    eval_gauge,
    exp_decay,
    exp_minus_one,
    holder_check,
    holder_checks,
    kunze_norm,
    kunze_norms,
    laplace_probe,
    linear_until_cap,
    log_reciprocal,
    luxemburg_norm,
    luxemburg_norms,
    modular,
    moment_bound_check,
    moment_bound_checks,
    pairing_integral,
    pistone_sempi_equivalence,
    power,
    power_decay,
    quant_membership,
    reciprocal,
    singular_values,
    tau_x,
    trace,
    zero_then_linear,
)
from ncorlicz.sampling import (
    algebra_shapes,
    random_decreasing_step,
    random_element,
    random_positive,
    random_state,
    random_weight_step,
)
from ncorlicz.norms import AMEMIYA_K_CAP, MODULAR_SLACK
from ncorlicz.verify import _norm_gauges

INF = math.inf


def _nan_from_three():
    """A broken gauge: t^2 below 3, NaN at and beyond 3."""
    return custom(lambda u: u * u if u < 3.0 else math.nan, name="nan_from_three")


@st.composite
def _steps(draw):
    m = draw(st.integers(1, 6))
    values = sorted(draw(st.lists(st.floats(0.05, 4.0), min_size=m, max_size=m)),
                    reverse=True)
    durations = draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m))
    return StepForm.from_raw(durations, values)


def _catalog():
    """One datum of each kind: a step form and the parametric catalog."""
    return [StepForm.from_raw([0.5, 1.0, 2.0], [3.0, 1.0, 0.25]), log_reciprocal(),
            power_decay(0.5), reciprocal(), exp_decay(), constant(2.0)]


def _catalog_contexts():
    """Lebesgue measure, an exponential weight and a step weight."""
    return [None, WeightedContext(exp_decay()),
            WeightedContext(StepForm.from_raw([1.0, 2.0], [1.0, 0.5]))]


class TestModular:
    def test_step_exact_sum(self):
        mu = StepForm.from_raw([1.0, 1.0, 1.0], [3.0, 2.0, 1.0])
        assert modular(mu, power(2.0), 1.0) == pytest.approx(14.0)

    def test_value_beyond_cap_is_infinite(self):
        mu = StepForm.from_raw([0.5], [1.01])
        assert modular(mu, linear_until_cap(1.0), 1.0) == INF

    def test_weighted_constant_closed_form(self):
        ctx = WeightedContext(exp_decay())
        got = modular(constant(1.0), cosh_minus_one(), 1.0, ctx)
        assert got == pytest.approx(math.cosh(1.0) - 1.0, abs=1e-12)

    def test_invalid_scale(self):
        with pytest.raises(DomainError):
            modular(StepForm.from_raw([1.0], [1.0]), power(2.0), 0.0)

    def test_log_under_cosh_at_small_scalings(self):
        # the integral of cosh(k log(1/t)) - 1 over (0, 1) is k^2 / (1 - k^2)
        ks = np.logspace(-150, -4, 60)
        got = modular(log_reciprocal(1.0), cosh_minus_one(), ks)
        np.testing.assert_allclose(got, ks ** 2 / (1 - ks ** 2), rtol=1e-15, atol=0)

    def test_nan_gauge_is_an_error(self):
        mu = StepForm.from_raw([0.5, 0.5], [4.0, 1.0])
        with pytest.raises(NumericError):
            modular(mu, _nan_from_three(), 1.0)
        # below 3 the gauge is t^2
        assert modular(mu, _nan_from_three(), 0.5) == pytest.approx(0.5 * 4.0 + 0.5 * 0.25)

    def test_array_of_scalings(self):
        mu = StepForm.from_raw([1.0, 1.0, 1.0], [3.0, 2.0, 1.0])
        got = modular(mu, power(2.0), np.array([1.0, 0.5, 2.0]))
        np.testing.assert_allclose(got, [14.0, 3.5, 56.0], rtol=1e-15)
        with pytest.raises(DomainError):
            modular(mu, power(2.0), np.array([1.0, 0.0]))
        # parametric data take arrays too: each entry is the one-scaling modular
        ks = np.array([1.0, 2.0, 0.5])
        got = modular(exp_decay(), power(2.0), ks)
        want = [modular(exp_decay(), power(2.0), float(k)) for k in ks]
        np.testing.assert_allclose(got, want, rtol=1e-14)
        np.testing.assert_allclose(got, 0.5 * ks ** 2, rtol=1e-13)

    @given(_steps(), st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_array_modular_is_the_scalar_modular(self, mu, scalings):
        for phi in _norm_gauges():
            got = modular(mu, phi, np.array(scalings))
            want = [modular(mu, phi, s) for s in scalings]
            np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_monotone_in_scaling(self):
        mu = random_decreasing_step(np.random.default_rng(0))
        phi = cosh_minus_one()
        vals = [modular(mu, phi, 1.0 / lam) for lam in (0.5, 1.0, 2.0, 4.0)]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


class TestLuxemburg:
    def test_quadratic_closed_form(self):
        alg = TracedAlgebra((2,), (1.0,))
        mu = singular_values(alg.diagonal([[3.0, 4.0]]))
        assert luxemburg_norm(mu, power(2.0)) == pytest.approx(5.0, rel=1e-9)

    def test_projection_value_matches_formula(self):
        mu = StepForm.from_raw([1.0], [1.0])  # projection of trace one
        got = luxemburg_norm(mu, exp_minus_one())
        assert got == pytest.approx(1.0 / math.log(2.0), rel=1e-9)

    def test_weighted_constant(self):
        ctx = WeightedContext(exp_decay())
        got = luxemburg_norm(constant(1.0), cosh_minus_one(), ctx)
        assert got == pytest.approx(1.0 / math.acosh(2.0), rel=1e-9)

    def test_zero_input(self):
        assert luxemburg_norm(StepForm.from_raw([], []), power(2.0)) == 0.0

    def test_parametric_walk_up_past_its_first_point(self):
        # the seed 1 starts the walk at 2^7, which is infeasible, and the walk up
        # 2^8, 2^9, ... first holds at 2^9 (norm sqrt(1e5)) and 2^10 (norm sqrt(5e5))
        got = luxemburg_norm(log_reciprocal(5e4), power(2.0))
        assert got == pytest.approx(math.sqrt(1e5), rel=1e-9)
        got = luxemburg_norm(power_decay(0.3, 2e5), power(2.0))
        assert got == pytest.approx(math.sqrt(5e5), rel=1e-9)

    def test_unbounded_raises(self):
        ctx = WeightedContext(exp_decay())
        with pytest.raises(UnboundedNormError):
            luxemburg_norm(reciprocal(), cosh_minus_one(), ctx)

    def test_tolerance_domain(self):
        with pytest.raises(DomainError):
            luxemburg_norm(StepForm.from_raw([1.0], [1.0]), power(2.0), tol=0.1)

    def test_modular_at_the_norm(self):
        rng = np.random.default_rng(1)
        phi = cosh_minus_one()
        for _ in range(10):
            mu = random_decreasing_step(rng)
            lam = luxemburg_norm(mu, phi, tol=1e-9)
            assert modular(mu, phi, 1.0 / lam) <= 1.0 + 1e-8
            assert modular(mu, phi, 1.0 / (lam * (1 - 1e-8))) > 1.0 - 1e-9

    @given(_steps())
    @settings(max_examples=60, deadline=None)
    def test_batched_solve_brackets_the_norm(self, mu):
        tol = 1e-9
        for phi in _norm_gauges():
            lam = luxemburg_norm(mu, phi, tol=tol)
            assert modular(mu, phi, 1.0 / lam) <= 1.0 + 1e-9
            assert modular(mu, phi, 1.0 / (lam * (1.0 - 2.0 * tol))) > 1.0

    def test_nan_gauge_is_an_error(self):
        # the norm is 1: every solve evaluates the gauge at 10
        mu = StepForm.from_raw([0.01], [10.0])
        with pytest.raises(NumericError):
            luxemburg_norm(mu, _nan_from_three())

    def test_weighted_masses_once_per_solve(self, monkeypatch):
        ctx = WeightedContext(StepForm.from_raw([1.0, 2.0], [1.0, 0.5]))
        mu = StepForm.from_raw([0.5, 1.0], [3.0, 1.0])
        calls = []
        real = WeightedContext.piece_masses
        monkeypatch.setattr(WeightedContext, "piece_masses",
                            lambda self, b: calls.append(b) or real(self, b))
        lam = luxemburg_norm(mu, power(2.0), ctx)
        assert len(calls) == 1
        # weight masses of the pieces: 0.5 and 0.5 + 0.5 * 0.5
        assert lam == pytest.approx(math.sqrt(0.5 * 9.0 + 0.75 * 1.0), rel=1e-9)


def _slack_corpus():
    """200 seeded step forms, and the contexts they are solved in: Lebesgue and a step weight."""
    rng = np.random.default_rng(26)
    forms = [random_decreasing_step(rng) for _ in range(200)]
    return forms, [None, WeightedContext(random_weight_step(rng))]


def _fsum_modular(mu, phi, ctx, lam):
    """The modular at scaling lam, summed exactly over one scalar gauge call per piece."""
    masses = mu.durations if ctx is None else ctx.piece_masses(mu.breakpoints)
    return math.fsum(m * eval_gauge(phi, v / lam)
                     for v, m in zip(mu.values.tolist(), masses.tolist()) if m > 0)


class TestNormSolveEdge:
    """A norm lies on the feasible side of the slack, and a solve takes few passes."""

    GAUGES = _norm_gauges() + [zero_then_linear(0.5)]

    def test_modular_at_the_norm_is_within_the_slack(self):
        # a point of the cut on its predicted root would put the modular
        # within rounding of 1 + MODULAR_SLACK, on either side of it
        tol = 1e-9
        forms, ctxs = _slack_corpus()
        for phi in self.GAUGES:
            for ctx in ctxs:
                for mu, lam in zip(forms, luxemburg_norms(forms, phi, ctx, tol).tolist()):
                    assert _fsum_modular(mu, phi, ctx, lam) <= 1.0 + MODULAR_SLACK
                    assert _fsum_modular(mu, phi, ctx, lam * (1.0 - 2.0 * tol)) > 1.0

    def test_a_walk_from_near_the_float_ceiling(self):
        # the walk starts 2^7 above the seed, or at the largest float where that overflows
        for v in (1e300, 1e307, 1.7e308):
            got = luxemburg_norm(StepForm.from_raw([1.0], [v]), power(2.0))
            assert got == pytest.approx(v, rel=1e-9)

    def test_a_luxemburg_solve_takes_at_most_five_passes(self, monkeypatch):
        import ncorlicz.norms as norms
        passes, real = [], norms._step_modular
        monkeypatch.setattr(norms, "_step_modular", lambda *a: passes.append(1) or real(*a))
        forms, ctxs = _slack_corpus()
        solves = 0
        for phi in self.GAUGES:
            for ctx in ctxs:
                for mu in forms:
                    luxemburg_norm(mu, phi, ctx)
                    solves += 1
        assert len(passes) <= 5 * solves  # an even 16-way cut takes about 9.7

    def test_a_kunze_solve_takes_at_most_five_passes(self, monkeypatch):
        import ncorlicz.norms as norms
        passes, real = [], norms._trace_calculus
        monkeypatch.setattr(norms, "_trace_calculus", lambda *a: passes.append(1) or real(*a))
        rng = np.random.default_rng(26)
        solves = 0
        for alg in algebra_shapes():
            for _ in range(10):
                a = random_element(alg, rng)
                for phi in _norm_gauges():
                    kunze_norm(a, phi)
                    solves += 1
        assert len(passes) <= 5 * solves  # an even 16-way cut takes about 9.7


# A weight per kind: Lebesgue, a density and a step weight
_WEIGHTS = [None, exp_decay(), StepForm.from_raw([1.0, 2.0], [1.0, 0.5])]


class TestCapOnUnboundedData:
    """mu = log(1/t) is unbounded, so a capped phi(k mu) is +inf on some (0, eps)."""

    @pytest.mark.parametrize("weight", _WEIGHTS, ids=["lebesgue", "exp", "step"])
    @pytest.mark.parametrize("cap", [1.0, 5.0])
    def test_modular_infinite_and_norm_unbounded(self, cap, weight):
        ctx = None if weight is None else WeightedContext(weight)
        phi = linear_until_cap(cap)
        assert modular(log_reciprocal(1.0), phi, 1.0 / 650.0, ctx) == INF
        with pytest.raises(UnboundedNormError):
            luxemburg_norm(log_reciprocal(1.0), phi, ctx)

    def test_fn_raising_at_zero_names_the_contract(self):
        # fn should return +inf at 0; raising there is a DomainError chained from the raise
        mu = ParametricForm(lambda t: math.sqrt(math.log(1.0 / t)), support=1.0)
        with pytest.raises(DomainError, match="may be \\+inf") as got:
            luxemburg_norm(mu, power(2.0))
        assert isinstance(got.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("weight", _WEIGHTS, ids=["lebesgue", "exp", "step"])
    def test_bounded_data_up_to_the_cap(self, weight):
        # exp_decay has sup mu = 1: finite up to k = b_phi and +inf one ulp beyond
        ctx = None if weight is None else WeightedContext(weight)
        phi = linear_until_cap(2.0)
        assert math.isfinite(modular(exp_decay(), phi, 2.0, ctx))
        assert modular(exp_decay(), phi, math.nextafter(2.0, INF), ctx) == INF


_PARAMETRIC = [exp_decay(), log_reciprocal(1.0), constant(0.8, 2.0)]
_CAPPED = [linear_until_cap(1.0), linear_until_cap(5.0), conjugate(power(1.0)),
           conjugate(zero_then_linear(0.5))]


@st.composite
def _growing_scalings(draw):
    """Data, a gauge and k1 <= k2, often at k sup mu = b_phi or an ulp either side."""
    mu = draw(st.one_of(_steps(), st.sampled_from(_PARAMETRIC)))
    phi = draw(st.sampled_from(_norm_gauges() + _CAPPED))
    edge = phi.b_phi / mu.sup_value if phi.b_phi < INF and mu.sup_value < INF else 1.0
    near = [edge, math.nextafter(edge, 0.0), math.nextafter(edge, INF)]
    ks = draw(st.lists(st.one_of(st.sampled_from(near), st.floats(0.01, 4.0 * edge)),
                       min_size=2, max_size=2))
    return mu, phi, sorted(ks)


class TestModularMonotone:
    @given(_growing_scalings())
    @settings(max_examples=80, deadline=None)
    def test_modular_does_not_decrease_as_k_grows(self, case):
        mu, phi, (k1, k2) = case
        m1, m2 = modular(mu, phi, k1), modular(mu, phi, k2)
        # exact for step data; quadrature is trusted to REL_TOL 1e-8
        assert m2 >= m1 * (1.0 - 1e-8)


class TestKunze:
    def test_matches_luxemburg(self):
        alg = TracedAlgebra((2,), (1.0,))
        a = alg.diagonal([[3.0, 4.0]])
        assert kunze_norm(a, power(2.0)) == pytest.approx(5.0, rel=1e-8)

    def test_zero_element(self):
        alg = TracedAlgebra((2,), (1.0,))
        assert kunze_norm(alg.zero(), power(2.0)) == 0.0

    def test_cap_gauge_small_element(self):
        # exercises the finite-cap branch: functional calculus fails for small
        # scalings, the bisection treats that as an infinite modular
        alg = TracedAlgebra((2,), (1.0,))
        a = alg.diagonal([[0.5, 0.25]])
        phi = linear_until_cap(1.0)
        k = kunze_norm(a, phi)
        l = luxemburg_norm(singular_values(a), phi)
        assert k == pytest.approx(l, rel=1e-8)
        assert math.isfinite(k)

    def test_one_decomposition_per_call(self, monkeypatch):
        import ncorlicz.norms as norms
        alg = TracedAlgebra((2, 1), (1.0, 0.5))
        a = alg.element([np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[3.0]])])
        calls = []
        real = norms._svd_blocks
        monkeypatch.setattr(norms, "_svd_blocks", lambda x: calls.append(x) or real(x))
        k = kunze_norm(a, cosh_minus_one())
        assert len(calls) == 1
        assert k == pytest.approx(luxemburg_norm(singular_values(a), cosh_minus_one()),
                                  rel=1e-8)

    def test_nan_gauge_is_an_error(self):
        alg = TracedAlgebra((1,), (0.01,))
        with pytest.raises(NumericError):
            kunze_norm(alg.diagonal([[10.0]]), _nan_from_three())


class TestAmemiya:
    def test_linear_gauge_limit(self):
        mu = StepForm.from_raw([2.0], [1.0])  # total integral 2
        assert amemiya_norm(mu, power(1.0)) == pytest.approx(2.0, abs=1e-8)

    def test_sandwich(self):
        rng = np.random.default_rng(2)
        for phi in (power(2.0), cosh_minus_one(), exp_minus_one()):
            for _ in range(8):
                mu = random_decreasing_step(rng)
                lux = luxemburg_norm(mu, phi, tol=1e-10)
                ame = amemiya_norm(mu, phi, tol=1e-10)
                assert lux <= ame + 1e-8
                assert ame <= 2.0 * lux + 1e-8

    def test_zero_input(self):
        assert amemiya_norm(StepForm.from_raw([], []), power(2.0)) == 0.0

    @pytest.mark.xfail(strict=True, reason="known defect: the search runs k over a fixed "
                       "range, from AMEMIYA_K_CAP down to about 2^-200, whatever the data's scale")
    def test_homogeneous_beyond_the_searched_scalings(self):
        # A(c mu) = c A(mu); under t^2, (1 + k^2 c^2) / k is least at k = 1/c,
        # where it is 2c, and 1/c lies outside the searched k at these c
        for c in (1e-12, 1e-10, 1e61, 1e62, 1e80):
            assert amemiya_norm(StepForm.from_raw([1.0], [c]), power(2.0)) == pytest.approx(
                2.0 * c, rel=1e-9)

    def test_each_k_evaluated_once(self, monkeypatch):
        import ncorlicz.norms as norms
        passes = []
        real = norms._step_modular
        monkeypatch.setattr(norms, "_step_modular",
                            lambda v, m, phi, k: passes.append(k.copy()) or real(v, m, phi, k))
        mu = StepForm.from_raw([2.0, 1.0], [1.0, 0.5])
        # t^2: the Amemiya norm is twice the Luxemburg norm sqrt(2.25)
        assert amemiya_norm(mu, power(2.0)) == pytest.approx(3.0, rel=1e-12)
        # one pass over k = K_CAP / 2^j, then 7 rounds of the convex search
        assert [k.size for k in passes] == [231, 15] + [14] * 6
        ks = np.concatenate([k.ravel() for k in passes])
        assert len(set(ks.tolist())) == len(ks)

    def test_kinked_gauges_exact(self):
        # zero_then_linear(a) makes the objective piecewise linear in 1/k with
        # kinks at k = a / v_i; its minimum is at one of them or at the k-cap
        rng = np.random.default_rng(0)
        kinked = [(zero_then_linear(1.0), 1.0), (zero_then_linear(0.5), 0.5),
                  (conjugate(linear_until_cap(1.0)), 1.0)]
        for _ in range(300):
            mu = random_decreasing_step(rng)
            for phi, a in kinked:
                ks = np.append((a / mu.values)[a / mu.values < AMEMIYA_K_CAP], AMEMIYA_K_CAP)
                exact = min((1.0 + modular(mu, phi, float(k))) / k for k in ks)
                assert -1e-15 <= amemiya_norm(mu, phi) / exact - 1.0 <= 1e-10
            total = mu.total_integral()
            for p in (1.5, 2.0, 3.0):
                mass = modular(mu, power(p), 1.0)
                exact = p / (p - 1.0) * ((p - 1.0) * mass) ** (1.0 / p)
                assert amemiya_norm(mu, power(p)) == pytest.approx(exact, rel=1e-12)
            assert amemiya_norm(mu, linear_until_cap(1.0)) == pytest.approx(
                float(mu.values[0]) + total, rel=1e-12)

    @given(_steps())
    @settings(max_examples=60, deadline=None)
    def test_between_luxemburg_and_twice_it(self, mu):
        for phi in _norm_gauges() + [zero_then_linear(1.0), zero_then_linear(0.5)]:
            lux = luxemburg_norm(mu, phi)
            ame = amemiya_norm(mu, phi)
            assert lux * (1.0 - 1e-8) <= ame <= 2.0 * lux * (1.0 + 1e-8)

    def test_parametric_closed_forms(self):
        # under t^p the least (1 + k^p M) / k, M the p-th moment, is
        # p / (p - 1) ((p - 1) M)^(1/p), which is p (p - 1)^(1/p - 1) times
        # the Luxemburg norm M^(1/p); under cosh - 1 the modular of -log t is
        # k^2 / (1 - k^2): L = sqrt(2), and (1 + modular) / k is least at
        # k = 1/sqrt(3), where it is 3 sqrt(3) / 2
        assert amemiya_norm(exp_decay(), power(2.0)) == pytest.approx(math.sqrt(2.0),
                                                                      rel=1e-14)
        c = cosh_minus_one()
        assert amemiya_norm(log_reciprocal(), c) == pytest.approx(1.5 * math.sqrt(3.0),
                                                                  rel=1e-13)
        assert luxemburg_norm(log_reciprocal(), c) == pytest.approx(math.sqrt(2.0), rel=1e-9)
        cube = power(3.0)
        for ctx in _catalog_contexts():
            for mu in (log_reciprocal(), power_decay(0.3, 2.0), exp_decay(), constant(2.0, 3.0)):
                ratio = amemiya_norm(mu, cube, ctx) / luxemburg_norm(mu, cube, ctx)
                assert ratio == pytest.approx(3.0 * 2.0 ** (-2.0 / 3.0), rel=1e-8)

    def test_sandwich_on_the_catalog(self):
        # L <= A <= 2L for both kinds of data under every norm gauge and
        # weight, and a norm is unbounded exactly when the other one is
        unbounded = 0
        for ctx in _catalog_contexts():
            for phi in _norm_gauges():
                for mu in _catalog():
                    try:
                        lux = luxemburg_norm(mu, phi, ctx)
                    except UnboundedNormError:
                        unbounded += 1
                        with pytest.raises(UnboundedNormError):
                            amemiya_norm(mu, phi, ctx)
                        continue
                    ame = amemiya_norm(mu, phi, ctx)
                    assert lux * (1.0 - 1e-8) <= ame <= 2.0 * lux * (1.0 + 1e-8)
        # reciprocal() 15 times, power_decay(0.5) under all gauges but t 12 times,
        # constant(2.0) under Lebesgue measure 5 times, log_reciprocal() under the cap 3 times
        assert unbounded == 35

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 0.5, 10.0])
    def test_tolerance_domain(self, tol):
        mu = StepForm.from_raw([1.0, 2.0], [3.0, 1.0])
        with pytest.raises(DomainError):
            amemiya_norm(mu, power(2.0), tol=tol)
        with pytest.raises(DomainError):
            amemiya_norms([mu, exp_decay()], power(2.0), tol=tol)

    def test_sup_type_conjugate_gauge(self):
        # conjugate of the linear gauge turns Amemiya into the sup value
        mu = StepForm.from_raw([1.0, 2.0], [3.0, 1.0])
        got = amemiya_norm(mu, conjugate(power(1.0)))
        assert got == pytest.approx(3.0, rel=1e-8)


def _many_gauges():
    return _norm_gauges() + [zero_then_linear(0.5)]


@st.composite
def _step_batches(draw):
    """Step forms of mixed piece counts, with zero forms and walk-up forms.

    A walk-up form has so much mass that the modular at its sup value
    exceeds one, so its norm lies above the seed of the down walk.
    """
    forms = []
    for kind in draw(st.lists(st.sampled_from(["step", "zero", "walk_up"]),
                              min_size=1, max_size=10)):
        if kind == "zero":
            forms.append(StepForm.from_raw([], []))
            continue
        mu = draw(_steps())
        if kind == "walk_up":
            mu = StepForm.from_raw(mu.durations * draw(st.floats(20.0, 1e4)), mu.values)
        forms.append(mu)
    return forms


def _contexts():
    return st.sampled_from(["none", "step", "exp_decay"]).flatmap(
        lambda kind: st.just(None) if kind == "none" else
        st.just(WeightedContext(exp_decay())) if kind == "exp_decay" else
        st.integers(0, 2 ** 32 - 1).map(
            lambda seed: WeightedContext(random_weight_step(np.random.default_rng(seed)))))


def _first_error(solve_one, items):
    """The error the one-form loop over ``items`` raises first, or None."""
    for item in items:
        try:
            solve_one(item)
        except Exception as exc:  # noqa: BLE001 - compared by class and message
            return exc
    return None


def _raises_like(solve_many, want):
    with pytest.raises(type(want)) as got:
        solve_many()
    assert str(got.value) == str(want)


def _nan_above_a_million():
    """t^2 below 1e6 and NaN from there on: a NaN that only a long walk meets."""
    return custom(lambda u: u * u if u < 1e6 else math.nan, name="nan_above_a_million")


class TestManyForms:
    """The many-form solves equal the one-form loop bit for bit, errors included."""

    @given(_step_batches(), st.sampled_from(_many_gauges()), _contexts())
    @settings(max_examples=80, deadline=None)
    def test_luxemburg_many_is_the_one_form_loop(self, mus, phi, ctx):
        got = luxemburg_norms(mus, phi, ctx).tolist()
        assert got == [luxemburg_norm(mu, phi, ctx) for mu in mus]

    @given(_step_batches(), st.sampled_from(_many_gauges()), _contexts())
    @settings(max_examples=60, deadline=None)
    def test_amemiya_many_is_the_one_form_loop(self, mus, phi, ctx):
        got = amemiya_norms(mus, phi, ctx).tolist()
        assert got == [amemiya_norm(mu, phi, ctx) for mu in mus]

    def test_seeded_corpus_is_the_one_form_loop(self):
        # a corpus of every piece count from 1 to 10, walk-up forms among them
        rng = np.random.default_rng(8)
        mus = [random_decreasing_step(rng, max_pieces=10).scaled(float(rng.choice([0.1, 1.0])))
               for _ in range(150)]
        for ctx in (None, WeightedContext(random_weight_step(rng)), WeightedContext(exp_decay())):
            for phi in _many_gauges():
                assert luxemburg_norms(mus, phi, ctx).tolist() == \
                    [luxemburg_norm(mu, phi, ctx) for mu in mus]
                assert amemiya_norms(mus, phi, ctx).tolist() == \
                    [amemiya_norm(mu, phi, ctx) for mu in mus]

    @given(st.integers(0, 2 ** 32 - 1), st.lists(st.sampled_from([0.0, 0.05, 1.0, 30.0]),
                                                 min_size=1, max_size=12),
           st.sampled_from(_many_gauges()))
    @settings(max_examples=60, deadline=None)
    def test_kunze_many_is_the_one_form_loop(self, seed, scales, phi):
        rng = np.random.default_rng(seed)
        shapes = algebra_shapes()
        algs = [shapes[int(rng.integers(len(shapes)))] for _ in scales]
        elements = [random_element(alg, rng) * c for alg, c in zip(algs, scales)]
        got = kunze_norms(elements, phi).tolist()
        assert got == [kunze_norm(a, phi) for a in elements]

    def test_holder_many_is_the_one_form_loop(self):
        rng = np.random.default_rng(4)
        pairs = [(random_element(alg, rng), random_element(alg, rng))
                 for alg in algebra_shapes() * 2]
        gauges = [power(2.0), cosh_minus_one(), exp_minus_one()]
        reports = holder_checks(pairs, gauges)
        for phi, row in zip(gauges, reports):
            assert row == [holder_check(f, g, phi) for f, g in pairs]

    @given(_steps(), st.sampled_from(_many_gauges()), _contexts(),
           st.floats(1e-3, 1e3))
    @settings(max_examples=80, deadline=None)
    def test_luxemburg_is_homogeneous(self, mu, phi, ctx, c):
        tol = 1e-9
        got = luxemburg_norms([mu.scaled(c)], phi, ctx, tol)[0]
        assert got == pytest.approx(c * luxemburg_norm(mu, phi, ctx, tol), rel=2 * tol)

    def test_errors_follow_the_input_order(self):
        phi = _nan_above_a_million()
        fine = StepForm.from_raw([1.0, 0.5], [2.0, 1.0])
        unbounded = StepForm.from_raw([1e130], [1.0])  # needs lam >= 1e65 > 2^201
        nan = StepForm.from_raw([1e-14], [1.0])  # its down walk meets 2^20 >= 1e6
        for mus in ([fine, nan, unbounded], [fine, unbounded, nan, fine],
                    [unbounded, nan], [nan, unbounded, fine]):
            want = _first_error(lambda mu: luxemburg_norm(mu, phi), mus)
            assert type(want) in (NumericError, UnboundedNormError)
            _raises_like(lambda: luxemburg_norms(mus, phi), want)
        assert isinstance(_first_error(lambda mu: luxemburg_norm(mu, phi), [unbounded]),
                          UnboundedNormError)

        # Amemiya: the first pass meets NaN at k = K_CAP times the top value
        nans = [StepForm.from_raw([], [])] + [StepForm.from_raw([1.0], [v])
                                              for v in (0.25, 3.0, 0.5)]
        want = _first_error(lambda mu: amemiya_norm(mu, phi), nans)
        assert "2.5e+08" in str(want)
        _raises_like(lambda: amemiya_norms(nans, phi), want)
        cap = linear_until_cap(1.0)
        for mus in ([fine, StepForm.from_raw([1.0], [1e70])],
                    [StepForm.from_raw([1.0], [1e70]), fine]):
            want = _first_error(lambda mu: amemiya_norm(mu, cap), mus)
            assert isinstance(want, UnboundedNormError)
            _raises_like(lambda: amemiya_norms(mus, cap), want)

    def test_kunze_errors_follow_the_input_order(self):
        phi = _nan_above_a_million()
        heavy, light = TracedAlgebra((1,), (1e130,)), TracedAlgebra((1,), (1e-14,))
        plain = TracedAlgebra((2,), (1.0,))
        elements = [plain.diagonal([[2.0, 1.0]]), light.diagonal([[1.0]]),
                    heavy.diagonal([[1.0]]), plain.diagonal([[1.0, 0.5]]),
                    plain.element([np.array([[math.nan, 0.0], [0.0, 1.0]])])]
        for order in ([0, 2, 1, 3], [0, 1, 2], [3, 1, 0, 2], [0, 4, 1], [3, 2, 4], [4, 0]):
            items = [elements[i] for i in order]
            want = _first_error(lambda a: kunze_norm(a, phi), items)
            _raises_like(lambda: kunze_norms(items, phi), want)

    def test_holder_errors_follow_the_pair_order(self):
        # pair 0 fails its Luxemburg solve (weight 1e130), pair 1 its dual
        # (1e70 has no finite Amemiya norm in the conjugate of power(1)); one
        # dual solve over both pairs would meet the second first
        heavy, plain = TracedAlgebra((1,), (1e130,)), TracedAlgebra((1,), (1.0,))
        pairs = [(heavy.zero(), heavy.diagonal([[1.0]])),
                 (plain.diagonal([[1e70]]), plain.diagonal([[1.0]]))]
        phi = power(1.0)
        for items in (pairs, pairs[::-1]):
            want = _first_error(lambda p: holder_check(*p, phi), items)
            _raises_like(lambda: holder_checks(items, [phi]), want)
        assert isinstance(_first_error(lambda p: holder_check(*p, phi), pairs),
                          UnboundedNormError)

    def test_mixed_kinds_are_the_one_form_loop(self):
        # parametric forms are one-row groups among the step groups; a batch
        # that fails raises what the one-form loop raises first
        step = StepForm.from_raw([0.5, 1.0, 2.0], [3.0, 1.0, 0.25])
        mus = [exp_decay(), step, log_reciprocal(), StepForm.from_raw([], []), constant(0.0),
               power_decay(0.3, 2.0), step.scaled(0.5), constant(2.0, 3.0)]
        failing = 0
        for ctx in _catalog_contexts():
            for phi in _many_gauges():
                for many, one in ((luxemburg_norms, luxemburg_norm),
                                  (amemiya_norms, amemiya_norm)):
                    want = _first_error(lambda mu: one(mu, phi, ctx), mus)
                    if want is None:
                        assert many(mus, phi, ctx).tolist() == [one(mu, phi, ctx) for mu in mus]
                    else:
                        failing += 1
                        _raises_like(lambda: many(mus, phi, ctx), want)
        # power_decay(0.3, 2.0) has no finite norm under cosh - 1 or the cap
        assert failing == 12

    def test_mixed_kinds_raise_the_first_error(self):
        phi = _nan_above_a_million()
        fine = StepForm.from_raw([1.0, 0.5], [2.0, 1.0])
        nan = StepForm.from_raw([1e-14], [1.0])  # its down walk meets 2^20 >= 1e6
        for mus in ([exp_decay(), reciprocal(), nan], [fine, nan, reciprocal(), exp_decay()],
                    [log_reciprocal(), constant(2.0), fine], [constant(2.0), nan]):
            for many, one in ((luxemburg_norms, luxemburg_norm), (amemiya_norms, amemiya_norm)):
                want = _first_error(lambda mu: one(mu, phi), mus)
                assert want is not None
                _raises_like(lambda: many(mus, phi), want)
        # parametric data name the gauge and the argument, as step data do
        # the Luxemburg walk of log_reciprocal(1e-6) (norm sqrt(2e-6)) reaches
        # the scalings below 7e-4 where the sampled arguments pass 1e6
        for mu, one in ((exp_decay(), amemiya_norm), (log_reciprocal(), amemiya_norm),
                        (log_reciprocal(1e-6), luxemburg_norm)):
            with pytest.raises(NumericError,
                               match=r"^gauge nan_above_a_million returned NaN at \d"):
                one(mu, phi)
        # a NaN from mu itself is the quadrature's
        nan_head = ParametricForm(fn=lambda t: math.nan if t < 0.5 else 1.0 - t, support=1.0)
        with pytest.raises(NumericError, match="the integrand is NaN at a quadrature node"):
            modular(nan_head, phi, 1.0)


class TestHolder:
    def test_zero_pair(self):
        alg = TracedAlgebra((2,), (1.0,))
        rep = holder_check(alg.zero(), alg.zero(), power(2.0))
        assert rep.lhs == 0.0 and rep.passed

    def test_cauchy_schwarz_reduction(self):
        alg = TracedAlgebra((3,), (1.0,))
        rng = np.random.default_rng(3)
        for _ in range(10):
            f, g = random_element(alg, rng), random_element(alg, rng)
            rep = holder_check(f, g, power(2.0))
            two_f = math.sqrt(trace(f @ f.adjoint()).real)
            two_g = math.sqrt(trace(g @ g.adjoint()).real)
            assert rep.dual_norm == pytest.approx(two_f, rel=1e-7)
            assert rep.primal_norm == pytest.approx(two_g, rel=1e-7)
            assert rep.lhs <= rep.rhs + 1e-8
            assert rep.passed

    def test_cosh_gauge_with_sampled_sup(self):
        alg = TracedAlgebra((2,), (1.0,))
        rng = np.random.default_rng(4)
        f, g = random_element(alg, rng), random_element(alg, rng)
        probes = [random_element(alg, rng) for _ in range(10)]
        rep = holder_check(f, g, cosh_minus_one(), probes=probes)
        assert rep.passed and rep.sampled_sup_ok
        assert rep.sampled_sup <= rep.dual_norm + 1e-7

    def test_sampled_sup_is_the_probe_loop(self):
        rng = np.random.default_rng(17)
        for alg in algebra_shapes():
            f, g = random_element(alg, rng), random_element(alg, rng)
            probes = [random_element(alg, rng) for _ in range(4)]
            probes.insert(1, alg.zero())
            for phi in (cosh_minus_one(), linear_until_cap(1.0)):
                best = 0.0
                for gp in probes:
                    nrm = luxemburg_norm(singular_values(gp), phi)
                    if nrm != 0.0:
                        prod = f @ (gp * (1.0 / nrm))
                        best = max(best, singular_values(prod).total_integral())
                assert holder_check(f, g, phi, probes=probes).sampled_sup == best


class TestTauX:
    def test_identity_returns_weight_mass(self):
        alg = TracedAlgebra((2, 1), (1.0, 0.5))
        rng = np.random.default_rng(5)
        x = random_state(alg, rng)
        ctx = WeightedContext(singular_values(x))
        one = singular_values(alg.identity())
        assert tau_x(one, ctx) == pytest.approx(ctx.mass, abs=1e-12)
        assert ctx.mass == pytest.approx(1.0, abs=1e-10)

    def test_zero(self):
        ctx = WeightedContext(exp_decay())
        assert tau_x(StepForm.from_raw([], []), ctx) == 0.0

    def test_subadditive(self):
        alg = TracedAlgebra((3,), (1.0,))
        rng = np.random.default_rng(6)
        x = random_state(alg, rng)
        ctx = WeightedContext(singular_values(x))
        for _ in range(10):
            a, b = random_positive(alg, rng), random_positive(alg, rng)
            lhs = tau_x(singular_values(a + b), ctx)
            rhs = tau_x(singular_values(a), ctx) + tau_x(singular_values(b), ctx)
            assert lhs <= rhs + 1e-10

    def test_step_under_exp_decay_matches_closed_form(self):
        # sum of v_i (e^{-a_i} - e^{-b_i}) over the pieces (a_i, b_i]
        ctx = WeightedContext(exp_decay())
        for seed in range(300):
            mu = random_decreasing_step(np.random.default_rng(seed))
            a = np.concatenate([[0.0], mu.breakpoints[:-1]])
            want = float(np.sum(mu.values * (np.exp(-a) - np.exp(-mu.breakpoints))))
            assert tau_x(mu, ctx) == pytest.approx(want, rel=0, abs=1e-12)


class TestPairing:
    def test_log_against_step_matches_closed_form(self):
        # the integral of -log t over (a, b] is [t (1 - log t)] from a to b, within (0, 1]
        def head(t):
            return np.array([u * (1.0 - math.log(u)) if u > 0 else 0.0 for u in t])

        for seed in range(100):
            mu = random_decreasing_step(np.random.default_rng(seed))
            a = np.minimum(np.concatenate([[0.0], mu.breakpoints[:-1]]), 1.0)
            b = np.minimum(mu.breakpoints, 1.0)
            want = float(np.sum(mu.values * (head(b) - head(a))))
            assert pairing_integral(log_reciprocal(1.0), mu) == pytest.approx(want, rel=1e-12)


class TestLaplace:
    def test_at_zero_gives_mass(self):
        ctx = WeightedContext(exp_decay())
        assert laplace_probe(StepForm.from_raw([1.0], [2.0]), ctx, 0.0) == ctx.mass

    def test_log_singularity_integrable(self):
        ctx = WeightedContext(exp_decay())
        got = laplace_probe(log_reciprocal(), ctx, 0.5)
        assert math.isfinite(got)
        # comparison certificate: bounded by the weightless integral 1/(1-s) plus tail
        assert got <= 1.0 / (1.0 - 0.5) + 1.0

    def test_reciprocal_diverges(self):
        ctx = WeightedContext(exp_decay())
        for s in (1.0, 0.5, 2.0 ** -20):
            assert laplace_probe(reciprocal(), ctx, s) == INF

    def test_negative_side_always_finite(self):
        # finite and more: 0 < probe at -s <= weight mass
        for seed in range(10):
            rng = np.random.default_rng(seed)
            step = random_decreasing_step(rng)
            mus = [log_reciprocal(), reciprocal(), power_decay(0.5), exp_decay(),
                   constant(2.0, 3.0), step, step.scaled(1e-18)]
            for ctx in (WeightedContext(random_weight_step(rng)), WeightedContext(exp_decay())):
                for mu in mus:
                    for s in (1.0, 0.5, 2.0 ** -40):
                        assert 0 < laplace_probe(mu, ctx, -s) <= ctx.mass

    @pytest.mark.parametrize("s", [math.nan, np.array([0.5, math.nan])])
    def test_nan_exponent_rejected(self, monkeypatch, s):
        import ncorlicz.norms as norms

        def no_integral(*args):
            raise AssertionError("integrated before the check")

        monkeypatch.setattr(norms, "_weighted_integral", no_integral)
        ctx = WeightedContext(exp_decay())
        for mu in (StepForm.from_raw([1.0], [2.0]), log_reciprocal()):
            with pytest.raises(DomainError):
                laplace_probe(mu, ctx, s)

    def test_log_under_step_weights_matches_closed_form(self):
        # exp(-s log t) = t^{-s}: sum of w_i (b_i^{1-s} - a_i^{1-s}) / (1 - s) over the
        # weight's pieces within (0, 1], plus the weight's mass beyond 1, where mu is 0
        mu = log_reciprocal(1.0)
        for seed in range(200):
            w = random_weight_step(np.random.default_rng(seed))
            ctx = WeightedContext(w)
            a = np.concatenate([[0.0], w.breakpoints[:-1]])
            beyond = float(np.sum(w.values * np.clip(w.breakpoints - np.maximum(a, 1.0), 0, None)))
            lo, hi = np.minimum(a, 1.0), np.minimum(w.breakpoints, 1.0)
            for s in (0.5, -0.5, 0.9):
                head = float(np.sum(w.values * (hi ** (1 - s) - lo ** (1 - s)))) / (1 - s)
                assert laplace_probe(mu, ctx, s) == pytest.approx(head + beyond, rel=1e-10)


class TestMembership:
    def test_bounded_variable(self):
        ctx = WeightedContext(exp_decay())
        assert quant_membership(StepForm.from_raw([2.0], [5.0]), ctx)

    def test_catalog_equivalence(self):
        contexts = [WeightedContext(exp_decay()),
                    WeightedContext(StepForm.from_raw([1.0, 1.0], [0.7, 0.3]))]
        cases = [(log_reciprocal(), True), (reciprocal(), False),
                 (StepForm.from_raw([1.0], [3.0]), True)]
        for ctx in contexts:
            for mu, expected in cases:
                rep = pistone_sempi_equivalence(mu, ctx)
                assert rep.agree
                assert rep.member_via_laplace == expected

    @pytest.mark.parametrize("mu, laplace, modulars", [
        # walks of 41 and 61 points that never fail: rounds of 15, 15, 11 and 15, 15, 15, 15, 1
        (power_decay(0.5, 1.0), 3, 5),
        (log_reciprocal(1.0), 1, 1),  # each walk fails at its second point, in its first round
    ], ids=["non-member", "member"])
    def test_walk_calls(self, monkeypatch, mu, laplace, modulars):
        import ncorlicz.norms as norms
        counts = {"laplace_probe": 0, "modular": 0}
        for name in counts:
            real = getattr(norms, name)

            def counted(*args, real=real, name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(norms, name, counted)
        pistone_sempi_equivalence(mu, WeightedContext(exp_decay()))
        assert counts == {"laplace_probe": laplace, "modular": modulars}


class TestMomentBound:
    def test_commuting_diagonal_order_one(self):
        alg = TracedAlgebra((2,), (1.0,))
        x = alg.diagonal([[0.6, 0.4]])
        y = alg.diagonal([[2.0, 1.0]])
        rep = moment_bound_check(x, y, 1)
        assert rep.passed and rep.lhs <= rep.rhs

    def test_identity_variable(self):
        alg = TracedAlgebra((2,), (0.5,))
        x = alg.identity()  # trace one
        for n in (1, 2, 5):
            rep = moment_bound_check(x, alg.identity(), n)
            assert rep.lhs == pytest.approx(1.0)
            assert rep.rhs == pytest.approx(2.0 * n)
            assert rep.passed

    def test_random_pairs_higher_order(self):
        alg = TracedAlgebra((3,), (1.0,))
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = random_state(alg, rng)
            y = random_positive(alg, rng)
            assert moment_bound_check(x, y, 3).passed

    def test_domain_checks(self):
        alg = TracedAlgebra((2,), (1.0,))
        rng = np.random.default_rng(8)
        with pytest.raises(DomainError):
            moment_bound_check(random_positive(alg, rng) * 5.0,
                               random_positive(alg, rng), 1)


class TestMomentBoundMany:
    """Many pairs and orders at once equal the one-form loop, errors included."""

    def test_pairs_and_orders_are_the_one_form_loop(self):
        rng = np.random.default_rng(13)
        orders = (1, 2, 3, 5)
        for alg in algebra_shapes():
            xs = [random_state(alg, rng) for _ in range(7)]
            ys = [random_positive(alg, rng) for _ in range(6)] + [alg.identity()]
            got = moment_bound_checks(xs, ys, orders, factor=1.5)
            assert got == [[moment_bound_check(x, y, n, factor=1.5) for n in orders]
                           for x, y in zip(xs, ys)]

    def test_errors_follow_the_input_order(self):
        alg = TracedAlgebra((2,), (1.0,))
        rng = np.random.default_rng(14)
        state, positive = random_state(alg, rng), random_positive(alg, rng)
        heavy = state * 3.0  # positive, trace three
        indefinite = alg.diagonal([[1.0, -1.0]])
        other = TracedAlgebra((2,), (0.5,)).identity()  # unit trace elsewhere
        cases = [[(state, positive), (heavy, positive), (state, indefinite)],
                 [(state, positive), (state, indefinite), (heavy, positive)],
                 [(state, other), (heavy, positive)],
                 [(other, positive), (state, indefinite)],
                 [(other, other * 2.0), (other, positive), (heavy, positive)]]
        for pairs in cases:
            want = _first_error(lambda p: [moment_bound_check(p[0], p[1], n)
                                           for n in (1, 2)], pairs)
            assert isinstance(want, (DomainError, StructuralError))
            xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
            _raises_like(lambda: moment_bound_checks(xs, ys, (1, 2)), want)
        with pytest.raises(DomainError, match="order"):
            moment_bound_checks([heavy], [indefinite], (2, 0))


class TestGaugeThresholdNormBounds:
    def test_lower_threshold_bound(self):
        # a_phi * gauge norm stays below the operator norm
        phi = zero_then_linear(0.7)
        shapes = algebra_shapes()
        rng = np.random.default_rng(9)
        for alg in shapes:
            a = random_element(alg, rng)
            mu = singular_values(a)
            assert phi.a_phi * luxemburg_norm(mu, phi) <= mu.sup_value + 1e-8

    def test_upper_cap_bound(self):
        phi = linear_until_cap(1.3)
        shapes = algebra_shapes()
        rng = np.random.default_rng(10)
        for alg in shapes:
            a = random_element(alg, rng)
            mu = singular_values(a)
            assert phi.b_phi * luxemburg_norm(mu, phi) >= mu.sup_value - 1e-8

    def test_shrinking_trace_inequality(self):
        alg = TracedAlgebra((3,), (1.0,))
        rng = np.random.default_rng(11)
        a = random_element(alg, rng)
        for beta in (0.2, 0.7, 1.0):
            lhs = trace(apply_function(cosh_minus_one(), a, beta)).real
            rhs = beta * trace(apply_function(cosh_minus_one(), a, 1.0)).real
            assert lhs <= rhs + 1e-10


class TestComposedNormBound:
    def test_inner_image_contracts(self):
        # unit-ball elements of the composed gauge: outer norm of the inner
        # image never exceeds the composed norm
        from ncorlicz import compose_orlicz
        alg = TracedAlgebra((3,), (1.0,))
        rng = np.random.default_rng(12)
        psi, phi2 = power(2.0), power(2.0)
        phi1 = compose_orlicz(psi, phi2)
        for _ in range(10):
            a = random_element(alg, rng)
            nrm = luxemburg_norm(singular_values(a), phi1)
            a = a * (0.8 / nrm)
            n1 = luxemburg_norm(singular_values(a), phi1)
            inner = apply_function(phi2, a)
            npsi = luxemburg_norm(singular_values(inner), psi)
            assert npsi <= n1 + 1e-8
