"""Modulars, norms, pairings, regularity probes, and their inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncorlicz import (
    DomainError,
    NumericError,
    StepForm,
    TracedAlgebra,
    UnboundedNormError,
    WeightedContext,
    amemiya_norm,
    apply_function,
    conjugate,
    constant,
    cosh_minus_one,
    custom,
    exp_decay,
    exp_minus_one,
    holder_check,
    kunze_norm,
    laplace_probe,
    linear_until_cap,
    log_reciprocal,
    luxemburg_norm,
    modular,
    moment_bound_check,
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
from ncorlicz.norms import AMEMIYA_K_CAP
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
        with pytest.raises(DomainError):
            modular(exp_decay(), power(2.0), np.array([1.0, 2.0]))

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
        mu = singular_values(alg, alg.diagonal([[3.0, 4.0]]))
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


class TestKunze:
    def test_matches_luxemburg(self):
        alg = TracedAlgebra((2,), (1.0,))
        a = alg.diagonal([[3.0, 4.0]])
        assert kunze_norm(alg, a, power(2.0)) == pytest.approx(5.0, rel=1e-8)

    def test_zero_element(self):
        alg = TracedAlgebra((2,), (1.0,))
        assert kunze_norm(alg, alg.zero(), power(2.0)) == 0.0

    def test_cap_gauge_small_element(self):
        # exercises the finite-cap branch: functional calculus fails for small
        # scalings, the bisection treats that as an infinite modular
        alg = TracedAlgebra((2,), (1.0,))
        a = alg.diagonal([[0.5, 0.25]])
        phi = linear_until_cap(1.0)
        k = kunze_norm(alg, a, phi)
        l = luxemburg_norm(singular_values(alg, a), phi)
        assert k == pytest.approx(l, rel=1e-8)
        assert math.isfinite(k)

    def test_one_decomposition_per_call(self, monkeypatch):
        import ncorlicz.norms as norms
        alg = TracedAlgebra((2, 1), (1.0, 0.5))
        a = alg.element([np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[3.0]])])
        calls = []
        real = norms._svd_blocks
        monkeypatch.setattr(norms, "_svd_blocks", lambda x: calls.append(x) or real(x))
        k = kunze_norm(alg, a, cosh_minus_one())
        assert len(calls) == 1
        assert k == pytest.approx(luxemburg_norm(singular_values(alg, a), cosh_minus_one()),
                                  rel=1e-8)

    def test_nan_gauge_is_an_error(self):
        alg = TracedAlgebra((1,), (0.01,))
        with pytest.raises(NumericError):
            kunze_norm(alg, alg.diagonal([[10.0]]), _nan_from_three())


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
        ks = np.concatenate(passes)
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

    def test_parametric_data_rejected(self):
        for mu in (exp_decay(), constant(1.0), reciprocal()):
            with pytest.raises(DomainError):
                amemiya_norm(mu, power(2.0))

    def test_sup_type_conjugate_gauge(self):
        # conjugate of the linear gauge turns Amemiya into the sup value
        mu = StepForm.from_raw([1.0, 2.0], [3.0, 1.0])
        got = amemiya_norm(mu, conjugate(power(1.0)))
        assert got == pytest.approx(3.0, rel=1e-8)


class TestHolder:
    def test_zero_pair(self):
        alg = TracedAlgebra((2,), (1.0,))
        rep = holder_check(alg, alg.zero(), alg.zero(), power(2.0))
        assert rep.lhs == 0.0 and rep.passed

    def test_cauchy_schwarz_reduction(self):
        alg = TracedAlgebra((3,), (1.0,))
        rng = np.random.default_rng(3)
        for _ in range(10):
            f, g = random_element(alg, rng), random_element(alg, rng)
            rep = holder_check(alg, f, g, power(2.0))
            two_f = math.sqrt(trace(alg, f @ f.adjoint()).real)
            two_g = math.sqrt(trace(alg, g @ g.adjoint()).real)
            assert rep.dual_norm == pytest.approx(two_f, rel=1e-7)
            assert rep.primal_norm == pytest.approx(two_g, rel=1e-7)
            assert rep.lhs <= rep.rhs + 1e-8
            assert rep.passed

    def test_cosh_gauge_with_sampled_sup(self):
        alg = TracedAlgebra((2,), (1.0,))
        rng = np.random.default_rng(4)
        f, g = random_element(alg, rng), random_element(alg, rng)
        probes = [random_element(alg, rng) for _ in range(10)]
        rep = holder_check(alg, f, g, cosh_minus_one(), probes=probes)
        assert rep.passed and rep.sampled_sup_ok
        assert rep.sampled_sup <= rep.dual_norm + 1e-7


class TestTauX:
    def test_identity_returns_weight_mass(self):
        alg = TracedAlgebra((2, 1), (1.0, 0.5))
        rng = np.random.default_rng(5)
        x = random_state(alg, rng)
        ctx = WeightedContext(singular_values(alg, x))
        one = singular_values(alg, alg.identity())
        assert tau_x(one, ctx) == pytest.approx(ctx.mass, abs=1e-12)
        assert ctx.mass == pytest.approx(1.0, abs=1e-10)

    def test_zero(self):
        ctx = WeightedContext(exp_decay())
        assert tau_x(StepForm.from_raw([], []), ctx) == 0.0

    def test_subadditive(self):
        alg = TracedAlgebra((3,), (1.0,))
        rng = np.random.default_rng(6)
        x = random_state(alg, rng)
        ctx = WeightedContext(singular_values(alg, x))
        for _ in range(10):
            a, b = random_positive(alg, rng), random_positive(alg, rng)
            lhs = tau_x(singular_values(alg, a + b), ctx)
            rhs = tau_x(singular_values(alg, a), ctx) + tau_x(singular_values(alg, b), ctx)
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


class TestMomentBound:
    def test_commuting_diagonal_order_one(self):
        alg = TracedAlgebra((2,), (1.0,))
        x = alg.diagonal([[0.6, 0.4]])
        y = alg.diagonal([[2.0, 1.0]])
        rep = moment_bound_check(alg, x, y, 1)
        assert rep.passed and rep.lhs <= rep.rhs

    def test_identity_variable(self):
        alg = TracedAlgebra((2,), (0.5,))
        x = alg.identity()  # trace one
        for n in (1, 2, 5):
            rep = moment_bound_check(alg, x, alg.identity(), n)
            assert rep.lhs == pytest.approx(1.0)
            assert rep.rhs == pytest.approx(2.0 * n)
            assert rep.passed

    def test_random_pairs_higher_order(self):
        alg = TracedAlgebra((3,), (1.0,))
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = random_state(alg, rng)
            y = random_positive(alg, rng)
            assert moment_bound_check(alg, x, y, 3).passed

    def test_domain_checks(self):
        alg = TracedAlgebra((2,), (1.0,))
        rng = np.random.default_rng(8)
        with pytest.raises(DomainError):
            moment_bound_check(alg, random_positive(alg, rng) * 5.0,
                               random_positive(alg, rng), 1)


class TestGaugeThresholdNormBounds:
    def test_lower_threshold_bound(self):
        # a_phi * gauge norm stays below the operator norm
        phi = zero_then_linear(0.7)
        shapes = algebra_shapes()
        rng = np.random.default_rng(9)
        for alg in shapes:
            a = random_element(alg, rng)
            mu = singular_values(alg, a)
            assert phi.a_phi * luxemburg_norm(mu, phi) <= mu.sup_value + 1e-8

    def test_upper_cap_bound(self):
        phi = linear_until_cap(1.3)
        shapes = algebra_shapes()
        rng = np.random.default_rng(10)
        for alg in shapes:
            a = random_element(alg, rng)
            mu = singular_values(alg, a)
            assert phi.b_phi * luxemburg_norm(mu, phi) >= mu.sup_value - 1e-8

    def test_shrinking_trace_inequality(self):
        alg = TracedAlgebra((3,), (1.0,))
        rng = np.random.default_rng(11)
        a = random_element(alg, rng)
        for beta in (0.2, 0.7, 1.0):
            lhs = trace(alg, apply_function(cosh_minus_one(), a, beta)).real
            rhs = beta * trace(alg, apply_function(cosh_minus_one(), a, 1.0)).real
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
            nrm = luxemburg_norm(singular_values(alg, a), phi1)
            a = a * (0.8 / nrm)
            n1 = luxemburg_norm(singular_values(alg, a), phi1)
            inner = apply_function(phi2, a)
            npsi = luxemburg_norm(singular_values(alg, inner), psi)
            assert npsi <= n1 + 1e-8
