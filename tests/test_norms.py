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

    def test_parametric_data_rejected(self):
        for mu in (exp_decay(), constant(1.0), reciprocal()):
            with pytest.raises(DomainError):
                amemiya_norm(mu, power(2.0))

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
        assert got == [kunze_norm(alg, a, phi) for alg, a in zip(algs, elements)]

    def test_holder_many_is_the_one_form_loop(self):
        rng = np.random.default_rng(4)
        triples = [(alg, random_element(alg, rng), random_element(alg, rng))
                   for alg in algebra_shapes() * 2]
        gauges = [power(2.0), cosh_minus_one(), exp_minus_one()]
        reports = holder_checks(triples, gauges)
        for phi, row in zip(gauges, reports):
            assert row == [holder_check(alg, f, g, phi) for alg, f, g in triples]

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
            want = _first_error(lambda a: kunze_norm(a.algebra, a, phi), items)
            _raises_like(lambda: kunze_norms(items, phi), want)

    def test_holder_errors_follow_the_triple_order(self):
        # triple 0 fails its Luxemburg solve (weight 1e130), triple 1 its dual
        # (1e70 has no finite Amemiya norm in the conjugate of power(1)); one
        # dual solve over both triples would meet the second first
        heavy, plain = TracedAlgebra((1,), (1e130,)), TracedAlgebra((1,), (1.0,))
        triples = [(heavy, heavy.zero(), heavy.diagonal([[1.0]])),
                   (plain, plain.diagonal([[1e70]]), plain.diagonal([[1.0]]))]
        phi = power(1.0)
        for items in (triples, triples[::-1]):
            want = _first_error(lambda t: holder_check(*t, phi), items)
            _raises_like(lambda: holder_checks(items, [phi]), want)
        assert isinstance(_first_error(lambda t: holder_check(*t, phi), triples),
                          UnboundedNormError)

    def test_parametric_data_rejected(self):
        with pytest.raises(DomainError):
            luxemburg_norms([StepForm.from_raw([1.0], [1.0]), exp_decay()], power(2.0))


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

    def test_sampled_sup_is_the_probe_loop(self):
        rng = np.random.default_rng(17)
        for alg in algebra_shapes():
            f, g = random_element(alg, rng), random_element(alg, rng)
            probes = [random_element(alg, rng) for _ in range(4)]
            probes.insert(1, alg.zero())
            for phi in (cosh_minus_one(), linear_until_cap(1.0)):
                best = 0.0
                for gp in probes:
                    nrm = luxemburg_norm(singular_values(alg, gp), phi)
                    if nrm != 0.0:
                        prod = f @ (gp * (1.0 / nrm))
                        best = max(best, singular_values(alg, prod).total_integral())
                assert holder_check(alg, f, g, phi, probes=probes).sampled_sup == best


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


class TestMomentBoundMany:
    """Many pairs and orders at once equal the one-form loop, errors included."""

    def test_pairs_and_orders_are_the_one_form_loop(self):
        rng = np.random.default_rng(13)
        orders = (1, 2, 3, 5)
        for alg in algebra_shapes():
            xs = [random_state(alg, rng) for _ in range(7)]
            ys = [random_positive(alg, rng) for _ in range(6)] + [alg.identity()]
            got = moment_bound_checks(alg, xs, ys, orders, factor=1.5)
            assert got == [[moment_bound_check(alg, x, y, n, factor=1.5) for n in orders]
                           for x, y in zip(xs, ys)]

    def test_errors_follow_the_input_order(self):
        alg = TracedAlgebra((2,), (1.0,))
        rng = np.random.default_rng(14)
        state, positive = random_state(alg, rng), random_positive(alg, rng)
        heavy = state * 3.0  # positive, trace three
        indefinite = alg.diagonal([[1.0, -1.0]])
        other = TracedAlgebra((2,), (0.5,)).identity() * 2.0  # unit trace elsewhere
        cases = [[(state, positive), (heavy, positive), (state, indefinite)],
                 [(state, positive), (state, indefinite), (heavy, positive)],
                 [(state, other), (heavy, positive)],
                 [(other, positive), (state, indefinite)]]
        for pairs in cases:
            want = _first_error(lambda p: [moment_bound_check(alg, p[0], p[1], n)
                                           for n in (1, 2)], pairs)
            assert isinstance(want, (DomainError, StructuralError))
            xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
            _raises_like(lambda: moment_bound_checks(alg, xs, ys, (1, 2)), want)
        with pytest.raises(DomainError, match="order"):
            moment_bound_checks(alg, [heavy], [indefinite], (2, 0))


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
