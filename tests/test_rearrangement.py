"""Singular value functions, head integrals, weighted rearrangements."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncorlicz import (
    DomainError,
    ParametricForm,
    NumericError,
    StepForm,
    StructuralError,
    TracedAlgebra,
    WeightedContext,
    abs_value,
    constant,
    exp_decay,
    fack_kosaki_checks,
    log_reciprocal,
    power_decay,
    rearrange_step,
    singular_values,
    singular_values_many,
    submajorizes,
    trace,
    weighted_rearrangement,
)
from ncorlicz.rearrangement import SUBMAJOR_SLACK, _interval_masses
from ncorlicz.morphisms import apply_jordan
from ncorlicz.sampling import (
    algebra_shapes,
    doubling_morphism,
    mixed_flavor_morphism,
    padded_morphism,
    random_decreasing_step,
    random_element,
    random_positive,
    random_projection,
    random_weight_step,
)
from ncorlicz.verify import SuiteConfig, run_suite

INF = math.inf


class TestSingularValues:
    def test_unit_weights_sorted(self):
        alg = TracedAlgebra((3,), (1.0,))
        mu = singular_values(alg.diagonal([[3.0, 1.0, 2.0]]))
        np.testing.assert_allclose(mu.values, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(mu.durations, [1.0, 1.0, 1.0])
        assert mu.evaluate(0.5) == 3.0
        assert mu.evaluate(2.5) == 1.0
        assert mu.evaluate(3.0) == 0.0

    def test_weighted_durations(self):
        alg = TracedAlgebra((1, 1), (0.5, 2.0))
        mu = singular_values(alg.diagonal([[4.0], [1.0]]))
        np.testing.assert_allclose(mu.values, [4.0, 1.0])
        np.testing.assert_allclose(mu.durations, [0.5, 2.0])
        assert mu.evaluate(0.25) == 4.0
        assert mu.evaluate(0.5) == 1.0
        assert mu.evaluate(2.4999) == 1.0
        assert mu.evaluate(2.5) == 0.0

    def test_distribution_definition_oracle(self):
        # mu_t(a) <= s exactly when the weighted count of spectrum above s is <= t
        alg = TracedAlgebra((2, 2), (0.75, 1.25))
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = random_element(alg, rng)
            mu = singular_values(a)
            eigs, weights = [], []
            for w, blk in zip(alg.weights, abs_value(a).blocks):
                for ev in np.linalg.eigvalsh(blk):
                    eigs.append(ev)
                    weights.append(w)
            eigs, weights = np.array(eigs), np.array(weights)
            for t in (0.0, 0.4, 1.1, 2.3):
                for s in np.linspace(0.0, float(eigs.max()) * 1.2, 9):
                    dist = float(weights[eigs > s + 1e-12].sum())
                    assert (mu.evaluate(t) <= s + 1e-10) == (dist <= t + 1e-12)

    def test_invariance_under_abs_and_adjoint(self):
        alg = TracedAlgebra((3,), (1.0,))
        rng = np.random.default_rng(4)
        a = random_element(alg, rng)
        mu = singular_values(a)
        for other in (abs_value(a), a.adjoint()):
            mu2 = singular_values(other)
            np.testing.assert_allclose(mu.values, mu2.values, atol=1e-10)
            np.testing.assert_allclose(mu.durations, mu2.durations, atol=1e-12)


def _one_block_at_a_time(alg, a):
    """The singular values as they were computed before stacking: one 2-d SVD per block."""
    vals, durs = [], []
    for w, block in zip(alg.weights, a.blocks):
        s = np.linalg.svd(block, compute_uv=False)
        vals.append(s)
        durs.append(np.full(s.shape, w))
    v, d = np.concatenate(vals), np.concatenate(durs)
    order = np.argsort(-v, kind="stable")
    return StepForm(d[order], v[order])


def _catalog_element(kind, alg, rng):
    if kind == "zero":
        return alg.zero()
    if kind == "identity":  # every value repeated: the merge path
        return alg.identity() * float(rng.choice([1.0, 2.5]))
    if kind == "projection":
        return random_projection(alg, rng)
    if kind == "positive":
        return random_positive(alg, rng)
    return random_element(alg, rng)


class TestSingularValuesMany:
    """One stacked SVD per algebra and block gives the one-block-at-a-time forms bit for bit."""

    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.sampled_from(range(len(algebra_shapes()))),
                              st.sampled_from(["random", "zero", "identity", "projection",
                                               "positive"])),
                    min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_stack_is_the_block_loop(self, seed, items):
        # the catalog holds 1x1 blocks, mixed block sizes and repeated
        # shapes; a corpus may mix them in any order
        rng = np.random.default_rng(seed)
        shapes = algebra_shapes()
        elements = [_catalog_element(kind, shapes[shape], rng) for shape, kind in items]
        assert singular_values_many(elements) == \
            [_one_block_at_a_time(a.algebra, a) for a in elements]

    def test_one_by_one_blocks(self):
        alg = TracedAlgebra((1, 1, 1), (0.5, 2.0, 1.0))
        elements = [alg.diagonal([[3.0], [-1.0], [1.0]]), alg.diagonal([[0.0], [2j], [0.0]])]
        assert singular_values_many(elements) == [_one_block_at_a_time(alg, a) for a in elements]

    def test_empty_and_one_row(self):
        alg = algebra_shapes()[2]
        a = random_element(alg, np.random.default_rng(3))
        assert singular_values_many([]) == []
        assert singular_values(a) == _one_block_at_a_time(alg, a)

    def test_failures_raise_what_the_loop_raises_first(self):
        alg, other = TracedAlgebra((2,), (1.0,)), TracedAlgebra((2,), (2.0,))
        fine = alg.diagonal([[1.0, 2.0]])
        nan = alg.element([np.array([[math.nan, 0.0], [0.0, 1.0]])])
        for elements in ([fine, nan, other.identity()], [fine, other.identity(), nan]):
            with pytest.raises(np.linalg.LinAlgError):
                singular_values_many(elements)


def _ties_and_zeros(rng):
    """Twenty elements whose singular values hold zeros or exact ties: images under the
    doubling, padded and mixed-flavour morphisms, zero elements and multiples of identities."""
    corpus = []
    for J in (doubling_morphism(2), padded_morphism(rng), mixed_flavor_morphism()):
        corpus += [apply_jordan(J, random_element(J.source, rng)) for _ in range(4)]
    shapes = algebra_shapes()
    corpus += [shapes[k].zero() for k in (0, 3, 5)]
    corpus += [shapes[k].identity() * c for k, c in ((0, 2.5), (1, 1.0), (3, 0.5), (4, 3.0))]
    # a run after a first piece, on weights whose sums round: the breakpoint of
    # the run is 0.7 + (0.1 + 0.1 + 0.1), not ((0.7 + 0.1) + 0.1) + 0.1
    weighted = TracedAlgebra((1, 3), (0.7, 0.1))
    return corpus + [weighted.diagonal([[5.0], [1.0, 1.0, 1.0]])]


class TestStackedCanonicalForms:
    """The forms of stacked rows with zeros and ties are the constructor's, and skip it."""

    def test_ties_and_zeros_are_the_block_loop(self):
        for seed in range(5):
            elements = _ties_and_zeros(np.random.default_rng(seed))
            got = singular_values_many(elements)
            assert got == [_one_block_at_a_time(a.algebra, a) for a in elements]
            for mu, a in zip(got, elements):
                s = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in a.blocks])
                w = np.concatenate([np.full(b.shape[0], w)
                                    for b, w in zip(a.blocks, a.algebra.weights)])
                order = np.argsort(-s, kind="stable")
                d, v = _old_canonical_form(w[order], s[order])
                assert mu.durations.tobytes() == d.tobytes()
                assert mu.values.tobytes() == v.tobytes()
                assert mu.breakpoints.tobytes() == np.cumsum(d).tobytes()
                arrays = (mu.durations, mu.values, mu.breakpoints)
                assert not any(x.flags.writeable for x in arrays)
        # the corpus holds zero singular values and exact ties among the positive ones
        raw = [np.concatenate([np.linalg.svd(b, compute_uv=False) for b in a.blocks])
               for a in elements]
        assert any((x == 0).any() for x in raw)
        assert any(np.unique(x[x > 0]).size < (x > 0).sum() for x in raw)

    def test_no_constructor_runs(self, monkeypatch):
        elements = _ties_and_zeros(np.random.default_rng(7))
        assert len(elements) == 20
        calls = []
        real = StepForm.__post_init__
        monkeypatch.setattr(StepForm, "__post_init__", lambda self: calls.append(1) or real(self))
        singular_values_many(elements)
        assert calls == []
        StepForm(np.ones(2), np.ones(2))  # the constructor itself is counted
        assert calls == [1]


def _old_canonical_form(durations, values):
    """StepForm's canonicalization before its fast paths, as (durations, values)."""
    d = np.asarray(durations, dtype=float)
    v = np.asarray(values, dtype=float)
    if d.shape != v.shape or d.ndim != 1:
        raise StructuralError("durations and values must be 1-d arrays of equal length")
    if np.any(d < 0) or np.any(v < 0):
        raise DomainError("durations and values must be nonnegative")
    keep = (d > 0) & (v > 0)
    d, v = d[keep], v[keep]
    if np.any(np.diff(v) > 1e-12 * (1.0 + np.abs(v[:-1]))):
        raise DomainError("step values must be nonincreasing")
    if v.size:
        groups = np.concatenate([[0], np.cumsum(v[1:] != v[:-1])])
        merged_v = v[np.concatenate([[True], v[1:] != v[:-1]])]
        d, v = np.bincount(groups, weights=d), merged_v
    return d, v


@st.composite
def _raw_steps(draw):
    """Durations and values with zeros, equal neighbours, ties within the
    monotonicity slack, and now and then an increase or a negative entry."""
    m = draw(st.integers(0, 8))
    pool = [0.0, 0.5, 1.0, 1.0 + 1e-13, 2.0, 3.25, -1.0]
    values = draw(st.lists(st.sampled_from(pool) | st.floats(0.0, 5.0), min_size=m, max_size=m))
    if draw(st.booleans()):
        values = sorted(values, reverse=True)
    durations = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, -0.5]) | st.floats(0.0, 3.0),
                              min_size=m, max_size=m))
    return np.array(durations), np.array(values)


class TestCanonicalizationFastPaths:
    """The canonicalization equals the old one bit for bit, errors included."""

    @given(_raw_steps())
    @settings(max_examples=300, deadline=None)
    def test_same_form_as_before(self, raw):
        d, v = raw
        d_before, v_before = d.copy(), v.copy()
        try:
            want = _old_canonical_form(d, v)
        except (DomainError, StructuralError) as exc:
            with pytest.raises(type(exc), match=str(exc)):
                StepForm(d, v)
            return
        mu = StepForm(d, v)
        assert np.array_equal(mu.durations, want[0]) and np.array_equal(mu.values, want[1])
        assert np.array_equal(mu.breakpoints, np.cumsum(want[0]))
        # the caller's arrays are neither frozen, shared nor changed
        assert d.flags.writeable and v.flags.writeable
        assert not np.shares_memory(mu.durations, d) and not np.shares_memory(mu.values, v)
        assert np.array_equal(d, d_before) and np.array_equal(v, v_before)
        assert not (mu.durations.flags.writeable or mu.values.flags.writeable)

    def test_strictly_decreasing_input_is_copied(self):
        d, v = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        mu = StepForm(d, v)
        d[0] = 5.0
        assert mu.durations.tolist() == [1.0, 2.0] and mu.support == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            StepForm(np.ones(2), np.ones(3))


class TestEvaluateAndHead:
    def test_parametric_at_zero(self):
        assert exp_decay().evaluate(0.0) == 1.0

    def test_head_integral_step(self):
        mu = StepForm.from_raw([1.0, 1.0, 1.0], [3.0, 2.0, 1.0])
        assert mu.head_integral(2.0) == pytest.approx(5.0)
        assert mu.head_integral(0.0) == 0.0
        assert mu.head_integral(INF) == pytest.approx(6.0)

    def test_head_integral_exp(self):
        assert exp_decay().head_integral(INF) == pytest.approx(1.0, abs=1e-9)
        assert exp_decay().head_integral(2.0) == pytest.approx(1 - math.exp(-2), abs=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            exp_decay().evaluate(-1.0)

    def test_evaluate_many_is_evaluate(self):
        mu = StepForm.from_raw([1.0, 0.5, 2.0], [3.0, 2.0, 1.0])
        ts = np.array([0.0, 0.5, 1.0, 1.25, 1.5, 3.4, 3.5, 9.0])
        assert mu.evaluate_many(ts).tolist() == [mu.evaluate(float(t)) for t in ts]
        assert StepForm.from_raw([], []).evaluate_many(ts).tolist() == [0.0] * ts.size
        with pytest.raises(DomainError):
            mu.evaluate_many(np.array([1.0, -0.5]))

    def test_total_equals_trace_of_abs(self):
        alg = TracedAlgebra((2, 1), (1.0, 3.0))
        rng = np.random.default_rng(9)
        a = random_element(alg, rng)
        total = singular_values(a).head_integral(INF)
        assert total == pytest.approx(trace(abs_value(a)).real, rel=1e-12)


class TestCanonicalization:
    def test_merges_equal_and_drops_zeros(self):
        mu = StepForm.from_raw([1.0, 2.0, 1.0, 5.0], [2.0, 2.0, 1.0, 0.0])
        np.testing.assert_allclose(mu.values, [2.0, 1.0])
        np.testing.assert_allclose(mu.durations, [3.0, 1.0])

    def test_idempotent(self):
        mu = StepForm.from_raw([1.0, 2.0], [2.0, 1.0])
        again = StepForm(mu.durations.copy(), mu.values.copy())
        assert again == mu

    def test_rejects_increasing(self):
        with pytest.raises(DomainError):
            StepForm.from_raw([1.0, 1.0], [1.0, 2.0])


class TestSubmajorization:
    def test_spread_dominates_flat(self):
        flat = StepForm.from_raw([1.0, 1.0], [1.0, 1.0])
        spread = StepForm.from_raw([1.0], [2.0])
        assert submajorizes(spread, flat)
        assert not submajorizes(flat, spread)

    @given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6),
           st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_triangle_of_sums(self, xs, ys):
        alg = TracedAlgebra((len(xs),), (1.0,)) if len(xs) == len(ys) else None
        if alg is None:
            return
        a = alg.diagonal([xs])
        b = alg.diagonal([ys])
        mu_a = singular_values(a)
        mu_b = singular_values(b)
        mu_ab = singular_values(a + b)
        alphas = np.concatenate([mu_a.breakpoints, mu_b.breakpoints, mu_ab.breakpoints])
        for al in alphas:
            assert mu_ab.head_integral(float(al)) <= (
                mu_a.head_integral(float(al)) + mu_b.head_integral(float(al)) + 1e-10)


class TestIntegrateSentinel:
    """A quadrature failure is an error, never +inf; the integrand's own errors pass through."""

    @pytest.mark.parametrize("singular_at_zero", [False, True])
    def test_integrand_errors_propagate_unchanged(self, singular_at_zero):
        # DomainError is also a ValueError, which the sampler turns into NumericError
        def f(t):
            if t > 0.5:
                raise DomainError("outside the integrand's domain")
            return 1.0

        mu = ParametricForm(fn=f, support=1.0, singular_at_zero=singular_at_zero)
        with pytest.raises(DomainError, match="outside the integrand's domain"):
            mu.total_integral()

    def test_a_failed_quadrature_is_not_a_divergence(self):
        # math.exp overflows above t = 0.71: an arithmetic failure, not a sample of +inf
        mu = ParametricForm(fn=lambda t: math.exp(1e3 * t), support=1.0, singular_at_zero=True)
        with pytest.raises(NumericError, match="quadrature failed"):
            mu.total_integral()


class TestWeightedContext:
    def test_running_integral_closed_form(self):
        ctx = WeightedContext(exp_decay())
        for t in (0.0, 0.5, 2.0, 10.0):
            want = 1.0 - math.exp(-t)
            assert ctx.F(t) == pytest.approx(want, abs=1e-12)
        # quadrature oracle, independent of the stored closed form
        got = ParametricForm(fn=lambda s: math.exp(-s), support=2.0).total_integral()
        assert ctx.F(2.0) == pytest.approx(got, abs=1e-10)

    def test_limits(self):
        ctx = WeightedContext(exp_decay())
        assert ctx.F(0.0) == 0.0
        assert ctx.mass == pytest.approx(1.0, abs=1e-9)

    def test_rejects_infinite_mass(self):
        with pytest.raises(DomainError):
            WeightedContext(constant(1.0))

    def test_inverse_without_closed_form(self):
        # F(t) = 2 sqrt(t) on [0, 1] has no stored inverse: the bisection path
        ctx = WeightedContext(power_decay(0.5))
        assert ctx.weight.inverse_cumulative is None
        for s in (0.0, 0.5, 1.0, 1.9):
            assert ctx.F_inverse(s) == pytest.approx((s / 2.0) ** 2, abs=1e-10)

    def test_piece_masses_match_running_integral(self):
        rng = np.random.default_rng(4)
        for weight in (random_weight_step(rng), exp_decay()):
            ctx = WeightedContext(weight)
            breakpoints = np.cumsum(rng.uniform(0.1, 2.0, size=6))
            grid = np.concatenate([[0.0], breakpoints])
            want = np.diff([ctx.F(float(t)) for t in grid])
            assert np.array_equal(ctx.piece_masses(breakpoints), want)

    def test_inverse_of_running_integral(self):
        ctx = WeightedContext(random_weight_step(np.random.default_rng(3)))
        for s in np.linspace(0.0, ctx.mass * 0.99, 7):
            assert ctx.F(ctx.F_inverse(float(s))) == pytest.approx(float(s), abs=1e-10)


class TestWeightedRearrangement:
    def test_decreasing_fixed_point(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            h = random_decreasing_step(rng)
            w = random_weight_step(rng)
            ctx = WeightedContext(w)
            t = 0.4 * min(h.support, w.support)
            s = ctx.F(t)
            if s >= ctx.mass:
                continue
            assert weighted_rearrangement(h, ctx, s) == pytest.approx(
                h.evaluate(t), abs=1e-12)

    def test_constant_on_support(self):
        ctx = WeightedContext(StepForm.from_raw([2.0], [1.0]))
        h = constant(3.0, support=INF)
        assert weighted_rearrangement(h, ctx, 0.5) == 3.0
        assert weighted_rearrangement(h, ctx, ctx.mass) == 0.0

    def test_weighted_head_below_lebesgue(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            base = random_decreasing_step(rng)
            perm = rng.permutation(base.values.size)
            durations, values = base.durations, base.values[perm]
            w = random_weight_step(rng)
            ctx = WeightedContext(w)
            lebesgue = rearrange_step(durations, values, None)
            weighted = rearrange_step(durations, values, w)
            for t in np.linspace(0.05, base.support * 0.95, 5):
                assert weighted.evaluate(ctx.F(float(t))) <= (
                    lebesgue.evaluate(float(t)) + 1e-12)

    def test_vanishes_at_weight_mass(self):
        # the sorted piece masses of these steps sum one ulp past the weight mass
        w = StepForm.from_raw(
            [0.8564344905787405, 1.3093060648288124, 1.0415485818173522, 0.39542798647571487],
            [1.7757433961664806, 1.319408262297677, 0.39882456725258825, 0.2559698428872375])
        durations = np.array([0.32859771106000146, 1.2868101617198542, 1.995237741046705,
                              1.6335156423868662, 0.6445466456551576, 0.6592453396922394])
        values = np.array([1.5635088787407592, 2.5134438531307435, 3.87160340136895,
                           0.2933722341505375, 3.454956308346284, 3.139390317269696])
        ctx = WeightedContext(w)
        weighted = rearrange_step(durations, values, w)
        assert weighted.support <= ctx.mass
        assert weighted.evaluate(ctx.mass) == 0.0
        assert weighted_rearrangement((durations, values), ctx, ctx.mass) == 0.0
        assert weighted.evaluate(ctx.F(0.9 * durations.sum())) == 0.0

    def test_identity_check_over_seeds(self):
        # criterion 5 runs seed 0 only; seeds 16 and 25 evaluate at the weight mass
        for seed in range(40):
            report = run_suite(SuiteConfig(seed=seed),
                               names=["weighted_rearrangement_identity"])
            assert report["all_pass"], (seed, report["checks"][0]["worst_slack"])

    def test_rejects_weird_input(self):
        ctx = WeightedContext(exp_decay())
        with pytest.raises(Exception):
            weighted_rearrangement(object(), ctx, 0.1)


class TestFackKosaki:
    def test_product_example(self):
        alg = TracedAlgebra((2,), (1.0,))
        f = alg.diagonal([[2.0, 1.0]])
        rep = fack_kosaki_checks(f, f)
        assert rep.passed
        mu_fg = singular_values(f @ f)
        mu_f = singular_values(f)
        assert mu_fg.evaluate(1.0) == 1.0 <= mu_f.evaluate(0.5) * mu_f.evaluate(0.5)

    def test_random_elements(self):
        alg = TracedAlgebra((3,), (1.0,))
        rng = np.random.default_rng(12)
        for _ in range(5):
            rep = fack_kosaki_checks(random_element(alg, rng),
                                     random_element(alg, rng))
            assert rep.passed

    def test_homogeneity_negative_scalar(self):
        alg = TracedAlgebra((2,), (1.0,))
        rng = np.random.default_rng(14)
        a = random_element(alg, rng)
        mu = singular_values(a)
        mu2 = singular_values(-2.0 * a)
        np.testing.assert_allclose(mu2.values, 2.0 * mu.values, atol=1e-12)


# ---------------------------------------------------------------------------
# The array route against the point-by-point code it replaced
# ---------------------------------------------------------------------------

def _loop_evaluate(mu: StepForm, t: float) -> float:
    """mu(t) by a walk over the pieces: the first breakpoint past t holds it."""
    for end, value in zip(mu.breakpoints.tolist(), mu.values.tolist()):
        if t < end:
            return value
    return 0.0


def _loop_head_integral(mu: StepForm, alpha: float) -> float:
    """The scalar head integral StepForm had before its running integral was cached."""
    if mu.is_zero:
        return 0.0
    cum = np.concatenate([[0.0], np.cumsum(mu.durations * mu.values)])
    if alpha >= mu.support:
        return float(cum[-1])
    return float(np.interp(alpha, np.concatenate([[0.0], mu.breakpoints]), cum))


def _loop_head(mu, alpha: float) -> float:
    return _loop_head_integral(mu, alpha) if isinstance(mu, StepForm) else mu.head_integral(alpha)


def _loop_submajorizes(x_mu, y_mu) -> bool:
    """submajorizes as one head-integral comparison per point."""
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
        if _loop_head(y_mu, float(alpha)) > _loop_head(x_mu, float(alpha)) + SUBMAJOR_SLACK:
            return False
    return _loop_head(y_mu, INF) <= _loop_head(x_mu, INF) + SUBMAJOR_SLACK


def _loop_fack_kosaki(f, g) -> tuple:
    """fack_kosaki_checks as a loop over the points of its grids."""
    mu_f = singular_values(f)
    mu_g = singular_values(g)
    mu_fg = singular_values(f @ g)
    pts = np.unique(np.concatenate([[0.0], mu_f.breakpoints, mu_g.breakpoints,
                                    mu_fg.breakpoints]))
    grid = np.unique(np.concatenate([pts, 0.5 * (pts[1:] + pts[:-1])])) if pts.size > 1 else pts
    prod_viol = 0.0
    for t in grid:
        for s in grid:
            lhs = _loop_evaluate(mu_fg, float(t + s))
            rhs = _loop_evaluate(mu_f, float(t)) * _loop_evaluate(mu_g, float(s))
            prod_viol = max(prod_viol, lhs - rhs)
    mu_ffs = singular_values(f.adjoint() @ f)
    mu_fsf = singular_values(f @ f.adjoint())
    pts = np.unique(np.concatenate([[0.0], mu_ffs.breakpoints, mu_fsf.breakpoints]))
    tr_viol = max(abs(_loop_evaluate(mu_ffs, float(t)) - _loop_evaluate(mu_fsf, float(t)))
                  for t in pts)
    tr_viol = max(tr_viol, max(abs(_loop_evaluate(mu_ffs, float(t) * 0.5)
                                   - _loop_evaluate(mu_fsf, float(t) * 0.5)) for t in pts))
    mu_af = singular_values(-2.0 * f)
    hom_viol = max(abs(_loop_evaluate(mu_af, float(t)) - 2.0 * _loop_evaluate(mu_f, float(t)))
                   for t in grid)
    return prod_viol, tr_viol, hom_viol, len(grid) ** 2


def _probe_points(mu: StepForm) -> list[float]:
    """0, each breakpoint and its two neighbouring doubles, past the support, +inf."""
    pts = [0.0, math.ulp(0.0)]
    for end in mu.breakpoints.tolist():
        pts += [math.nextafter(end, 0.0), end, math.nextafter(end, INF)]
    return pts + [mu.support + 1.0, 1e300, INF]


# A few of every shape: one piece, merged equal values, ties, the zero form
_CATALOG_FORMS = [
    StepForm.from_raw([0.5, 1.0, 2.0], [4.0, 2.0, 1.0]),
    StepForm.from_raw([1.0], [1.0]),
    StepForm.from_raw([1.0, 2.0, 1.0, 5.0], [2.0, 2.0, 1.0, 0.0]),
    StepForm.from_raw([1e-300, 3.0], [1e300, 1e-300]),
    StepForm.from_raw([], []),
]
_PARAMETRIC = [exp_decay(), log_reciprocal(1.0), power_decay(0.5, 2.0), constant(0.5, 3.0)]
_seeds = st.integers(0, 2 ** 32 - 1)


class TestArrayRoute:
    @pytest.mark.parametrize("mu", _CATALOG_FORMS)
    def test_pinned_points(self, mu):
        pts = _probe_points(mu)
        values = [mu.evaluate(t) for t in pts]
        heads = [mu.head_integral(t) for t in pts]
        assert values == [_loop_evaluate(mu, t) for t in pts]
        assert heads == [_loop_head_integral(mu, t) for t in pts]
        assert mu.evaluate_many(np.array(pts)).tolist() == values
        assert mu.head_integrals(np.array(pts)).tolist() == heads
        assert all(type(v) is float for v in values + heads)

    def test_pinned_values(self):
        mu = _CATALOG_FORMS[0]  # breakpoints 0.5, 1.5, 3.5; head integrals 2, 4, 6
        below, above = math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)
        assert [mu.evaluate(t) for t in (0.0, below, 0.5, above, 1.5, 3.5, 9.0, INF)] == \
            [4.0, 4.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.0]
        assert [mu.head_integral(t) for t in (0.0, 0.5, 1.0, 1.5, 3.5, 9.0, INF)] == \
            [0.0, 2.0, 3.0, 4.0, 6.0, 6.0, 6.0]
        zero = StepForm.from_raw([], [])
        assert zero.evaluate(0.0) == zero.head_integral(INF) == zero.total_integral() == 0.0

    @pytest.mark.parametrize("mu", _CATALOG_FORMS)
    def test_negative_arguments_raise(self, mu):
        for call in (lambda: mu.evaluate(-1e-300), lambda: mu.head_integral(-1.0),
                     lambda: mu.evaluate_many(np.array([0.0, -1.0])),
                     lambda: mu.head_integrals(np.array([1.0, -INF]))):
            with pytest.raises(DomainError):
                call()

    def test_running_integral_is_built_once_on_first_use(self):
        mu = StepForm.from_raw([1.0, 2.0], [3.0, 1.0])
        assert "running_integral" not in vars(mu)
        assert mu.evaluate(0.5) == 3.0 and "running_integral" not in vars(mu)
        assert mu.head_integral(2.0) == 4.0
        knots, heads = mu.running_integral
        assert mu.running_integral[0] is knots
        assert knots.tolist() == [0.0, 1.0, 3.0] and heads.tolist() == [0.0, 3.0, 5.0]
        assert not (knots.flags.writeable or heads.flags.writeable)

    @given(_seeds)
    @settings(max_examples=60, deadline=None)
    def test_random_forms_match_the_loops(self, seed):
        rng = np.random.default_rng(seed)
        mu = random_decreasing_step(rng)
        pts = _probe_points(mu) + rng.uniform(0.0, mu.support * 1.2, size=8).tolist()
        assert mu.evaluate_many(np.array(pts)).tolist() == [_loop_evaluate(mu, t) for t in pts]
        assert mu.head_integrals(np.array(pts)).tolist() == \
            [_loop_head_integral(mu, t) for t in pts]

    @given(_seeds, st.sampled_from([0.5, 0.9, 1.0, 1.1, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_submajorizes_is_the_loop(self, seed, scale):
        rng = np.random.default_rng(seed)
        x = random_decreasing_step(rng)
        y = random_decreasing_step(rng)
        forms = [x, y, x.scaled(scale), StepForm.from_raw([], []), _CATALOG_FORMS[0]]
        for a in forms:
            for b in forms:
                assert submajorizes(a, b) is _loop_submajorizes(a, b)

    @pytest.mark.parametrize("excess, dominated", [(0.5, True), (1.5, False)])
    def test_submajorizes_slack(self, excess, dominated):
        x = StepForm.from_raw([1.0, 1.0], [2.0, 1.0])
        # the same total, and a head past x's by excess * SUBMAJOR_SLACK at t = 1
        y = StepForm.from_raw([1.0, 1.0], [2.0 + excess * SUBMAJOR_SLACK,
                                           1.0 - excess * SUBMAJOR_SLACK])
        assert submajorizes(x, y) is _loop_submajorizes(x, y) is dominated

    @pytest.mark.parametrize("param", _PARAMETRIC, ids=lambda m: m.label)
    def test_submajorizes_is_the_loop_on_parametric_forms(self, param):
        rng = np.random.default_rng(5)
        for step in (random_decreasing_step(rng), StepForm.from_raw([0.5], [0.4])):
            for a, b in ((param, step), (step, param), (param, param)):
                assert submajorizes(a, b) is _loop_submajorizes(a, b)

    @given(_seeds)
    @settings(max_examples=40, deadline=None)
    def test_interval_masses_is_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        ends = np.cumsum(rng.uniform(0.05, 2.0, size=int(rng.integers(1, 8))))
        weight = random_weight_step(rng)
        grid = np.concatenate([[0.0], ends])
        want = np.diff([_loop_head_integral(weight, float(t)) for t in grid])
        assert np.array_equal(_interval_masses(weight, ends), want)
        param = _PARAMETRIC[seed % len(_PARAMETRIC)]
        want = np.diff([param.head_integral(float(t)) for t in grid])
        assert np.array_equal(_interval_masses(param, ends), want)

    def test_parametric_head_integrals_check_their_arguments(self):
        mu = ParametricForm(fn=lambda t: 1.0, support=1.0, cumulative=lambda t: t)
        assert mu.head_integrals(np.array([0.0, 0.5, 2.0])).tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(DomainError):
            mu.head_integrals(np.array([0.5, -0.5]))

    @given(_seeds, st.integers(0, len(algebra_shapes()) - 1))
    @settings(max_examples=40, deadline=None)
    def test_fack_kosaki_is_the_loop(self, seed, shape):
        alg = algebra_shapes()[shape]
        rng = np.random.default_rng(seed)
        f, g = random_element(alg, rng), random_element(alg, rng)
        rep = fack_kosaki_checks(f, g)
        fields = (rep.product_violation, rep.trace_symmetry_violation,
                  rep.homogeneity_violation, rep.samples)
        assert fields == _loop_fack_kosaki(f, g)
        assert [type(v) for v in fields] == [float, float, float, int]

    def test_fack_kosaki_on_the_zero_element(self):
        alg = algebra_shapes()[2]
        rep = fack_kosaki_checks(alg.zero(), alg.identity())
        assert (rep.product_violation, rep.trace_symmetry_violation, rep.homogeneity_violation,
                rep.samples) == _loop_fack_kosaki(alg.zero(), alg.identity())
