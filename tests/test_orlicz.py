"""Gauge evaluation, conjugation, inversion and composition laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncorlicz import (
    DomainError,
    InvalidOrliczError,
    StepForm,
    compose_orlicz,
    conjugate,
    cosh_minus_one,
    custom,
    delta2_probe,
    eval_gauge,
    exp_minus_one,
    formal_inverse,
    linear_until_cap,
    modular,
    power,
    power_over_p,
    t_log1p,
    zero_then_linear,
)
from ncorlicz.orlicz import convexity_gap

INF = math.inf


def brute_force_conjugate(phi, u, v_max=200.0, n=400_000):
    """Independent oracle: dense-grid supremum of uv - phi(v)."""
    v = np.linspace(0.0, v_max, n)
    fv = phi.eval_many(v)
    ok = np.isfinite(fv)
    return float(np.max(u * v[ok] - fv[ok]))


def cosh_series(u, terms=30):
    """cosh(u) - 1 summed directly, as an oracle independent of math.cosh."""
    return sum(u ** (2 * k) / math.factorial(2 * k) for k in range(1, terms))


class TestEvaluation:
    def test_zero_at_zero(self):
        assert power(2.0)(0.0) == 0.0

    def test_cosh_against_series_oracle(self):
        assert cosh_minus_one()(1.0) == pytest.approx(cosh_series(1.0), abs=1e-14)
        assert cosh_minus_one()(1.0) == pytest.approx(0.5430806348152437, abs=1e-12)

    def test_beyond_cap_is_infinite(self):
        cap = linear_until_cap(1.0)
        assert cap(2.0) == INF
        assert cap(1.0) == 1.0  # left-continuous at the cap
        assert cap(0.5) == 0.5

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            eval_gauge(power(2.0), -0.1)

    def test_thresholds(self):
        assert zero_then_linear(1.0).a_phi == 1.0
        assert linear_until_cap(2.0).b_phi == 2.0
        assert power(3.0).a_phi == 0.0 and power(3.0).b_phi == INF


class TestConjugate:
    def test_half_square_is_self_dual(self):
        phi = power_over_p(2.0)
        star = conjugate(phi)
        for u in (0.5, 1.0, 3.0):
            assert star(u) == pytest.approx(u * u / 2.0, rel=1e-12)
            assert star(u) == pytest.approx(brute_force_conjugate(phi, u), abs=1e-8)

    def test_linear_gauge_conjugate_is_indicator(self):
        star = conjugate(power(1.0))
        assert star(0.5) == 0.0
        assert star(1.0) == 0.0
        assert star(1.0001) == INF

    def test_conjugate_at_zero_vanishes(self):
        for phi in (power(2.0), cosh_minus_one(), zero_then_linear(1.0),
                    linear_until_cap(1.0), t_log1p()):
            assert conjugate(phi)(0.0) == 0.0

    def test_cap_gauge_conjugate(self):
        star = conjugate(linear_until_cap(2.0))
        assert star(0.5) == 0.0
        assert star(3.0) == pytest.approx(2.0 * (3.0 - 1.0))

    def test_numeric_conjugate_matches_brute_force(self):
        phi = t_log1p()
        star = conjugate(phi)
        for u in (0.3, 1.0, 2.5):
            assert star(u) == pytest.approx(brute_force_conjugate(phi, u), abs=1e-7)

    def test_exp_conjugate_closed_form(self):
        star = conjugate(exp_minus_one())
        assert star(0.7) == 0.0
        u = 2.5
        assert star(u) == pytest.approx(u * math.log(u) - u + 1.0, rel=1e-12)
        assert star(u) == pytest.approx(brute_force_conjugate(exp_minus_one(), u), abs=1e-7)

    def test_doubling_walk_evaluates_each_point_once(self, monkeypatch):
        import ncorlicz.orlicz as orlicz
        phi = t_log1p()
        star = orlicz._numeric_conjugate(phi)
        passes = []
        real = orlicz.OrliczFunction.eval_many

        def counted(self, v):
            if self is phi:
                passes.append(np.array(v))
            return real(self, v)

        want = brute_force_conjugate(phi, 3.0)
        monkeypatch.setattr(orlicz.OrliczFunction, "eval_many", counted)
        for us, count in (([3.0], 9), (np.linspace(0.01, 3.0, 200), 11)):
            passes.clear()
            assert star.eval_many(np.array(us))[-1] == pytest.approx(want, abs=1e-7)
            # the walk v = 0, 2^0, ..., 2^40 is the first pass; rows then drop
            # out of the rounds as their values are certified
            assert passes[0].shape == (len(us), 42)
            assert len(passes) == count
        passes.clear()
        star(3.0)
        points = np.concatenate([v.ravel() for v in passes])
        assert len(set(points.tolist())) == len(points)

    def test_numeric_conjugate_beyond_the_slope_at_infinity(self):
        from ncorlicz.orlicz import _numeric_conjugate
        # phi(v) - uv still falling at the end of the walk: +inf, not its last value
        star = _numeric_conjugate(power(1.0))
        assert star.eval_many(np.array([0.5, 1.0, 1.5])).tolist() == [0.0, 0.0, INF]

    @pytest.mark.xfail(strict=True, reason="known defect: the walk of the numeric "
                       "conjugate ends at v = 2^40 and reports +inf past it")
    def test_numeric_conjugate_past_the_walk_end(self):
        from ncorlicz.orlicz import _numeric_conjugate
        # t log(1 + t) grows faster than any line, so its conjugate is finite
        # everywhere; at u = 29 the maximiser, the root of
        # log1p(v) + v / (1 + v) = u, lies near e^28, beyond 2^40
        u, lo, hi = 29.0, 0.0, 60.0  # bisect on log v
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            v = math.exp(mid)
            lo, hi = (mid, hi) if math.log1p(v) + v / (1.0 + v) < u else (lo, mid)
        v = math.exp(lo)
        value = _numeric_conjugate(t_log1p())(u)
        assert math.isfinite(value)
        assert value == pytest.approx(u * v - v * math.log1p(v), rel=1e-9)

    def test_biconjugation(self):
        grid = np.linspace(0.05, 4.0, 15)
        for phi in (power(2.0), power_over_p(3.0), cosh_minus_one(), t_log1p()):
            bic = conjugate(conjugate(phi))
            for t in grid:
                assert bic(float(t)) == pytest.approx(phi(float(t)),
                                                      rel=1e-7, abs=1e-7)


    @pytest.mark.parametrize("phi", [power(2.0), power_over_p(3.0), cosh_minus_one(),
                                     exp_minus_one(), zero_then_linear(1.0),
                                     linear_until_cap(1.0)], ids=lambda p: p.kind)
    @given(share=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_numeric_conjugate_is_the_closed_form(self, phi, share):
        from ncorlicz.orlicz import _numeric_conjugate
        closed = conjugate(phi)
        u = share * min(5.0, 0.99 * closed.b_phi)
        assert _numeric_conjugate(phi)(u) == pytest.approx(closed(u), rel=1e-12, abs=1e-12)


class TestFormalInverse:
    def test_square_inverse_closed_vs_bisection(self):
        phi = power(2.0)
        assert formal_inverse(phi, 4.0) == pytest.approx(2.0, rel=1e-12)
        bare = custom(lambda t: t * t, name="square_numeric")
        assert formal_inverse(bare, 4.0) == pytest.approx(2.0, rel=1e-9)

    def test_inverse_at_zero_is_largest_zero(self):
        assert formal_inverse(zero_then_linear(1.0), 0.0) == pytest.approx(1.0)

    def test_beyond_cap_value_returns_cap(self):
        cap = linear_until_cap(1.0)
        assert formal_inverse(cap, 5.0) == 1.0

    def test_round_trip_identity(self):
        # phi(phi^{-1}(t)) = min(t, phi(cap)) across the catalog
        for phi in (power(2.0), cosh_minus_one(), exp_minus_one(), t_log1p(),
                    linear_until_cap(1.5), zero_then_linear(0.5)):
            cap_value = phi.value_at_b if phi.b_phi < INF else INF
            for t in (0.0, 0.2, 1.0, 3.7, 20.0):
                got = phi(formal_inverse(phi, t))
                want = min(t, cap_value)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            formal_inverse(power(2.0), -1.0)

    def test_inverse_at_zero_is_a_phi_exactly(self):
        for phi in (zero_then_linear(0.5), conjugate(exp_minus_one()), t_log1p()):
            assert formal_inverse(phi, 0.0) == phi.a_phi

    def test_numeric_inverse_near_zero(self):
        # Newton's method on phi(s) = t from the leading term of each gauge
        # at 0: s^2 for t log(1 + t), s^2 / 2 for the conjugate of cosh - 1
        gauges = ((t_log1p(), lambda s: s * math.log1p(s), lambda s: math.log1p(s) + s / (1 + s),
                   1.0),
                  (conjugate(cosh_minus_one()),
                   lambda s: s * math.asinh(s) - s * s / (math.hypot(1.0, s) + 1.0), math.asinh,
                   2.0))
        for phi, f, df, c in gauges:
            for t in np.logspace(-300, -4, 75).tolist():
                s = math.sqrt(c * t)
                for _ in range(50):
                    step = (f(s) - t) / df(s)
                    s -= step
                    if abs(step) <= 1e-16 * s:
                        break
                assert formal_inverse(phi, t) == pytest.approx(s, rel=1e-9, abs=0)

    def test_numeric_inverse_ends_at_a_subnormal_boundary(self):
        assert formal_inverse(custom(lambda u: u, name="linear_numeric"), 1e-320) == 1e-320


class TestCoshFamilyAtBothEnds:
    """cosh - 1, its conjugate and its inverse against their series near 0.

    Below about 1.5e-154 the squares are subnormal, so the small-end range
    starts at 1e-150 for the gauge and the conjugate.
    """

    def test_gauge_near_zero(self):
        u = np.logspace(-150, -4, 200)
        got = cosh_minus_one().eval_many(u)
        np.testing.assert_allclose(got, u * u / 2 + u ** 4 / 24, rtol=1e-14, atol=0)

    def test_conjugate_near_zero(self):
        u = np.logspace(-150, -4, 200)
        got = conjugate(cosh_minus_one()).eval_many(u)
        np.testing.assert_allclose(got, u * u / 2 - u ** 4 / 24, rtol=1e-14, atol=0)

    def test_inverse_near_zero(self):
        phi = cosh_minus_one()
        for t in np.logspace(-300, -4, 200).tolist():
            want = math.sqrt(2 * t) * (1 - t / 12 + 3 * t * t / 160)
            assert formal_inverse(phi, t) == pytest.approx(want, rel=1e-14, abs=0)

    def test_conjugate_finite_and_increasing_up_to_1e300(self):
        got = conjugate(cosh_minus_one()).eval_many(np.logspace(-4, 300, 2000))
        assert np.isfinite(got).all() and (got > 0).all() and (np.diff(got) > 0).all()
        # u asinh(u) - u + O(1) at the float ceiling, where u * u overflows
        assert conjugate(cosh_minus_one())(1e160) == pytest.approx(
            1e160 * (math.asinh(1e160) - 1.0), rel=1e-15)

    def test_conjugate_at_infinity(self):
        # the ratio u / (sqrt(1 + u^2) + 1) is inf / inf at u = +inf: its limit, 1
        star = conjugate(cosh_minus_one())
        assert star.eval_many(np.array([INF])).tolist() == [INF]
        assert modular(StepForm.from_raw([1.0], [1e308]), star, 1e10) == INF


class TestThresholdDetection:
    def test_finiteness_cap_of_custom_gauge(self):
        phi = custom(lambda t: t if t <= 0.7 else INF, name="cap_0.7")
        assert phi.b_phi == pytest.approx(0.7, rel=1e-11)
        assert phi.b_phi <= 0.7

    def test_largest_zero_of_custom_gauge(self):
        phi = custom(lambda t: max(0.0, t - 0.3), name="shifted")
        assert phi.a_phi == pytest.approx(0.3, abs=1e-12)
        assert phi.b_phi == INF

    @pytest.mark.parametrize("cap", [0.7, 1.0, 3.3, 1e-5, 123456.789])
    def test_cap_detected_to_the_float(self, cap):
        phi = custom(lambda t: t if t <= cap else INF, name="capped")
        assert phi.b_phi == cap
        assert eval_gauge(phi, cap) == cap
        assert eval_gauge(phi, math.nextafter(cap, INF)) == INF

    def test_zero_detected_to_the_float(self):
        phi = custom(lambda t: max(0.0, t - 1.0 / 3.0), name="shifted_third")
        assert phi.a_phi == 1.0 / 3.0

    def test_zero_walk_ends_under_a_subnormal_cap(self):
        # the walk starts at b_phi / 2 = 5e-311; above it the bisection pair is
        # subnormal, where an ulp exceeds 2^-52 of either end, and the zero is
        # found exactly; below it the zero reads 0, like the underflow of t^p
        above = custom(lambda t: max(0.0, t - 7e-311), name="tiny", b_phi=1e-310)
        assert above.a_phi == 7e-311
        below = custom(lambda t: max(0.0, t - 3e-311), name="tiny", b_phi=1e-310)
        assert below.a_phi == 0.0

    def test_infinite_everywhere_rejected(self):
        with pytest.raises(InvalidOrliczError):
            custom(lambda t: 0.0 if t == 0.0 else INF, name="infinite")

    def test_zero_everywhere_rejected(self):
        with pytest.raises(InvalidOrliczError):
            custom(lambda t: 0.0, name="zero")


class TestComposition:
    def test_square_of_identity(self):
        phi1 = compose_orlicz(power(2.0), power(1.0))
        assert phi1.a_phi == 0.0 and phi1.b_phi == INF
        assert phi1(3.0) == pytest.approx(9.0)

    def test_threshold_promotion(self):
        phi1 = compose_orlicz(zero_then_linear(1.0), power(1.0))
        assert phi1.a_phi == pytest.approx(1.0)
        assert phi1.a_phi >= power(1.0).a_phi

    def test_identity_outer_is_noop(self):
        phi2 = cosh_minus_one()
        phi1 = compose_orlicz(power(1.0), phi2)
        for t in np.linspace(0.0, 3.0, 11):
            assert phi1(float(t)) == pytest.approx(phi2(float(t)), rel=1e-12)

    def test_threshold_monotonicity(self):
        phi2 = zero_then_linear(0.5)
        phi1 = compose_orlicz(exp_minus_one(), phi2)
        assert phi1.a_phi >= phi2.a_phi
        assert phi1.b_phi <= phi2.b_phi

    def test_cap_propagates_through_outer_gauge(self):
        phi1 = compose_orlicz(linear_until_cap(1.0), power(2.0))
        # inner reaches the outer cap at t = 1
        assert phi1.b_phi == pytest.approx(1.0, rel=1e-9)
        assert phi1(2.0) == INF

    def test_degenerate_composition_rejected(self):
        bounded = custom(lambda t: min(t, 0.5), name="bounded", b_phi=INF)
        with pytest.raises(InvalidOrliczError):
            compose_orlicz(zero_then_linear(1.0), bounded)


class TestDelta2:
    def test_power_doubling_constant_exact(self):
        rep = delta2_probe(power(3.0))
        assert rep.satisfied is True and rep.authoritative
        assert rep.constant == pytest.approx(8.0, rel=1e-12)

    def test_cap_gauge_fails(self):
        rep = delta2_probe(linear_until_cap(1.0))
        assert rep.satisfied is False and rep.authoritative

    def test_cosh_flagged_false(self):
        rep = delta2_probe(cosh_minus_one())
        assert rep.satisfied is False and rep.authoritative

    def test_custom_stays_unknown(self):
        rep = delta2_probe(custom(lambda t: t ** 2.5, name="pow25"))
        assert rep.satisfied is None and not rep.authoritative
        assert rep.constant == pytest.approx(2 ** 2.5, rel=1e-6)


# Gauges with a finite cap b_phi, and conjugates: eval_gauge is the one-element
# eval_many, which applies the cap rule before any gauge's own formula
_CAPPED_AND_CONJUGATE = [
    linear_until_cap(1.0), linear_until_cap(2.5), conjugate(power(1.0)),
    conjugate(zero_then_linear(0.5)), conjugate(zero_then_linear(2.0)),
    conjugate(linear_until_cap(1.0)), compose_orlicz(power(2.0), linear_until_cap(1.0)),
    compose_orlicz(linear_until_cap(1.0), power(2.0)), conjugate(power(2.0)),
    conjugate(power_over_p(3.0)), conjugate(cosh_minus_one()), conjugate(exp_minus_one()),
    conjugate(t_log1p()),
    custom(lambda t: t * t if t <= 0.7 else INF, name="square_until_0.7"),
    custom(lambda t: t ** 3 if t <= 2.5 else INF, name="cube_until_2.5"),
    compose_orlicz(power(2.0), custom(lambda t: t if t <= 1.5 else INF)),
    compose_orlicz(custom(lambda t: t if t <= 1.5 else INF), power(2.0)),
]


@st.composite
def _around_the_cap(draw):
    """A capped or conjugate gauge and a point: its cap (20 when it has none), an ulp
    either side, or a point below four times that."""
    phi = draw(st.sampled_from(_CAPPED_AND_CONJUGATE))
    b = phi.b_phi if phi.b_phi < INF else 20.0
    near = [b, math.nextafter(b, 0.0), math.nextafter(b, INF)]
    return phi, draw(st.one_of(st.sampled_from(near), st.floats(0.0, 4.0 * b)))


class TestGaugeLaws:
    @given(_around_the_cap())
    @settings(max_examples=150, deadline=None)
    def test_eval_gauge_is_eval_many(self, case):
        phi, u = case
        with np.errstate(over="ignore", invalid="ignore"):
            many = phi.eval_many(np.array([u]))[0]
        assert eval_gauge(phi, u) == many
        if u >= phi.b_phi:
            assert many == (phi.value_at_b if u == phi.b_phi else INF)

    def test_formula_never_called_beyond_the_cap(self):
        seen = []
        phi = custom(lambda t: seen.append(t) or (t * t if t <= 0.7 else INF), name="logged")
        seen.clear()  # threshold detection probes far beyond the cap
        got = phi.eval_many(np.array([0.5, 0.7, math.nextafter(0.7, INF), 2.0, INF]))
        assert got.tolist() == [0.25, 0.7 * 0.7, INF, INF, INF]
        assert max(seen) == 0.7

    def test_nan_stays_nan(self):
        for phi in _CAPPED_AND_CONJUGATE:
            with np.errstate(invalid="ignore"):
                assert math.isnan(phi.eval_many(np.array([math.nan]))[0])

    @pytest.mark.parametrize("phi", [power(1.0), power(2.0), cosh_minus_one(),
                                     exp_minus_one(), t_log1p(),
                                     zero_then_linear(1.0), linear_until_cap(1.0)],
                             ids=lambda p: p.kind)
    def test_midpoint_convexity(self, phi):
        grid = np.concatenate([np.linspace(0.0, 3.0, 30), np.logspace(-3, 1, 20)])
        assert convexity_gap(phi, grid) <= 0.0

    @given(beta=st.floats(0.0, 1.0), t=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_shrinking_scaling(self, beta, t):
        phi = cosh_minus_one()
        assert phi(beta * t) <= beta * phi(t) + 1e-12 * (1.0 + phi(t))

    @given(u=st.floats(0.0, 10.0), v=st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_young_inequality(self, u, v):
        phi = power_over_p(3.0)
        star = conjugate(phi)
        assert u * v <= phi(u) + star(v) + 1e-8 * (1.0 + u * v)

    def test_young_inequality_numeric_conjugate(self):
        phi = t_log1p()
        star = conjugate(phi)
        for u in np.linspace(0.0, 4.0, 9):
            for v in np.linspace(0.0, 4.0, 9):
                fu, gv = phi(float(u)), star(float(v))
                assert u * v <= fu + gv + 1e-8 * (1.0 + u * v)
