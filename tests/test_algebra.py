"""Traces, absolute values, functional calculus, projection norms."""

import math

import numpy as np
import pytest

from ncorlicz import (
    DomainError,
    NotMeasurableError,
    NumericError,
    StructuralError,
    TracedAlgebra,
    abs_value,
    apply_function,
    apply_function_many,
    cosh_minus_one,
    custom,
    exp_minus_one,
    is_projection,
    linear_until_cap,
    power,
    projection_trace_norm,
    singular_values,
    trace,
)
from ncorlicz.sampling import (
    algebra_shapes,
    random_element,
    random_elements,
    random_positive,
    random_self_adjoint,
    random_self_adjoints,
)


def test_trace_of_identity():
    alg = TracedAlgebra((2,), (1.0,))
    assert trace(alg, alg.identity()) == pytest.approx(2.0)


def test_weighted_trace():
    alg = TracedAlgebra((1, 1), (0.5, 2.0))
    a = alg.diagonal([[4.0], [1.0]])
    assert trace(alg, a) == pytest.approx(0.5 * 4 + 2.0 * 1)


def test_trace_is_tracial():
    alg = TracedAlgebra((3,), (1.0,))
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = random_element(alg, rng), random_element(alg, rng)
        assert abs(trace(alg, a @ b) - trace(alg, b @ a)) < 1e-12


def test_trace_shape_mismatch():
    alg = TracedAlgebra((2,), (1.0,))
    other = TracedAlgebra((3,), (1.0,))
    with pytest.raises(StructuralError):
        trace(alg, other.identity())


def test_abs_of_diagonal():
    alg = TracedAlgebra((2,), (1.0,))
    a = alg.diagonal([[-3.0, 2.0]])
    np.testing.assert_allclose(abs_value(a).blocks[0], np.diag([3.0, 2.0]), atol=1e-12)


def test_abs_of_nilpotent():
    alg = TracedAlgebra((2,), (1.0,))
    a = alg.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    eigs = np.sort(np.linalg.eigvalsh(abs_value(a).blocks[0]))
    np.testing.assert_allclose(eigs, [0.0, 1.0], atol=1e-12)


def test_abs_adjoint_same_spectrum():
    alg = TracedAlgebra((3,), (1.0,))
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = random_element(alg, rng)
        s1 = np.sort(np.linalg.eigvalsh(abs_value(a).blocks[0]))
        s2 = np.sort(np.linalg.eigvalsh(abs_value(a.adjoint()).blocks[0]))
        np.testing.assert_allclose(s1, s2, atol=1e-10)


def test_faithfulness():
    alg = TracedAlgebra((2, 3), (1.0, 0.5))
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_element(alg, rng)
        assert trace(alg, a.adjoint() @ a).real > 0


def test_apply_function_scalar_calculus():
    alg = TracedAlgebra((2,), (1.0,))
    a = alg.diagonal([[1.0, 2.0]])
    out = apply_function(power(2.0), a)
    np.testing.assert_allclose(out.blocks[0], np.diag([1.0, 4.0]), atol=1e-12)


def test_apply_function_beyond_cap_raises():
    alg = TracedAlgebra((2,), (1.0,))
    a = alg.diagonal([[0.5, 2.0]])
    with pytest.raises(NotMeasurableError) as exc:
        apply_function(linear_until_cap(1.0), a)
    assert exc.value.eigenvalue == pytest.approx(2.0)


def test_apply_function_nan_gauge_raises():
    alg = TracedAlgebra((2,), (1.0,))
    a = alg.diagonal([[1.0, 4.0]])
    phi = custom(lambda u: u * u if u < 3.0 else math.nan)
    with pytest.raises(NumericError):
        apply_function(phi, a)
    np.testing.assert_allclose(apply_function(phi, a, 0.5).blocks[0],
                               np.diag([0.25, 4.0]), atol=1e-12)


def test_apply_function_identity_gauge_returns_abs():
    alg = TracedAlgebra((2,), (1.0,))
    rng = np.random.default_rng(7)
    a = random_element(alg, rng)
    np.testing.assert_allclose(apply_function(power(1.0), a).blocks[0],
                               abs_value(a).blocks[0], atol=1e-10)


def test_trace_of_gauge_equals_head_integral():
    # tr phi(|a|) matches the integral of phi over the singular value function
    alg = TracedAlgebra((2, 2), (0.5, 1.5))
    rng = np.random.default_rng(13)
    phi = cosh_minus_one()
    for _ in range(10):
        a = random_element(alg, rng)
        lhs = trace(alg, apply_function(phi, a)).real
        mu = singular_values(alg, a)
        rhs = float(np.dot(phi.eval_many(mu.values), mu.durations))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestProjectionNorm:
    def test_exp_gauge_unit_trace(self):
        alg = TracedAlgebra((2,), (0.5,))
        e = alg.identity()  # trace 1
        got = projection_trace_norm(alg, e, exp_minus_one())
        assert got == pytest.approx(1.0 / math.log(2.0), rel=1e-12)

    def test_square_gauge_trace_four(self):
        alg = TracedAlgebra((2,), (2.0,))
        e = alg.identity()  # trace 4
        assert projection_trace_norm(alg, e, power(2.0)) == pytest.approx(2.0)

    def test_normalized_gauge_unit_trace(self):
        alg = TracedAlgebra((1,), (1.0,))
        e = alg.identity()
        # any gauge with phi(1) = 1 and strict increase gives norm 1
        assert projection_trace_norm(alg, e, power(3.0)) == pytest.approx(1.0)

    def test_rejects_non_projection(self):
        alg = TracedAlgebra((2,), (1.0,))
        with pytest.raises(DomainError):
            projection_trace_norm(alg, alg.diagonal([[0.5, 0.2]]), power(2.0))

    def test_rejects_zero_trace(self):
        alg = TracedAlgebra((2,), (1.0,))
        with pytest.raises(DomainError):
            projection_trace_norm(alg, alg.zero(), power(2.0))


def test_is_projection_tolerance():
    alg = TracedAlgebra((2,), (1.0,))
    e = alg.diagonal([[1.0, 0.0]])
    assert is_projection(e)
    assert not is_projection(alg.diagonal([[1.0, 0.5]]))


def test_structural_validation():
    with pytest.raises(StructuralError):
        TracedAlgebra((0,), (1.0,))
    with pytest.raises(StructuralError):
        TracedAlgebra((2,), (-1.0,))
    alg = TracedAlgebra((2,), (1.0,))
    with pytest.raises(StructuralError):
        alg.element([np.eye(3)])


def test_positive_cone_check():
    alg = TracedAlgebra((2,), (1.0,))
    rng = np.random.default_rng(1)
    assert random_positive(alg, rng).is_positive()
    assert not alg.diagonal([[1.0, -0.1]]).is_positive()


def test_adjoint_is_involution_and_abs_is_positive():
    alg = TracedAlgebra((2, 3), (1.0, 0.5))
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = random_element(alg, rng)
        assert (a.adjoint().adjoint() - a).sup_norm() == 0.0
        assert abs_value(a).is_positive()


def _blocks(elements):
    return [[b.tolist() for b in a.blocks] for a in elements]


def test_apply_function_many_is_the_one_element_loop():
    rng = np.random.default_rng(17)
    for alg in algebra_shapes():
        elements = [random_element(alg, rng) * c for c in (1.0, 0.3, 2.0, 0.0, 1.0)]
        for phi, scale in ((power(2.0), 1.0), (cosh_minus_one(), 0.7), (exp_minus_one(), 1.0)):
            got = apply_function_many(phi, elements, scale)
            assert _blocks(got) == _blocks([apply_function(phi, a, scale) for a in elements])
            assert all(g.algebra == alg for g in got)
    assert apply_function_many(power(2.0), []) == []


def test_apply_function_many_raises_what_the_loop_raises_first():
    alg, other = TracedAlgebra((2,), (1.0,)), TracedAlgebra((1, 1), (1.0, 1.0))
    phi = custom(lambda u: u * u if u < 3.0 else (math.nan if u < 5.0 else math.inf))
    fine, nan, inf = (alg.diagonal([[1.0, v]]) for v in (2.0, 4.0, 6.0))
    mixed = [fine, other.diagonal([[1.0], [2.0]])]
    assert _blocks(apply_function_many(phi, mixed)) == _blocks([apply_function(phi, a)
                                                                for a in mixed])
    for elements, error in (([fine, inf, nan], NotMeasurableError),
                            ([fine, nan, inf], NumericError)):
        with pytest.raises(error):
            apply_function_many(phi, elements)
    with pytest.raises(DomainError):
        apply_function_many(phi, [fine], 0.0)


def _drawn_one_at_a_time(algebras, rng, self_adjoint):
    """The corpus as it was drawn element by element: two n x n draws per block."""
    out = []
    for alg in algebras:
        blocks = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
                  for n in alg.dims]
        out.append([0.5 * (b + b.conj().T) if self_adjoint else b for b in blocks])
    return out


@pytest.mark.parametrize("draw, one, self_adjoint", [
    (random_elements, random_element, False),
    (random_self_adjoints, random_self_adjoint, True),
])
def test_corpus_draw_is_the_one_element_loop(draw, one, self_adjoint):
    shapes = algebra_shapes()
    mixed = [shapes[i % len(shapes)] for i in range(14)] + [shapes[4], shapes[4], shapes[1]]
    for seed, corpus in enumerate([[alg] * 4 for alg in shapes] + [mixed, [shapes[2]], []]):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw(corpus, got_rng)
        want = _drawn_one_at_a_time(corpus, want_rng, self_adjoint)
        assert [a.algebra for a in got] == corpus
        assert [[b.tobytes() for b in a.blocks] for a in got] == \
            [[b.tobytes() for b in blocks] for blocks in want]
        assert all(not b.flags.writeable for a in got for b in a.blocks)
        # the generator is left where the loop leaves it
        assert got_rng.standard_normal(3).tolist() == want_rng.standard_normal(3).tolist()
    for alg in shapes:
        a = one(alg, np.random.default_rng(5))
        want = _drawn_one_at_a_time([alg], np.random.default_rng(5), self_adjoint)[0]
        assert [b.tobytes() for b in a.blocks] == [b.tobytes() for b in want]
