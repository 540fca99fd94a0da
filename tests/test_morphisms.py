"""Jordan morphisms, trace densities, composition bounds, positive maps."""

import math

import numpy as np
import pytest

import ncorlicz.morphisms as morphisms
from ncorlicz.algebra import _stacks
from ncorlicz.norms import luxemburg_norms

from ncorlicz import (
    Assignment,
    BlockImage,
    DomainError,
    JordanMorphism,
    KrausGroup,
    NumericError,
    PositiveMap,
    StructuralError,
    TauT,
    TracedAlgebra,
    UnboundedNormError,
    absolute_continuity_check,
    abs_value,
    apply_function,
    apply_jordan,
    composition_bound_check,
    compose_orlicz,
    cosh_minus_one,
    custom,
    interpolation_contraction_check,
    is_projection,
    luxemburg_norm,
    linear_until_cap,
    modular_chain_check,
    modular_chain_checks,
    power,
    power_over_p,
    purity_check,
    radon_nikodym,
    singular_values,
    singular_values_many,
    submajorizes,
    trace,
)
from ncorlicz.sampling import (
    algebra_shapes,
    depolarizing_map,
    doubling_morphism,
    identity_channel,
    isometry_compression_map,
    kernel_morphism,
    mixed_unitary_map,
    morphism_catalog,
    padded_morphism,
    positive_map_catalog,
    pinching_map,
    random_element,
    random_positive,
    random_projection,
    random_self_adjoint,
    random_trace_preserving_map,
    random_unitary,
    scaled_identity_map,
    transpose_morphism,
    zero_morphism,
)


class TestApplyJordan:
    def test_transpose_is_antihomomorphism(self):
        J = transpose_morphism(2)
        rng = np.random.default_rng(0)
        a = random_element(J.source, rng)
        np.testing.assert_allclose(apply_jordan(J, a).blocks[0], a.blocks[0].T)
        sa = random_self_adjoint(J.source, rng)
        lhs = apply_jordan(J, sa @ sa)
        rhs = apply_jordan(J, sa) @ apply_jordan(J, sa)
        np.testing.assert_allclose(lhs.blocks[0], rhs.blocks[0], atol=1e-12)

    def test_doubling_is_unital(self):
        J = doubling_morphism(2)
        img = apply_jordan(J, J.source.identity())
        for blk, n in zip(img.blocks, J.target.dims):
            np.testing.assert_allclose(blk, np.eye(n), atol=1e-12)

    def test_padded_image_of_identity_is_projection(self):
        J = padded_morphism()
        img = apply_jordan(J, J.source.identity())
        assert is_projection(img)
        assert trace(img).real == pytest.approx(2.0)

    def test_singular_values_invariant_under_transpose(self):
        J = transpose_morphism(3, weight=1.0)
        rng = np.random.default_rng(1)
        a = random_element(J.source, rng)
        mu1 = singular_values(a)
        mu2 = singular_values(apply_jordan(J, a))
        np.testing.assert_allclose(mu1.values, mu2.values, atol=1e-12)

    def test_jordan_axioms_across_catalog(self):
        rng = np.random.default_rng(2)
        for name, J in morphism_catalog(rng):
            for _ in range(3):
                a = random_element(J.source, rng)
                b = random_element(J.source, rng)
                sym = 0.5 * ((a @ b) + (b @ a))
                lhs = apply_jordan(J, sym)
                ja, jb = apply_jordan(J, a), apply_jordan(J, b)
                rhs = 0.5 * ((ja @ jb) + (jb @ ja))
                assert (lhs - rhs).sup_norm() < 1e-10, name
                star_gap = (apply_jordan(J, a.adjoint()) - ja.adjoint()).sup_norm()
                assert star_gap < 1e-12, name
            assert is_projection(apply_jordan(J, J.source.identity())), name

    def test_abs_commutes_on_self_adjoints(self):
        rng = np.random.default_rng(3)
        for name, J in morphism_catalog(rng):
            a = random_self_adjoint(J.source, rng)
            gap = (abs_value(apply_jordan(J, a))
                   - apply_jordan(J, abs_value(a))).sup_norm()
            assert gap < 1e-10, name

    def test_wrong_source_rejected(self):
        J = transpose_morphism(2)
        other = TracedAlgebra((3,), (1.0,))
        with pytest.raises(StructuralError):
            apply_jordan(J, other.identity())

    def test_bookkeeping_validated(self):
        src = TracedAlgebra((2,), (1.0,))
        tgt = TracedAlgebra((3,), (1.0,))
        with pytest.raises(StructuralError):
            JordanMorphism(src, tgt, (BlockImage((Assignment(0, 1, "homo"),)),))


def _block_formula(J, a):
    """J(a) as it was computed one element at a time: per-matrix copies and conjugation."""
    out = []
    for m, spec in zip(J.target.dims, J.blocks):
        d = np.zeros((m, m), dtype=complex)
        if spec is not None:
            start = 0
            for asg in spec.assignments:
                piece = a.blocks[asg.src] if asg.flavor == "homo" else a.blocks[asg.src].T
                for _ in range(asg.copies):
                    d[start:start + piece.shape[0], start:start + piece.shape[0]] = piece
                    start += piece.shape[0]
            if spec.unitary is not None:
                d = spec.unitary @ d @ spec.unitary.conj().T
        out.append(d)
    return out


def _stacked_catalog(rng):
    """The catalog, and a 5x5 unitary twist of a copy beside a transposed block."""
    src, tgt = TracedAlgebra((2, 3), (1.0, 0.5)), TracedAlgebra((5,), (1.0,))
    wide = JordanMorphism(src, tgt, (BlockImage((Assignment(0, 1, "homo"), Assignment(1, 1, "anti")),
                                                unitary=random_unitary(5, rng)),))
    return [*morphism_catalog(rng), ("unitary_m5", wide)]


class TestStackedImages:
    """One pass over per-block stacks gives each element's image bit for bit."""

    def test_images_are_the_block_formula(self):
        rng = np.random.default_rng(29)
        for name, J in _stacked_catalog(rng):
            elements = [random_element(J.source, rng) for _ in range(5)]
            elements += [random_self_adjoint(J.source, rng), J.source.zero(), J.source.identity()]
            images = morphisms._images(J, _stacks(J.source, elements))
            assert all(s.shape == (len(elements), m, m) for s, m in zip(images, J.target.dims))
            for r, a in enumerate(elements):
                want = [b.tobytes() for b in _block_formula(J, a)]
                assert [s[r].tobytes() for s in images] == want, name
                assert [b.tobytes() for b in apply_jordan(J, a).blocks] == want, name

    def test_unit_ball_is_the_per_probe_scaling(self):
        rng = np.random.default_rng(31)
        for alg in [*algebra_shapes(), TracedAlgebra((5,), (1.0,))]:
            probes = [random_self_adjoint(alg, rng) for _ in range(4)]
            probes.insert(1, alg.zero())
            norms = luxemburg_norms(singular_values_many(probes), power(2.0))
            got = morphisms._unit_ball(_stacks(alg, probes), norms)
            want = [a * (0.9 / nrm) for a, nrm in zip(probes, norms.tolist()) if nrm != 0.0]
            assert [[s[r].tobytes() for s in got] for r in range(len(want))] == \
                [[b.tobytes() for b in a.blocks] for a in want]


class TestRadonNikodym:
    def test_transpose_density_is_one(self):
        f = radon_nikodym(transpose_morphism(2))
        np.testing.assert_allclose(f.blocks[0], np.eye(2), atol=1e-12)

    def test_doubling_density_is_two(self):
        f = radon_nikodym(doubling_morphism(2))
        np.testing.assert_allclose(f.blocks[0], 2.0 * np.eye(2), atol=1e-12)

    def test_kernel_block_density_vanishes(self):
        f = radon_nikodym(kernel_morphism())
        np.testing.assert_allclose(f.blocks[0], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(f.blocks[1], np.zeros((2, 2)), atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_density_is_the_hand_derived_lambda(self, seed):
        # lambda_j = sum_k W_k c_kj / w_j, exactly; weighted_multiblock sends its
        # weight-0.5 block into target blocks of weights 1.5 and 1.0 and its
        # weight-2.0 block into one of weight 0.5
        want = {"transpose_m2": [1.0], "doubling_m2": [2.0], "kernel_drop": [1.0, 0.0],
                "padded_embedding": [1.0], "padded_embedding_unitary": [1.0],
                "mixed_flavor_stack": [2.0], "zero": [0.0], "two_copies_unitary": [2.0],
                "weighted_multiblock": [5.0, 0.25], "transpose_m3_unitary": [1.0]}
        catalog = morphism_catalog(np.random.default_rng(seed))
        assert [name for name, _ in catalog] == list(want)
        for name, J in catalog:
            f = radon_nikodym(J)
            for block, lam, n in zip(f.blocks, want[name], J.source.dims):
                assert np.array_equal(block, lam * np.eye(n)), name

    def test_density_takes_no_image(self, monkeypatch):
        monkeypatch.setattr(morphisms, "apply_jordan", None)
        monkeypatch.setattr(morphisms, "_images", None)
        for _, J in morphism_catalog(np.random.default_rng(1)):
            radon_nikodym(J)

    def test_trace_duality_across_catalog(self):
        rng = np.random.default_rng(4)
        for name, J in morphism_catalog(rng):
            f = radon_nikodym(J)
            for _ in range(4):
                a = random_element(J.source, rng)
                lhs = trace(apply_jordan(J, a))
                rhs = trace(f @ a)
                assert abs(lhs - rhs) < 1e-10, name


def _projections(J):
    """Eight random projections of the source algebra, drawn from seed 0."""
    rng = np.random.default_rng(0)
    return [random_projection(J.source, rng) for _ in range(8)]


def _contraction(T, phi, rng, samples):
    """The contraction check on 5 positive and ``samples`` self-adjoint draws."""
    positives = [random_positive(T.source, rng) for _ in range(5)]
    probes = [random_self_adjoint(T.source, rng) for _ in range(samples)]
    return interpolation_contraction_check(T, phi, positives, probes)


class TestAbsoluteContinuity:
    def test_doubling_modulus(self):
        J = doubling_morphism(2)
        rep = absolute_continuity_check(J, projections=_projections(J))
        assert rep.density_sup == pytest.approx(2.0)
        assert rep.deltas[0] == pytest.approx(rep.epsilons[0] / 2.0)
        assert rep.verified

    def test_zero_morphism_vacuous(self):
        J = zero_morphism(2)
        rep = absolute_continuity_check(J, projections=_projections(J))
        assert rep.density_sup == 0.0
        assert rep.verified
        assert math.isinf(rep.deltas[0])

    def test_identity_like_modulus(self):
        J = transpose_morphism(2)
        rep = absolute_continuity_check(J, projections=_projections(J))
        assert rep.density_sup == pytest.approx(1.0)
        assert rep.deltas[0] == pytest.approx(rep.epsilons[0])
        assert rep.verified

    def test_each_projection_is_imaged_once(self, monkeypatch):
        # one image per projection of the corpus (the coordinate ones and the
        # given ones), whatever the number of epsilons; the density takes none
        J = kernel_morphism()
        projections = _projections(J)
        calls, image = [0], morphisms.apply_jordan

        def counted(J, a):
            calls[0] += 1
            return image(J, a)

        monkeypatch.setattr(morphisms, "apply_jordan", counted)
        assert absolute_continuity_check(J, projections=projections).verified
        corpus = sum(J.source.dims) + len(projections)
        assert calls[0] == corpus


class TestCompositionBound:
    def test_transpose_within_unit_bound(self):
        rng = np.random.default_rng(5)
        J = transpose_morphism(2)
        probes = [random_self_adjoint(J.source, rng) for _ in range(10)]
        rep = composition_bound_check(J, power(1.0), power(2.0), probes)
        assert rep.bound == pytest.approx(1.0)
        assert rep.max_ratio < 1.0
        assert rep.passed

    def test_doubling_bound_two(self):
        rng = np.random.default_rng(6)
        J = doubling_morphism(2)
        probes = [random_self_adjoint(J.source, rng) for _ in range(10)]
        rep = composition_bound_check(J, power(1.0), power(2.0), probes)
        assert rep.bound == pytest.approx(2.0)
        # images scale by sqrt(2) in the quadratic gauge; samples sit at norm 0.9
        assert rep.max_ratio == pytest.approx(0.9 * math.sqrt(2.0), rel=1e-6)
        assert rep.passed

    def test_zero_morphism(self):
        rng = np.random.default_rng(7)
        J = zero_morphism(2)
        probes = [random_self_adjoint(J.source, rng) for _ in range(5)]
        rep = composition_bound_check(J, power(1.0), power(2.0), probes)
        assert rep.bound == 1.0 and rep.max_ratio == 0.0 and rep.passed


class TestModularChain:
    def test_transpose_values_agree(self):
        rng = np.random.default_rng(8)
        J = transpose_morphism(2)
        a = random_self_adjoint(J.source, rng)
        phi1 = compose_orlicz(power(1.0), power(2.0))
        nrm = luxemburg_norm(singular_values(a), phi1)
        rep = modular_chain_check(J, power(1.0), power(2.0), a * (0.9 / nrm))
        assert rep.hypothesis_ok and rep.passed
        assert rep.max_pairwise_gap < 1e-10

    def test_identity_morphism_collapses(self):
        alg = TracedAlgebra((2,), (1.0,))
        J = JordanMorphism(alg, alg, (BlockImage((Assignment(0, 1, "homo"),)),))
        rng = np.random.default_rng(9)
        a = random_self_adjoint(alg, rng)
        phi1 = compose_orlicz(power(1.0), power(2.0))
        nrm = luxemburg_norm(singular_values(a), phi1)
        a = a * (0.9 / nrm)
        rep = modular_chain_check(J, power(1.0), power(2.0), a)
        direct = trace(apply_function(power(2.0), a)).real
        for v in rep.values:
            assert v == pytest.approx(direct, rel=1e-12)

    def test_doubling_sandwich_equals_double_trace(self):
        J = doubling_morphism(2)
        rng = np.random.default_rng(10)
        a = random_self_adjoint(J.source, rng)
        phi1 = compose_orlicz(power_over_p(2.0), power(2.0))
        nrm = luxemburg_norm(singular_values(a), phi1)
        a = a * (0.9 / nrm)
        rep = modular_chain_check(J, power_over_p(2.0), power(2.0), a)
        double = 2.0 * trace(apply_function(power(2.0), a)).real
        assert rep.values[3] == pytest.approx(double, rel=1e-10)
        assert rep.passed

    def test_density_computed_once(self, monkeypatch):
        J = doubling_morphism(2)
        rng = np.random.default_rng(11)
        a = random_self_adjoint(J.source, rng)
        phi1 = compose_orlicz(power_over_p(2.0), power(2.0))
        a = a * (0.9 / luxemburg_norm(singular_values(a), phi1))
        want = morphisms.dual_gauge_bound(J, power_over_p(2.0))
        calls = []
        real = morphisms.radon_nikodym
        monkeypatch.setattr(morphisms, "radon_nikodym",
                            lambda m: calls.append(m) or real(m))
        rep = modular_chain_check(J, power_over_p(2.0), power(2.0), a)
        assert len(calls) == 1
        assert rep.dual_bound == want
        assert rep.passed

    def test_hypothesis_violation_reported(self):
        J = transpose_morphism(2)
        big = J.source.diagonal([[50.0, 40.0]])  # far outside the unit ball
        rep = modular_chain_check(J, power(1.0), power(2.0), big)
        assert not rep.hypothesis_ok and not rep.passed


def _probe_by_probe(J, psi, phi2, probes, tol=1e-7):
    """composition_bound_check as it ran before batching: two solves per probe."""
    phi1 = compose_orlicz(psi, phi2)
    bound = max(1.0, morphisms.dual_gauge_bound(J, psi))
    max_ratio, used = 0.0, 0
    for a in probes:
        nrm = luxemburg_norm(singular_values(a), phi1)
        if nrm == 0.0:
            continue
        image = apply_jordan(J, a * (0.9 / nrm))
        max_ratio = max(max_ratio, luxemburg_norm(singular_values(image), phi2))
        used += 1
    return bound, max_ratio, used, max_ratio <= bound + tol * max(1.0, bound)


def _excess_probe_by_probe(T, phi, probes):
    """The contraction check's norm excess and submajorization, one probe at a time."""
    bound = max(T.adjoint_apply(T.target.identity()).sup_norm(),
                T.apply(T.source.identity()).sup_norm())
    worst, sub_ok = -math.inf, True
    for a in probes:
        mu_a = singular_values(a)
        mu_img = singular_values(T.apply(a))
        if bound > 0:
            sub_ok = sub_ok and submajorizes(mu_a, mu_img.scaled(1.0 / bound))
        worst = max(worst, luxemburg_norm(mu_img, phi) - bound * luxemburg_norm(mu_a, phi))
    return worst, sub_ok


def _first_error(run, items):
    for item in items:
        try:
            run(item)
        except Exception as exc:  # noqa: BLE001 - compared by class and message
            return exc
    return None


def _nan_above_a_million():
    return custom(lambda u: u * u if u < 1e6 else math.nan, name="nan_above_a_million")


class TestBatchedChecks:
    """The batched composition and chain checks equal their one-form loops bit for bit."""

    _PAIRS = [(power(1.0), power(2.0)), (power_over_p(2.0), cosh_minus_one()),
              (power(2.0), linear_until_cap(1.0))]

    def test_composition_bound_is_the_probe_loop(self):
        rng = np.random.default_rng(15)
        for _, J in morphism_catalog(rng):
            for psi, phi2 in self._PAIRS:
                probes = [random_self_adjoint(J.source, rng) for _ in range(4)]
                probes.insert(2, J.source.zero())
                rep = composition_bound_check(J, psi, phi2, probes)
                assert (rep.bound, rep.max_ratio, rep.samples, rep.passed) == \
                    _probe_by_probe(J, psi, phi2, probes)

    def test_modular_chain_is_the_element_loop(self):
        rng = np.random.default_rng(16)
        for _, J in morphism_catalog(rng):
            for psi, phi2 in self._PAIRS:
                phi1 = compose_orlicz(psi, phi2)
                elements = []
                for scale in (0.9, 0.5, 3.0, 0.0):  # 3.0 leaves the unit ball
                    a = random_self_adjoint(J.source, rng)
                    nrm = luxemburg_norm(singular_values(a), phi1)
                    elements.append(a * (scale / nrm))
                elements.append(random_element(J.source, rng) * 1e-3)  # not self-adjoint
                got = modular_chain_checks(J, psi, phi2, elements)
                # reports holding NaN compare by repr, which keeps every bit of a float
                assert [repr(r) for r in got] == \
                    [repr(modular_chain_check(J, psi, phi2, a)) for a in elements]
                assert modular_chain_checks(J, psi, phi2, []) == []

    def test_composition_bound_errors_follow_the_probe_order(self):
        # probe `image_nan` meets NaN in its image solve (target weight 1e-14
        # sends the walk past 1e6), probe `unbounded` fails its source solve
        # (source weight 1e130); a batch of source solves would meet the
        # second first
        source = TracedAlgebra((1, 1), (1.0, 1e130))
        target = TracedAlgebra((1, 1), (1e-14, 1.0))
        J = JordanMorphism(source, target, (BlockImage((Assignment(0),)),
                                            BlockImage((Assignment(1),))))
        image_nan = source.diagonal([[1.0], [0.0]])
        unbounded = source.diagonal([[0.0], [1.0]])
        psi, phi2 = power(1.0), _nan_above_a_million()
        for probes in ([image_nan, unbounded], [unbounded, image_nan],
                       [source.zero(), image_nan, unbounded]):
            want = _first_error(lambda a: _probe_by_probe(J, psi, phi2, [a]), probes)
            with pytest.raises(type(want)) as got:
                composition_bound_check(J, psi, phi2, probes)
            assert str(got.value) == str(want)
        assert isinstance(_first_error(lambda a: _probe_by_probe(J, psi, phi2, [a]),
                                       [image_nan]), NumericError)

    def test_modular_chain_errors_follow_the_element_order(self):
        # the density 1e70 on source block 0 has no finite conjugate Amemiya
        # norm, which the chain of `dual_fails` reaches after its routes; the
        # source solve of `unbounded` (weight 1e130) fails before any route
        source = TracedAlgebra((1, 1), (1e-70, 1e130))
        target = TracedAlgebra((1, 1), (1.0, 1.0))
        J = JordanMorphism(source, target, (BlockImage((Assignment(0),)),
                                            BlockImage((Assignment(1),))))
        dual_fails = source.diagonal([[1e34], [0.0]])  # composed-gauge norm 0.1
        unbounded = source.diagonal([[0.0], [1.0]])
        psi, phi2 = power(1.0), power(2.0)
        for elements in ([dual_fails, unbounded], [unbounded, dual_fails]):
            want = _first_error(lambda a: modular_chain_check(J, psi, phi2, a), elements)
            with pytest.raises(type(want)) as got:
                modular_chain_checks(J, psi, phi2, elements)
            assert str(got.value) == str(want)
        assert "Amemiya" in str(_first_error(lambda a: modular_chain_check(J, psi, phi2, a),
                                             [dual_fails, unbounded]))

    def test_interpolation_contraction_is_the_probe_loop(self):
        rng = np.random.default_rng(17)
        for _, T in positive_map_catalog(rng):
            for phi in (power(2.0), cosh_minus_one(), linear_until_cap(1.0)):
                probes = [random_self_adjoint(T.source, rng) for _ in range(4)]
                probes.insert(1, T.source.zero())
                rep = interpolation_contraction_check(T, phi, [], probes)
                assert (rep.max_norm_excess, rep.submajorization_ok) == \
                    _excess_probe_by_probe(T, phi, probes)

    def test_interpolation_errors_follow_the_probe_order(self):
        # probe `image_nan` meets NaN in its image solve (target weight 1e-14),
        # probe `unbounded` fails its source solve (source weight 1e130); one
        # solve over all images, then all sources, would meet the first first
        source = TracedAlgebra((1, 1), (1.0, 1e130))
        target = TracedAlgebra((1, 1), (1e-14, 1.0))
        T = PositiveMap(source, target, (KrausGroup(0, 0, (np.eye(1),)),
                                         KrausGroup(1, 1, (np.eye(1),))))
        image_nan = source.diagonal([[1.0], [0.0]])
        unbounded = source.diagonal([[0.0], [1.0]])
        phi = _nan_above_a_million()
        for probes in ([image_nan, unbounded], [unbounded, image_nan],
                       [source.zero(), unbounded, image_nan]):
            want = _first_error(lambda a: _excess_probe_by_probe(T, phi, [a]), probes)
            with pytest.raises(type(want)) as got:
                interpolation_contraction_check(T, phi, [], probes)
            assert str(got.value) == str(want)
        assert isinstance(_first_error(lambda a: _excess_probe_by_probe(T, phi, [a]),
                                       [unbounded, image_nan]), UnboundedNormError)


class TestTauT:
    def test_kernel_projection_is_built_once(self):
        for name, J in morphism_catalog(np.random.default_rng(1)):
            e = J.kernel_projection
            assert e is J.kernel_projection, name
            kernel = {"kernel_drop": [1], "zero": [0]}.get(name, [])
            want = [np.eye(n) if j in kernel else np.zeros((n, n))
                    for j, n in enumerate(J.source.dims)]
            assert all(np.array_equal(b, w) for b, w in zip(e.blocks, want)), name

    def test_transpose_recovers_source_trace(self):
        J = transpose_morphism(2)
        tau_T = TauT(J)
        rng = np.random.default_rng(11)
        a = random_element(J.source, rng)
        assert abs(tau_T(a) - trace(a)) < 1e-12

    def test_doubling_doubles(self):
        J = doubling_morphism(2)
        tau_T = TauT(J)
        rng = np.random.default_rng(12)
        p = random_positive(J.source, rng)
        assert tau_T(p).real == pytest.approx(2.0 * trace(p).real)
        pulled = trace(apply_jordan(J, p)).real
        assert pulled <= tau_T(p).real + 1e-12

    def test_kernel_morphism_still_faithful(self):
        J = kernel_morphism()
        tau_T = TauT(J)
        killed = J.source.element([np.zeros((2, 2)), np.eye(2)])
        assert trace(apply_jordan(J, killed)).real == pytest.approx(0.0)
        assert tau_T(killed).real == pytest.approx(2.0)  # the patched trace sees it

    def test_traciality_and_domination_across_catalog(self):
        rng = np.random.default_rng(13)
        for name, J in morphism_catalog(rng):
            tau_T = TauT(J)
            a = random_element(J.source, rng)
            assert abs(tau_T(a.adjoint() @ a) - tau_T(a @ a.adjoint())) < 1e-10, name
            p = random_positive(J.source, rng)
            assert tau_T(p).real > 0, name
            assert trace(apply_jordan(J, p)).real <= tau_T(p).real + 1e-10, name


class TestInterpolation:
    def test_pinching_contracts(self):
        rng = np.random.default_rng(14)
        T = pinching_map(3)
        for phi in (power(2.0), cosh_minus_one()):
            rep = _contraction(T, phi, rng, 10)
            assert rep.bound == pytest.approx(1.0)
            assert rep.passed

    def test_pinching_submajorization_oracle(self):
        # diagonal pinching never spreads head integrals
        T = pinching_map(3)
        rng = np.random.default_rng(15)
        for _ in range(10):
            a = random_self_adjoint(T.source, rng)
            mu_a = singular_values(a)
            mu_p = singular_values(T.apply(a))
            assert submajorizes(mu_a, mu_p)

    def test_scaled_identity_equality_case(self):
        rng = np.random.default_rng(16)
        T = scaled_identity_map(2.0, 2)
        rep = _contraction(T, power(2.0), rng, 10)
        assert rep.trace_constant == pytest.approx(2.0)
        assert rep.unital_constant == pytest.approx(2.0)
        assert abs(rep.max_norm_excess) < 1e-9  # homogeneity makes it exact
        assert rep.passed

    def test_random_channels_contract(self):
        rng = np.random.default_rng(17)
        for T in (mixed_unitary_map(rng, 3), random_trace_preserving_map(rng, 3)):
            rep = _contraction(T, cosh_minus_one(), rng, 10)
            assert rep.passed


class TestPurity:
    def test_isometry_compression_is_pure(self):
        rng = np.random.default_rng(18)
        assert purity_check(isometry_compression_map(rng)) is True

    def test_identity_channel_is_pure(self):
        assert purity_check(identity_channel(2)) is True

    def test_depolarizing_is_not(self):
        T = depolarizing_map(2)
        assert purity_check(T) is False
        eigs = np.linalg.eigvalsh(T.choi_matrix())
        np.testing.assert_allclose(eigs, 0.5, atol=1e-12)  # Choi rank four

    def test_non_cp_flag_rejected(self):
        T = depolarizing_map(2)
        flagged = type(T)(T.source, T.target, T.groups, cp=False)
        with pytest.raises(DomainError):
            purity_check(flagged)


def _choi_by_matrix_units(T):
    """The Choi matrix by its definition: block (i, j) of size m is T(E_ij)."""
    n, m = T.source.dims[0], T.target.dims[0]
    choi = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            eij = np.zeros((n, n), dtype=complex)
            eij[i, j] = 1.0
            choi[i * m:(i + 1) * m, j * m:(j + 1) * m] = T.apply(T.source.element([eij])).blocks[0]
    return choi


class TestChoi:
    def test_kraus_form_matches_the_matrix_units(self):
        maps = [*positive_map_catalog(np.random.default_rng(1)),
                ("identity_channel", identity_channel(2))]
        for name, T in maps:
            assert T.source.n_blocks == T.target.n_blocks == 1, name
            got = T.choi_matrix()
            want = _choi_by_matrix_units(T)
            assert got.shape == want.shape, name
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=name)


class TestTransposeRoute:
    """A positive map that is not completely positive: a -> a^T."""

    def _map(self):
        alg = TracedAlgebra((2,), (1.0,))
        group = KrausGroup(0, 0, (np.eye(2, dtype=complex),), transpose=True)
        return PositiveMap(alg, alg, (group,), cp=False)

    def test_adjoint_consistency(self):
        T = self._map()
        rng = np.random.default_rng(19)
        a = random_element(T.source, rng)
        b = random_element(T.target, rng)
        lhs = trace(T.apply(a) @ b)
        rhs = trace(a @ T.adjoint_apply(b))
        assert abs(lhs - rhs) < 1e-12

    def test_contraction_still_holds(self):
        T = self._map()
        rng = np.random.default_rng(20)
        rep = _contraction(T, power(2.0), rng, 8)
        assert rep.bound == pytest.approx(1.0)
        assert rep.passed

    def test_choi_matrix_refused(self):
        with pytest.raises(DomainError):
            self._map().choi_matrix()
