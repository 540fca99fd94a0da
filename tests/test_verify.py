"""Properties of the verification checks that their reports do not show, and of
the many-form calls their corpora go through."""

import math

import numpy as np
import pytest
from numpy.linalg._linalg import _umath_linalg

import ncorlicz.norms as norms
from ncorlicz import (
    AlgebraElement,
    apply_function,
    apply_function_many,
    custom,
    fack_kosaki_checks,
    moment_bound_check,
    moment_bound_checks,
    singular_values,
    singular_values_many,
)
from ncorlicz.sampling import algebra_shapes, random_element, random_positive, random_state
from ncorlicz.verify import CHECKS, SuiteConfig, _clip_spectra, _rng_for


def _passes(monkeypatch, name: str, scale: float) -> tuple[int, int]:
    """Solver passes of one check run, and the solve groups they served.

    A pass is one ``_step_modular`` or ``_trace_calculus`` call: one numpy
    evaluation of a whole group of rows.  A group is the rows one solve
    evaluates together: the step forms of one piece count under one gauge,
    or the elements of one algebra.
    """
    calls, groups = [0], set()
    step, trace = norms._step_modular, norms._trace_calculus

    def counted_step(values, masses, phi, inv_scales):
        calls[0] += 1
        groups.add(("step", id(phi), values.shape[1]))
        return step(values, masses, phi, inv_scales)

    def counted_trace(alg, phi, svd, scales):
        calls[0] += 1
        groups.add(("trace", id(phi), alg))
        return trace(alg, phi, svd, scales)

    monkeypatch.setattr(norms, "_step_modular", counted_step)
    monkeypatch.setattr(norms, "_trace_calculus", counted_trace)
    cfg = SuiteConfig(seed=3, scale=scale)
    CHECKS[name](cfg, _rng_for(cfg, name))
    return calls[0], len(groups)


@pytest.mark.parametrize("name", ["holder_pairing", "kunze_luxemburg_equivalence"])
def test_passes_do_not_grow_with_the_corpus(monkeypatch, name):
    # twice the corpus: one solve per group, so the passes stay put; a
    # group's slowest row may take one more round, and new piece counts
    # bring new groups.  A loop over the elements would double them.
    small, small_groups = _passes(monkeypatch, name, 0.05)
    large, large_groups = _passes(monkeypatch, name, 0.1)
    assert large <= small + large_groups + (large_groups - small_groups) * small / small_groups


def test_seeds_do_not_depend_on_the_registry(monkeypatch):
    # a new check that sorts before every other re-seeds none of them
    cfg = SuiteConfig(seed=5)
    before = {name: _rng_for(cfg, name).random(3).tolist() for name in CHECKS}
    monkeypatch.setitem(CHECKS, "a_check_sorting_first", lambda cfg, rng: None)
    assert {name: _rng_for(cfg, name).random(3).tolist() for name in before} == before


def test_composition_bound_solves_each_dual_norm_once(monkeypatch):
    # the density's conjugate Amemiya norm is one minimize per morphism and
    # gauge pair, shared by the bound and the chain: 10 morphisms x 5 pairs,
    # less the 5 pairs of the zero morphism, whose density needs no solve
    calls, real = [0], norms.minimize

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(norms, "minimize", counted)
    cfg = SuiteConfig(seed=1, scale=0.05)
    CHECKS["composition_bound"](cfg, _rng_for(cfg, "composition_bound"))
    assert calls[0] == 45


# every LAPACK singular-value and eigenvalue routine numpy.linalg calls
_DECOMPOSITIONS = ("svd", "svd_f", "svd_s", "eigh_lo", "eigh_up", "eigvalsh_lo", "eigvalsh_up")


def _decompositions(monkeypatch, run) -> tuple[int, int]:
    """Decomposition calls of ``run()``, and the kinds of matrix they served.

    A call is one ``numpy.linalg`` gufunc call, which decomposes a whole
    stack of matrices (``np.linalg.norm(b, 2)`` and ``svd`` alike).  A kind
    is the routine and the matrix size.
    """
    calls, kinds = [0], set()
    with monkeypatch.context() as patch:
        for routine in _DECOMPOSITIONS:
            def counted(a, *args, _real=getattr(_umath_linalg, routine), _routine=routine,
                        **kwargs):
                calls[0] += 1
                kinds.add((_routine, a.shape[-1]))
                return _real(a, *args, **kwargs)

            patch.setattr(_umath_linalg, routine, counted)
        run()
    return calls[0], len(kinds)


def _check_decompositions(monkeypatch, name: str, scale: float) -> tuple[int, int]:
    """``_decompositions`` of one run of the check ``name`` at seed 3."""
    cfg = SuiteConfig(seed=3, scale=scale)
    return _decompositions(monkeypatch, lambda: CHECKS[name](cfg, _rng_for(cfg, name)))


@pytest.mark.parametrize("name, small_scale, large_scale", [
    ("gauge_threshold_bounds", 0.05, 0.1),
    ("holder_pairing", 0.05, 0.1),
    ("kunze_luxemburg_equivalence", 0.05, 0.1),
    ("moment_chain", 0.05, 0.1),
    ("quasi_trace_suite", 0.05, 0.1),
    ("rearrangement_exchange", 0.05, 0.1),
    ("weighted_norm_axioms", 0.05, 0.1),
    # max(2, count(6)) probes per morphism and gauge pair: 2 at both 0.05
    # and 0.1, which would leave nothing to compare; 3 at 0.5 and 6 at 1
    ("composition_bound", 0.5, 1.0),
])
def test_decompositions_do_not_grow_with_the_corpus(monkeypatch, name, small_scale,
                                                    large_scale):
    # twice the corpus, and every algebra of the catalog in both: one
    # stacked decomposition per algebra and block, so the calls stay put;
    # a kind of matrix new at the larger scale may bring its share.  A loop
    # over the elements would double them.
    small, small_kinds = _check_decompositions(monkeypatch, name, small_scale)
    large, large_kinds = _check_decompositions(monkeypatch, name, large_scale)
    assert large <= small + (large_kinds - small_kinds) * small / small_kinds


def test_fack_kosaki_decomposes_once_per_block(monkeypatch):
    # the six elements of the check share one stacked decomposition per block
    alg = algebra_shapes()[2]
    rng = np.random.default_rng(5)
    f, g = random_element(alg, rng), random_element(alg, rng)
    calls, _ = _decompositions(monkeypatch, lambda: fack_kosaki_checks(f, g))
    assert calls == alg.n_blocks


def _clip_one_block(block, cap):
    """A block with its spectrum capped, as it was computed before stacking."""
    w, v = np.linalg.eigh(0.5 * (block + block.conj().T))
    return v @ np.diag(np.minimum(w, cap)) @ v.conj().T


def test_stacked_spectral_caps_are_the_block_loop():
    rng = np.random.default_rng(18)
    for alg in algebra_shapes():
        elements = [random_positive(alg, rng) for _ in range(9)] + [alg.identity(), alg.zero()]
        caps = rng.uniform(0.0, 3.0, size=(len(elements), 6))
        got = _clip_spectra(alg, elements, caps)
        want = [[_clip_one_block(b, cap) for b in a.blocks] for a, row in zip(elements, caps)
                for cap in row]
        assert [[b.tolist() for b in e.blocks] for e in got] == \
            [[b.tolist() for b in blocks] for blocks in want]


def _interleaved(make, rng, per: int = 3) -> list:
    """``per`` draws of ``make(alg, rng)`` for each catalog shape, the shapes interleaved."""
    shapes = algebra_shapes()
    return [make(shapes[i % len(shapes)], rng) for i in range(per * len(shapes))]


def _plain(result):
    """An element as its blocks' lists, so results compare with ``==``; else as it is."""
    return [b.tolist() for b in result.blocks] if isinstance(result, AlgebraElement) else result


def _first_error(one, items):
    """The error the one-form loop over ``items`` raises first."""
    for item in items:
        try:
            one(item)
        except Exception as exc:  # noqa: BLE001 - compared by class and message
            return exc
    raise AssertionError("the loop raises nothing")


class TestMixedCorpora:
    """Many-form calls over a corpus that interleaves the six catalog shapes."""

    ORDERS = (1, 2, 3)
    # t^2 below 3, NaN from 3 on and +inf from 5 on
    GAUGE = custom(lambda u: u * u if u < 3.0 else (math.nan if u < 5.0 else math.inf))

    def _calls(self, rng) -> list:
        """(many-form call, one-form call, items) of each many-form call."""
        return [
            (singular_values_many, singular_values,
             _interleaved(random_element, rng)),
            (lambda es: apply_function_many(self.GAUGE, es, 0.1),
             lambda a: apply_function(self.GAUGE, a, 0.1), _interleaved(random_element, rng)),
            (lambda pairs: moment_bound_checks([x for x, _ in pairs], [y for _, y in pairs],
                                               self.ORDERS),
             lambda p: [moment_bound_check(*p, n) for n in self.ORDERS],
             list(zip(_interleaved(random_state, rng), _interleaved(random_positive, rng)))),
        ]

    def test_results_are_the_one_form_loop(self):
        for many, one, items in self._calls(np.random.default_rng(25)):
            assert [_plain(r) for r in many(items)] == [_plain(one(item)) for item in items]

    def test_errors_are_the_first_of_the_loop(self):
        rng = np.random.default_rng(26)
        shapes = algebra_shapes()
        (svd, one_svd, elements), (apply, one_apply, _), (moments, one_moment, pairs) = \
            self._calls(rng)
        nan = shapes[0].element([np.full((3, 3), math.nan)])
        (x, y), (x4, y4) = pairs[0], pairs[4]
        cases = [
            (svd, one_svd, elements[:2] + [nan] + elements[2:]),
            # +inf in one algebra and NaN in another, in either order
            (apply, one_apply, elements[:2] + [shapes[1].identity() * 60.0] + elements[2:7]
             + [shapes[4].identity() * 40.0] + elements[7:]),
            (apply, one_apply, elements[:2] + [shapes[4].identity() * 40.0] + elements[2:7]
             + [shapes[1].identity() * 60.0] + elements[7:]),
            # a trace of three, a pair of two algebras and an indefinite y, in turn
            (moments, one_moment, pairs[:2] + [(x * 3.0, y), (x, pairs[1][1]), (x4, -y4)]),
            (moments, one_moment, pairs[:2] + [(x4, -y4), (x * 3.0, y), (x, pairs[1][1])]),
            (moments, one_moment, pairs[:2] + [(x, pairs[1][1]), (x4, -y4), (x * 3.0, y)]),
        ]
        for many, one, items in cases:
            want = _first_error(one, items)
            with pytest.raises(type(want)) as got:
                many(items)
            assert str(got.value) == str(want)

    def test_one_stacked_decomposition_per_algebra_and_block(self, monkeypatch):
        for many, _, items in self._calls(np.random.default_rng(27)):
            whole, _ = _decompositions(monkeypatch, lambda: many(items))
            # the whole corpus costs what one item of each algebra costs
            each = [_decompositions(monkeypatch, lambda: many([item]))[0]
                    for item in items[:len(algebra_shapes())]]
            assert whole == sum(each)
