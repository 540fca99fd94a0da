"""Properties of the verification checks that their reports do not show."""

import numpy as np
import pytest
from numpy.linalg._linalg import _umath_linalg

import ncorlicz.norms as norms
from ncorlicz.sampling import algebra_shapes, random_positive
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


def _decompositions(monkeypatch, name: str, scale: float) -> tuple[int, int]:
    """Decomposition calls of one check run, and the kinds of matrix they served.

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
        cfg = SuiteConfig(seed=3, scale=scale)
        CHECKS[name](cfg, _rng_for(cfg, name))
    return calls[0], len(kinds)


@pytest.mark.parametrize("name, small_scale, large_scale", [
    ("moment_chain", 0.05, 0.1),
    ("quasi_trace_suite", 0.05, 0.1),
    ("rearrangement_exchange", 0.05, 0.1),
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
    small, small_kinds = _decompositions(monkeypatch, name, small_scale)
    large, large_kinds = _decompositions(monkeypatch, name, large_scale)
    assert large <= small + (large_kinds - small_kinds) * small / small_kinds


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
