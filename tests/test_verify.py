"""Properties of the verification checks that their reports do not show."""

import pytest

import ncorlicz.norms as norms
from ncorlicz.verify import CHECKS, SuiteConfig, _rng_for


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
