"""Acceptance criteria at contract scale: one pass/fail line per criterion.

Each test drives the corresponding named check from the verification registry
at its full sample count and stated tolerance, then prints a summary line.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
"""

import json
import time

from ncorlicz.verify import CHECKS, SuiteConfig, _rng_for, run_suite

CFG = SuiteConfig(seed=0, scale=1.0)


def _run(criterion: int, check_name: str, description: str,
         max_seconds: float | None = None):
    rng = _rng_for(CFG, check_name)
    start = time.time()
    result = CHECKS[check_name](CFG, rng)
    elapsed = time.time() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion-{criterion:02d} [{check_name}] "
          f"samples={result.samples} worst_slack={result.worst_slack:.3g} "
          f"elapsed={elapsed:.1f}s :: {description}")
    assert result.passed, f"criterion {criterion}: {description} (slack {result.worst_slack})"
    if max_seconds is not None:
        assert elapsed < max_seconds, f"criterion {criterion} runtime {elapsed:.1f}s"
    return result


def test_criterion_01_norm_definition_equivalence():
    r = _run(1, "kunze_luxemburg_equivalence",
             "trace-modular norm equals rearrangement norm, rel 1e-7, "
             ">=200 elements x 5 gauges across >=5 shapes, under 30 s",
             max_seconds=30.0)
    assert r.samples >= 200 * 5


def test_criterion_02_rearrangement_exchange():
    r = _run(2, "rearrangement_exchange",
             "gauge of singular values matches singular values of the gauge "
             "image to 1e-10, including a finite-cap gauge")
    assert r.samples >= 200


def test_criterion_03_pairing_inequality():
    r = _run(3, "holder_pairing",
             "pairing bound on 500 pairs x 3 gauges, slack 1e-8; quadratic "
             "case matches the trace 2-norm to 1e-7")
    assert r.samples >= 500 * 3


def test_criterion_04_weighted_space_is_normed():
    r = _run(4, "weighted_norm_axioms",
             "triangle inequality and absolute homogeneity of the weighted "
             "norm, 300 pairs over 3 weights, zero violations")
    assert r.samples >= 300


def test_criterion_05_weighted_rearrangement_identity():
    r = _run(5, "weighted_rearrangement_identity",
             "decreasing step data are fixed points of the weighted "
             "rearrangement, exact to 1e-10, 100 instances")
    assert r.samples >= 100


def test_criterion_06_regular_membership_equivalence():
    r = _run(6, "pistone_sempi_catalog",
             "exponential-moment and norm membership agree over >=8 pairs "
             "spanning bounded / log / power / reciprocal x exp / step")
    assert r.samples >= 8
    rows = r.details["rows"]
    assert any(row["expected"] for row in rows)
    assert any(not row["expected"] for row in rows)


def test_criterion_07_quasi_trace_suite():
    r = _run(7, "quasi_trace_suite",
             "pairing is subadditive, homogeneous, tracial, faithful, "
             "monotone-continuous; identity pairing exact, 200 instances")
    assert r.samples >= 200


def test_criterion_08_moment_chain():
    r = _run(8, "moment_chain",
             "tr(x y^n) <= 2n * pairing of mu(y)^n with mu(x) for "
             "n in {1,2,3,5} on 200 positive pairs")
    assert r.samples >= 200 * 4


def test_criterion_09_threshold_bound_suite():
    r = _run(9, "gauge_threshold_bounds",
             "largest-zero and cap inequalities against the sup norm plus the "
             "shrinking-scaling trace bound, 200 elements, slack 1e-8")
    assert r.samples >= 200


def test_criterion_10_projection_norm_formula():
    r = _run(10, "projection_norm_formula",
             "formula value vs bisection oracle within 1e-8 on 50 "
             "projection/gauge combinations")
    assert r.samples >= 50


def test_criterion_11_composition_bound():
    r = _run(11, "composition_bound",
             ">=10 morphisms x >=5 gauge pairs: unit-ball self-adjoint images "
             "stay under max(1, dual-gauge density norm) with slack 1e-7; "
             "modular chain equalities to 1e-9")
    assert r.details["max_chain_gap"] <= 1e-9


def test_criterion_12_dominating_trace():
    _run(12, "tau_T_construction",
         "the kernel-patched pulled-back trace is tracial, faithful and "
         "dominates the pulled-back trace on every catalog morphism")


def test_criterion_13_interpolation_contraction():
    r = _run(13, "interpolation_contraction",
             "norm contraction and submajorization under positive maps, "
             "300 samples over >=5 maps including a pinching")
    assert r.samples >= 300


def test_criterion_14_determinism_and_runtime():
    start = time.time()
    rep1 = run_suite(CFG)
    one_pass = time.time() - start
    rep2 = run_suite(CFG)
    identical = json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    status = "PASS" if (identical and rep1["all_pass"] and one_pass < 300) else "FAIL"
    print(f"{status} criterion-14 [determinism] suite wall-clock {one_pass:.1f}s, "
          f"byte-identical reruns: {identical}")
    assert identical, "same-seed suite reports differ"
    assert rep1["all_pass"], "full suite must be green"
    assert one_pass < 300.0, f"suite took {one_pass:.1f}s, budget is 5 minutes"
