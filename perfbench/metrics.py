"""Metric names, units and how each is computed from a run.

End-to-end metrics come from untraced runs. Per-layer metrics come from the
traced run and are given per round, the workload's whole input set run once,
so a count repeats exactly between traced runs of one seed.
"""

from __future__ import annotations

import statistics

import oracles

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# The registered checks verify_suite runs: all but weighted_rearrangement_identity,
# which fails on some seeds (16 and 25 among 0..39; see CHANGES.md).
VERIFY_CHECKS = (
    "amemiya_sandwich", "commutative_reweighting_isometry", "composed_gauge_norm_bound",
    "composition_bound", "delta2_norm_finiteness", "fack_kosaki", "gauge_threshold_bounds",
    "holder_pairing", "interpolation_contraction", "jordan_structure",
    "kunze_luxemburg_equivalence", "modular_at_norm", "moment_chain",
    "orlicz_function_laws", "pistone_sempi_catalog", "projection_norm_formula",
    "purity_detection", "quasi_trace_suite", "rearrangement_exchange",
    "rearrangement_laws", "tau_T_construction", "weighted_norm_axioms",
)

CALLS, MS = "count/round", "ms/round"

PER_LAYER = (
    ("orlicz.eval_many.calls", CALLS),
    ("orlicz.eval_many.self_ms", MS),
    ("orlicz.formal_inverse.calls", CALLS),
    ("orlicz.conjugate.calls", CALLS),
    ("rearrangement.singular_values.calls", CALLS),
    ("rearrangement.singular_values.self_ms", MS),
    ("rearrangement.F.calls", CALLS),
    ("rearrangement.piece_masses.self_ms", MS),
    ("algebra.apply_function.calls", CALLS),
    ("algebra.apply_function.self_ms", MS),
    ("algebra.trace.calls", CALLS),
    ("norms.modular.calls", CALLS),
    ("norms.modular.self_ms", MS),
    ("norms.luxemburg_norm.calls", CALLS),
    ("norms.luxemburg_norm.ms", MS),
    ("norms.modular_per_luxemburg", "ratio"),
    ("norms.kunze_norm.ms", MS),
    ("norms.apply_function_per_kunze", "ratio"),
    ("norms.amemiya_norm.ms", MS),
    ("norms.modular_per_amemiya", "ratio"),
    ("norms.laplace_probe.calls", CALLS),
    ("norms.laplace_probe.ms", MS),
    ("quadrature.integrate_sentinel.calls", CALLS),
    ("quadrature.integrate_sentinel.self_ms", MS),
    ("quadrature.head_diverges.calls", CALLS),
    ("quadrature.head_diverges.self_ms", MS),
    ("morphisms.apply_jordan.calls", CALLS),
    ("morphisms.apply_jordan.self_ms", MS),
    ("morphisms.radon_nikodym.calls", CALLS),
    ("morphisms.dual_gauge_bound.calls", CALLS),
    ("morphisms.dual_gauge_bound.ms", MS),
    ("sampling.self_ms", MS),
    ("loaders.load_json_file.calls", CALLS),
    ("cli.main.self_ms", MS),
) + tuple((f"verify.{c}.ms", MS) for c in VERIFY_CHECKS) + (
    ("trace.overhead_ratio", "ratio"),
)

# ratio metric -> (inner span, outer span): inner calls made inside the outer
# span, per call of the outer span
RATIOS = {
    "norms.modular_per_luxemburg": ("norms.modular", "norms.luxemburg_norm"),
    "norms.apply_function_per_kunze": ("algebra.apply_function", "norms.kunze_norm"),
    "norms.modular_per_amemiya": ("norms.modular", "norms.amemiya_norm"),
}


def end_to_end(setups, rounds, latencies, peak_rss_kb) -> dict:
    """setups and rounds in seconds, latencies of successful operations in seconds."""
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": oracles.midmean(rounds),
        "latency_p50_ms": 1e3 * oracles.percentile(latencies, 50),
        "latency_p90_ms": 1e3 * oracles.percentile(latencies, 90),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(totals: dict, nested: dict, rounds: int, overhead: float) -> dict:
    """totals: span name -> (calls, inclusive s, self s), summed over ``rounds``."""
    def get(name):
        return totals.get(name, (0, 0.0, 0.0))

    values = {}
    for name, _ in PER_LAYER:
        if name in RATIOS:
            inner, outer = RATIOS[name]
            outer_calls = get(outer)[0]
            values[name] = nested[(inner, outer)] / outer_calls if outer_calls else 0.0
        elif name == "sampling.self_ms":
            values[name] = 1e3 * sum(v[2] for k, v in totals.items()
                                     if k.startswith("sampling.")) / rounds
        elif name == "trace.overhead_ratio":
            values[name] = overhead
        else:
            span, kind = name.rsplit(".", 1)
            calls, inclusive, self_s = get(span)
            values[name] = {"calls": calls, "ms": 1e3 * inclusive,
                            "self_ms": 1e3 * self_s}[kind] / rounds
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
