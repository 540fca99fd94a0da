"""Closed forms and statistics the benchmark checks ncorlicz against.

Nothing here imports ncorlicz: every expected value is computed with numpy
and scipy from the same seeded inputs the program receives, so a check
compares two independent routes rather than today's output with itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

REL_TOL = 1e-7          # the program bisects to relative 1e-9; allow 100x
QUADRATURE_RTOL = 1e-8  # the README's trust level for quadrature paths
MODULAR_SLACK = 1e-9    # the program's absolute slack at the modular <= 1 boundary


def close(a: float, b: float, rtol: float = REL_TOL) -> bool:
    """|a - b| <= rtol * max(1, |a|, |b|); infinities must match exactly."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank must lie in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return float(xs[rank - 1])


def midmean(values) -> float:
    """Mean of the middle half: drop the lowest and highest quarter, average the rest."""
    xs = sorted(values)
    if not xs:
        raise ValueError("midmean of no samples")
    k = len(xs) // 4
    return float(np.mean(xs[k:len(xs) - k]))


# ---------------------------------------------------------------------------
# Singular values and unweighted norms of block elements
# ---------------------------------------------------------------------------

def spectrum(blocks, weights):
    """Singular values of a block element with their trace weights.

    Uses eigvalsh(a* a), a different decomposition from the program's SVD.
    """
    sv, dur = [], []
    for b, w in zip(blocks, weights):
        ev = np.linalg.eigvalsh(b.conj().T @ b)
        sv.append(np.sqrt(np.clip(ev, 0.0, None)))
        dur.append(np.full(ev.shape, float(w)))
    return np.concatenate(sv), np.concatenate(dur)


def power_integral(s, d, p: float) -> float:
    """sum_i d_i s_i^p, the modular of the power gauge at scaling 1."""
    return float(np.dot(d, np.power(s, p)))


def luxemburg_power(s, d, p: float) -> float:
    """Luxemburg norm for phi(t) = t^p: (sum_i d_i s_i^p)^(1/p)."""
    return power_integral(s, d, p) ** (1.0 / p)


def luxemburg_linear_cap(s, d, cap: float = 1.0) -> float:
    """Luxemburg norm for phi(t) = t on [0, cap], +inf beyond.

    The modular at 1/lam is finite only when s_max / lam <= cap, and then
    equals sum_i d_i s_i / lam; both constraints give max(s_max / cap, I).
    """
    return max(float(np.max(s)) / cap, float(np.dot(d, s)))


def amemiya_power(s, d, p: float) -> float:
    """Amemiya norm inf_k (1 + k^p I) / k for phi(t) = t^p.

    For p > 1 the minimiser k^p = 1 / ((p - 1) I) gives p / (p - 1) *
    ((p - 1) I)^(1/p); for p = 1 the infimum is the k -> inf limit I.
    """
    integral = power_integral(s, d, p)
    if p == 1.0:
        return integral
    return p / (p - 1.0) * ((p - 1.0) * integral) ** (1.0 / p)


def amemiya_linear_cap(s, d, cap: float = 1.0) -> float:
    """Amemiya norm for the linear gauge capped at ``cap``: s_max / cap + I."""
    return float(np.max(s)) / cap + float(np.dot(d, s))


def cosh_modular(values, masses, lam: float) -> float:
    """sum_i m_i (cosh(v_i / lam) - 1), the cosh-minus-one modular at 1/lam."""
    with np.errstate(over="ignore"):
        return float(np.dot(masses, np.cosh(np.asarray(values) / lam) - 1.0))


def is_cosh_norm(values, masses, lam: float, below: float = 1e-7) -> bool:
    """lam is the Luxemburg norm: modular <= 1 at lam and > 1 just below it."""
    return (cosh_modular(values, masses, lam) <= 1.0 + MODULAR_SLACK
            and cosh_modular(values, masses, lam * (1.0 - below)) > 1.0)


# ---------------------------------------------------------------------------
# Weighted step data
# ---------------------------------------------------------------------------

def step_weight_masses(edges, w_durations, w_values):
    """Mass of a decreasing step weight on each interval [edges[i], edges[i+1]]."""
    w_ends = np.cumsum(w_durations)
    cum = np.concatenate([[0.0], np.cumsum(np.asarray(w_durations) * w_values)])
    grid = np.concatenate([[0.0], w_ends])
    at = np.interp(np.minimum(edges, w_ends[-1]), grid, cum)
    return np.diff(at)


def exp_weight_masses(edges):
    """Mass of the weight e^{-t} on each interval: e^{-a} - e^{-b}."""
    e = np.exp(-np.asarray(edges, dtype=float))
    return e[:-1] - e[1:]


def piece_edges(durations):
    return np.concatenate([[0.0], np.cumsum(durations)])


def laplace_step(values, masses, total_mass: float, s: float) -> float:
    """Integral of exp(s mu) against the weight for step mu: sum over pieces plus tail."""
    return float(np.dot(np.exp(s * np.asarray(values)), masses)
                 + (total_mass - float(np.sum(masses))))


def laplace_log_exp(s: float) -> float:
    """Integral of exp(-s log t) e^{-t} on (0, 1] plus the weight beyond 1.

    That is the lower incomplete gamma function gamma(1 - s, 1) + e^{-1}.
    """
    a = 1.0 - s
    return float(special.gammainc(a, 1.0) * special.gamma(a) + math.exp(-1.0))


def weighted_power_norm(values, masses, p: float) -> float:
    """(sum_i m_i v_i^p)^(1/p)."""
    return float(np.dot(masses, np.power(values, p))) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Log-singular rearrangements mu_p(t) = 1 / (t log^p(1/t)) on (0, e^{-p}]
# ---------------------------------------------------------------------------

def log_singular_total(p: float) -> float:
    """Integral of mu_p: substituting u = log(1/t) gives p^(1-p) / (p - 1)."""
    return p ** (1.0 - p) / (p - 1.0)


# ---------------------------------------------------------------------------
# Composition operators
# ---------------------------------------------------------------------------

def density_two_norm(lambdas, dims, weights) -> float:
    """Trace 2-norm of a central density: sqrt(sum_j w_j n_j lambda_j^2)."""
    return math.sqrt(sum(w * n * lam * lam for lam, n, w in zip(lambdas, dims, weights)))


def density_one_norm(lambdas, dims, weights) -> float:
    return float(sum(w * n * lam for lam, n, w in zip(lambdas, dims, weights)))
