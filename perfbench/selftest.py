"""Quick self-test of the benchmark's own closed forms and percentile rule.

    python3 perfbench/selftest.py

Runs in a few seconds and times nothing. Each closed form in oracles.py is
compared with a plain numeric route (quadrature, minimisation or a dense
grid) from numpy and scipy; the hand-derived morphism densities are
recomputed from the morphism specs; and the metric tables are compared with
BENCHMARK.json when it is present. Exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy import integrate, optimize

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import oracles  # noqa: E402

CHECKS = []


def case(fn):
    CHECKS.append(fn)
    return fn


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def near(a: float, b: float, rtol: float, what: str) -> None:
    expect(abs(a - b) <= rtol * max(1.0, abs(a), abs(b)), f"{what}: {a!r} vs {b!r}")


@case
def percentile_rule():
    xs = list(range(1, 11))
    expect(oracles.percentile(xs, 50) == 5, "p50 of 1..10 is 5 by nearest rank")
    expect(oracles.percentile(xs, 90) == 9, "p90 of 1..10 is 9")
    expect(oracles.percentile(xs, 100) == 10, "p100 is the maximum")
    expect(oracles.percentile([7.0], 90) == 7.0, "one sample is every percentile")
    for n in range(100, 400, 7):  # the run's minimum of 100 timed operations
        xs = list(range(n))
        beyond = sum(x > oracles.percentile(xs, 90) for x in xs)
        expect(beyond >= 10, f"{beyond} samples beyond p90 of {n}")
    expect(oracles.midmean([9.0]) == 9.0, "midmean of one round")
    expect(oracles.midmean([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0, "midmean of 5 drops both ends")
    expect(oracles.midmean(list(range(8)) + [1e9]) == 4.0, "a stall leaves the midmean alone")
    rng = np.random.default_rng(0)
    ys = rng.standard_normal(1001)
    near(oracles.percentile(ys, 50), float(np.median(ys)), 0.0, "p50 of an odd count")


@case
def spectrum_matches_svd():
    rng = np.random.default_rng(1)
    blocks = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (2, 3)]
    s, d = oracles.spectrum(blocks, (1.0, 0.5))
    svd = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks])
    expect(np.allclose(np.sort(s), np.sort(svd), rtol=1e-12), "eigvalsh route equals SVD")
    expect(list(d) == [1.0] * 2 + [0.5] * 3, "durations are the block weights")


@case
def unweighted_norm_closed_forms():
    s = np.array([2.5, 1.2, 0.4])
    d = np.array([1.0, 0.5, 2.0])
    for p in (1.0, 2.0, 3.0):
        lam = oracles.luxemburg_power(s, d, p)
        near(float(np.dot(d, (s / lam) ** p)), 1.0, 1e-12, f"modular at the t^{p} norm")
        k_best = optimize.minimize_scalar(
            lambda k: (1 + k ** p * oracles.power_integral(s, d, p)) / k,
            bounds=(1e-3, 1e3) if p > 1 else (1e-3, 1e9), method="bounded",
            options={"xatol": 1e-12})
        near(oracles.amemiya_power(s, d, p), k_best.fun, 1e-6 if p > 1 else 1e-3,
             f"Amemiya norm for t^{p}")
    for scale in (0.2, 1.0, 5.0):  # cap binding and not binding
        t = s * scale
        lam = oracles.luxemburg_linear_cap(t, d)
        ok = (np.max(t) / lam <= 1 + 1e-12) and (np.dot(d, t) / lam <= 1 + 1e-12)
        tight = (np.max(t) / lam >= 1 - 1e-12) or (np.dot(d, t) / lam >= 1 - 1e-12)
        expect(ok and tight, "capped linear norm is the least feasible scaling")
        ks = np.linspace(1e-6, 1.0 / np.max(t), 200001)
        near(oracles.amemiya_linear_cap(t, d), float(np.min(1 / ks + np.dot(d, t))), 1e-9,
             "Amemiya norm for the capped linear gauge")
    lam = 1.7
    below = oracles.cosh_modular(s, d, lam * (1 - 1e-3))
    expect(below > oracles.cosh_modular(s, d, lam), "cosh modular decreases in the scaling")


@case
def weight_masses():
    edges = np.array([0.0, 0.3, 1.1, 2.0, 5.0])
    wd, wv = np.array([0.5, 1.0]), np.array([1.5, 0.2])
    grid = np.linspace(0.0, 5.0, 500001)
    dens = np.where(grid < 0.5, 1.5, np.where(grid < 1.5, 0.2, 0.0))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    brute = np.diff(np.interp(edges, grid, cum))
    expect(np.allclose(oracles.step_weight_masses(edges, wd, wv), brute, atol=1e-5),
           "step weight masses match a dense grid")
    near(float(np.sum(oracles.exp_weight_masses(edges))), 1 - math.exp(-5.0), 1e-14,
         "exponential weight masses telescope")


@case
def laplace_closed_forms():
    for s in (0.5, -0.5):
        head, _ = integrate.quad(lambda t: t ** (-s) * math.exp(-t), 0.0, 1.0, epsabs=1e-13)
        near(oracles.laplace_log_exp(s), head + math.exp(-1.0), 1e-9, f"gamma form at s={s}")
    v, m = np.array([2.0, 1.0]), np.array([0.3, 0.5])
    near(oracles.laplace_step(v, m, 1.0, 0.5), 0.3 * math.e + 0.5 * math.exp(0.5) + 0.2,
         1e-15, "step Laplace sum includes the weight beyond the data")


@case
def log_singular_total():
    for p in (1.2, 2.0, 3.0):
        val, _ = integrate.quad(lambda u: u ** (-p), p, math.inf, epsabs=1e-13, epsrel=1e-12)
        near(oracles.log_singular_total(p), val, 1e-9, f"total of mu_{p}")


@case
def morphism_densities():
    import workloads

    rng = np.random.default_rng(0)
    for name, spec, lambdas, dims, weights in workloads._morphisms(rng):
        tw = [b["weight"] for b in spec["target"]["blocks"]]
        derived = [0.0] * len(dims)
        for k, blk in enumerate(spec["blocks"]):
            if blk == "zero":
                continue
            for a in blk["assignments"]:
                derived[a["src"]] += tw[k] * a.get("copies", 1)
        derived = [x / w for x, w in zip(derived, weights)]
        expect(derived == lambdas, f"{name}: density {derived} vs {lambdas}")
    # max(1, inf_k (1 + tr phi*(k f)) / k) on a grid of k, with the conjugate
    # of each outer gauge written out: identity -> indicator of [0, 1],
    # t^2 -> u^2/4, t^2/2 -> u^2/2, max(0, t - 1/2) -> u/2 on [0, 1]
    conjugates = {
        "identity*square": lambda u: np.where(u <= 1.0, 0.0, np.inf),
        "square*square": lambda u: u * u / 4.0,
        "halfsquare*cosh": lambda u: u * u / 2.0,
        "threshold*square": lambda u: np.where(u <= 1.0, u / 2.0, np.inf),
    }
    ks = np.concatenate([np.logspace(-4, 2, 200001), np.linspace(0.1, 1.1, 200001)])
    for lambdas, dims, weights in (([5.0, 0.25], (2, 1), (0.5, 2.0)), ([2.0], (2,), (1.0,)),
                                   ([1.0, 0.0], (2, 2), (1.0, 1.0))):
        lam, mass = np.array(lambdas), np.array(dims) * np.array(weights)
        for pair, conj in conjugates.items():
            with np.errstate(invalid="ignore"):
                objective = (1.0 + conj(np.outer(ks, lam)) @ mass) / ks
            brute = max(1.0, float(np.min(objective)))
            near(workloads._expected_bound(pair, lambdas, dims, weights), brute, 1e-6,
                 f"{pair} bound for density {lambdas}")


@case
def metric_tables_match_benchmark_json():
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(e2e == list(metrics.END_TO_END), "end-to-end metrics match BENCHMARK.json")
    expect(layer == list(metrics.PER_LAYER), "per-layer metrics match BENCHMARK.json")


def main() -> int:
    for fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {fn.__name__}: {exc}")
            return 1
        print(f"ok   {fn.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
