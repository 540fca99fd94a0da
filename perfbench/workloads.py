"""The four workloads: seeded inputs, one round of operations, output checks.

A round is the workload's whole input set run once, in a fixed order. Every
run attempts whole rounds, so the share of failed operations is the same in
every run. Operations reach ncorlicz through module attributes looked up at
call time, so the traced run sees them once its wrappers are installed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from metrics import VERIFY_CHECKS
from ncorlicz import cli, norms, orlicz, rearrangement, verify


@dataclass(frozen=True)
class Op:
    """One timed operation and the check of its output.

    ``known_fault`` marks operations that fail today because of a fault in
    the program: for them a result that misses its closed form counts as a
    failed operation, not as a wrong one.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    known_fault: bool = False


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _gauss(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gauss(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _alg(dims, weights) -> dict:
    return {"blocks": [{"dim": n, "weight": w} for n, w in zip(dims, weights)]}


def _decreasing_step(rng: np.random.Generator, pieces: int, top: float):
    values = np.sort(rng.uniform(0.05, top, size=pieces))[::-1]
    durations = rng.uniform(0.1, 2.0, size=pieces)
    return durations, values


class CommandFailed(Exception):
    """An ``ncorlicz`` command exited with a nonzero code."""


def _cli(argv: list[str]) -> Callable[[], None]:
    def run() -> None:
        rc = cli.main(argv)
        if rc != 0:
            raise CommandFailed(f"ncorlicz {argv[0]} exited with {rc}")
    return run


class Workload:
    """Inputs and operations of one workload; subclasses fill ``ops``."""

    # Each timed run covers at least this many operations, so that at least
    # ten lie beyond the 90th percentile; for verify_suite that means five
    # passes of the suite whatever --seconds asks.
    min_ops = 100

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, self.seed_stream])
        self.ops: list[Op] = []
        self.warmup: list[Op] = []


# ---------------------------------------------------------------------------
# norm_requests
# ---------------------------------------------------------------------------

# The six block shapes of ncorlicz.sampling.algebra_shapes(), fixed here so
# the benchmark's inputs do not move when the program's catalog does.
SHAPES = [
    ((3,), (1.0,)),
    ((1, 1), (0.5, 2.0)),
    ((2, 3), (1.0, 0.5)),
    ((1, 1, 1, 1), (1.0, 1.0, 1.0, 1.0)),
    ((4,), (0.25,)),
    ((2, 2, 1), (2.0, 0.5, 1.0)),
]

# The five gauges of ncorlicz.verify._norm_gauges().
NORM_GAUGES = [
    ("power1", {"kind": "power", "p": 1}),
    ("power2", {"kind": "power", "p": 2}),
    ("power3", {"kind": "power", "p": 3}),
    ("cosh", {"kind": "cosh_minus_one"}),
    ("cap1", {"kind": "linear_until_cap", "b": 1.0}),
]

ELEMENTS_PER_SHAPE = 2


class NormRequests(Workload):
    """``ncorlicz norm`` on every shape x gauge, two seeded elements per shape."""

    seed_stream = 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        gauge_files = {g: _write(workdir / f"gauge-{g}.json", spec)
                       for g, spec in NORM_GAUGES}
        for k, (dims, weights) in enumerate(SHAPES):
            alg = _write(workdir / f"alg-{k}.json", _alg(dims, weights))
            for e in range(ELEMENTS_PER_SHAPE):
                blocks = [_gauss(self.rng, n) for n in dims]
                elem = _write(workdir / f"elem-{k}-{e}.json",
                              {"blocks": [_matrix_json(b) for b in blocks]})
                s, d = oracles.spectrum(blocks, weights)
                for g, spec in NORM_GAUGES:
                    out = str(workdir / f"out-{k}-{e}-{g}.json")
                    argv = ["norm", "--algebra", alg, "--element", elem,
                            "--orlicz", gauge_files[g], "--out", out]
                    self.ops.append(Op(f"norm/{k}/{e}/{g}", _cli(argv),
                                       self._checker(out, g, s, d)))
        self.warmup = [op for op in self.ops if op.name.startswith("norm/2/0/")]

    @staticmethod
    def _checker(out: str, gauge: str, s, d) -> Callable[[None], bool]:
        def check(_) -> bool:
            res = _read(out)["result"]
            lux, kun, ame = res["luxemburg"], res["kunze"], res["amemiya"]
            rel = res["relations"]
            ok = rel["kunze_matches_luxemburg"] and oracles.close(kun, lux)
            # For t^2 the Amemiya norm is exactly twice the Luxemburg norm, and
            # the report's sandwich flag compares the two with an absolute
            # 1e-9 while the bisected norm is only good to relative 1e-9, so
            # the flag reads false on some elements; the property itself is
            # checked below with a relative tolerance.
            ok = ok and (rel["sandwich"] or gauge == "power2")
            ok = ok and lux <= ame * (1 + oracles.REL_TOL) \
                and ame <= 2.0 * lux * (1 + oracles.REL_TOL)
            if gauge.startswith("power"):
                p = float(gauge[len("power"):])
                return (ok and oracles.close(lux, oracles.luxemburg_power(s, d, p))
                        and oracles.close(ame, oracles.amemiya_power(s, d, p)))
            if gauge == "cap1":
                return (ok and oracles.close(lux, oracles.luxemburg_linear_cap(s, d))
                        and oracles.close(ame, oracles.amemiya_linear_cap(s, d)))
            return ok and oracles.is_cosh_norm(s, d, lux)
        return check


# ---------------------------------------------------------------------------
# regularity_requests
# ---------------------------------------------------------------------------

# The cost of a weighted norm grows with the pieces of the data and of the
# weight, so piece counts are fixed (items cycle through 1..6 pieces, the
# step weights have 2..5) and only values and durations come from the seed.
STEP_ITEMS = 24
STEP_WEIGHTS = 4
LAPLACE_S = 0.5
LOG_SINGULAR_P = (1.2, 2.0, 3.0)


def _log_singular(p: float):
    """mu_p(t) = 1 / (t log^p(1/t)) on (0, e^{-p}], decreasing there, 0 after."""
    support = math.exp(-p)

    def fn(t: float) -> float:
        if t <= 0.0:
            return math.inf
        if t >= support:
            return 0.0
        return 1.0 / (t * (-math.log(t)) ** p)

    return rearrangement.ParametricForm(fn=fn, support=support, label=f"log_singular({p:g})",
                                        singular_at_zero=True)


class RegularityRequests(Workload):
    """Library calls on weighted and parametric data; see README for the mix."""

    seed_stream = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rg = rearrangement
        items = [_decreasing_step(self.rng, 1 + i % 6, 4.0) for i in range(STEP_ITEMS)]
        wsteps = [_decreasing_step(self.rng, 2 + j, 2.0) for j in range(STEP_WEIGHTS)]
        weights = [("exp", rg.WeightedContext(rg.exp_decay()), None)]
        weights += [(f"step{j}", rg.WeightedContext(rg.StepForm.from_raw(d, v)), (d, v))
                    for j, (d, v) in enumerate(wsteps)]

        def masses_for(durations, weight):
            edges = oracles.piece_edges(durations)
            if weight is None:
                return oracles.exp_weight_masses(edges), 1.0
            wd, wv = weight
            return (oracles.step_weight_masses(edges, wd, wv), float(np.dot(wd, wv)))

        # membership verdicts: bounded data are members, power-type data are not
        data = [("bounded", rg.StepForm.from_raw(*items[0]), True),
                ("log", rg.log_reciprocal(1.0), True),
                ("power", rg.power_decay(0.5, 1.0), False),
                ("reciprocal", rg.reciprocal(1.0), False),
                ("expdecay", rg.exp_decay(), True)]
        for wname, ctx, _ in weights[:2]:
            for dname, mu, member in data:
                self.ops.append(Op(
                    f"ps/{dname}/{wname}",
                    lambda mu=mu, ctx=ctx: norms.pistone_sempi_equivalence(mu, ctx),
                    lambda rep, member=member: (rep.member_via_laplace == member
                                                and rep.member_via_norm == member)))

        # Under a step weight this probe misses its closed form by about 2e-7
        # on some seeds (see CHANGES.md), so it runs under e^{-t} only.
        log_mu = rg.log_reciprocal(1.0)
        exp_ctx = weights[0][1]
        for s in (LAPLACE_S, -LAPLACE_S):
            self.ops.append(Op(
                f"laplace/log/exp/{s:+g}",
                lambda s=s: norms.laplace_probe(log_mu, exp_ctx, s),
                lambda v, want=oracles.laplace_log_exp(s):
                    oracles.close(v, want, oracles.QUADRATURE_RTOL)))

        power2, cosh = orlicz.power(2.0), orlicz.cosh_minus_one()
        for i, (d, v) in enumerate(items):
            mu = rg.StepForm.from_raw(d, v)
            # one probe per weight: +s under the step weight, -s under e^{-t}
            for (wname, ctx, weight), s in ((weights[0], -LAPLACE_S),
                                            (weights[1 + i % STEP_WEIGHTS], LAPLACE_S)):
                m, total = masses_for(d, weight)
                want = oracles.laplace_step(v, m, total, s)
                self.ops.append(Op(
                    f"laplace/step{i}/{wname}/{s:+g}",
                    lambda mu=mu, ctx=ctx, s=s: norms.laplace_probe(mu, ctx, s),
                    lambda got, want=want: oracles.close(got, want)))
                want2 = oracles.weighted_power_norm(v, m, 2.0)
                self.ops.append(Op(
                    f"lux/step{i}/{wname}/power2",
                    lambda mu=mu, ctx=ctx: norms.luxemburg_norm(mu, power2, ctx),
                    lambda got, want=want2: oracles.close(got, want)))
                self.ops.append(Op(
                    f"lux/step{i}/{wname}/cosh",
                    lambda mu=mu, ctx=ctx: norms.luxemburg_norm(mu, cosh, ctx),
                    lambda got, v=v, m=m: oracles.is_cosh_norm(v, m, got)))

        self.warmup = [op for op in self.ops if not op.name.startswith("laplace/step")]

        power1 = orlicz.power(1.0)
        for p in LOG_SINGULAR_P:
            mu = _log_singular(p)
            want = oracles.log_singular_total(p)
            self.ops.append(Op(
                f"fault/total/p{p:g}", mu.total_integral,
                lambda got, want=want: oracles.close(got, want, oracles.QUADRATURE_RTOL),
                known_fault=True))
            self.ops.append(Op(
                f"fault/norm/p{p:g}",
                lambda mu=mu: norms.luxemburg_norm(mu, power1),
                lambda got, want=want: oracles.close(got, want, oracles.QUADRATURE_RTOL),
                known_fault=True))


# ---------------------------------------------------------------------------
# compose_requests
# ---------------------------------------------------------------------------

def _morphisms(rng: np.random.Generator) -> list[tuple[str, dict, list[float], tuple, tuple]]:
    """The ten morphisms of ncorlicz.sampling.morphism_catalog, as JSON specs.

    Each entry carries its hand-derived trace density: source block j gets
    lambda_j = sum_k W_k c_kj / w_j, with W_k the target weights, c_kj the
    copies of block j in target block k and w_j the source weight.
    """
    def block(assignments, flavor="homo", unitary=None, pad=0):
        return {"assignments": assignments, "flavor": flavor,
                "unitary": "identity" if unitary is None else _matrix_json(unitary),
                "pad": pad}

    m2, m3, m4 = ((2,), (1.0,)), ((3,), (1.0,)), ((4,), (1.0,))
    out = [
        ("transpose_m2", m2, m2, [block([{"src": 0}], "anti")], [1.0]),
        ("doubling_m2", m2, ((2, 2), (1.0, 1.0)),
         [block([{"src": 0}]), block([{"src": 0}], "anti")], [2.0]),
        ("kernel_drop", ((2, 2), (1.0, 1.0)), m2, [block([{"src": 0}])], [1.0, 0.0]),
        ("padded_embedding", m2, m3, [block([{"src": 0}], pad=1)], [1.0]),
        ("padded_embedding_unitary", m2, m3,
         [block([{"src": 0}], unitary=_unitary(rng, 3), pad=1)], [1.0]),
        ("mixed_flavor_stack", m2, m4,
         [block([{"src": 0, "flavor": "homo"}, {"src": 0, "flavor": "anti"}])], [2.0]),
        ("zero", m2, m2, ["zero"], [0.0]),
        ("two_copies_unitary", m2, m4,
         [block([{"src": 0, "copies": 2}], unitary=_unitary(rng, 4))], [2.0]),
        ("weighted_multiblock", ((2, 1), (0.5, 2.0)), ((2, 2, 1), (1.5, 1.0, 0.5)),
         [block([{"src": 0}]), block([{"src": 0}], "anti", unitary=_unitary(rng, 2)),
          block([{"src": 1}])], [5.0, 0.25]),
        ("transpose_m3_unitary", m3, m3,
         [block([{"src": 0}], "anti", unitary=_unitary(rng, 3))], [1.0]),
    ]
    return [(name, {"source": _alg(*src), "target": _alg(*tgt), "blocks": blocks},
             lambdas, src[0], src[1])
            for name, src, tgt, blocks, lambdas in out]


# The five (psi, phi2) pairs of ncorlicz.verify._psi_phi2_pairs().
PSI_PHI2 = [
    ("identity*square", {"kind": "power", "p": 1}, {"kind": "power", "p": 2}),
    ("square*square", {"kind": "power", "p": 2}, {"kind": "power", "p": 2}),
    ("halfsquare*cosh", {"kind": "power_over_p", "p": 2}, {"kind": "cosh_minus_one"}),
    ("threshold*square", {"kind": "zero_then_linear", "a": 0.5}, {"kind": "power", "p": 2}),
    ("exp*tlog", {"kind": "exp_minus_one"}, {"kind": "t_log1p"}),
]


def _expected_bound(pair: str, lambdas, dims, weights):
    """max(1, Amemiya norm of the density in the conjugate of the outer gauge).

    identity: the conjugate is the indicator of [0, 1], giving lambda_max;
    t^2: the conjugate is t^2/4, giving the trace 2-norm; t^2/2 is self-dual,
    giving sqrt(2) times it; the threshold gauge max(0, t - 1/2) has the
    conjugate t/2 on [0, 1], giving lambda_max + |f|_1 / 2. The exponential
    outer gauge has no closed form here and is checked only against the
    observed ratios.
    """
    top = max(lambdas)
    two = oracles.density_two_norm(lambdas, dims, weights)
    if pair.startswith("identity"):
        val = top
    elif pair.startswith("square"):
        val = two
    elif pair.startswith("halfsquare"):
        val = math.sqrt(2.0) * two
    elif pair.startswith("threshold"):
        val = top + 0.5 * oracles.density_one_norm(lambdas, dims, weights)
    else:
        return None
    return max(1.0, val)


class ComposeRequests(Workload):
    """``ncorlicz compose`` on every catalog morphism x (psi, phi2) pair."""

    seed_stream = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        gauges = {}
        for pair, psi, phi2 in PSI_PHI2:
            gauges[pair] = (_write(workdir / f"psi-{len(gauges)}.json", psi),
                            _write(workdir / f"phi2-{len(gauges)}.json", phi2))
        for name, spec, lambdas, dims, weights in _morphisms(self.rng):
            mfile = _write(workdir / f"morphism-{name}.json", spec)
            spectrum = sorted(set(lambdas), reverse=True)
            for j, (pair, _, _) in enumerate(PSI_PHI2):
                out = str(workdir / f"out-{name}-{j}.json")
                req_seed = int(self.rng.integers(0, 2 ** 31))
                argv = ["compose", "--morphism", mfile, "--psi", gauges[pair][0],
                        "--phi2", gauges[pair][1], "--seed", str(req_seed), "--out", out]
                bound = _expected_bound(pair, lambdas, dims, weights)
                self.ops.append(Op(f"compose/{name}/{pair}", _cli(argv),
                                   self._checker(out, spectrum, bound)))
        self.warmup = [op for op in self.ops if op.name.startswith("compose/weighted_multiblock/")]

    @staticmethod
    def _checker(out: str, spectrum, bound) -> Callable[[None], bool]:
        def check(_) -> bool:
            res = _read(out)["result"]
            got = res["density_spectrum"]
            ok = (len(got) == len(spectrum)
                  and all(abs(a - b) <= 1e-12 * max(1.0, b) for a, b in zip(got, spectrum)))
            ok = ok and res["bound"] >= 1.0 and res["pass"]
            ok = ok and res["max_observed_ratio"] <= res["bound"] * (1.0 + oracles.REL_TOL)
            if bound is not None:
                ok = ok and oracles.close(res["bound"], bound)
            return ok
        return check


# ---------------------------------------------------------------------------
# verify_suite
# ---------------------------------------------------------------------------

# Sample counts that tests/test_acceptance.py requires of each check; a
# check reporting fewer is a wrong output, so no speed-up can come from
# drawing fewer samples.
MIN_SAMPLES = {
    "kunze_luxemburg_equivalence": 1000,
    "rearrangement_exchange": 200,
    "holder_pairing": 1500,
    "weighted_norm_axioms": 300,
    "pistone_sempi_catalog": 8,
    "quasi_trace_suite": 200,
    "moment_chain": 800,
    "gauge_threshold_bounds": 200,
    "projection_norm_formula": 50,
    "interpolation_contraction": 300,
}


def _verify_ok(report: dict, name: str) -> bool:
    checks = report["checks"]
    if not report["all_pass"] or len(checks) != 1 or checks[0]["name"] != name:
        return False
    c = checks[0]
    ok = c["pass"] and c["samples"] >= MIN_SAMPLES.get(name, 1)
    if name == "composition_bound":  # acceptance criterion 11
        ok = ok and c["details"]["max_chain_gap"] <= 1e-9
    return ok


LEFT_OUT = ("weighted_rearrangement_identity",)


class VerifySuite(Workload):
    """run_suite at scale 1, one operation per registered check but LEFT_OUT."""

    seed_stream = 4

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        names = tuple(sorted(verify.CHECKS))
        if names != tuple(sorted(VERIFY_CHECKS + LEFT_OUT)):
            raise SystemExit(f"verify registry changed: {names}")
        cfg = verify.SuiteConfig(seed=seed, scale=1.0)
        for name in VERIFY_CHECKS:
            self.ops.append(Op(
                f"verify/{name}",
                lambda name=name: verify.run_suite(cfg, names=[name]),
                lambda rep, name=name: _verify_ok(rep, name)))
        small = verify.SuiteConfig(seed=seed, scale=0.01)
        self.warmup = [Op("verify/warmup", lambda: verify.run_suite(small),
                          lambda rep: rep["all_pass"])]


WORKLOADS = {
    "verify_suite": VerifySuite,
    "norm_requests": NormRequests,
    "regularity_requests": RegularityRequests,
    "compose_requests": ComposeRequests,
}
