"""Batch front end: load inputs from files, run computations, emit reports.

Exit-code policy: hypothesis violations and outside-the-space results are
data (exit 0); falsified invariants in ``verify`` exit 1; malformed inputs
exit 2.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import quadrature
from .errors import NcorliczError, SpecError, UnboundedNormError
from .loaders import (
    load_algebra,
    load_element,
    load_json_file,
    load_morphism,
    load_mu,
    load_orlicz,
    load_weight,
)
from .morphisms import composition_bound_check
from .norms import (
    amemiya_norm,
    holder_check,
    kunze_norm,
    luxemburg_norm,
    pistone_sempi_equivalence,
)
from .rearrangement import singular_values
from .sampling import random_elements, random_self_adjoints
from .verify import SuiteConfig, Tolerances, run_suite

ENV_SEED = "NCORLICZ_SEED"
NORM_RELATION_REL = 1e-7  # relative slack of the relations ``norm`` reports


def _load(*paths) -> list:
    """Each input file read once; the loaded dicts feed both parsing and the digest."""
    return [load_json_file(p) for p in paths]


def _digest(*objects) -> str:
    payload = json.dumps(objects, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _emit(report: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        lines = []
        if "pairs" in report:  # singular-value table
            lines.append("t,mu_t")
            lines.extend(f"{t!r},{v!r}" for t, v in report["pairs"])
        else:
            lines.append("key,value")
            lines.extend(f"{k},{json.dumps(v, sort_keys=True, default=str)}"
                         for k, v in sorted(_flatten(report).items()))
        text = "\n".join(lines)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _flatten(obj, prefix: str = "") -> dict:
    flat = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            flat.update(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    else:
        flat[prefix.rstrip(".")] = obj
    return flat


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get(ENV_SEED, "0"))


def _tolerances(args) -> dict:
    """The tolerances a norm-solving command runs at: ``slack`` only where it reads ``--tol``."""
    return {"bisect": 1e-9, **({"slack": args.tol} if "tol" in args else {})}


# The constants of the quadrature rule and tail verdict that ``ps-check`` runs at
_QUADRATURE = {"quadrature_rel": quadrature.REL_TOL, "quadrature_depth": quadrature.DEPTH,
               "quadrature_delta": quadrature.DELTA, "quadrature_rate": quadrature.RATE}


def cmd_norm(args) -> int:
    specs = _load(args.algebra, args.element, args.orlicz)
    alg = load_algebra(specs[0])
    element = load_element(alg, specs[1])
    phi = load_orlicz(specs[2])
    mu = singular_values(element)
    report = {
        "command": "norm",
        "inputs_digest": _digest(*specs),
        "effective_tolerances": {**_tolerances(args), "relations_rel": NORM_RELATION_REL},
        "timestamp": _now(),
    }
    try:
        lux = luxemburg_norm(mu, phi)
        kun = kunze_norm(element, phi)
        ame = amemiya_norm(mu, phi)
        slack = NORM_RELATION_REL * max(1.0, lux)
        report["result"] = {
            "luxemburg": lux, "kunze": kun, "amemiya": ame,
            "relations": {
                "kunze_matches_luxemburg": abs(kun - lux) <= slack,
                "sandwich": lux <= ame + slack and ame <= 2.0 * (lux + slack),
            },
        }
    except UnboundedNormError:
        report["result"] = "outside-space"
    _emit(report, args.out, args.format)
    return 0


def cmd_singular(args) -> int:
    specs = _load(args.algebra, args.element)
    alg = load_algebra(specs[0])
    element = load_element(alg, specs[1])
    mu = singular_values(element)
    knots = np.concatenate([[0.0], mu.breakpoints])
    grid = np.unique(np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:])]))
    pairs = np.column_stack((grid, mu.evaluate_many(grid))).tolist()
    report = {
        "command": "singular",
        "inputs_digest": _digest(*specs),
        "effective_tolerances": {},
        "timestamp": _now(),
        "result": {"durations": mu.durations.tolist(), "values": mu.values.tolist()},
        "pairs": pairs,
    }
    _emit(report, args.out, args.format)
    return 0


def cmd_dual_check(args) -> int:
    specs = _load(args.algebra, args.element, args.element2, args.orlicz)
    alg = load_algebra(specs[0])
    f = load_element(alg, specs[1])
    g = load_element(alg, specs[2])
    phi = load_orlicz(specs[3])
    rng = np.random.default_rng(_seed_from(args))
    probes = random_elements([alg] * args.samples, rng)
    rep = holder_check(f, g, phi, tol=args.tol, probes=probes)
    report = {
        "command": "dual-check",
        "inputs_digest": _digest(*specs),
        "seed": _seed_from(args),
        "effective_tolerances": _tolerances(args),
        "timestamp": _now(),
        "result": {
            "lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack, "pass": rep.passed,
            "dual_norm": rep.dual_norm, "primal_norm": rep.primal_norm,
            "sampled_sup": rep.sampled_sup, "sampled_sup_ok": rep.sampled_sup_ok,
        },
    }
    _emit(report, args.out, args.format)
    return 0


def cmd_ps_check(args) -> int:
    specs = _load(args.mu, args.weight)
    mu = load_mu(specs[0])
    ctx = load_weight(specs[1])
    rep = pistone_sempi_equivalence(mu, ctx)
    report = {
        "command": "ps-check",
        "inputs_digest": _digest(*specs),
        "effective_tolerances": dict(_QUADRATURE),
        "timestamp": _now(),
        "result": {
            "member_via_laplace": rep.member_via_laplace,
            "member_via_norm": rep.member_via_norm,
            "agree": rep.agree,
        },
    }
    _emit(report, args.out, args.format)
    return 0


def cmd_compose(args) -> int:
    specs = _load(args.morphism, args.psi, args.phi2)
    J = load_morphism(specs[0])
    psi = load_orlicz(specs[1])
    phi2 = load_orlicz(specs[2])
    rng = np.random.default_rng(_seed_from(args))
    probes = random_self_adjoints([J.source] * args.samples, rng)
    rep = composition_bound_check(J, psi, phi2, probes, tol=args.tol)
    spectrum = sorted({float(b[0, 0].real) for b in rep.density.blocks}, reverse=True)
    report = {
        "command": "compose",
        "inputs_digest": _digest(*specs),
        "seed": _seed_from(args),
        "effective_tolerances": _tolerances(args),
        "timestamp": _now(),
        "result": {
            "gauges": {"psi": psi.describe(), "phi2": phi2.describe()},
            "density_spectrum": spectrum,
            "bound": rep.bound,
            "max_observed_ratio": rep.max_ratio,
            "samples": rep.samples,
            "pass": rep.passed,
        },
    }
    _emit(report, args.out, args.format)
    return 0


def cmd_verify(args) -> int:
    cfg = SuiteConfig(seed=_seed_from(args), scale=args.scale,
                      tolerances=Tolerances(slack=args.tol))
    report = run_suite(cfg, names=args.checks)
    report["timestamp"] = _now()
    _emit(report, args.out, args.format)
    return 0 if report["all_pass"] else 1


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncorlicz",
        description="Gauge norms, rearrangements and composition bounds on "
                    "finite tracial models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *reads):
        """--out and --format, and those of --seed, --samples and --tol the command reads."""
        p.add_argument("--out", default=None, help="output path (stdout if absent)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        if "seed" in reads:
            p.add_argument("--seed", type=int, default=None,
                           help=f"RNG seed (falls back to ${ENV_SEED}, then 0)")
        if "samples" in reads:
            p.add_argument("--samples", type=int, default=20)
        if "tol" in reads:
            p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("norm", help="Luxemburg / trace-modular / Amemiya norms")
    p.add_argument("--algebra", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--orlicz", required=True)
    common(p)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("singular", help="singular-value step function of an element")
    p.add_argument("--algebra", required=True)
    p.add_argument("--element", required=True)
    common(p)
    p.set_defaults(fn=cmd_singular)

    p = sub.add_parser("dual-check", help="pairing inequality against the conjugate gauge")
    p.add_argument("--algebra", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--element2", required=True)
    p.add_argument("--orlicz", required=True)
    common(p, "seed", "samples", "tol")
    p.set_defaults(fn=cmd_dual_check)

    p = sub.add_parser("ps-check", help="exponential-moment membership equivalence")
    p.add_argument("--mu", required=True, help="rearrangement spec (step or named kind)")
    p.add_argument("--weight", required=True)
    common(p)
    p.set_defaults(fn=cmd_ps_check)

    p = sub.add_parser("compose", help="composition-operator bound for a morphism")
    p.add_argument("--morphism", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--phi2", required=True)
    common(p, "seed", "samples", "tol")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("verify", help="run the named-check verification suite")
    p.add_argument("--scale", type=float, default=1.0,
                   help="sample-count multiplier for every check")
    p.add_argument("--checks", nargs="*", default=None,
                   help="subset of check names (default: all)")
    common(p, "seed", "tol")
    p.set_defaults(fn=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; argparse parsers can parse repeatedly."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "samples", 0) < 0:  # a malformed input, like any parse error: exit 2
        _parser().error(f"argument --samples: expected an integer >= 0, got {args.samples}")
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NcorliczError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
