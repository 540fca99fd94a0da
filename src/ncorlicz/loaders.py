"""JSON loaders for gauges, algebras, elements, rearrangements, and morphisms.

Values are IEEE doubles in decimal; bit-exactness of inputs is not required.
All loaders raise SpecError with a breadcrumb location on malformed input.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from . import orlicz, rearrangement
from .algebra import AlgebraElement, TracedAlgebra
from .errors import SpecError
from .morphisms import Assignment, BlockImage, JordanMorphism
from .rearrangement import ParametricForm, StepForm, WeightedContext


def _need(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise SpecError(f"missing key {key!r}", location=where)
    return obj[key]


def load_json_file(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc.msg}",
                        location=f"{path}:{exc.lineno}:{exc.colno}") from exc
    except OSError as exc:
        raise SpecError(str(exc), location=str(path)) from exc


# ---------------------------------------------------------------------------
# Gauges
# ---------------------------------------------------------------------------

def load_orlicz(spec: dict, where: str = "orlicz") -> orlicz.OrliczFunction:
    kind = _need(spec, "kind", where)
    if kind == "power":
        return orlicz.power(float(_need(spec, "p", where)))
    if kind == "power_over_p":
        return orlicz.power_over_p(float(_need(spec, "p", where)))
    if kind == "cosh_minus_one":
        return orlicz.cosh_minus_one()
    if kind == "exp_minus_one":
        return orlicz.exp_minus_one()
    if kind == "t_log1p":
        return orlicz.t_log1p()
    if kind == "zero_then_linear":
        return orlicz.zero_then_linear(float(_need(spec, "a", where)))
    if kind == "linear_until_cap":
        return orlicz.linear_until_cap(float(_need(spec, "b", where)))
    if kind == "compose":
        psi = load_orlicz(_need(spec, "psi", where), where=f"{where}.psi")
        phi2 = load_orlicz(_need(spec, "phi2", where), where=f"{where}.phi2")
        return orlicz.compose_orlicz(psi, phi2)
    raise SpecError(f"unknown gauge kind {kind!r}", location=where)


# ---------------------------------------------------------------------------
# Algebras and elements
# ---------------------------------------------------------------------------

def load_algebra(spec: dict, where: str = "algebra") -> TracedAlgebra:
    blocks = _need(spec, "blocks", where)
    try:
        return TracedAlgebra.from_blocks(
            (int(_need(b, "dim", f"{where}.blocks[{i}]")),
             float(_need(b, "weight", f"{where}.blocks[{i}]")))
            for i, b in enumerate(blocks))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad algebra spec: {exc}", location=where) from exc


def _matrix_from_json(rows, where: str) -> np.ndarray:
    try:
        arr = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad complex matrix: {exc}", location=where) from exc
    if arr.ndim != 2:
        raise SpecError("matrix must be two-dimensional", location=where)
    return arr


def load_element(alg: TracedAlgebra, spec: dict, where: str = "element") -> AlgebraElement:
    blocks = _need(spec, "blocks", where)
    if len(blocks) != alg.n_blocks:
        raise SpecError(f"expected {alg.n_blocks} blocks, got {len(blocks)}", location=where)
    mats = [_matrix_from_json(b, f"{where}.blocks[{k}]") for k, b in enumerate(blocks)]
    return alg.element(mats)


# ---------------------------------------------------------------------------
# Rearrangement functions and weights
# ---------------------------------------------------------------------------

_PARAMETRIC_KINDS = {"exp_decay", "log_reciprocal", "power_decay", "reciprocal", "constant"}


def load_mu(spec: dict, where: str = "mu") -> StepForm | ParametricForm:
    if "durations" in spec or "values" in spec:
        return StepForm.from_raw(_need(spec, "durations", where),
                                 _need(spec, "values", where))
    kind = _need(spec, "kind", where)
    if kind == "exp_decay":
        return rearrangement.exp_decay()
    if kind == "log_reciprocal":
        return rearrangement.log_reciprocal(float(spec.get("support", 1.0)))
    if kind == "power_decay":
        return rearrangement.power_decay(float(_need(spec, "exponent", where)),
                                         float(spec.get("support", 1.0)))
    if kind == "reciprocal":
        return rearrangement.reciprocal(float(spec.get("support", 1.0)))
    if kind == "constant":
        return rearrangement.constant(float(_need(spec, "level", where)),
                                      float(spec.get("support", np.inf)))
    raise SpecError(f"unknown rearrangement kind {kind!r} "
                    f"(known: {sorted(_PARAMETRIC_KINDS)})", location=where)


def load_weight(spec: dict, where: str = "weight") -> WeightedContext:
    return WeightedContext(load_mu(spec, where))


# ---------------------------------------------------------------------------
# Morphisms and positive maps
# ---------------------------------------------------------------------------

def load_morphism(spec: dict, where: str = "morphism") -> JordanMorphism:
    source = load_algebra(_need(spec, "source", where), where=f"{where}.source")
    target = load_algebra(_need(spec, "target", where), where=f"{where}.target")
    blocks = []
    for k, b in enumerate(_need(spec, "blocks", where)):
        loc = f"{where}.blocks[{k}]"
        if b == "zero":
            blocks.append(None)
            continue
        default_flavor = b.get("flavor", "homo")
        flavor_name = {"homo": "homo", "anti": "anti",
                       "homomorphism": "homo", "antihomomorphism": "anti"}
        if default_flavor not in flavor_name:
            raise SpecError(f"unknown flavor {default_flavor!r}", location=loc)
        assignments = []
        for i, a in enumerate(_need(b, "assignments", loc)):
            fl = a.get("flavor", default_flavor)
            if fl not in flavor_name:
                raise SpecError(f"unknown flavor {fl!r}", location=f"{loc}.assignments[{i}]")
            assignments.append(Assignment(int(_need(a, "src", loc)),
                                          int(a.get("copies", 1)),
                                          flavor_name[fl]))
        unitary = b.get("unitary", "identity")
        u = None if unitary == "identity" else _matrix_from_json(unitary, f"{loc}.unitary")
        blocks.append(BlockImage(tuple(assignments), unitary=u, pad=int(b.get("pad", 0))))
    try:
        return JordanMorphism(source, target, tuple(blocks))
    except Exception as exc:
        raise SpecError(f"invalid morphism bookkeeping: {exc}", location=where) from exc
