"""Block-structured Jordan *-morphisms and positive maps between traced algebras.

Morphisms are specified constructively: each target block is either zero or a
unitary conjugate of a block-diagonal stack of source-block copies (plain or
transposed) plus zero padding.  Construction guarantees normality and the
Jordan property; the homomorphism/antihomomorphism split is the per-entry
``flavor``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    TracedAlgebra,
    _stacks,
    abs_value,
    apply_function,
    trace,
)
from .errors import DomainError, NotMeasurableError, StructuralError, batch_or_loop
from .orlicz import OrliczFunction, compose_orlicz, conjugate
from .norms import amemiya_norm, luxemburg_norms
from .rearrangement import _step_forms, singular_values, singular_values_many, submajorizes

INF = math.inf
FLAVORS = ("homo", "anti")
# the epsilons of the epsilon-delta continuity check
CONTINUITY_EPSILONS = (1e-1, 1e-2, 1e-3)


@dataclass(frozen=True)
class Assignment:
    """``copies`` slots filled with source block ``src`` (transposed when anti)."""

    src: int
    copies: int = 1
    flavor: str = "homo"

    def __post_init__(self):
        if self.copies < 1:
            raise StructuralError("copy count must be >= 1")
        if self.flavor not in FLAVORS:
            raise StructuralError(f"flavor must be one of {FLAVORS}, got {self.flavor!r}")


@dataclass(frozen=True, eq=False)
class BlockImage:
    """How one target block is assembled; ``unitary`` None means identity."""

    assignments: tuple[Assignment, ...]
    unitary: Optional[np.ndarray] = None
    pad: int = 0

    def __post_init__(self):
        if not self.assignments:
            raise StructuralError("a non-zero target block needs at least one assignment")
        if self.pad < 0:
            raise StructuralError("zero padding size must be >= 0")


@dataclass(frozen=True, eq=False)
class JordanMorphism:
    """Normal Jordan *-morphism between two traced algebras."""

    source: TracedAlgebra
    target: TracedAlgebra
    blocks: tuple[Optional[BlockImage], ...]

    def __post_init__(self):
        if len(self.blocks) != self.target.n_blocks:
            raise StructuralError("one block image per target block required")
        for k, spec in enumerate(self.blocks):
            if spec is None:
                continue
            total = spec.pad
            for asg in spec.assignments:
                if not 0 <= asg.src < self.source.n_blocks:
                    raise StructuralError(f"target block {k} references source block {asg.src}")
                total += asg.copies * self.source.dims[asg.src]
            if total != self.target.dims[k]:
                raise StructuralError(
                    f"target block {k} bookkeeping: copies + pad give {total}, "
                    f"expected {self.target.dims[k]}")
            if spec.unitary is not None:
                u = spec.unitary
                m = self.target.dims[k]
                if u.shape != (m, m):
                    raise StructuralError(f"unitary of target block {k} has wrong shape")
                if not np.allclose(u @ u.conj().T, np.eye(m), atol=1e-10):
                    raise StructuralError(f"matrix of target block {k} is not unitary")

    @functools.cached_property
    def kernel_projection(self) -> AlgebraElement:
        """Central projection onto the kernel ideal: the unit of every source block
        that no assignment references.  Built once per morphism, on first use."""
        ref = {a.src for spec in self.blocks if spec is not None for a in spec.assignments}
        return self.source.element([np.zeros((n, n)) if j in ref else np.eye(n)
                                    for j, n in enumerate(self.source.dims)])


def apply_jordan(J: JordanMorphism, a: AlgebraElement) -> AlgebraElement:
    """The block formula, the one-element case of ``_images``; transposes give the anti part."""
    if a.algebra != J.source:
        raise StructuralError("element does not belong to the morphism's source")
    return AlgebraElement(J.target, tuple(s[0] for s in _images(J, [b[None] for b in a.blocks])))


def _images(J: JordanMorphism, stacks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """J of each row of per-block (rows, n, n) source stacks, as one stack per target block:
    a unitary conjugates a whole stack in one matmul, each matrix getting its bits alone."""
    out = []
    for m, spec in zip(J.target.dims, J.blocks):
        d = np.zeros((len(stacks[0]), m, m), dtype=complex)  # the zero padding stays
        if spec is not None:
            start = 0
            for asg in spec.assignments:
                piece = stacks[asg.src] if asg.flavor == "homo" else stacks[asg.src].swapaxes(1, 2)
                n = piece.shape[-1]
                for _ in range(asg.copies):
                    d[:, start:start + n, start:start + n] = piece
                    start += n
            if spec.unitary is not None:
                d = spec.unitary @ d @ spec.unitary.conj().T
        out.append(d)
    return out


def radon_nikodym(J: JordanMorphism) -> AlgebraElement:
    """Central positive density f with tr_target(J(a)) = tr_source(f a) for all a.

    Read from the assignments, with no image taken: a minimal projection of
    source block j maps to one rank-one projection per copy of block j, so
    lambda_j = sum_k W_k c_kj / w_j, with W_k the target weights, c_kj the
    copies of block j in target block k and w_j the source weight.
    """
    mass = [0.0] * J.source.n_blocks
    for weight, spec in zip(J.target.weights, J.blocks):
        for asg in spec.assignments if spec is not None else ():
            mass[asg.src] += weight * asg.copies
    return J.source.element([m / w * np.eye(n)
                             for m, w, n in zip(mass, J.source.weights, J.source.dims)])


@dataclass(frozen=True)
class AbsoluteContinuityReport:
    density_sup: float
    epsilons: tuple[float, ...]
    deltas: tuple[float, ...]
    verified: bool
    worst_ratio: float


def absolute_continuity_check(J: JordanMorphism,
                              projections: Sequence[AlgebraElement] = ()
                              ) -> AbsoluteContinuityReport:
    """Epsilon-delta continuity of the pulled-back trace on projections.

    In finite dimension the modulus is linear: delta(eps) = eps / sup f where
    f is the trace density; the check enumerates the coordinate projections
    of every source block plus the given ``projections`` and verifies the
    implication directly.
    """
    f = radon_nikodym(J)
    sup_density = f.sup_norm()

    corpus: list[AlgebraElement] = []
    for j, n in enumerate(J.source.dims):
        for r in range(1, n + 1):
            diag = np.diag([1.0] * r + [0.0] * (n - r))
            corpus.append(J.source.element([
                diag if jj == j else np.zeros((nn, nn))
                for jj, nn in enumerate(J.source.dims)]))
    corpus.extend(projections)

    traces = [(trace(e).real, trace(apply_jordan(J, e)).real) for e in corpus]
    worst = max([0.0, *(t2 / t1 for t1, t2 in traces if t1 > 0)])
    verified = True
    deltas = []
    for eps in CONTINUITY_EPSILONS:
        delta = eps / sup_density if sup_density > 0 else INF
        deltas.append(delta)
        for t1, t2 in traces:
            if t1 < delta and not t2 < eps:
                verified = False
    return AbsoluteContinuityReport(
        density_sup=sup_density, epsilons=CONTINUITY_EPSILONS, deltas=tuple(deltas),
        verified=verified, worst_ratio=worst)


# ---------------------------------------------------------------------------
# Composition-operator bound
# ---------------------------------------------------------------------------

def _density_dual_norm(f: AlgebraElement, psi: OrliczFunction) -> float:
    """Amemiya norm of the trace density f in the conjugate gauge; 0 for f = 0."""
    return amemiya_norm(singular_values(f), conjugate(psi))


def dual_gauge_bound(J: JordanMorphism, psi: OrliczFunction) -> float:
    """max(1, Amemiya norm of the trace density in the conjugate gauge)."""
    return max(1.0, _density_dual_norm(radon_nikodym(J), psi))


@dataclass(frozen=True)
class CompositionBoundReport:
    bound: float  # max(1, dual_norm)
    max_ratio: float
    samples: int
    passed: bool
    density: AlgebraElement
    dual_norm: float  # conjugate-gauge Amemiya norm of the density


def composition_bound_check(J: JordanMorphism, psi: OrliczFunction,
                            phi2: OrliczFunction, probes: Sequence[AlgebraElement],
                            tol: float = 1e-7) -> CompositionBoundReport:
    """Image norms of unit-ball self-adjoint elements stay under the density bound.

    Rescales each self-adjoint probe a into the open unit ball of the composed
    gauge, and checks the target-space gauge norm of J(a) against
    max(1, dual-gauge norm of the trace density).  Zero probes are skipped.
    The probes take one Luxemburg solve in each gauge; errors follow
    ``batch_or_loop`` over the probes.
    """
    phi1 = compose_orlicz(psi, phi2)
    f = radon_nikodym(J)
    dual_norm = _density_dual_norm(f, psi)
    bound = max(1.0, dual_norm)
    ratios = batch_or_loop(lambda ps: _unit_ball_image_norms(J, phi1, phi2, ps), probes)
    max_ratio = 0.0
    for r in ratios:
        max_ratio = max(max_ratio, r)
    return CompositionBoundReport(bound=bound, max_ratio=max_ratio, samples=len(ratios),
                                  passed=max_ratio <= bound + tol * max(1.0, bound),
                                  density=f, dual_norm=dual_norm)


def _unit_ball_image_norms(J: JordanMorphism, phi1: OrliczFunction, phi2: OrliczFunction,
                           probes: Sequence[AlgebraElement]) -> list[float]:
    """phi2-norms of J(0.9 a / phi1-norm of a) over the nonzero probes a, in order."""
    if any(a.algebra != J.source for a in probes):
        raise StructuralError("element does not belong to the morphism's source")
    stacks = _stacks(J.source, probes)
    norms = luxemburg_norms(_step_forms(J.source, stacks), phi1)
    images = _images(J, _unit_ball(stacks, norms))
    return luxemburg_norms(_step_forms(J.target, images), phi2).tolist()


def _unit_ball(stacks: Sequence[np.ndarray], norms: np.ndarray) -> list[np.ndarray]:
    """The rows a of per-block stacks with nonzero ``norms``, each scaled to 0.9 a / norm."""
    live = norms != 0.0
    scales = (0.9 / norms[live])[:, None, None]
    return [s[live] * scales for s in stacks]


@dataclass(frozen=True)
class ModularChainReport:
    values: tuple[float, float, float, float]
    max_pairwise_gap: float
    dual_bound: float
    inner_norm: float
    source_norm: float
    hypothesis_ok: bool
    passed: bool


def modular_chain_checks(J: JordanMorphism, psi: OrliczFunction, phi2: OrliczFunction,
                         elements: Sequence[AlgebraElement],
                         tol: float = 1e-9) -> list[ModularChainReport]:
    """``modular_chain_check`` of many elements, one report each.

    The density and its dual-gauge norm are computed once, and the source
    and inner norms take one Luxemburg solve each.  Each report is bit for
    bit the one-element report; errors follow ``batch_or_loop``.
    """
    return _chain_checks(J, psi, phi2, elements, tol, None)


def _chain_checks(J: JordanMorphism, psi: OrliczFunction, phi2: OrliczFunction,
                  elements: Sequence[AlgebraElement], tol: float,
                  dual_norm: Optional[float]) -> list[ModularChainReport]:
    """``modular_chain_checks`` with the density's dual-gauge norm given.

    ``dual_norm`` is that of a composition report over the same J and psi,
    or None to compute it.
    """
    return batch_or_loop(lambda items: _chain_reports(J, psi, phi2, items, tol, dual_norm),
                         elements)


def _chain_reports(J: JordanMorphism, psi: OrliczFunction, phi2: OrliczFunction,
                   elements: Sequence[AlgebraElement], tol: float,
                   dual_norm: Optional[float]) -> list[ModularChainReport]:
    """The reports of ``_chain_checks``, every solve taken over all the elements."""
    phi1 = compose_orlicz(psi, phi2)
    if any(a.algebra != J.source for a in elements):
        raise StructuralError("element does not belong to the morphism's source")
    source_norms = luxemburg_norms(singular_values_many(elements), phi1).tolist()
    f = radon_nikodym(J)
    froot = J.source.element([np.sqrt(b.real.clip(min=0.0)).astype(complex) for b in f.blocks])
    routes = []  # the four route values and phi2(|a|) per element, None off the hypotheses
    for a, source_norm in zip(elements, source_norms):
        if not source_norm < 1.0 or not a.is_selfadjoint():
            routes.append(None)
            continue
        try:
            image = apply_jordan(J, a)
            q1 = trace(apply_function(phi2, image)).real
            abs_a = abs_value(a)
            q2 = trace(apply_function(phi2, apply_jordan(J, abs_a))).real
            gauged = apply_function(phi2, a)
            q3 = trace(apply_jordan(J, gauged)).real
            q4 = trace(froot @ gauged @ froot).real
        except NotMeasurableError:
            routes.append(None)
            continue
        routes.append(((q1, q2, q3, q4), gauged))
    live = [route for route in routes if route is not None]
    # the chain needs the bare norm; the reported bound is dual_gauge_bound's max with 1
    bare_dual = dual_norm
    if bare_dual is None and live:
        bare_dual = _density_dual_norm(f, psi)
    inners = iter(luxemburg_norms(singular_values_many([g for _, g in live]), psi).tolist())
    reports = []
    for route, source_norm in zip(routes, source_norms):
        if route is None:
            reports.append(ModularChainReport((math.nan,) * 4, math.nan, math.nan, math.nan,
                                              source_norm, hypothesis_ok=False, passed=False))
            continue
        vals = route[0]
        inner = next(inners)
        scale = max(1.0, *(abs(v) for v in vals))
        gap = max(abs(x - y) for x in vals for y in vals)
        chain_ok = (vals[0] <= bare_dual * inner + tol * scale
                    and bare_dual * inner
                    <= bare_dual * source_norm + tol * scale * max(1.0, bare_dual))
        reports.append(ModularChainReport(values=vals, max_pairwise_gap=gap,
                                          dual_bound=max(1.0, bare_dual), inner_norm=inner,
                                          source_norm=source_norm, hypothesis_ok=True,
                                          passed=gap <= tol * scale and chain_ok))
    return reports


def modular_chain_check(J: JordanMorphism, psi: OrliczFunction, phi2: OrliczFunction,
                        a: AlgebraElement, tol: float = 1e-9) -> ModularChainReport:
    """Four evaluation routes of the image modular must agree, then obey duality.

    Routes: gauge of |J(a)|; gauge of J(|a|); J of the gauge of |a|; and the
    density-sandwiched source trace.  Then the common value is dominated by
    (dual-gauge norm of density) * (gauge norm of phi2(|a|)), itself dominated
    by the same factor times the composed-gauge norm of a.
    Inputs violating the unit-ball or finiteness hypotheses are reported, not
    failed.  The one-element case of ``modular_chain_checks``.
    """
    return modular_chain_checks(J, psi, phi2, [a], tol)[0]


# ---------------------------------------------------------------------------
# The pulled-back trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TauT:
    """Faithful normal trace dominating the pulled-back target trace.

    tau_T(a) = tr_source(e a) + tr_target(J(a)) with e the kernel projection:
    on kernel blocks it falls back to the source trace, elsewhere it is the
    pulled-back trace.  J reads only the blocks that some assignment
    references, so J(a) = J((1 - e) a).
    """

    morphism: JordanMorphism

    def __call__(self, a: AlgebraElement) -> complex:
        J = self.morphism
        return trace(J.kernel_projection @ a) + trace(apply_jordan(J, a))


# ---------------------------------------------------------------------------
# Positive maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KrausGroup:
    """Operators routing source block ``src`` into target block ``tgt``.

    Each op has shape (target dim, source dim); ``transpose`` applies the
    source block transposed first (a positive, generally not completely
    positive, route).
    """

    src: int
    tgt: int
    ops: tuple[np.ndarray, ...]
    transpose: bool = False


@dataclass(frozen=True, eq=False)
class PositiveMap:
    """Kraus/Choi-represented positive map between traced algebras."""

    source: TracedAlgebra
    target: TracedAlgebra
    groups: tuple[KrausGroup, ...]
    cp: bool = True

    def __post_init__(self):
        for g in self.groups:
            n = self.source.dims[g.src]
            m = self.target.dims[g.tgt]
            for op in g.ops:
                if op.shape != (m, n):
                    raise StructuralError(
                        f"Kraus operator routing {g.src}->{g.tgt} has shape {op.shape}, "
                        f"expected ({m}, {n})")

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        if a.algebra != self.source:
            raise StructuralError("element does not belong to the map's source")
        out = [np.zeros((m, m), dtype=complex) for m in self.target.dims]
        for g in self.groups:
            blk = a.blocks[g.src].T if g.transpose else a.blocks[g.src]
            for op in g.ops:
                out[g.tgt] += op @ blk @ op.conj().T
        return self.target.element(out)

    def adjoint_apply(self, b: AlgebraElement) -> AlgebraElement:
        """Adjoint with respect to the weighted traces of source and target."""
        if b.algebra != self.target:
            raise StructuralError("element does not belong to the map's target")
        out = [np.zeros((n, n), dtype=complex) for n in self.source.dims]
        for g in self.groups:
            ratio = self.target.weights[g.tgt] / self.source.weights[g.src]
            acc = np.zeros_like(out[g.src])
            for op in g.ops:
                acc += op.conj().T @ b.blocks[g.tgt] @ op
            out[g.src] += ratio * (acc.T if g.transpose else acc)
        return self.source.element(out)

    def choi_matrix(self) -> np.ndarray:
        """Unnormalized Choi matrix sum_K vec(K) vec(K)^* over the Kraus operators K, vec
        stacking columns, so block (i, j) is T(E_ij); single-block maps without transposes."""
        if self.source.n_blocks != 1 or self.target.n_blocks != 1:
            raise DomainError("Choi matrix is defined here for single-block maps")
        if any(g.transpose for g in self.groups):
            raise DomainError("Choi matrix of a transposed route is not completely positive")
        size = self.source.dims[0] * self.target.dims[0]
        kraus = np.array([op.T.reshape(-1) for g in self.groups for op in g.ops],
                         dtype=complex).reshape(-1, size)
        return kraus.T @ kraus.conj()


def purity_check(T: PositiveMap) -> bool:
    """A completely positive map is pure exactly when its Choi rank is one."""
    if not T.cp:
        raise DomainError("purity is defined for completely positive maps")
    choi = T.choi_matrix()
    eigs = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))
    top = max(float(eigs.max()), 0.0)
    if top == 0.0:
        return False
    if float(eigs.min()) < -1e-10 * top:
        raise DomainError("Choi matrix is not positive semidefinite: map is not CP")
    rank = int(np.sum(eigs > 1e-10 * top))
    return rank == 1


@dataclass(frozen=True)
class InterpolationReport:
    trace_constant: float
    unital_constant: float
    bound: float
    max_norm_excess: float
    submajorization_ok: bool
    positivity_ok: bool
    samples: int
    passed: bool


def interpolation_contraction_check(T: PositiveMap, phi: OrliczFunction,
                                    positives: Sequence[AlgebraElement],
                                    probes: Sequence[AlgebraElement],
                                    tol: float = 1e-8) -> InterpolationReport:
    """Norm contraction and head-integral domination under a positive map.

    C is the least constant with pulled-back trace <= C * source trace (the
    adjoint applied to the identity); N is the image of the identity.  T must
    keep each of ``positives`` positive.  For each self-adjoint probe a:
    mu(T(a) / max(C, N)) is submajorized by mu(a), and the gauge norm of T(a)
    is at most max(C, N) times that of a.  The probes take one Luxemburg
    solve; errors follow ``batch_or_loop`` over the probes.
    """
    c = T.adjoint_apply(T.target.identity()).sup_norm()
    n = T.apply(T.source.identity()).sup_norm()
    bound = max(c, n)

    positivity_ok = all(T.apply(p).is_positive(1e-9) for p in positives)

    def excesses(items):
        """(submajorized, norm excess) per probe."""
        mu_a = singular_values_many(items)
        mu_img = singular_values_many([T.apply(a) for a in items])
        nrms = luxemburg_norms([*mu_img, *mu_a], phi).tolist()
        return [(bound <= 0 or submajorizes(x, y.scaled(1.0 / bound)), lhs - bound * rhs)
                for x, y, lhs, rhs in zip(mu_a, mu_img, nrms, nrms[len(items):])]

    pairs = batch_or_loop(excesses, probes)
    sub_ok = all(ok for ok, _ in pairs)
    worst_excess = max([-INF, *(excess for _, excess in pairs)])
    passed = positivity_ok and sub_ok and worst_excess <= tol * max(1.0, bound)
    return InterpolationReport(trace_constant=float(c), unital_constant=float(n),
                               bound=float(bound), max_norm_excess=float(worst_excess),
                               submajorization_ok=sub_ok, positivity_ok=positivity_ok,
                               samples=len(probes), passed=passed)
