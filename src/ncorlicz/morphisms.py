"""Block-structured Jordan *-morphisms and positive maps between traced algebras.

Morphisms are specified constructively: each target block is either zero or a
unitary conjugate of a block-diagonal stack of source-block copies (plain or
transposed) plus zero padding.  Construction guarantees normality and the
Jordan property; the homomorphism/antihomomorphism split is the per-entry
``flavor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    TracedAlgebra,
    abs_value,
    apply_function,
    trace,
)
from .errors import DomainError, NotMeasurableError, StructuralError, batch_or_loop
from .orlicz import OrliczFunction, compose_orlicz, conjugate
from .norms import amemiya_norm, luxemburg_norms
from .rearrangement import singular_values, singular_values_many, submajorizes

INF = math.inf
FLAVORS = ("homo", "anti")


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

    def referenced_sources(self) -> set[int]:
        out: set[int] = set()
        for spec in self.blocks:
            if spec is not None:
                out.update(a.src for a in spec.assignments)
        return out

    def kernel_blocks(self) -> tuple[int, ...]:
        """Source blocks never referenced by any assignment."""
        ref = self.referenced_sources()
        return tuple(j for j in range(self.source.n_blocks) if j not in ref)

    def kernel_projection(self) -> AlgebraElement:
        """Central projection onto the kernel ideal of the morphism."""
        kern = set(self.kernel_blocks())
        return self.source.element([
            np.eye(n) if j in kern else np.zeros((n, n))
            for j, n in enumerate(self.source.dims)
        ])

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        return apply_jordan(self, a)


def apply_jordan(J: JordanMorphism, a: AlgebraElement) -> AlgebraElement:
    """Evaluate the block formula; transposed copies realize the anti part."""
    if a.algebra != J.source:
        raise StructuralError("element does not belong to the morphism's source")
    out = []
    for k, spec in enumerate(J.blocks):
        m = J.target.dims[k]
        d = np.zeros((m, m), dtype=complex)  # the zero padding stays
        if spec is None:
            out.append(d)
            continue
        start = 0
        for asg in spec.assignments:
            piece = a.blocks[asg.src] if asg.flavor == "homo" else a.blocks[asg.src].T
            n = piece.shape[0]
            for _ in range(asg.copies):
                d[start:start + n, start:start + n] = piece
                start += n
        if spec.unitary is not None:
            d = spec.unitary @ d @ spec.unitary.conj().T
        out.append(d)
    return J.target.element(out)


def radon_nikodym(J: JordanMorphism) -> AlgebraElement:
    """Central positive density f with tr_target(J(a)) = tr_source(f a) for all a.

    Blockwise scalar lambda_j computed from the minimal projection sitting at
    the (1,1) matrix unit of each source block (any minimal projection gives
    the same value; the fixed choice keeps runs reproducible).
    """
    lambdas = []
    for j, n in enumerate(J.source.dims):
        p = J.source.element([
            (np.diag([1.0] + [0.0] * (nn - 1)) if jj == j else np.zeros((nn, nn)))
            for jj, nn in enumerate(J.source.dims)
        ])
        num = trace(J.target, apply_jordan(J, p)).real
        lambdas.append(num / J.source.weights[j])
    return J.source.element([lam * np.eye(n) for lam, n in zip(lambdas, J.source.dims)])


@dataclass(frozen=True)
class AbsoluteContinuityReport:
    density_sup: float
    epsilons: tuple[float, ...]
    deltas: tuple[float, ...]
    verified: bool
    worst_ratio: float


def absolute_continuity_check(J: JordanMorphism,
                              epsilons: tuple[float, ...] = (1e-1, 1e-2, 1e-3),
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

    worst = 0.0
    verified = True
    deltas = []
    for eps in epsilons:
        delta = eps / sup_density if sup_density > 0 else INF
        deltas.append(delta)
        for e in corpus:
            t1 = trace(J.source, e).real
            t2 = trace(J.target, apply_jordan(J, e)).real
            if t1 > 0:
                worst = max(worst, t2 / t1)
            if t1 < delta and not t2 < eps:
                verified = False
    return AbsoluteContinuityReport(
        density_sup=sup_density, epsilons=tuple(epsilons), deltas=tuple(deltas),
        verified=verified, worst_ratio=worst)


# ---------------------------------------------------------------------------
# Composition-operator bound
# ---------------------------------------------------------------------------

def _density_dual_norm(J: JordanMorphism, f: AlgebraElement, psi: OrliczFunction) -> float:
    """Amemiya norm of the trace density f in the conjugate gauge; 0 for f = 0."""
    mu_f = singular_values(J.source, f)
    return 0.0 if mu_f.is_zero else amemiya_norm(mu_f, conjugate(psi))


def dual_gauge_bound(J: JordanMorphism, psi: OrliczFunction) -> float:
    """max(1, Amemiya norm of the trace density in the conjugate gauge)."""
    return max(1.0, _density_dual_norm(J, radon_nikodym(J), psi))


@dataclass(frozen=True)
class CompositionBoundReport:
    bound: float
    max_ratio: float
    samples: int
    passed: bool
    density: AlgebraElement


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
    bound = max(1.0, _density_dual_norm(J, f, psi))
    ratios = batch_or_loop(lambda ps: _unit_ball_image_norms(J, phi1, phi2, ps), probes)
    max_ratio = 0.0
    for r in ratios:
        max_ratio = max(max_ratio, r)
    return CompositionBoundReport(bound=bound, max_ratio=max_ratio, samples=len(ratios),
                                  passed=max_ratio <= bound + tol * max(1.0, bound),
                                  density=f)


def _unit_ball_image_norms(J: JordanMorphism, phi1: OrliczFunction, phi2: OrliczFunction,
                           probes: Sequence[AlgebraElement]) -> list[float]:
    """phi2-norms of J(0.9 a / phi1-norm of a) over the nonzero probes a, in order."""
    norms = luxemburg_norms(singular_values_many(J.source, probes), phi1).tolist()
    images = [apply_jordan(J, a * (0.9 / nrm)) for a, nrm in zip(probes, norms) if nrm != 0.0]
    return luxemburg_norms(singular_values_many(J.target, images), phi2).tolist()


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
    return batch_or_loop(lambda items: _chain_reports(J, psi, phi2, items, tol), elements)


def _chain_reports(J: JordanMorphism, psi: OrliczFunction, phi2: OrliczFunction,
                   elements: Sequence[AlgebraElement], tol: float) -> list[ModularChainReport]:
    """The reports of ``modular_chain_checks``, every solve taken over all the elements."""
    phi1 = compose_orlicz(psi, phi2)
    source_norms = luxemburg_norms(singular_values_many(J.source, elements), phi1).tolist()
    f = froot = None
    routes = []  # the four route values and phi2(|a|) per element, None off the hypotheses
    for a, source_norm in zip(elements, source_norms):
        if not source_norm < 1.0 or not a.is_selfadjoint():
            routes.append(None)
            continue
        try:
            image = apply_jordan(J, a)
            q1 = trace(J.target, apply_function(phi2, image)).real
            abs_a = abs_value(a)
            q2 = trace(J.target, apply_function(phi2, apply_jordan(J, abs_a))).real
            gauged = apply_function(phi2, a)
            q3 = trace(J.target, apply_jordan(J, gauged)).real
            if f is None:
                f = radon_nikodym(J)
                froot = J.source.element([np.sqrt(b.real.clip(min=0.0)).astype(complex)
                                          for b in f.blocks])
            q4 = trace(J.source, froot @ gauged @ froot).real
        except NotMeasurableError:
            routes.append(None)
            continue
        routes.append(((q1, q2, q3, q4), gauged))
    live = [route for route in routes if route is not None]
    # the chain needs the bare norm; the reported bound is dual_gauge_bound's max with 1
    bare_dual = _density_dual_norm(J, f, psi) if live else math.nan
    inners = iter(luxemburg_norms(singular_values_many(J.source, [g for _, g in live]),
                                  psi).tolist())
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

    tau_T(a) = tr_source(e a) + tr_target(J((1 - e) a)) with e the kernel
    projection; on kernel blocks it falls back to the source trace, elsewhere
    it is the pulled-back trace.
    """

    morphism: JordanMorphism

    def __call__(self, a: AlgebraElement) -> complex:
        J = self.morphism
        e = J.kernel_projection()
        one = J.source.identity()
        return trace(J.source, e @ a) + trace(J.target, apply_jordan(J, (one - e) @ a))

    def block_weights(self) -> tuple[float, ...]:
        """Effective trace weights: source weight on the kernel, pulled-back elsewhere."""
        J = self.morphism
        f = radon_nikodym(J)
        kern = set(J.kernel_blocks())
        out = []
        for j, (w, blk) in enumerate(zip(J.source.weights, f.blocks)):
            lam = blk[0, 0].real if blk.size else 0.0
            out.append(w if j in kern else lam * w)
        return tuple(out)


def build_tau_T(J: JordanMorphism) -> TauT:
    """Construct the dominating trace functional for a Jordan morphism."""
    return TauT(J)


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
        """Unnormalized Choi matrix; defined for single-block maps without transposes."""
        if self.source.n_blocks != 1 or self.target.n_blocks != 1:
            raise DomainError("Choi matrix is defined here for single-block maps")
        if any(g.transpose for g in self.groups):
            raise DomainError("Choi matrix of a transposed route is not completely positive")
        n = self.source.dims[0]
        m = self.target.dims[0]
        choi = np.zeros((n * m, n * m), dtype=complex)
        for i in range(n):
            for j in range(n):
                eij = np.zeros((n, n), dtype=complex)
                eij[i, j] = 1.0
                img = np.zeros((m, m), dtype=complex)
                for g in self.groups:
                    for op in g.ops:
                        img += op @ eij @ op.conj().T
                choi[i * m:(i + 1) * m, j * m:(j + 1) * m] = img
        return choi


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
        mu_a = singular_values_many(T.source, items)
        mu_img = singular_values_many(T.target, [T.apply(a) for a in items])
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
