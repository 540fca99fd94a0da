"""Finite-dimensional tracial models: direct sums of matrix blocks with weights.

The trace of ``a`` is sum_k weight_k * tr(a_k).  Commutative models are the
all-1x1-block case; there is no separate code path for them.  Elements are
immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, NotMeasurableError, NumericError, StructuralError
from .orlicz import OrliczFunction

PROJECTION_TOL = 1e-10


@dataclass(frozen=True)
class TracedAlgebra:
    """Ordered block dimensions with strictly positive trace weights."""

    dims: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.dims) != len(self.weights) or not self.dims:
            raise StructuralError("dims and weights must be equally sized and nonempty")
        if any(n < 1 or int(n) != n for n in self.dims):
            raise StructuralError(f"block dimensions must be integers >= 1, got {self.dims}")
        if any(w <= 0 for w in self.weights):
            raise StructuralError(f"trace weights must be positive, got {self.weights}")

    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple[int, float]]) -> "TracedAlgebra":
        blocks = list(blocks)
        return cls(tuple(int(n) for n, _ in blocks), tuple(float(w) for _, w in blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.dims)

    @property
    def trace_of_identity(self) -> float:
        return float(sum(w * n for n, w in zip(self.dims, self.weights)))

    def element(self, blocks: Sequence[np.ndarray]) -> "AlgebraElement":
        return AlgebraElement(self, tuple(np.array(b, dtype=complex) for b in blocks))

    def zero(self) -> "AlgebraElement":
        return self.element([np.zeros((n, n)) for n in self.dims])

    def identity(self) -> "AlgebraElement":
        return self.element([np.eye(n) for n in self.dims])

    def diagonal(self, entries: Sequence[Sequence[float]]) -> "AlgebraElement":
        if len(entries) != self.n_blocks:
            raise StructuralError("one diagonal per block required")
        return self.element([np.diag(np.asarray(e, dtype=complex)) for e in entries])


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Block-diagonal element of a TracedAlgebra."""

    algebra: TracedAlgebra
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.blocks) != self.algebra.n_blocks:
            raise StructuralError("element must carry one matrix per block")
        for k, (b, n) in enumerate(zip(self.blocks, self.algebra.dims)):
            if b.shape != (n, n):
                raise StructuralError(f"block {k} has shape {b.shape}, expected ({n}, {n})")
            b.setflags(write=False)

    def _wrap(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(blocks))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self, other)
        return self._wrap(a + b for a, b in zip(self.blocks, other.blocks))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self, other)
        return self._wrap(a - b for a, b in zip(self.blocks, other.blocks))

    def __neg__(self) -> "AlgebraElement":
        return self._wrap(-b for b in self.blocks)

    def __mul__(self, scalar: complex) -> "AlgebraElement":
        return self._wrap(scalar * b for b in self.blocks)

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self, other)
        return self._wrap(a @ b for a, b in zip(self.blocks, other.blocks))

    def adjoint(self) -> "AlgebraElement":
        return self._wrap(b.conj().T for b in self.blocks)

    def sup_norm(self) -> float:
        """Operator norm: the largest singular value across blocks."""
        return max(
            (float(np.linalg.norm(b, 2)) for b in self.blocks if b.size),
            default=0.0,
        )

    def is_selfadjoint(self, tol: float = 1e-10) -> bool:
        return all(np.allclose(b, b.conj().T, atol=tol) for b in self.blocks)

    def is_positive(self, tol: float = 1e-10) -> bool:
        if not self.is_selfadjoint(tol):
            return False
        scale = max(self.sup_norm(), 1.0)
        return all(
            np.linalg.eigvalsh(0.5 * (b + b.conj().T)).min() >= -tol * scale
            for b in self.blocks
        )

    def matrix_power(self, n: int) -> "AlgebraElement":
        return self._wrap(np.linalg.matrix_power(b, n) for b in self.blocks)


def _same_algebra(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.algebra != b.algebra:
        raise StructuralError("elements belong to different algebras")


def trace(alg: TracedAlgebra, a: AlgebraElement) -> complex:
    """Weighted trace sum_k c_k tr(a_k)."""
    if a.algebra != alg:
        raise StructuralError("element does not belong to the given algebra")
    return complex(sum(w * np.trace(b) for w, b in zip(alg.weights, a.blocks)))


def _svd_blocks(a: AlgebraElement):
    """Per-block SVD of a; raises NumericError naming the block on failure."""
    out = []
    for k, b in enumerate(a.blocks):
        try:
            u, s, vh = np.linalg.svd(b)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular value decomposition failed on block {k}: {exc}") from exc
        out.append((u, s, vh))
    return out


def abs_value(a: AlgebraElement) -> AlgebraElement:
    """|a| = (a* a)^(1/2), positive semidefinite per block.

    Computed from one SVD per block: a = U diag(s) V* gives |a| = V diag(s) V*,
    so the result is nonnegative by construction.
    """
    blocks = []
    for u, s, vh in _svd_blocks(a):
        blocks.append(vh.conj().T @ (s[:, None] * vh))
    return AlgebraElement(a.algebra, tuple(blocks))


def _calculus(phi: OrliczFunction, svd, scales: np.ndarray):
    """The functional-calculus core: phi(scale * |a|) for each scale, per block.

    From one decomposition a = U diag(s) V* per block, evaluates phi once
    over scales x all singular values, then yields per block
    (V* diag(phi(scale * s)) V stacked over the scales, the scaled spectral
    values, and the mask of those where phi is infinite).  Infinite values
    enter the rebuilt matrices as 0, so each caller decides what an infinite
    spectral value means.  NaN from the gauge raises NumericError.
    """
    args = np.multiply.outer(scales, np.concatenate([s for _, s, _ in svd]))
    vals = phi.eval_many(args)
    if np.isnan(vals).any():
        bad = float(args[np.isnan(vals)][0])
        raise NumericError(f"gauge {phi.describe()} returned NaN at spectral value {bad:.6g}")
    infinite = np.isinf(vals)
    vals = np.where(infinite, 0.0, vals)
    start = 0
    for _, s, vh in svd:
        cols = slice(start, start + s.size)
        start += s.size
        yield vh.conj().T @ (vals[:, cols, None] * vh), args[:, cols], infinite[:, cols]


def apply_function(phi: OrliczFunction, a: AlgebraElement, scale: float = 1.0) -> AlgebraElement:
    """Functional calculus phi(scale * |a|).

    Raises NotMeasurableError carrying the offending spectral value when any
    phi(scale * s) is infinite; such an operator has no finite representative.
    """
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")
    blocks = []
    for k, (mats, args, infinite) in enumerate(
            _calculus(phi, _svd_blocks(a), np.array([scale], dtype=float))):
        if infinite.any():
            ev = float(args[infinite][0])
            raise NotMeasurableError(
                f"gauge is infinite at spectral value {ev:.6g} in block {k}",
                eigenvalue=ev, block=k)
        blocks.append(mats[0])
    return AlgebraElement(a.algebra, tuple(blocks))


def _trace_calculus(alg: TracedAlgebra, phi: OrliczFunction, svd,
                    scales: np.ndarray) -> np.ndarray:
    """tr phi(scale * |a|) for each scale, from the decomposition of a.

    Each value rebuilds the operator and traces it; a scale at which phi is
    infinite on the spectrum gets +inf, the value of a non-measurable modular.
    """
    total = np.zeros(len(scales))
    infinite = np.zeros(len(scales), dtype=bool)
    for w, (mats, _, inf_k) in zip(alg.weights, _calculus(phi, svd, scales)):
        total += w * np.trace(mats, axis1=1, axis2=2).real
        infinite |= inf_k.any(axis=1)
    total[infinite] = np.inf
    return total


def is_projection(e: AlgebraElement, tol: float = PROJECTION_TOL) -> bool:
    """e = e* = e^2 within ``tol`` on the operator norm."""
    idem = e @ e - e
    sa = e - e.adjoint()
    return idem.sup_norm() <= tol and sa.sup_norm() <= tol


def projection_trace_norm(alg: TracedAlgebra, e: AlgebraElement,
                          phi: OrliczFunction) -> float:
    """Gauge norm of a projection from its trace alone: 1 / phi^{-1}(1 / tr(e))."""
    from .orlicz import formal_inverse

    if e.algebra != alg:
        raise StructuralError("projection does not belong to the given algebra")
    if not is_projection(e):
        raise DomainError("input is not a projection within tolerance 1e-10")
    t = trace(alg, e).real
    if t <= 0:
        raise DomainError("projection has zero trace")
    return 1.0 / formal_inverse(phi, 1.0 / t)
