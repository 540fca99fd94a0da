"""Finite-dimensional tracial models: direct sums of matrix blocks with weights.

The trace of ``a`` is sum_k weight_k * tr(a_k).  Commutative models are the
all-1x1-block case; there is no separate code path for them.  Elements are
immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, NotMeasurableError, NumericError, StructuralError, batch_or_loop
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
        return bool(_positive_rows([b[None] for b in self.blocks], tol)[0])

    def matrix_power(self, n: int) -> "AlgebraElement":
        return self._wrap(np.linalg.matrix_power(b, n) for b in self.blocks)


def _positive_rows(stacks: Sequence[np.ndarray], tol: float) -> np.ndarray:
    """``is_positive`` for each row of the per-block stacks of (rows, n, n) matrices.

    A row is positive when it is self-adjoint within ``tol`` and the least
    eigenvalue of each block is at least -tol * max(operator norm, 1).  The
    stacked LAPACK calls give each matrix the values it gets alone, so each
    verdict is the one-element verdict.
    """
    rows = np.logical_and.reduce([np.isclose(s, s.conj().swapaxes(-1, -2), atol=tol).all(axis=(1, 2))
                                  for s in stacks])
    live = rows.nonzero()[0]
    if live.size:
        stacks = [s[live] for s in stacks]
        sup = np.max([np.linalg.svd(s, compute_uv=False).max(axis=-1) for s in stacks], axis=0)
        floor = -tol * np.maximum(sup, 1.0)
        rows[live] = np.logical_and.reduce([
            np.linalg.eigvalsh(0.5 * (s + s.conj().swapaxes(-1, -2))).min(axis=-1) >= floor
            for s in stacks])
    return rows


def _by_algebra(elements: Sequence[AlgebraElement], solve, *columns) -> list:
    """``solve(alg, members, *columns)`` once per algebra, on the elements in it.

    ``columns`` are sequences that run along ``elements``, and ``solve``
    returns one result per member; the results come back in input order.
    Elements of one algebra are solved as they are, and their results are
    ``solve``'s own.
    """
    groups: dict = {}
    for i, a in enumerate(elements):
        groups.setdefault(a.algebra, []).append(i)
    if len(groups) == 1:
        return solve(elements[0].algebra, elements, *columns)
    out = [None] * len(elements)
    for alg, rows in groups.items():
        picked = [[col[i] for i in rows] for col in (elements, *columns)]
        for i, result in zip(rows, solve(alg, *picked)):
            out[i] = result
    return out


def _stacks(alg: TracedAlgebra, elements: Sequence[AlgebraElement]) -> list[np.ndarray]:
    """The per-block (rows, n, n) stacks of elements of ``alg``, one row per element."""
    return [np.array([a.blocks[k] for a in elements]).reshape(-1, n, n)
            for k, n in enumerate(alg.dims)]


def _are_positive(elements: Sequence[AlgebraElement], tol: float = 1e-10) -> np.ndarray:
    """``is_positive`` of many elements: one stacked call per algebra and block."""

    def rows(alg, members):
        return _positive_rows(_stacks(alg, members), tol)

    return np.array(_by_algebra(elements, rows), dtype=bool)


def _same_algebra(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.algebra != b.algebra:
        raise StructuralError("elements belong to different algebras")


def trace(alg: TracedAlgebra, a: AlgebraElement) -> complex:
    """Weighted trace sum_k c_k tr(a_k)."""
    if a.algebra != alg:
        raise StructuralError("element does not belong to the given algebra")
    return complex(sum(w * np.trace(b) for w, b in zip(alg.weights, a.blocks)))


def _svd_blocks(elements: Sequence[AlgebraElement]):
    """Per-block SVD of same-algebra elements, stacked: one LAPACK call per block.

    Returns (s, vh, conj(vh)) per block, each with a leading axis over the
    elements: a = U diag(s) V* with V* = vh; no caller needs U.  Raises
    NumericError naming the block on failure.
    """
    out = []
    for k, stack in enumerate(_stacks(elements[0].algebra, elements)):
        try:
            _, s, vh = np.linalg.svd(stack)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular value decomposition failed on block {k}: {exc}") from exc
        out.append((s, vh, vh.conj()))
    return out


def abs_value(a: AlgebraElement) -> AlgebraElement:
    """|a| = (a* a)^(1/2), positive semidefinite per block.

    Computed from one SVD per block: a = U diag(s) V* gives |a| = V diag(s) V*,
    so the result is nonnegative by construction.
    """
    blocks = []
    for s, vh, vh_conj in _svd_blocks([a]):
        blocks.append(vh_conj[0].T @ (s[0][:, None] * vh[0]))
    return AlgebraElement(a.algebra, tuple(blocks))


def _calculus(phi: OrliczFunction, svd, scales: np.ndarray):
    """The functional-calculus core: phi(scale * |a|) for each row's scales.

    From the stacked decompositions a = U diag(s) V* of ``_svd_blocks`` and
    one row of scales per element, evaluates phi once over rows x scales x
    all singular values.  Returns the matrices V* diag(phi(scale * s)) V per
    block, stacked over rows and scales, with the scaled spectral values and
    phi's values there.  Infinite and NaN values enter the rebuilt matrices
    as 0, so each caller decides what they mean.
    """
    args = scales[:, :, None] * np.concatenate([s for s, _, _ in svd], axis=1)[:, None, :]
    # scalings far from the norm overflow the gauge to +inf: a value
    with np.errstate(over="ignore", invalid="ignore"):
        vals = phi.eval_many(args)
    finite = np.isfinite(vals)
    kept = np.where(finite, vals, 0.0)
    mats, start = [], 0
    for s, vh, vh_conj in svd:
        cols = slice(start, start + s.shape[1])
        start += s.shape[1]
        mats.append(vh_conj.swapaxes(-1, -2)[:, None] @ (kept[:, :, cols, None] * vh[:, None]))
    return mats, args, vals, finite


def _first_nan(phi: OrliczFunction, args: np.ndarray, vals: np.ndarray) -> NumericError:
    """The error for the first argument, in evaluation order, where phi gave NaN."""
    bad = float(args[np.isnan(vals)][0])
    return NumericError(f"gauge {phi.describe()} returned NaN at spectral value {bad:.6g}")


def apply_function_many(phi: OrliczFunction, elements: Sequence[AlgebraElement],
                        scale: float = 1.0) -> list[AlgebraElement]:
    """``apply_function`` of elements of any algebras: one stacked SVD per algebra and block.

    Each result is bit for bit the one-element result.  Errors (no
    convergence, a gauge infinite or NaN on some spectrum) follow
    ``batch_or_loop``.
    """
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")

    def functions_of(alg, members):
        return _functions_of(phi, members, _svd_blocks(members), scale)

    return batch_or_loop(lambda items: _by_algebra(items, functions_of), elements)


def _functions_of(phi: OrliczFunction, elements: Sequence[AlgebraElement], svd,
                  scales) -> list[AlgebraElement]:
    """phi(scale * |a|) for each element, from its stacked decompositions ``svd``.

    ``scales`` is one scale for all elements or one per element.  Raises
    like ``apply_function``, for the first element with a NaN if any has
    one, else for the first with an infinite value.
    """
    rows = np.empty((len(elements), 1))
    rows[:, 0] = scales
    mats, args, vals, _ = _calculus(phi, svd, rows)
    if np.isnan(vals).any():
        raise _first_nan(phi, args, vals)
    out = []
    for r, a in enumerate(elements):
        blocks, start = [], 0
        for k, m in enumerate(mats):
            n = m.shape[-1]
            infinite = np.isinf(vals[r, 0, start:start + n])
            if infinite.any():
                ev = float(args[r, 0, start:start + n][infinite][0])
                raise NotMeasurableError(
                    f"gauge is infinite at spectral value {ev:.6g} in block {k}",
                    eigenvalue=ev, block=k)
            start += n
            blocks.append(m[r, 0])
        out.append(AlgebraElement(a.algebra, tuple(blocks)))
    return out


def apply_function(phi: OrliczFunction, a: AlgebraElement, scale: float = 1.0) -> AlgebraElement:
    """Functional calculus phi(scale * |a|).

    Raises NotMeasurableError carrying the offending spectral value when any
    phi(scale * s) is infinite; such an operator has no finite representative.
    NaN from the gauge raises NumericError.  The one-element case of
    ``apply_function_many``.
    """
    return apply_function_many(phi, [a], scale)[0]


def _trace_calculus(alg: TracedAlgebra, phi: OrliczFunction, svd,
                    scales: np.ndarray) -> np.ndarray:
    """tr phi(scale * |a|) for each row's scales, from the stacked decompositions.

    Each value rebuilds the operator and traces it; a scale at which phi is
    infinite on the spectrum gets +inf, the value of a non-measurable
    modular.  A NaN from phi raises NumericError for the first, in
    evaluation order.
    """
    mats, args, vals, finite = _calculus(phi, svd, scales)
    total = np.zeros(scales.shape)
    for w, m in zip(alg.weights, mats):
        total += w * np.trace(m, axis1=-2, axis2=-1).real
    if not np.logical_and.reduce(finite, axis=None):
        if np.isnan(vals).any():
            raise _first_nan(phi, args, vals)
        total[np.isinf(vals).any(axis=-1)] = np.inf
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
