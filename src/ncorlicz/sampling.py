"""Seeded random corpora: elements, projections, weights, morphisms, channels.

Everything is driven by an explicit numpy Generator so that verification runs
are reproducible bit for bit.  A corpus of elements is one ``standard_normal``
call, read in the order of a loop of one-element draws: each element and the
generator's state afterwards are that loop's, and a one-element draw is its case.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, TracedAlgebra, trace
from .morphisms import Assignment, BlockImage, JordanMorphism, KrausGroup, PositiveMap
from .rearrangement import StepForm


def algebra_shapes() -> list[TracedAlgebra]:
    """The standing catalog of block shapes used by verification corpora."""
    return [
        TracedAlgebra((3,), (1.0,)),
        TracedAlgebra((1, 1), (0.5, 2.0)),
        TracedAlgebra((2, 3), (1.0, 0.5)),
        TracedAlgebra((1, 1, 1, 1), (1.0, 1.0, 1.0, 1.0)),
        TracedAlgebra((4,), (0.25,)),
        TracedAlgebra((2, 2, 1), (2.0, 0.5, 1.0)),
    ]


def _gauss_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def random_elements(algebras: list[TracedAlgebra],
                    rng: np.random.Generator) -> list[AlgebraElement]:
    """One random element of each algebra: blocks (X + iY) / sqrt(2), X then Y drawn n x n."""
    return _drawn(algebras, rng, lambda s: s)


def random_self_adjoints(algebras: list[TracedAlgebra],
                         rng: np.random.Generator) -> list[AlgebraElement]:
    """The self-adjoint parts (a + a*) / 2 of ``random_elements``, one stack per block."""
    return _drawn(algebras, rng, lambda s: 0.5 * (s + s.conj().swapaxes(-1, -2)))


def _drawn(algebras: list[TracedAlgebra], rng: np.random.Generator, finish) -> list:
    """``random_elements``, each per-block stack passed through ``finish``; blocks are row views."""
    widths = [2 * sum(n * n for n in alg.dims) for alg in algebras]
    z = rng.standard_normal(sum(widths))
    groups: dict = {}
    for i, alg in enumerate(algebras):
        groups.setdefault(alg, []).append(i)
    out = [None] * len(algebras)
    for alg, rows in groups.items():
        draws = (z.reshape(len(rows), -1) if len(groups) == 1  # one algebra: rows in order
                 else z[np.cumsum([0, *widths[:-1]])[rows, None] + np.arange(widths[rows[0]])])
        stacks, col = [], 0
        for n in alg.dims:
            p = draws[:, col:col + 2 * n * n].reshape(-1, 2, n, n)  # X, then Y
            stacks.append(finish((p[:, 0] + 1j * p[:, 1]) / np.sqrt(2.0)))
            col += 2 * n * n
        for i, row in zip(rows, zip(*stacks)):
            out[i] = AlgebraElement(alg, row)
    return out


def random_element(alg: TracedAlgebra, rng: np.random.Generator) -> AlgebraElement:
    return random_elements([alg], rng)[0]


def random_self_adjoint(alg: TracedAlgebra, rng: np.random.Generator) -> AlgebraElement:
    return random_self_adjoints([alg], rng)[0]


def random_positive(alg: TracedAlgebra, rng: np.random.Generator) -> AlgebraElement:
    a = random_element(alg, rng)
    return a @ a.adjoint()


def random_state(alg: TracedAlgebra, rng: np.random.Generator) -> AlgebraElement:
    """Positive element of unit trace."""
    p = random_positive(alg, rng)
    return p * (1.0 / trace(alg, p).real)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_gauss_matrix(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projection(alg: TracedAlgebra, rng: np.random.Generator) -> AlgebraElement:
    """Random projection, nonzero in at least one block."""
    while True:
        blocks, total = [], 0
        for n in alg.dims:
            r = int(rng.integers(0, n + 1))
            total += r
            u = random_unitary(n, rng)
            blocks.append(u @ np.diag([1.0] * r + [0.0] * (n - r)) @ u.conj().T)
        if total > 0:
            return alg.element(blocks)


def random_decreasing_step(rng: np.random.Generator, max_pieces: int = 6,
                           top: float = 4.0) -> StepForm:
    m = int(rng.integers(1, max_pieces + 1))
    values = np.sort(rng.uniform(0.05, top, size=m))[::-1]
    durations = rng.uniform(0.1, 2.0, size=m)
    return StepForm(durations, values)


def random_weight_step(rng: np.random.Generator, max_pieces: int = 5) -> StepForm:
    """Decreasing positive step weight; mass is automatically finite."""
    return random_decreasing_step(rng, max_pieces=max_pieces, top=2.0)


# ---------------------------------------------------------------------------
# Jordan morphism catalog
# ---------------------------------------------------------------------------

def transpose_morphism(n: int = 2, weight: float = 1.0) -> JordanMorphism:
    alg = TracedAlgebra((n,), (weight,))
    return JordanMorphism(alg, alg, (BlockImage((Assignment(0, 1, "anti"),)),))


def doubling_morphism(n: int = 2) -> JordanMorphism:
    """a maps to a (+) a^T into two target blocks of unit weight."""
    src = TracedAlgebra((n,), (1.0,))
    tgt = TracedAlgebra((n, n), (1.0, 1.0))
    return JordanMorphism(src, tgt, (
        BlockImage((Assignment(0, 1, "homo"),)),
        BlockImage((Assignment(0, 1, "anti"),)),
    ))


def kernel_morphism() -> JordanMorphism:
    """Two source blocks, the second killed."""
    src = TracedAlgebra((2, 2), (1.0, 1.0))
    tgt = TracedAlgebra((2,), (1.0,))
    return JordanMorphism(src, tgt, (BlockImage((Assignment(0, 1, "homo"),)),))


def padded_morphism(rng: np.random.Generator | None = None) -> JordanMorphism:
    """Non-unital embedding of a 2x2 block into a 3x3 block with one zero row."""
    src = TracedAlgebra((2,), (1.0,))
    tgt = TracedAlgebra((3,), (1.0,))
    u = None if rng is None else random_unitary(3, rng)
    return JordanMorphism(src, tgt, (BlockImage((Assignment(0, 1, "homo"),),
                                                unitary=u, pad=1),))


def mixed_flavor_morphism() -> JordanMorphism:
    """One plain and one transposed copy stacked into a single 4x4 block."""
    src = TracedAlgebra((2,), (1.0,))
    tgt = TracedAlgebra((4,), (1.0,))
    return JordanMorphism(src, tgt, (BlockImage((
        Assignment(0, 1, "homo"), Assignment(0, 1, "anti"))),))


def zero_morphism(n: int = 2) -> JordanMorphism:
    src = TracedAlgebra((n,), (1.0,))
    tgt = TracedAlgebra((n,), (1.0,))
    return JordanMorphism(src, tgt, (None,))


def morphism_catalog(rng: np.random.Generator) -> list[tuple[str, JordanMorphism]]:
    """At least ten structurally distinct morphisms, several unitary-twisted."""
    cat: list[tuple[str, JordanMorphism]] = [
        ("transpose_m2", transpose_morphism(2)),
        ("doubling_m2", doubling_morphism(2)),
        ("kernel_drop", kernel_morphism()),
        ("padded_embedding", padded_morphism()),
        ("padded_embedding_unitary", padded_morphism(rng)),
        ("mixed_flavor_stack", mixed_flavor_morphism()),
        ("zero", zero_morphism(2)),
    ]
    src = TracedAlgebra((2,), (1.0,))
    tgt = TracedAlgebra((4,), (1.0,))
    cat.append(("two_copies_unitary", JordanMorphism(src, tgt, (
        BlockImage((Assignment(0, 2, "homo"),), unitary=random_unitary(4, rng)),))))
    wsrc = TracedAlgebra((2, 1), (0.5, 2.0))
    wtgt = TracedAlgebra((2, 2, 1), (1.5, 1.0, 0.5))
    cat.append(("weighted_multiblock", JordanMorphism(wsrc, wtgt, (
        BlockImage((Assignment(0, 1, "homo"),)),
        BlockImage((Assignment(0, 1, "anti"),), unitary=random_unitary(2, rng)),
        BlockImage((Assignment(1, 1, "homo"),)),
    ))))
    m3 = TracedAlgebra((3,), (1.0,))
    cat.append(("transpose_m3_unitary", JordanMorphism(m3, m3, (
        BlockImage((Assignment(0, 1, "anti"),), unitary=random_unitary(3, rng)),))))
    return cat


# ---------------------------------------------------------------------------
# Positive map catalog
# ---------------------------------------------------------------------------

def pinching_map(n: int = 3) -> PositiveMap:
    """Conditional expectation onto the diagonal of a single block."""
    alg = TracedAlgebra((n,), (1.0,))
    ops = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        ops.append(e)
    return PositiveMap(alg, alg, (KrausGroup(0, 0, tuple(ops)),))


def scaled_identity_map(factor: float = 2.0, n: int = 2) -> PositiveMap:
    alg = TracedAlgebra((n,), (1.0,))
    op = np.sqrt(factor) * np.eye(n, dtype=complex)
    return PositiveMap(alg, alg, (KrausGroup(0, 0, (op,)),))


def depolarizing_map(n: int = 2) -> PositiveMap:
    """Completely depolarizing channel a -> tr(a)/n * identity; Choi rank n^2."""
    alg = TracedAlgebra((n,), (1.0,))
    ops = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0 / np.sqrt(n)
            ops.append(e)
    return PositiveMap(alg, alg, (KrausGroup(0, 0, tuple(ops)),))


def mixed_unitary_map(rng: np.random.Generator, n: int = 3, terms: int = 3) -> PositiveMap:
    """Unital trace-preserving channel: convex mix of unitary conjugations."""
    alg = TracedAlgebra((n,), (1.0,))
    p = rng.dirichlet(np.ones(terms))
    ops = tuple(np.sqrt(p[i]) * random_unitary(n, rng) for i in range(terms))
    return PositiveMap(alg, alg, (KrausGroup(0, 0, ops),))


def random_trace_preserving_map(rng: np.random.Generator, n: int = 3,
                                terms: int = 4) -> PositiveMap:
    """Kraus-generated channel whitened so the adjoint is unital (trace preserving)."""
    alg = TracedAlgebra((n,), (1.0,))
    raw = [_gauss_matrix(rng, n) for _ in range(terms)]
    s = sum(v.conj().T @ v for v in raw)
    evals, evecs = np.linalg.eigh(s)
    whiten = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    ops = tuple(v @ whiten for v in raw)
    return PositiveMap(alg, alg, (KrausGroup(0, 0, ops),))


def isometry_compression_map(rng: np.random.Generator, big: int = 3,
                             small: int = 2) -> PositiveMap:
    """a -> V* a V with an isometry V (columns orthonormal); a pure CP map."""
    src = TracedAlgebra((big,), (1.0,))
    tgt = TracedAlgebra((small,), (1.0,))
    q, _ = np.linalg.qr(_gauss_matrix(rng, big))
    v = q[:, :small]  # big x small, V*V = identity on the small side
    return PositiveMap(src, tgt, (KrausGroup(0, 0, (v.conj().T,)),))


def identity_channel(n: int = 2) -> PositiveMap:
    alg = TracedAlgebra((n,), (1.0,))
    return PositiveMap(alg, alg, (KrausGroup(0, 0, (np.eye(n, dtype=complex),)),))


def positive_map_catalog(rng: np.random.Generator) -> list[tuple[str, PositiveMap]]:
    return [
        ("pinching_m3", pinching_map(3)),
        ("scaled_identity", scaled_identity_map(2.0, 2)),
        ("depolarizing_m2", depolarizing_map(2)),
        ("mixed_unitary_m3", mixed_unitary_map(rng, 3)),
        ("random_channel_m3", random_trace_preserving_map(rng, 3)),
        ("isometry_compression", isometry_compression_map(rng)),
    ]
