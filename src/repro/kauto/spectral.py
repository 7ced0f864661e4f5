"""Spectral k-way partitioning (alternative METIS substitute).

Recursive spectral bisection: split on the sign structure of the
Fiedler vector (the eigenvector of the graph Laplacian's second-
smallest eigenvalue), recursing until ``k`` parts exist, then polish
with the same FM refinement the multilevel partitioner uses.  Spectral
methods often find smoother cuts on well-clustered graphs; the
multilevel scheme is faster and more robust on irregular ones —
``benchmarks/bench_partitioner_quality.py`` compares them.

Uses scipy's sparse eigensolver; falls back to a balanced index split
for components too small for the solver.

numpy and scipy are optional dependencies of the package (the matching
pipeline degrades to its tuple-row kernels without them — see
:mod:`repro.matching.vec`) and only this partitioner needs scipy, so
the solver stack is imported on use: ``import repro`` never loads it,
and a call without it raises
:class:`~repro.exceptions.PartitionError`.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import PartitionError
from repro.graph.attributed import AttributedGraph
from repro.kauto.partition import _level_from_graph, _refine


def _solver_stack() -> tuple[Any, Any, Any]:
    """``(numpy, csr_matrix, eigsh)``, or ``PartitionError`` without them."""
    try:
        import numpy
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import eigsh
    except ImportError as exc:  # pragma: no cover - the no-numpy CI leg
        raise PartitionError(
            "spectral partitioning requires numpy and scipy "
            "(install the package's 'fast' extra); the multilevel "
            "partitioner has no such dependency"
        ) from exc
    return numpy, csr_matrix, eigsh


def fiedler_order(graph: AttributedGraph, vertices: list[int]) -> list[int]:
    """Vertices sorted by their Fiedler-vector coordinate.

    Sorting by the second Laplacian eigenvector places vertices so that
    contiguous prefixes are good cuts; ties and solver failures degrade
    to the input (id) order.
    """
    n = len(vertices)
    if n < 4:
        return list(vertices)
    index = {vid: i for i, vid in enumerate(vertices)}
    member = set(vertices)

    rows: list[int] = []
    cols: list[int] = []
    for vid in vertices:
        for nbr in graph.neighbors(vid):
            if nbr in member:
                rows.append(index[vid])
                cols.append(index[nbr])
    if not rows:
        return list(vertices)
    np, csr_matrix, eigsh = _solver_stack()
    data = np.ones(len(rows))
    adjacency = csr_matrix((data, (rows, cols)), shape=(n, n))
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    laplacian = csr_matrix(
        (degrees, (np.arange(n), np.arange(n))), shape=(n, n)
    ) - adjacency

    try:
        # smallest two eigenpairs; sigma-shift for numerical stability
        _, eigenvectors = eigsh(laplacian.asfptype(), k=2, sigma=-1e-5, which="LM")
    except Exception:
        return list(vertices)
    fiedler = eigenvectors[:, 1]
    return [vid for _, vid in sorted(zip(fiedler, vertices), key=lambda p: (p[0], p[1]))]


def _split_counts(total: int, k: int) -> tuple[int, int]:
    """Proportional split of ``total`` vertices into ceil/floor halves of k."""
    left_parts = (k + 1) // 2
    left = round(total * left_parts / k)
    return left, total - left


def spectral_partition(
    graph: AttributedGraph,
    k: int,
    refinement_passes: int = 4,
    balance_tolerance: float = 0.10,
) -> list[list[int]]:
    """Recursive spectral bisection into ``k`` blocks + FM polish."""
    _solver_stack()  # fail before any work when the stack is missing
    if k < 1:
        raise PartitionError("k must be >= 1")
    vertices = sorted(graph.vertex_ids())
    if k == 1:
        return [vertices]

    def recurse(part: list[int], parts: int) -> list[list[int]]:
        if parts == 1:
            return [part]
        ordered = fiedler_order(graph, part)
        left_size, _ = _split_counts(len(ordered), parts)
        left, right = ordered[:left_size], ordered[left_size:]
        left_parts = (parts + 1) // 2
        return recurse(left, left_parts) + recurse(right, parts - left_parts)

    blocks = recurse(vertices, k)
    # polish at the fine level with the shared FM refinement
    if graph.vertex_count:
        level = _level_from_graph(graph)
        assignment = {
            vid: block_index
            for block_index, block in enumerate(blocks)
            for vid in block
        }
        _refine(level, assignment, k, refinement_passes, balance_tolerance)
        blocks = [[] for _ in range(k)]
        for vid, part in assignment.items():
            blocks[part].append(vid)
    return [sorted(block) for block in blocks]
