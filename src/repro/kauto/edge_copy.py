"""Edge copy: closing crossing edges under the automorphic functions.

The second half of the k-automorphism construction (Figure 3(c) of the
paper): every edge crossing between two different blocks is copied
through every automorphic function ``F_m`` so the crossing-edge set
becomes invariant under the cyclic symmetry.
"""

from __future__ import annotations

from repro.graph.attributed import AttributedGraph
from repro.kauto.avt import AlignmentVertexTable


def copy_crossing_edges(
    graph: AttributedGraph,
    avt: AlignmentVertexTable,
) -> list[tuple[int, int]]:
    """Add ``F_m(u)F_m(v)`` for every crossing edge ``(u, v)`` and m.

    Mutates ``graph`` in place; returns the list of added (noise)
    edges.  Iterates to a fixed point in one pass: the image of a
    crossing edge under ``F_m`` is itself crossing, and applying all
    ``m`` in 0..k-1 to every original crossing edge already closes the
    orbit (``F`` is cyclic of order k).
    """
    k = avt.k
    where = avt.positions()
    crossing = []
    for u, v in graph.edges():
        at_u, at_v = where.get(u), where.get(v)
        if at_u is not None and at_v is not None and at_u[1] != at_v[1]:
            crossing.append((avt.row(at_u[0]), at_u[1], avt.row(at_v[0]), at_v[1]))
    return graph.add_edges(
        (row_u[(block_u + m) % k], row_v[(block_v + m) % k])
        for row_u, block_u, row_v, block_v in crossing
        for m in range(1, k)
    )
