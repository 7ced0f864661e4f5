"""The outsourced graph ``Go`` (Definition 5) and its inverse.

``Go`` is the subgraph of ``Gk`` the cloud actually receives:

* vertices — block ``B1`` of ``Gk`` plus the one-hop neighbours of
  ``B1`` (the set ``N1``);
* edges — every ``Gk`` edge with at least one endpoint in ``B1``
  (edges inside ``B1`` and edges between ``B1`` and ``N1``; edges
  between two ``N1`` vertices are *not* shipped).

Because the automorphic functions act transitively on blocks, every
``Gk`` edge has a counterpart incident to ``B1``, so ``Gk`` is exactly
recoverable from ``Go`` + AVT (:func:`recover_gk`) — the property that
lets the cloud answer queries over ``Gk`` while storing roughly a
``1/k`` fraction of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.attributed import AttributedGraph
from repro.kauto.avt import AlignmentVertexTable


@dataclass
class OutsourcedGraph:
    """``Go`` plus the block bookkeeping the cloud engine needs."""

    graph: AttributedGraph
    block_vertices: list[int]
    neighbor_vertices: list[int] = field(default_factory=list)

    @property
    def block_set(self) -> set[int]:
        return set(self.block_vertices)

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count


def build_outsourced_graph(
    gk: AttributedGraph,
    avt: AlignmentVertexTable,
) -> OutsourcedGraph:
    """Extract ``Go`` from ``Gk`` per Definition 5."""
    block = avt.first_block()
    go = gk.incident_subgraph(block, f"{gk.name}-outsourced")
    return OutsourcedGraph(
        graph=go,
        block_vertices=block,
        neighbor_vertices=list(go.vertex_ids())[len(block) :],
    )


def recover_gk(outsourced: OutsourcedGraph, avt: AlignmentVertexTable) -> AttributedGraph:
    """Rebuild the full ``Gk`` from ``Go`` and the automorphic functions.

    Every vertex of ``Gk`` is ``F_m`` of some ``B1`` vertex; every edge
    of ``Gk`` is ``F_m`` of some ``Go`` edge.  Labels and types follow
    the row (symmetric vertices share them).
    """
    go = outsourced.graph
    gk = AttributedGraph(go.name.replace("-outsourced", "") or "recovered")
    for row in avt.rows():
        anchor = go.vertex(row[0])
        for vid in row:
            gk.add_vertex(vid, anchor.vertex_type, anchor.labels)
    for m in range(avt.k):
        f_m = avt.function(m)
        gk.add_edges((f_m(u), f_m(v)) for u, v in go.edges())
    return gk


def compression_ratio(outsourced: OutsourcedGraph, gk: AttributedGraph) -> float:
    """``|E(Go)| / |E(Gk)|`` — the space saving headline (Figure 12)."""
    if gk.edge_count == 0:
        return 1.0
    return outsourced.edge_count / gk.edge_count
