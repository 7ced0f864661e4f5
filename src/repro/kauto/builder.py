"""End-to-end construction of the k-automorphic graph ``Gk``.

Pipeline (Section 2.2 of the paper):

1. partition the data graph into ``k`` blocks (multilevel partitioner,
   our METIS substitute);
2. build the Alignment Vertex Table, padding blocks with noise vertices
   so every block carries the same number of vertices per type;
3. *block alignment* — replicate intra-block adjacency across blocks;
4. *edge copy* — close crossing edges under the automorphic functions;
5. unify label sets along each AVT row (each symmetric vertex group
   shares the union of its members' label groups, Section 3).

The input graph is expected to carry **generalized** labels (label
group ids) — the builder is label-agnostic and simply unions whatever
labels it finds, so running it on a raw-labeled graph would leak raw
labels into symmetric vertices.  The :class:`repro.core.data_owner.
DataOwner` pipeline generalizes first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import PartitionError
from repro.graph.attributed import AttributedGraph
from repro.kauto.alignment import align_blocks, build_avt
from repro.kauto.avt import AlignmentVertexTable
from repro.kauto.edge_copy import copy_crossing_edges
from repro.kauto.partition import balance_types, partition_graph, validate_partition
from repro.obs import names
from repro.obs.tracing import NULL_TRACER

Partitioner = Callable[[AttributedGraph, int], list[list[int]]]


@dataclass
class KAutomorphismResult:
    """Everything produced by the transform, plus provenance counters."""

    gk: AttributedGraph
    avt: AlignmentVertexTable
    k: int
    noise_vertex_ids: list[int]
    alignment_noise_edges: list[tuple[int, int]] = field(default_factory=list)
    crossing_noise_edges: list[tuple[int, int]] = field(default_factory=list)
    original_vertex_count: int = 0
    original_edge_count: int = 0

    @property
    def noise_edge_count(self) -> int:
        """``|E(Gk)| - |E(G)|`` — the privacy overhead (Figure 11)."""
        return len(self.alignment_noise_edges) + len(self.crossing_noise_edges)

    @property
    def noise_vertex_count(self) -> int:
        return len(self.noise_vertex_ids)


def build_k_automorphic_graph(
    graph: AttributedGraph,
    k: int,
    seed: int = 0,
    partitioner: Partitioner | None = None,
    label_aware_alignment: bool = False,
    type_balancing: bool = True,
    obs=None,
) -> KAutomorphismResult:
    """Transform ``graph`` into a k-automorphic graph ``Gk``.

    ``partitioner`` may override the default multilevel partitioner
    (it must return ``k`` disjoint vertex-id lists covering the graph).
    The returned ``Gk`` contains ``graph`` as an id-preserving subgraph
    (no vertices or edges are ever removed).

    ``label_aware_alignment`` pairs similarly-labeled vertices into
    AVT rows (see :func:`repro.kauto.alignment.build_avt`), trading a
    few extra alignment noise edges for much narrower published label
    groups.

    ``type_balancing`` (default on) equalizes per-type counts across
    blocks after partitioning, minimizing the noise vertices the
    type-aware AVT must pad with.

    ``obs`` (an :class:`repro.obs.Observability`, optional) records a
    span per phase (``kauto.partition`` / ``kauto.alignment`` /
    ``kauto.edge_copy``); ``None`` runs with the shared null tracer.
    """
    if k < 2:
        raise PartitionError("k-automorphism requires k >= 2")
    tracer = obs.tracer if obs is not None else NULL_TRACER

    with tracer.span(names.KAUTO_PARTITION) as span:
        if partitioner is None:
            blocks = partition_graph(graph, k, seed=seed)
        else:
            blocks = partitioner(graph, k)
        validate_partition(graph, blocks, k)
        if type_balancing:
            blocks = balance_types(graph, blocks)
            validate_partition(graph, blocks, k)
        span.set(blocks=len(blocks), block_size=len(blocks[0]) if blocks else 0)

    with tracer.span(names.KAUTO_ALIGNMENT) as span:
        avt, noise_ids, gk = build_avt(
            graph, blocks, label_aware=label_aware_alignment
        )
        gk.name = f"{graph.name}-k{k}"
        alignment_edges = align_blocks(gk, avt)
        span.set(
            noise_vertices=len(noise_ids), alignment_edges=len(alignment_edges)
        )

    with tracer.span(names.KAUTO_EDGE_COPY) as span:
        crossing_edges = copy_crossing_edges(gk, avt)
        _unify_row_labels(gk, avt)
        span.set(crossing_edges=len(crossing_edges))

    return KAutomorphismResult(
        gk=gk,
        avt=avt,
        k=k,
        noise_vertex_ids=noise_ids,
        alignment_noise_edges=alignment_edges,
        crossing_noise_edges=crossing_edges,
        original_vertex_count=graph.vertex_count,
        original_edge_count=graph.edge_count,
    )


def _unify_row_labels(gk: AttributedGraph, avt: AlignmentVertexTable) -> None:
    """Give every vertex of an AVT row the union of the row's labels.

    Rows are type-homogeneous by construction, so unioning per
    attribute is well defined.  This is the paper's requirement that
    "all vertices in a symmetric vertex group have the same label
    groups": L(v) := L(v) ∪ L(F1(v)) ∪ ... ∪ L(Fk-1(v)).
    """
    for row in avt.rows():
        maps = [gk.vertex(vid).labels for vid in row]
        if all(labels == maps[0] for labels in maps[1:]):
            continue
        union: dict[str, set[str]] = {}
        for labels in maps:
            for attr, values in labels.items():
                union.setdefault(attr, set()).update(values)
        gk.set_shared_labels(row, union)
