"""Block alignment: building AVT rows and intra-block noise edges.

Given a k-way partition of the (label-generalized) data graph, this
module

1. orders each block's vertices with a BFS traversal (the paper uses a
   BFS strategy in graph alignment) grouped by vertex type,
2. pads blocks with *noise vertices* so that every block holds the same
   number of vertices of every type — this is what lets the automorphic
   functions preserve vertex types, which Theorem 3 (match expansion)
   silently requires for attributed graphs,
3. assembles the AVT rows (one same-type vertex per block), and
4. adds the intra-block *alignment* noise edges: for every row pair
   that is adjacent inside at least one block, the same adjacency is
   replicated in every block, making the blocks pairwise isomorphic.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.graph.attributed import AttributedGraph
from repro.kauto.avt import AlignmentVertexTable


def bfs_order(graph: AttributedGraph, vertices: list[int]) -> list[int]:
    """BFS ordering of ``vertices`` over their induced subgraph.

    Starts from the highest-degree vertex (degree in the full graph);
    stray components are appended, each from its own max-degree seed.
    Deterministic: ties break on vertex id, neighbours visited sorted.
    """
    member = set(vertices)
    order: list[int] = []
    seen: set[int] = set()
    # candidates sorted once: by (-degree, id) for deterministic seeds
    seeds = sorted(vertices, key=lambda v: (-graph.degree(v), v))
    for seed in seeds:
        if seed in seen:
            continue
        queue = deque([seed])
        seen.add(seed)
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in sorted(graph.neighbors(u)):
                if v in member and v not in seen:
                    seen.add(v)
                    queue.append(v)
    return order


def label_signature(graph: AttributedGraph, vertex: int) -> tuple:
    """Canonical form of a vertex's label sets (for alignment pairing)."""
    data = graph.vertex(vertex)
    return tuple(
        (attr, tuple(sorted(values))) for attr, values in sorted(data.labels.items())
    )


def build_avt(
    graph: AttributedGraph,
    blocks: list[list[int]],
    noise_id_start: int | None = None,
    label_aware: bool = False,
) -> tuple[AlignmentVertexTable, list[int], AttributedGraph]:
    """Assemble the AVT from ``blocks``, padding with noise vertices.

    Returns ``(avt, noise_vertex_ids, padded_graph)`` where
    ``padded_graph`` is a copy of ``graph`` extended with the noise
    vertices (no labels yet; the pipeline assigns the row-union of
    label groups afterwards).

    Rows are built per vertex type: the type-``t`` vertices of each
    block, in BFS order, are zipped across blocks; shorter lists are
    padded with fresh noise vertices of type ``t``.

    ``label_aware=True`` orders each block's type-``t`` vertices by
    label signature (BFS order as tiebreak) instead of pure BFS order:
    vertices with identical label sets then land in the same AVT row,
    so the symmetric row-union widens label groups less.  This lowers
    the cost-model inflation δ(k) and the published graph's label
    noise at a small cost in intra-block alignment quality (the BFS
    pairing tracks structure; the label pairing tracks attributes).
    """
    k = len(blocks)
    padded = graph.copy()
    next_id = noise_id_start
    if next_id is None:
        next_id = (max(graph.vertex_ids()) + 1) if graph.vertex_count else 0

    # type -> block index -> ordered vertex list
    per_type: dict[str, list[list[int]]] = defaultdict(lambda: [[] for _ in range(k)])
    for b, block in enumerate(blocks):
        ordered = bfs_order(graph, block)
        if label_aware:
            bfs_position = {vid: i for i, vid in enumerate(ordered)}
            ordered = sorted(
                ordered,
                key=lambda vid: (label_signature(graph, vid), bfs_position[vid]),
            )
        for vid in ordered:
            vertex_type = graph.vertex(vid).vertex_type
            per_type[vertex_type][b].append(vid)

    noise_ids: list[int] = []
    rows: list[list[int]] = []
    for vertex_type in sorted(per_type):
        columns = per_type[vertex_type]
        height = max(len(col) for col in columns)
        for b in range(k):
            while len(columns[b]) < height:
                padded.add_vertex(next_id, vertex_type)
                columns[b].append(next_id)
                noise_ids.append(next_id)
                next_id += 1
        for i in range(height):
            rows.append([columns[b][i] for b in range(k)])

    avt = AlignmentVertexTable(rows)
    return avt, noise_ids, padded


def align_blocks(
    graph: AttributedGraph,
    avt: AlignmentVertexTable,
) -> list[tuple[int, int]]:
    """Replicate intra-block adjacency patterns across all blocks.

    For every pair of AVT rows ``(i, j)`` adjacent within at least one
    block, ensure the corresponding vertices are adjacent in *every*
    block.  Mutates ``graph`` in place and returns the added (noise)
    edges.
    """
    where = avt.positions()
    patterns: set[tuple[int, int]] = set()
    for u, v in graph.edges():
        at_u, at_v = where.get(u), where.get(v)
        if at_u is not None and at_v is not None and at_u[1] == at_v[1]:
            i, j = at_u[0], at_v[0]
            patterns.add((i, j) if i < j else (j, i))

    return graph.add_edges(
        pair for i, j in sorted(patterns) for pair in zip(avt.row(i), avt.row(j))
    )
