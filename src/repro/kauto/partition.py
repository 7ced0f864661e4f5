"""Multilevel k-way graph partitioning (METIS substitute).

The paper partitions ``G`` into ``k`` blocks with METIS [11] before
building the k-automorphic graph; the number of noise edges the
transform must add grows with the number of *crossing* edges between
blocks, so cut quality directly controls the privacy overhead
(Figure 11).  This module implements the same multilevel scheme family
as METIS, from scratch:

1. **Coarsening** — repeated heavy-edge matching collapses matched
   vertex pairs into super-vertices, keeping vertex and edge weights.
2. **Initial partitioning** — greedy BFS region growing on the
   coarsest graph produces ``k`` weight-balanced parts.
3. **Uncoarsening + refinement** — at every level a boundary
   Kernighan–Lin/FM pass moves vertices to the part where they have the
   most edge weight, subject to a balance tolerance.

The result is a list of ``k`` disjoint vertex-id lists covering the
graph.  Blocks are *approximately* balanced; exact equalization (and
per-type equalization, needed by the type-aware alignment) is done by
the k-automorphism builder with noise vertices.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain

from repro.exceptions import PartitionError
from repro.graph.attributed import AttributedGraph


@dataclass
class _Level:
    """One coarsening level: a weighted graph plus the projection map."""

    # adjacency with edge weights: u -> {v: weight}
    adj: dict[int, dict[int, int]]
    vertex_weight: dict[int, int]
    # coarse vertex -> vertices of the *finer* level it absorbed
    members: dict[int, list[int]] = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_weight)

    def total_weight(self) -> int:
        return sum(self.vertex_weight.values())


def _level_from_graph(graph: AttributedGraph) -> _Level:
    adj = {vid: {} for vid in graph.vertex_ids()}
    for u, v in graph.edges():
        adj[u][v] = 1
        adj[v][u] = 1
    weights = {vid: 1 for vid in graph.vertex_ids()}
    return _Level(adj=adj, vertex_weight=weights)


def _heavy_edge_matching(level: _Level, rng: random.Random) -> dict[int, int]:
    """Match each vertex with its heaviest unmatched neighbour.

    Returns a map vertex -> partner (symmetric); unmatched vertices map
    to themselves.
    """
    order = list(level.adj)
    rng.shuffle(order)
    partner: dict[int, int] = {}
    for u in order:
        if u in partner:
            continue
        best, best_w = None, -1
        for v, w in level.adj[u].items():
            if v not in partner and v != u and w > best_w:
                best, best_w = v, w
        if best is None:
            partner[u] = u
        else:
            partner[u] = best
            partner[best] = u
    return partner


def _coarsen(level: _Level, rng: random.Random) -> _Level | None:
    """One coarsening step; None if matching can no longer shrink much."""
    partner = _heavy_edge_matching(level, rng)
    # name coarse vertices 0..; map fine -> coarse
    coarse_of: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    next_id = 0
    for u in level.adj:
        if u in coarse_of:
            continue
        v = partner[u]
        cid = next_id
        next_id += 1
        coarse_of[u] = cid
        group = [u]
        if v != u and v not in coarse_of:
            coarse_of[v] = cid
            group.append(v)
        members[cid] = group
    if next_id > 0.95 * level.vertex_count:
        return None  # matching stalled; stop coarsening

    coarse_adj: dict[int, dict[int, int]] = {cid: {} for cid in members}
    coarse_weight = {
        cid: sum(level.vertex_weight[u] for u in group)
        for cid, group in members.items()
    }
    for u, nbrs in level.adj.items():
        cu = coarse_of[u]
        row = coarse_adj[cu]
        for v, w in nbrs.items():
            cv = coarse_of[v]
            if cu == cv:
                continue
            row[cv] = row.get(cv, 0) + w
    # Each fine edge (u, v) contributes once to coarse_adj[cu][cv] (seen
    # from u) and once to the symmetric slot coarse_adj[cv][cu] (seen
    # from v), so the directional weights are already correct.
    return _Level(adj=coarse_adj, vertex_weight=coarse_weight, members=members)


def _initial_partition(level: _Level, k: int, rng: random.Random) -> dict[int, int]:
    """Greedy BFS region growing into ``k`` weight-balanced parts."""
    total = level.total_weight()
    target = total / k if k else 0
    unassigned = set(level.adj)
    assignment: dict[int, int] = {}
    for part in range(k - 1):
        if not unassigned:
            break
        # seed: highest-degree unassigned vertex for compact regions
        seed = max(unassigned, key=lambda v: len(level.adj[v]))
        weight = 0
        frontier = [seed]
        region: set[int] = set()
        while frontier and weight < target:
            u = frontier.pop()
            if u not in unassigned or u in region:
                continue
            region.add(u)
            weight += level.vertex_weight[u]
            nbrs = [v for v in level.adj[u] if v in unassigned and v not in region]
            rng.shuffle(nbrs)
            frontier.extend(nbrs)
            if not frontier:
                remaining = unassigned - region
                if remaining and weight < target:
                    frontier.append(next(iter(remaining)))
        for u in region:
            assignment[u] = part
        unassigned -= region
    for u in unassigned:
        assignment[u] = k - 1
    return assignment


def _refine(
    level: _Level,
    assignment: dict[int, int],
    k: int,
    passes: int,
    tolerance: float,
) -> None:
    """Greedy boundary FM refinement, in place."""
    weight = level.vertex_weight
    part_weight = [0] * k
    for u, p in assignment.items():
        part_weight[p] += weight[u]
    total = sum(part_weight)
    max_weight = (1.0 + tolerance) * total / k if k else 0.0
    # toward[u][p]: u's edge weight into part p — built once, kept
    # current by each move (only the mover's neighbours change)
    toward: dict[int, list[int]] = {}
    for u, nbrs in level.adj.items():
        row = toward[u] = [0] * k
        for v, w in nbrs.items():
            row[assignment[v]] += w

    for _ in range(passes):
        moved = 0
        for u, nbrs in level.adj.items():
            current = assignment[u]
            row = toward[u]
            here = row[current]
            if max(row) <= here:
                continue  # no part pulls harder than its own
            best_part, best_gain = current, 0
            for p in range(k):
                gain = row[p] - here
                if gain > best_gain and part_weight[p] + weight[u] <= max_weight:
                    best_part, best_gain = p, gain
            if best_part != current:
                part_weight[current] -= weight[u]
                part_weight[best_part] += weight[u]
                assignment[u] = best_part
                moved += 1
                for v, w in nbrs.items():
                    pulled = toward[v]
                    pulled[current] -= w
                    pulled[best_part] += w
        if moved == 0:
            break


def _weighted_cut(level: _Level, assignment: dict[int, int]) -> float:
    cut = 0.0
    for u, nbrs in level.adj.items():
        for v, w in nbrs.items():
            if u < v and assignment[u] != assignment[v]:
                cut += w
    return cut


def partition_graph(
    graph: AttributedGraph,
    k: int,
    seed: int = 0,
    balance_tolerance: float = 0.10,
    refinement_passes: int = 4,
    coarsen_to: int | None = None,
) -> list[list[int]]:
    """Partition ``graph`` into ``k`` blocks minimizing crossing edges.

    Returns ``k`` disjoint, collectively exhaustive lists of vertex
    ids (some may be empty when the graph is tiny).  Deterministic for
    a fixed ``seed``.
    """
    if k < 1:
        raise PartitionError("k must be >= 1")
    if k == 1:
        return [sorted(graph.vertex_ids())]
    if graph.vertex_count == 0:
        return [[] for _ in range(k)]

    rng = random.Random(seed)
    levels = [_level_from_graph(graph)]
    threshold = coarsen_to if coarsen_to is not None else max(64, 24 * k)
    while levels[-1].vertex_count > threshold:
        coarser = _coarsen(levels[-1], rng)
        if coarser is None:
            break
        levels.append(coarser)

    # several random restarts at the (cheap) coarsest level; keep the
    # assignment with the smallest cut
    best_assignment: dict[int, int] | None = None
    best_cut = float("inf")
    for _ in range(4):
        candidate = _initial_partition(levels[-1], k, rng)
        _refine(levels[-1], candidate, k, refinement_passes, balance_tolerance)
        cut = _weighted_cut(levels[-1], candidate)
        if cut < best_cut:
            best_assignment, best_cut = candidate, cut
    assert best_assignment is not None
    assignment = best_assignment

    # project back through the levels, refining at each
    for fine, coarse in zip(reversed(levels[:-1]), reversed(levels[1:])):
        fine_assignment: dict[int, int] = {}
        for cid, group in coarse.members.items():
            for u in group:
                fine_assignment[u] = assignment[cid]
        assignment = fine_assignment
        _refine(fine, assignment, k, refinement_passes, balance_tolerance)

    blocks: list[list[int]] = [[] for _ in range(k)]
    for vid, part in assignment.items():
        blocks[part].append(vid)
    for block in blocks:
        block.sort()
    return blocks


def balance_types(
    graph: AttributedGraph,
    blocks: list[list[int]],
) -> list[list[int]]:
    """Equalize per-type vertex counts across blocks by greedy moves.

    The type-aware AVT pads every (block, type) deficit with a noise
    vertex, so per-type imbalance translates directly into noise
    vertices.  This post-pass moves vertices from over-full to
    under-full blocks (per type), choosing the vertex with the fewest
    connections inside its current block so the cut grows as little as
    possible.  After the pass, per-type counts differ by at most one
    across blocks (zero padding when counts divide evenly).
    """
    k = len(blocks)
    if k <= 1:
        return [sorted(block) for block in blocks]
    block_of = {vid: index for index, block in enumerate(blocks) for vid in block}
    # neighbours inside the vertex's own block, kept current under moves
    internal = {
        vid: sum(1 for n in graph.neighbors(vid) if block_of.get(n) == home)
        for vid, home in block_of.items()
    }
    # type -> block -> the vertices of that type there
    pools: dict[str, list[set[int]]] = defaultdict(lambda: [set() for _ in range(k)])
    for vid, home in block_of.items():
        pools[graph.vertex(vid).vertex_type][home].add(vid)

    for pool in pools.values():
        counts = [len(members) for members in pool]
        floor, remainder = divmod(sum(counts), k)
        # fixed quotas: the blocks that already hold the most vertices
        # of this type keep the +1 shares (fewest moves needed)
        initially_largest = sorted(range(k), key=lambda b: (-counts[b], b))
        quota = {
            b: floor + (1 if rank < remainder else 0)
            for rank, b in enumerate(initially_largest)
        }
        while True:
            over = [b for b in range(k) if len(pool[b]) > quota[b]]
            under = [b for b in range(k) if len(pool[b]) < quota[b]]
            if not over or not under:
                break
            source = over[0]
            destination = under[0]
            mover = min(pool[source], key=lambda vid: (internal[vid], vid))
            pool[source].remove(mover)
            pool[destination].add(mover)
            block_of[mover] = destination
            internal[mover] = 0
            for n in graph.neighbors(mover):
                home = block_of.get(n)
                if home == source:
                    internal[n] -= 1
                elif home == destination:
                    internal[n] += 1
                    internal[mover] += 1
    return [sorted(chain.from_iterable(pool[b] for pool in pools.values())) for b in range(k)]


def cut_size(graph: AttributedGraph, blocks: list[list[int]]) -> int:
    """Number of edges of ``graph`` crossing between different blocks."""
    part_of: dict[int, int] = {}
    for i, block in enumerate(blocks):
        for vid in block:
            part_of[vid] = i
    return sum(1 for u, v in graph.edges() if part_of[u] != part_of[v])


def validate_partition(graph: AttributedGraph, blocks: list[list[int]], k: int) -> None:
    """Raise :class:`PartitionError` unless blocks form a k-way partition."""
    if len(blocks) != k:
        raise PartitionError(f"expected {k} blocks, got {len(blocks)}")
    seen: set[int] = set()
    for block in blocks:
        for vid in block:
            if vid in seen:
                raise PartitionError(f"vertex {vid} appears in two blocks")
            seen.add(vid)
    missing = graph.vertex_id_set() - seen
    extra = seen - graph.vertex_id_set()
    if missing:
        raise PartitionError(f"vertices not assigned to any block: {sorted(missing)[:5]}")
    if extra:
        raise PartitionError(f"unknown vertices in blocks: {sorted(extra)[:5]}")
