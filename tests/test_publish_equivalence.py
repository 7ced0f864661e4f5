"""The publish path's bulk rewrites against per-element references.

Every function below marked *reference* is the implementation the
publish path had before it stopped paying one Python call per edge or
per vertex — kept here verbatim, test-only, and sharing no code with
its replacement.  The replacements must produce the same blocks, AVT
rows, ``Gk``, noise-edge lists (as lists, in order), ``Go`` and index
tables, not merely equivalent ones.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.index import CloudIndex
from repro.exceptions import GraphError
from repro.graph import AttributedGraph
from repro.kauto import (
    build_k_automorphic_graph,
    partition_graph,
    validate_partition,
    verify_k_automorphism,
)
from repro.kauto import partition as partition_module
from repro.kauto.alignment import align_blocks, bfs_order, build_avt
from repro.kauto.edge_copy import copy_crossing_edges
from repro.kauto.partition import (
    _coarsen,
    _heavy_edge_matching,
    _Level,
    _level_from_graph,
    _refine,
    balance_types,
)
from repro.matching import vec
from repro.outsource import build_outsourced_graph, recover_gk
from repro.workloads import load_dataset


# ----------------------------------------------------------------------
# references (the pre-bulk implementations, verbatim)
# ----------------------------------------------------------------------
def reference_balance_types(graph, blocks):
    k = len(blocks)
    if k <= 1:
        return [sorted(block) for block in blocks]
    blocks = [list(block) for block in blocks]
    block_of = {}
    for index, block in enumerate(blocks):
        for vid in block:
            block_of[vid] = index

    by_type = {}
    for vid in block_of:
        by_type.setdefault(graph.vertex(vid).vertex_type, []).append(vid)

    def internal_degree(vid):
        home = block_of[vid]
        return sum(1 for n in graph.neighbors(vid) if block_of.get(n) == home)

    for vertex_type, members in by_type.items():
        counts = [0] * k
        for vid in members:
            counts[block_of[vid]] += 1
        floor = len(members) // k
        remainder = len(members) - floor * k
        initially_largest = sorted(range(k), key=lambda b: (-counts[b], b))
        quota = {
            b: floor + (1 if rank < remainder else 0)
            for rank, b in enumerate(initially_largest)
        }
        while True:
            over = [b for b in range(k) if counts[b] > quota[b]]
            under = [b for b in range(k) if counts[b] < quota[b]]
            if not over or not under:
                break
            source = over[0]
            destination = under[0]
            movable = [
                vid
                for vid in blocks[source]
                if graph.vertex(vid).vertex_type == vertex_type
            ]
            mover = min(movable, key=lambda vid: (internal_degree(vid), vid))
            blocks[source].remove(mover)
            blocks[destination].append(mover)
            block_of[mover] = destination
            counts[source] -= 1
            counts[destination] += 1
    return [sorted(block) for block in blocks]


def _reference_refine(level, assignment, k, passes, tolerance):
    """``_refine`` as it was: every vertex's row recomputed in every pass."""
    part_weight = [0] * k
    for u, p in assignment.items():
        part_weight[p] += level.vertex_weight[u]
    total = sum(part_weight)
    max_weight = (1.0 + tolerance) * total / k if k else 0.0

    for _ in range(passes):
        moved = 0
        for u, nbrs in level.adj.items():
            current = assignment[u]
            # edge weight toward each part
            toward = [0] * k
            for v, w in nbrs.items():
                toward[assignment[v]] += w
            best_part, best_gain = current, 0
            for p in range(k):
                if p == current:
                    continue
                gain = toward[p] - toward[current]
                if gain > best_gain:
                    if part_weight[p] + level.vertex_weight[u] <= max_weight:
                        best_part, best_gain = p, gain
            if best_part != current:
                part_weight[current] -= level.vertex_weight[u]
                part_weight[best_part] += level.vertex_weight[u]
                assignment[u] = best_part
                moved += 1
        if moved == 0:
            break


def _reference_coarsen(level, rng):
    """``_coarsen`` as it was: the coarse row looked up afresh per edge."""
    partner = _heavy_edge_matching(level, rng)
    coarse_of = {}
    members = {}
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
        return None

    coarse_adj = {cid: {} for cid in members}
    coarse_weight = {
        cid: sum(level.vertex_weight[u] for u in group)
        for cid, group in members.items()
    }
    for u, nbrs in level.adj.items():
        cu = coarse_of[u]
        for v, w in nbrs.items():
            cv = coarse_of[v]
            if cu == cv:
                continue
            coarse_adj[cu][cv] = coarse_adj[cu].get(cv, 0) + w
    return _Level(adj=coarse_adj, vertex_weight=coarse_weight, members=members)


def reference_bfs_order(graph, vertices):
    member = set(vertices)
    order = []
    seen = set()
    seeds = sorted(vertices, key=lambda v: (-graph.degree(v), v))
    for seed in seeds:
        if seed in seen:
            continue
        queue = [seed]
        seen.add(seed)
        while queue:
            u = queue.pop(0)
            order.append(u)
            for v in sorted(graph.neighbors(u)):
                if v in member and v not in seen:
                    seen.add(v)
                    queue.append(v)
    return order


def reference_align_blocks(graph, avt):
    k = avt.k
    patterns = set()
    for u, v in graph.edges():
        if u not in avt or v not in avt:
            continue
        row_u, block_u = avt.position(u)
        row_v, block_v = avt.position(v)
        if block_u == block_v:
            patterns.add((min(row_u, row_v), max(row_u, row_v)))

    added = []
    for i, j in sorted(patterns):
        row_i = avt.row(i)
        row_j = avt.row(j)
        for b in range(k):
            u, v = row_i[b], row_j[b]
            if graph.add_edge(u, v):
                added.append((min(u, v), max(u, v)))
    return added


def reference_copy_crossing_edges(graph, avt):
    k = avt.k
    crossing = [
        (u, v)
        for u, v in graph.edges()
        if u in avt and v in avt and avt.block_of(u) != avt.block_of(v)
    ]
    added = []
    for u, v in crossing:
        for m in range(1, k):
            fu = avt.apply(u, m)
            fv = avt.apply(v, m)
            if graph.add_edge(fu, fv):
                added.append((min(fu, fv), max(fu, fv)))
    return added


def reference_unify_row_labels(gk, avt):
    for row in avt.rows():
        union = {}
        for vid in row:
            for attr, values in gk.vertex(vid).labels.items():
                union.setdefault(attr, set()).update(values)
        if not union:
            continue
        frozen = {attr: sorted(values) for attr, values in union.items()}
        for vid in row:
            gk.set_vertex_labels(vid, frozen)


def reference_index_tables(graph, vertices):
    """``CloudIndex.build``'s four tables, one big-integer OR per bit."""
    position = {vid: p for p, vid in enumerate(vertices)}
    type_bits, vbv, group_bit = {}, {}, {}

    def bit_of(key):
        if key not in group_bit:
            group_bit[key] = len(group_bit)
        return group_bit[key]

    for vid in vertices:
        data = graph.vertex(vid)
        mask = 1 << position[vid]
        type_bits[data.vertex_type] = type_bits.get(data.vertex_type, 0) | mask
        for attr, groups in data.labels.items():
            for group in groups:
                key = (attr, group)
                bit_of(key)
                vbv[key] = vbv.get(key, 0) | mask

    lbv = {}
    for vid in vertices:
        neighbor_mask = 0
        for nbr in graph.neighbors(vid):
            nbr_data = graph.vertex(nbr)
            for attr, groups in nbr_data.labels.items():
                for group in groups:
                    neighbor_mask |= 1 << bit_of((attr, group))
        lbv[vid] = neighbor_mask
    return type_bits, vbv, group_bit, lbv


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@st.composite
def typed_graphs_with_blocks(draw):
    """A random typed graph and a random (possibly lopsided) k-way split."""
    n = draw(st.integers(4, 40))
    k = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    types = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    graph = AttributedGraph("random")
    for vid in range(n):
        graph.add_vertex(vid, rng.choice(types))
    for _ in range(draw(st.integers(0, 3 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    blocks = [[] for _ in range(k)]
    for vid in range(n):
        blocks[rng.randrange(k)].append(vid)
    return graph, blocks


@st.composite
def weighted_levels(draw):
    """A symmetric weighted level (as coarsening leaves them), a part
    count and a random starting assignment."""
    n = draw(st.integers(5, 60))
    k = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    order = list(range(n))
    rng.shuffle(order)  # dict order is the visiting order: not sorted
    adj = {u: {} for u in order}
    for _ in range(draw(st.integers(0, 4 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u][v] = adj[v][u] = rng.randint(1, 9)
    level = _Level(adj=adj, vertex_weight={u: rng.randint(1, 4) for u in order})
    return level, k, {u: rng.randrange(k) for u in order}


def generalized(name, scale, seed, theta=2):
    """A dataset analogue with label groups in place of labels."""
    from repro.core.config import SystemConfig
    from repro.core.data_owner import DataOwner

    dataset = load_dataset(name, scale=scale, seed=seed)
    lct, _ = DataOwner(dataset.graph, dataset.schema).build_lct(
        SystemConfig(k=2, theta=theta, seed=seed)
    )
    return lct.apply_to_graph(dataset.graph)


@pytest.fixture(
    scope="module", params=["figure1", "uk2002-k4", "dbpedia-k3"]
)
def publish_input(request):
    """``(graph, k)``: the running example and two dataset analogues."""
    from repro.graph import example_social_network

    if request.param == "figure1":
        return example_social_network()[0], 2
    if request.param == "uk2002-k4":
        return generalized("UK-2002", 0.2, seed=5), 4
    return generalized("DBpedia", 0.3, seed=7), 3


# ----------------------------------------------------------------------
# partition post-pass
# ----------------------------------------------------------------------
class TestBalanceTypes:
    @settings(max_examples=150, deadline=None)
    @given(case=typed_graphs_with_blocks())
    def test_equals_the_rescanning_reference(self, case):
        graph, blocks = case
        balanced = balance_types(graph, blocks)
        assert balanced == reference_balance_types(graph, blocks)
        validate_partition(graph, balanced, len(blocks))
        for vertex_type in {data.vertex_type for data in graph.vertices()}:
            counts = [
                sum(graph.vertex(v).vertex_type == vertex_type for v in block)
                for block in balanced
            ]
            assert max(counts) - min(counts) <= 1

    def test_equals_the_reference_on_a_partitioned_dataset(self, publish_input):
        graph, k = publish_input
        blocks = partition_graph(graph, k, seed=3)
        assert balance_types(graph, blocks) == reference_balance_types(graph, blocks)

    def test_the_input_blocks_are_not_mutated(self, small_graph):
        blocks = partition_graph(small_graph, 3, seed=1)
        before = [list(block) for block in blocks]
        balance_types(small_graph, blocks)
        assert blocks == before


class TestRefine:
    """The incremental-gain ``_refine`` makes the moves the rescan made."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=weighted_levels(),
        tolerance=st.sampled_from([0.0, 0.1, 0.5]),
        passes=st.integers(1, 4),
    )
    def test_equals_the_rescanning_reference(self, case, tolerance, passes):
        level, k, start = case
        ours, theirs = dict(start), dict(start)
        _refine(level, ours, k, passes, tolerance)
        _reference_refine(level, theirs, k, passes, tolerance)
        assert ours == theirs
        assert list(ours) == list(start)  # moved in place, order kept

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_partition_graph_gives_the_reference_blocks(
        self, publish_input, k, monkeypatch
    ):
        graph, _ = publish_input
        blocks = partition_graph(graph, k, seed=3)
        monkeypatch.setattr(partition_module, "_refine", _reference_refine)
        assert partition_graph(graph, k, seed=3) == blocks
        validate_partition(graph, blocks, k)


class TestCoarsen:
    def test_levels_equal_the_reference_down_to_dict_order(self, publish_input):
        graph, _ = publish_input
        level = _level_from_graph(graph)
        for depth in range(6):
            coarser = _coarsen(level, random.Random(depth))
            expected = _reference_coarsen(level, random.Random(depth))
            if expected is None:
                assert coarser is None
                break
            assert coarser == expected
            # refinement visits in dict order: insertion order is output
            assert list(coarser.adj) == list(expected.adj)
            assert [list(row) for row in coarser.adj.values()] == [
                list(row) for row in expected.adj.values()
            ]
            assert list(coarser.members.items()) == list(expected.members.items())
            level = coarser


# ----------------------------------------------------------------------
# bulk edge insertion
# ----------------------------------------------------------------------
def path_graph(n):
    graph = AttributedGraph("path")
    for vid in range(n):
        graph.add_vertex(vid, "t")
    for vid in range(n - 1):
        graph.add_edge(vid, vid + 1)
    return graph


def looped_add_edge(graph, pairs):
    added = []
    for u, v in pairs:
        if graph.add_edge(u, v):
            added.append((min(u, v), max(u, v)))
    return added


class TestAddEdges:
    @settings(max_examples=150, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=40,
        )
    )
    def test_equals_a_loop_over_add_edge(self, pairs):
        bulk, loop = path_graph(8), path_graph(8)
        assert bulk.add_edges(iter(pairs)) == looped_add_edge(loop, pairs)
        assert bulk.edge_count == loop.edge_count == len(bulk.edge_set())
        assert {v: bulk.neighbors(v) for v in range(8)} == {
            v: loop.neighbors(v) for v in range(8)
        }

    @pytest.mark.parametrize(
        "bad", [(3, 3), (3, 99), (99, 3), (99, 99)], ids=str
    )
    def test_a_bad_pair_raises_with_the_valid_prefix_applied(self, bad):
        pairs = [(0, 2), (1, 0), (2, 4), bad, (5, 7)]
        bulk, loop = path_graph(8), path_graph(8)
        with pytest.raises(GraphError) as from_loop:
            looped_add_edge(loop, pairs)
        with pytest.raises(GraphError) as from_bulk:
            bulk.add_edges(pairs)
        assert str(from_bulk.value) == str(from_loop.value)
        assert bulk.edge_set() == loop.edge_set()
        assert bulk.edge_count == loop.edge_count == 9
        assert not bulk.has_edge(5, 7)

    def test_a_generator_that_raises_midway_leaves_the_count_right(self):
        def pairs():
            yield (0, 2)
            raise RuntimeError("source failed")

        graph = path_graph(4)
        with pytest.raises(RuntimeError):
            graph.add_edges(pairs())
        assert graph.edge_count == len(graph.edge_set()) == 4


# ----------------------------------------------------------------------
# Gk assembly
# ----------------------------------------------------------------------
class TestGkAssembly:
    def test_bfs_order_is_the_list_queue_order(self, publish_input):
        graph, k = publish_input
        for block in partition_graph(graph, k, seed=3):
            assert bfs_order(graph, block) == reference_bfs_order(graph, block)

    @pytest.mark.parametrize("label_aware", [False, True])
    def test_noise_edge_lists_and_gk_equal_the_reference(
        self, publish_input, label_aware
    ):
        graph, k = publish_input
        result = build_k_automorphic_graph(
            graph, k, seed=3, label_aware_alignment=label_aware
        )
        verify_k_automorphism(result.gk, result.avt)

        blocks = reference_balance_types(graph, partition_graph(graph, k, seed=3))
        avt, noise_ids, gk = build_avt(graph, blocks, label_aware=label_aware)
        assert list(result.avt.rows()) == list(avt.rows())
        assert result.noise_vertex_ids == noise_ids
        assert result.alignment_noise_edges == reference_align_blocks(gk, avt)
        assert result.crossing_noise_edges == reference_copy_crossing_edges(gk, avt)
        reference_unify_row_labels(gk, avt)
        assert result.gk.structure_equal(gk)
        assert result.gk.edge_count == gk.edge_count == len(gk.edge_set())

    def test_vertices_outside_the_avt_are_skipped_not_refused(self, figure1_graph):
        """Both passes ignore an edge with an endpoint the AVT lacks."""
        blocks = partition_graph(figure1_graph, 2, seed=0)
        avt, _, gk = build_avt(figure1_graph, blocks)
        stray = max(gk.vertex_ids()) + 1
        gk.add_vertex(stray, "person")
        gk.add_edge(stray, avt.row(0)[0])
        gk.add_edge(stray, avt.row(0)[1])
        twin = gk.copy()
        assert align_blocks(gk, avt) == reference_align_blocks(twin, avt)
        assert copy_crossing_edges(gk, avt) == reference_copy_crossing_edges(twin, avt)
        assert gk.structure_equal(twin)

    def test_a_unified_row_shares_one_label_map(self, publish_input):
        graph, k = publish_input
        result = build_k_automorphic_graph(graph, k, seed=3)
        for row in result.avt.rows():
            maps = [result.gk.vertex(vid).labels for vid in row]
            assert all(labels == maps[0] for labels in maps)


# ----------------------------------------------------------------------
# Go
# ----------------------------------------------------------------------
class TestOutsourcedGraph:
    def test_is_definition_5_spelled_naively(self, publish_input):
        graph, k = publish_input
        result = build_k_automorphic_graph(graph, k, seed=3)
        gk, avt = result.gk, result.avt
        outsourced = build_outsourced_graph(gk, avt)
        go = outsourced.graph

        b1 = [row[0] for row in avt.rows()]
        n1 = sorted({n for v in b1 for n in gk.neighbors(v)} - set(b1))
        edges = {(u, v) for u, v in gk.edges() if u in set(b1) or v in set(b1)}
        assert outsourced.block_vertices == b1
        assert outsourced.neighbor_vertices == n1
        assert list(go.vertex_ids()) == b1 + n1
        assert go.edge_set() == edges
        assert go.edge_count == len(edges)
        for vid in b1 + n1:
            assert go.vertex(vid) == gk.vertex(vid)
            assert go.degree(vid) == sum(vid in edge for edge in edges)
        assert go.name == f"{gk.name}-outsourced"

    def test_go_does_not_alias_gk_adjacency(self, figure1_pipeline):
        gk = figure1_pipeline.transform.gk
        go = build_outsourced_graph(gk, figure1_pipeline.transform.avt).graph
        u, v = next(iter(go.edges()))
        go.remove_edge(u, v)
        assert gk.has_edge(u, v)

    def test_gk_is_recoverable(self, publish_input):
        graph, k = publish_input
        result = build_k_automorphic_graph(graph, k, seed=3)
        recovered = recover_gk(
            build_outsourced_graph(result.gk, result.avt), result.avt
        )
        assert recovered.structure_equal(result.gk)


# ----------------------------------------------------------------------
# index tables
# ----------------------------------------------------------------------
class TestIndexTables:
    def check(self, graph, centers):
        index = CloudIndex.build(graph, centers)
        type_bits, vbv, group_bit, lbv = reference_index_tables(graph, list(centers))
        assert index.type_bits == type_bits
        assert index.vbv == vbv
        # same numbering, and the same first-seen key order
        assert list(index.group_bit.items()) == list(group_bit.items())
        # the LBV is stored by group: the transpose of the per-vertex rows
        assert index.nbv == {
            key: sum(
                1 << p
                for p, vid in enumerate(centers)
                if lbv[vid] >> bit & 1
            )
            for key, bit in group_bit.items()
        }

    def test_equal_the_per_vertex_or_reference_on_go(self, publish_input):
        graph, k = publish_input
        result = build_k_automorphic_graph(graph, k, seed=3)
        outsourced = build_outsourced_graph(result.gk, result.avt)
        self.check(outsourced.graph, outsourced.block_vertices)

    def test_equal_the_reference_on_a_decoded_upload(self, publish_input):
        """The cloud's own input: profile-mates share one label map."""
        from repro.core.protocol import decode_upload, encode_upload

        graph, k = publish_input
        result = build_k_automorphic_graph(graph, k, seed=3)
        outsourced = build_outsourced_graph(result.gk, result.avt)
        cloud_graph, _ = decode_upload(encode_upload(outsourced.graph, result.avt))
        self.check(cloud_graph, outsourced.block_vertices)

    def test_equal_the_reference_over_all_of_gk(self, publish_input):
        """The BAS baseline indexes every vertex; none is neighbour-only."""
        graph, k = publish_input
        gk = build_k_automorphic_graph(graph, k, seed=3).gk
        self.check(gk, sorted(gk.vertex_ids()))

    def test_groups_seen_only_on_neighbours_get_the_later_bits(self):
        graph = AttributedGraph("fringe")
        graph.add_vertex(0, "t", {"a": ["g0"]})
        graph.add_vertex(1, "t", {"a": ["g1"], "b": ["g2"]})
        graph.add_vertex(2, "t")
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        self.check(graph, [0])
        assert CloudIndex.build(graph, [0]).group_bit[("a", "g0")] == 0


# ----------------------------------------------------------------------
# what the cloud derives from Go: CSR edge keys, estimator statistics
# ----------------------------------------------------------------------
needs_numpy = pytest.mark.skipif(
    not vec.HAVE_NUMPY, reason="GraphCSR is built only with numpy"
)


class TestDerivedFromGo:
    @pytest.fixture(scope="class")
    def outsourced(self, publish_input):
        """``(Go, k)`` of the e2e workloads' shapes, at small scale."""
        graph, k = publish_input
        result = build_k_automorphic_graph(graph, k, seed=3)
        return build_outsourced_graph(result.gk, result.avt), k

    @needs_numpy
    def test_edge_keys_equal_the_sorted_per_edge_keys(self, outsourced):
        from repro.cloud.index import GraphCSR

        np = vec.np
        go = outsourced[0].graph
        csr = GraphCSR.build(go)
        expected = np.fromiter(
            (u * csr.stride + v for u, v in go.edges()),
            dtype=np.int64,
            count=go.edge_count,
        )
        expected.sort()
        assert csr.edge_keys.dtype == expected.dtype
        assert np.array_equal(csr.edge_keys, expected)

    @needs_numpy
    def test_edge_keys_of_an_edgeless_and_an_empty_graph(self):
        from repro.cloud.index import GraphCSR

        lonely = AttributedGraph("lonely")
        lonely.add_vertex(3, "t")
        for graph in (lonely, AttributedGraph("empty")):
            keys = GraphCSR.build(graph).edge_keys
            assert len(keys) == 0 and keys.dtype.kind == "i" and keys.itemsize == 8

    def test_estimator_statistics_equal_the_induced_subgraph_s(self, outsourced):
        """Field for field, and in the same first-seen key order."""
        from repro.anonymize.cost_model import estimator_from_outsourced
        from repro.graph import compute_statistics

        (go, k) = outsourced
        estimator = estimator_from_outsourced(go.block_vertices, go.graph, k)
        expected = compute_statistics(
            go.graph.induced_subgraph(go.block_vertices, name="B1")
        )
        assert estimator.block_stats == expected
        assert list(estimator.block_stats.type_counts.items()) == list(
            expected.type_counts.items()
        )
        assert list(estimator.block_stats.label_counts.items()) == list(
            expected.label_counts.items()
        )
        assert estimator.gk_vertex_count == k * len(go.block_vertices)

    def test_estimator_of_an_empty_block(self):
        from repro.anonymize.cost_model import estimator_from_outsourced

        estimator = estimator_from_outsourced([], AttributedGraph("empty"), 2)
        assert estimator.block_stats.vertex_count == 0
        assert estimator.block_stats.average_degree == 0.0
        assert estimator.average_degree == 0.0
