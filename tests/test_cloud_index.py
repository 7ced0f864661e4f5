"""Unit tests for the VBV/LBV bit-vector index (Figure 7)."""

from repro.cloud import CloudIndex
from repro.graph import AttributedGraph


def indexed_graph() -> tuple[AttributedGraph, list[int]]:
    """A tiny Go-like graph: block = {0, 1}, neighbour 2 outside."""
    graph = AttributedGraph()
    graph.add_vertex(0, "person", {"occupation": ["gD"], "gender": ["gC"]})
    graph.add_vertex(1, "person", {"occupation": ["gE"], "gender": ["gC"]})
    graph.add_vertex(2, "company", {"company_type": ["gA"]})
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    return graph, [0, 1]


class TestVbv:
    def test_vbv_bits_reflect_label_groups(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        assert index.vbv[("gender", "gC")] == 0b11  # both block vertices
        assert index.vbv[("occupation", "gD")] == 0b01  # only vertex 0
        assert index.vbv[("occupation", "gE")] == 0b10

    def test_type_bits(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        assert index.type_bits["person"] == 0b11
        assert "company" not in index.type_bits  # vertex 2 is not indexed

    def test_candidate_center_mask_intersects_constraints(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        query_vertex = graph.vertex(0)  # person with gC and gD
        mask = index.candidate_center_mask(query_vertex)
        assert mask == 0b01

    def test_unknown_group_yields_empty_mask(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        from repro.graph import VertexData

        impossible = VertexData(9, "person", {"gender": frozenset({"nope"})})
        assert index.candidate_center_mask(impossible) == 0

    def test_candidates_from_mask(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        assert sorted(index.candidates_from_mask(0b11)) == [0, 1]
        assert list(index.candidates_from_mask(0)) == []


class TestLbv:
    """The LBV stored by group: bit ``p`` of ``nbv[group]`` = the
    ``p``-th indexed vertex has a neighbour carrying ``group``."""

    def test_lbv_includes_out_of_block_neighbors(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        # vertex 1's neighbours: 0 (gC,gD) and 2 (gA) -> all three groups set
        for key in (("gender", "gC"), ("occupation", "gD"), ("company_type", "gA")):
            assert index.nbv[key] & 0b10
        # vertex 0's only neighbour is 1 (gC,gE)
        assert index.nbv[("gender", "gC")] & 0b01
        assert not index.nbv[("company_type", "gA")] & 0b01

    def test_neighborhood_supports(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        assert index.neighborhood_mask([graph.vertex(2)]) == 0b10

    def test_unknown_leaf_group_is_unmatchable(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        from repro.graph import VertexData

        alien = VertexData(9, "x", {"a": frozenset({"unknown"})})
        assert index.neighborhood_mask([alien]) == 0
        assert index.need_mask(alien) is None

    def test_empty_leaf_list_mask(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        assert index.neighborhood_mask([]) == -1  # every bit: nothing to need


class TestVertexMasks:
    def test_type_bits_sit_above_every_group_bit(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        groups = [bit for key, bit in index.mask_bit.items() if isinstance(key, tuple)]
        types = [bit for key, bit in index.mask_bit.items() if isinstance(key, str)]
        assert sorted(groups + types) == list(range(len(index.mask_bit)))
        assert max(groups) < min(types)
        assert list(index.mask_bit.items())[: len(index.group_bit)] == list(
            index.group_bit.items()
        )

    def test_a_mask_test_is_a_matches_call(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        for query_vertex in graph.vertices():
            need = index.need_mask(query_vertex)
            for data in graph.vertices():
                hit = index.vertex_bits[data.vertex_id] & need == need
                assert hit == query_vertex.matches(data)

    def test_ids_too_sparse_for_a_list_get_the_same_masks(self):
        graph, block = indexed_graph()
        far = AttributedGraph()
        for data in graph.vertices():
            far.add_vertex_like(data.vertex_id + 2**40, data)
        for u, v in graph.edges():
            far.add_edge(u + 2**40, v + 2**40)
        dense = CloudIndex.build(graph, block)
        sparse = CloudIndex.build(far, [vid + 2**40 for vid in block])
        assert isinstance(dense.vertex_bits, list)
        assert isinstance(sparse.vertex_bits, dict)
        for vid in graph.vertex_ids():
            assert sparse.vertex_bits[vid + 2**40] == dense.vertex_bits[vid]

    def test_an_unknown_type_needs_what_nobody_has(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        from repro.graph import VertexData

        assert index.need_mask(VertexData(9, "robot")) is None
        assert index.need_mask(VertexData(9, "company")) is not None


class TestAccounting:
    def test_size_scales_with_block(self, figure1_pipeline):
        pipe = figure1_pipeline
        full = CloudIndex.build(
            pipe.transform.gk, sorted(pipe.transform.gk.vertex_ids())
        )
        block_only = CloudIndex.build(
            pipe.outsourced.graph, pipe.outsourced.block_vertices
        )
        assert block_only.size_bytes() < full.size_bytes()

    def test_build_time_recorded(self):
        graph, block = indexed_graph()
        index = CloudIndex.build(graph, block)
        assert index.build_seconds >= 0.0
