"""Unit tests for client-side processing (Algorithm 3)."""

import pytest

from repro.client import ClientFilter, expand_rin_table
from repro.graph import AttributedGraph
from repro.kauto import AlignmentVertexTable
from repro.matching import MatchTable, vec

#: The tuple loop (``rows``); the column cascade and the k-bit image pass (``numpy``).
ARMS = ("rows",) + (("numpy",) if vec.HAVE_NUMPY else ())


def expand_rin(rin, avt):
    """``expand_rin_table`` over hand-written dict matches."""
    schema = sorted(rin[0]) if rin else ()
    return expand_rin_table(MatchTable.from_matches(rin, schema), avt)


def filter_candidates(candidates, graph, query):
    """``ClientFilter.filter_table`` over hand-written dict candidates."""
    table = MatchTable.from_matches(candidates, sorted(query.vertex_ids()))
    return ClientFilter(graph, query).filter_table(table)


def find_candidates(pipe) -> MatchTable:
    """``R(Qo, Gk)`` of the running example as the client receives it."""
    from repro.matching import find_subgraph_matches

    return MatchTable.from_matches(
        find_subgraph_matches(pipe.qo, pipe.transform.gk),
        sorted(pipe.query.vertex_ids()),
    )


class TestExpandRin:
    def test_expansion_size(self, figure1_pipeline):
        pipe = figure1_pipeline
        avt = pipe.transform.avt
        anchor = avt.first_block()[0]
        result = expand_rin([{0: anchor}], avt)
        assert len(result.table) == avt.k
        assert result.rin_size == 1
        assert result.rout_size == avt.k - 1

    def test_deduplicates(self):
        avt = AlignmentVertexTable([[0, 1]])
        # both matches map to each other under F1 -> expansion collapses
        result = expand_rin([{5: 0}, {5: 1}], avt)
        assert len(result.table) == 2

    def test_empty_rin(self, figure1_pipeline):
        result = expand_rin([], figure1_pipeline.transform.avt)
        assert len(result.table) == 0
        assert result.rout_size == 0


class TestFiltering:
    def test_noise_vertex_dropped(self, figure1_pipeline):
        pipe = figure1_pipeline
        # any id outside V(G) behaves like a noise vertex to the filter
        noise_id = max(pipe.graph.vertex_ids()) + 1
        fake = {q: noise_id + i for i, q in enumerate(pipe.query.vertex_ids())}
        result = filter_candidates([fake], pipe.graph, pipe.query)
        assert len(result.table) == 0
        assert result.dropped_vertex == 1

    def test_real_noise_vertices_dropped(self, figure1_graph):
        """With k=3 the 8-vertex example needs padding; padded matches
        must be filtered out."""
        from repro.kauto import build_k_automorphic_graph

        transform = build_k_automorphic_graph(figure1_graph, 3, seed=1)
        assert transform.noise_vertex_ids, "k=3 on 8 vertices must pad"
        noise_id = transform.noise_vertex_ids[0]
        from repro.graph import AttributedGraph

        query = AttributedGraph()
        query.add_vertex(0, transform.gk.vertex(noise_id).vertex_type)
        result = filter_candidates([{0: noise_id}], figure1_graph, query)
        assert len(result.table) == 0
        assert result.dropped_vertex == 1

    def test_noise_edge_dropped(self, figure1_pipeline):
        pipe = figure1_pipeline
        # build a candidate that uses only real vertices but a noise edge:
        # map query edge (0,1) onto a Gk edge absent from G
        noise_edges = [
            (u, v)
            for u, v in pipe.transform.gk.edges()
            if u in pipe.graph and v in pipe.graph and not pipe.graph.has_edge(u, v)
        ]
        if not noise_edges:
            pytest.skip("transform added no intra-original noise edges")
        u, v = noise_edges[0]
        from repro.graph import AttributedGraph

        query = AttributedGraph()
        query.add_vertex(0, pipe.graph.vertex(u).vertex_type)
        query.add_vertex(1, pipe.graph.vertex(v).vertex_type)
        query.add_edge(0, 1)
        result = filter_candidates([{0: u, 1: v}], pipe.graph, query)
        assert len(result.table) == 0
        assert result.dropped_edge == 1

    def test_generalized_label_false_positive_dropped(self, figure1_pipeline):
        pipe = figure1_pipeline
        # q0 wants an internet company; c2 (vertex 5) is software — the
        # label groups agree but the raw labels do not.
        candidate = {0: 5, 1: 2, 2: 6, 3: 4, 4: 0}
        result = filter_candidates([candidate], pipe.graph, pipe.query)
        assert len(result.table) == 0
        assert result.dropped_label == 1

    def test_true_match_kept(self, figure1_pipeline):
        pipe = figure1_pipeline
        true_match = {0: 4, 1: 0, 2: 6, 3: 5, 4: 2}
        result = filter_candidates([true_match], pipe.graph, pipe.query)
        assert result.table.to_matches() == [true_match]
        assert result.dropped == 0

    def test_counters_add_up(self, figure1_pipeline):
        pipe = figure1_pipeline
        noise_id = max(pipe.graph.vertex_ids()) + 1
        candidates = [
            {0: 4, 1: 0, 2: 6, 3: 5, 4: 2},  # true
            {0: 5, 1: 2, 2: 6, 3: 4, 4: 0},  # label false positive
            {q: noise_id + i for i, q in enumerate(pipe.query.vertex_ids())},
        ]
        result = filter_candidates(candidates, pipe.graph, pipe.query)
        assert result.candidates == 3
        assert len(result.table) + result.dropped == 3


class TestCheckOrder:
    """Vertex, then label, then edge: a drop counts under the first check it fails."""

    @pytest.mark.parametrize("arm", ARMS)
    def test_failing_label_and_edge_counts_as_label(self, figure1_pipeline, arm):
        pipe = figure1_pipeline
        graph, gk, avt = pipe.graph, pipe.transform.gk, pipe.transform.avt

        def images(row):
            return [row] + [avt.remap_rows([row], m)[0] for m in range(1, avt.k)]

        # no Gk edge between a and b, hence none between any two of their
        # images (each F_m is an automorphism of Gk), and every image in G
        a, b = next(
            (a, b)
            for a in avt.first_block()
            for b in sorted(gk.vertex_ids())
            if a != b
            and not gk.has_edge(a, b)
            and all(v in graph for image in images((a, b)) for v in image)
        )
        query = AttributedGraph()
        query.add_vertex(0, "no-such-type")  # no vertex of G has its label
        query.add_vertex_like(1, graph.vertex(b))
        query.add_edge(0, 1)
        candidate = MatchTable((0, 1), [(a, b)])
        with vec.override(arm):
            table = ClientFilter(graph, query).filter_table(candidate)
            rin = ClientFilter(graph, query).filter_rin(candidate, avt)
        counters = (table.dropped_vertex, table.dropped_label, table.dropped_edge)
        assert counters == (0, 1, 0)
        assert rin.anchored and rin.table.rows == []
        counters = (rin.dropped_vertex, rin.dropped_label, rin.dropped_edge)
        assert counters == (0, avt.k, 0)


class TestEndToEndClientStage:
    def test_filter_after_expansion_recovers_oracle(self, figure1_pipeline):
        """Full candidate set filtered against G gives exactly R(Q, G)."""
        from repro.matching import find_subgraph_matches, match_key

        pipe = figure1_pipeline
        candidates = find_subgraph_matches(pipe.qo, pipe.transform.gk)
        result = filter_candidates(candidates, pipe.graph, pipe.query)
        assert {match_key(m) for m in result.table.to_matches()} == pipe.oracle


class TestFixedPerQueryCost:
    """The filter's set-up is O(|Q|): nothing proportional to V(G) per query."""

    def test_filter_setup_never_copies_the_vertex_set(
        self, figure1_pipeline, monkeypatch
    ):
        pipe = figure1_pipeline
        monkeypatch.setattr(
            type(pipe.graph),
            "vertex_id_set",
            lambda self: pytest.fail("ClientFilter copied V(G)"),
        )
        candidates = find_candidates(pipe)
        result = ClientFilter(pipe.graph, pipe.query).filter_table(candidates)
        assert len(result.table) == len(pipe.oracle)

    @pytest.mark.skipif(not vec.HAVE_NUMPY, reason="the bulk kernel needs numpy")
    def test_query_client_builds_the_csr_of_g_once(
        self, figure1_pipeline, monkeypatch
    ):
        from repro.cloud.index import GraphCSR
        from repro.core.query_client import QueryClient

        pipe = figure1_pipeline
        builds = []
        build = GraphCSR.build
        monkeypatch.setattr(
            GraphCSR,
            "build",
            staticmethod(lambda graph: builds.append(graph) or build(graph)),
        )
        client = QueryClient(pipe.graph, pipe.lct, pipe.transform.avt)
        candidates = find_candidates(pipe)
        with vec.override("numpy"):
            outcomes = [
                client.process_answer(pipe.query, candidates, True)
                for _ in range(3)
            ]
            # a standalone filter still builds its own
            ClientFilter(pipe.graph, pipe.query).filter_table(candidates)
        assert builds == [pipe.graph, pipe.graph]
        for outcome in outcomes:
            assert len(outcome.matches) == len(pipe.oracle)
