"""Unit tests for the CloudServer facade (estimators, accounting)."""


from repro.cloud import CloudServer, expand_star_table
from repro.graph import AttributedGraph
from repro.matching import find_subgraph_matches, match_key


class TestEstimatorModes:
    def test_go_mode_estimator_uses_block_stats(self, figure1_pipeline):
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
            expand_in_cloud=True,
        )
        estimator = server.estimator
        assert estimator.k == pipe.transform.k
        assert estimator.gk_vertex_count == pipe.transform.k * len(
            pipe.outsourced.block_vertices
        )

    def test_bas_mode_estimator_covers_whole_graph(self, figure1_pipeline):
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.transform.gk,
            pipe.transform.avt,
            sorted(pipe.transform.gk.vertex_ids()),
            expand_in_cloud=False,
        )
        estimator = server.estimator
        assert estimator.k == 1
        assert estimator.gk_vertex_count == pipe.transform.gk.vertex_count


class TestAnswerShapes:
    def test_single_vertex_query(self, figure1_pipeline):
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
        )
        query = AttributedGraph()
        query.add_vertex(0, "person")
        answer = server.answer(query)
        block = set(pipe.outsourced.block_vertices)
        person_count = sum(
            1
            for v in block
            if pipe.outsourced.graph.vertex(v).vertex_type == "person"
        )
        assert len(answer.matches) == person_count
        assert all(m[0] in block for m in answer.matches)

    def test_unmatchable_query_returns_empty(self, figure1_pipeline):
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
        )
        query = AttributedGraph()
        query.add_vertex(0, "no-such-type")
        query.add_vertex(1, "person")
        query.add_edge(0, 1)
        answer = server.answer(query)
        assert answer.matches == []
        assert answer.rs_size == 0

    def test_answer_telemetry_consistency(self, figure1_pipeline):
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
        )
        answer = server.answer(pipe.qo)
        assert answer.rs_size == sum(answer.star_stats.result_sizes.values())
        assert answer.join_stats.rin_size == len(answer.matches)
        assert len(answer.decomposition.stars) >= 1

    def test_rin_answer_expands_to_direct_matching(self, figure1_pipeline):
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
        )
        answer = server.answer(pipe.qo)
        expanded = {
            match_key(m)
            for m in expand_star_table(
                answer.table, pipe.transform.avt
            ).to_matches()
        }
        direct = {
            match_key(m) for m in find_subgraph_matches(pipe.qo, pipe.transform.gk)
        }
        assert expanded == direct


class TestAccounting:
    def test_index_accessors(self, figure1_pipeline):
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
        )
        assert server.index_size_bytes() == server.index.size_bytes()
