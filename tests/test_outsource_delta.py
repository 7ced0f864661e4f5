"""Tests for incremental Go maintenance (GoDelta)."""

import pytest

from repro.anonymize import anonymize_query, build_lct, cost_based_grouping
from repro.cloud import CloudServer
from repro.exceptions import ProtocolError
from repro.graph import compute_statistics, example_social_network
from repro.kauto import AlignmentVertexTable, build_k_automorphic_graph
from repro.kauto.dynamic import DynamicRelease
from repro.matching import match_key
from repro.outsource.delta import GoDelta, apply_go_delta


@pytest.fixture
def live():
    graph, schema = example_social_network()
    lct = build_lct(
        schema, 2, cost_based_grouping, graph_stats=compute_statistics(graph), seed=2
    )
    transform = build_k_automorphic_graph(lct.apply_to_graph(graph), 2, seed=1)
    release = DynamicRelease(graph.copy(), transform, lct)
    outsourced = release.refresh_outsourced()
    return release, outsourced, schema


def answers_match(release, patched, fresh, query, lct):
    """Cloud answers from the patched Go equal those from a fresh Go."""
    avt = release.avt
    anonymized = anonymize_query(query, lct)
    got_patched = {
        match_key(m)
        for m in CloudServer(patched.graph, avt, patched.block_vertices)
        .answer(anonymized)
        .matches
    }
    got_fresh = {
        match_key(m)
        for m in CloudServer(fresh.graph, avt, fresh.block_vertices)
        .answer(anonymized)
        .matches
    }
    return got_patched == got_fresh


class TestGoDelta:
    def test_edge_insert_delta_applies(self, live, figure1_query):
        release, outsourced, _ = live
        log = release.insert_edge(0, 3)
        delta = release.go_delta(log)
        assert not delta.is_empty
        apply_go_delta(outsourced, delta)
        fresh = release.refresh_outsourced()
        assert outsourced.graph.edge_set() == fresh.graph.edge_set()
        assert answers_match(release, outsourced, fresh, figure1_query, release.lct)

    def test_edge_delete_delta_applies(self, live, figure1_query):
        release, outsourced, _ = live
        insert_log = release.insert_edge(0, 3)
        apply_go_delta(outsourced, release.go_delta(insert_log))
        delete_log = release.delete_edge(0, 3)
        apply_go_delta(outsourced, release.go_delta(delete_log))
        fresh = release.refresh_outsourced()
        assert outsourced.graph.edge_set() == fresh.graph.edge_set()
        assert answers_match(release, outsourced, fresh, figure1_query, release.lct)

    def test_vertex_insert_extends_block_and_avt(self, live):
        release, outsourced, _ = live
        new_id = release.allocate_vertex_id()
        log = release.insert_vertex(new_id, "person", {"gender": ["male"]})
        delta = release.go_delta(log)
        assert delta.added_avt_rows
        apply_go_delta(outsourced, delta)
        assert new_id in outsourced.block_set
        # the cloud extends its AVT with the shipped rows
        rows = [list(r) for r in release.avt.rows()]
        cloud_avt = AlignmentVertexTable(rows)
        assert cloud_avt.block_of(new_id) == 0

    def test_connected_new_vertex_round_trip(self, live, figure1_query):
        release, outsourced, _ = live
        new_id = release.allocate_vertex_id()
        for log in (
            release.insert_vertex(new_id, "person", {"occupation": ["engineer"]}),
            release.insert_edge(new_id, 4),
            release.insert_edge(new_id, 6),
        ):
            apply_go_delta(outsourced, release.go_delta(log))
        fresh = release.refresh_outsourced()
        assert outsourced.graph.edge_set() == fresh.graph.edge_set()
        assert set(outsourced.block_vertices) == set(fresh.block_vertices)
        assert answers_match(release, outsourced, fresh, figure1_query, release.lct)

    def test_noop_log_gives_empty_delta(self, live):
        release, _, _ = live
        from repro.kauto.dynamic import UpdateLog

        delta = release.go_delta(UpdateLog())
        assert delta.is_empty

    def test_delta_smaller_than_full_upload(self, live):
        from repro.core.protocol import encode_upload

        release, outsourced, _ = live
        log = release.insert_edge(0, 3)
        delta = release.go_delta(log)
        full = len(encode_upload(release.refresh_outsourced().graph, release.avt))
        assert delta.payload_bytes() < full

    def test_delta_scales_with_update_not_graph(self):
        """On a larger graph the saving is where it matters."""
        from repro.core.protocol import encode_upload
        from repro.graph import compute_statistics, make_schema, random_attributed_graph

        schema = make_schema(2, 1, 10)
        graph = random_attributed_graph(schema, 300, edges_per_vertex=3, seed=4)
        lct = build_lct(
            schema, 2, cost_based_grouping, graph_stats=compute_statistics(graph)
        )
        transform = build_k_automorphic_graph(lct.apply_to_graph(graph), 3, seed=4)
        release = DynamicRelease(graph.copy(), transform, lct)
        outsourced = release.refresh_outsourced()

        log = release.insert_edge(0, 5)
        delta = release.go_delta(log)
        apply_go_delta(outsourced, delta)
        full = len(encode_upload(release.refresh_outsourced().graph, release.avt))
        assert delta.payload_bytes() < full / 50
        assert outsourced.graph.edge_set() == release.refresh_outsourced().graph.edge_set()


class TestCloudServerDelta:
    def test_server_applies_delta_and_stays_exact(self, live, figure1_query):
        from repro.client import ClientFilter, expand_rin_table
        from repro.matching import find_subgraph_matches

        release, outsourced, _ = live
        server = CloudServer(
            outsourced.graph.copy(), release.avt, list(outsourced.block_vertices)
        )
        new_id = release.allocate_vertex_id()
        for log in (
            release.insert_vertex(new_id, "person", {"occupation": ["engineer"]}),
            release.insert_edge(new_id, 4),
            release.insert_edge(new_id, 6),
        ):
            server.apply_delta(release.go_delta(log))

        anonymized = anonymize_query(figure1_query, release.lct)
        answer = server.answer(anonymized)
        candidates = expand_rin_table(answer.table, release.avt).table
        exact = ClientFilter(release.original, figure1_query).filter_table(
            candidates
        ).table
        got = {match_key(m) for m in exact.to_matches()}
        oracle = {
            match_key(m)
            for m in find_subgraph_matches(figure1_query, release.original)
        }
        assert got == oracle

    def test_delta_rejected_on_bas_server(self, live):
        release, _, _ = live
        server = CloudServer(
            release.gk.copy(),
            release.avt,
            sorted(release.gk.vertex_ids()),
            expand_in_cloud=False,
        )
        from repro.outsource import GoDelta

        with pytest.raises(ValueError):
            server.apply_delta(GoDelta())

    def test_delta_clears_star_cache(self, live, figure1_query):
        release, outsourced, _ = live
        server = CloudServer(
            outsourced.graph.copy(),
            release.avt,
            list(outsourced.block_vertices),
            star_cache_size=32,
        )
        anonymized = anonymize_query(figure1_query, release.lct)
        server.answer(anonymized)
        assert len(server.star_cache) > 0
        log = release.insert_edge(0, 3)
        server.apply_delta(release.go_delta(log))
        assert len(server.star_cache) == 0


class TestDeltaWire:
    def test_payload_round_trip(self, live):
        release, _, _ = live
        log = release.insert_edge(0, 3)
        delta = release.go_delta(log)
        restored = GoDelta.from_payload(delta.to_payload())
        assert restored.added_edges == delta.added_edges
        assert restored.removed_edges == delta.removed_edges
        assert restored.added_block_vertices == delta.added_block_vertices

    def test_malformed_payload_rejected(self):
        with pytest.raises(ProtocolError):
            GoDelta.from_payload(b"{}")

    def test_unknown_vertex_in_edge_rejected(self, live):
        release, outsourced, _ = live
        delta = GoDelta(added_edges=[(0, 99_999)])
        with pytest.raises(ProtocolError):
            apply_go_delta(outsourced, delta)

    def test_missing_block_vertex_payload_rejected(self, live):
        release, outsourced, _ = live
        delta = GoDelta(added_block_vertices=[99_999])
        with pytest.raises(ProtocolError):
            apply_go_delta(outsourced, delta)
