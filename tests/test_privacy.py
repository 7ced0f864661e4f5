"""Privacy-guarantee tests: what the cloud sees must not leak.

These tests check the paper's two privacy claims against the actual
artifacts shipped to the cloud:

* **structural privacy** — the published graph is k-automorphic, so
  every vertex has k-1 structurally identical twins (re-identification
  probability <= 1/k against any structural attack);
* **label privacy** — no raw label ever appears in any cloud-visible
  artifact (published graph, AVT, query message); only group ids with
  >= theta member labels do.
"""

import json

import pytest

from repro import MethodConfig, PrivacyPreservingSystem, SystemConfig
from repro.core.protocol import encode_query, encode_upload
from repro.graph import example_query, example_social_network
from repro.kauto import verify_blocks_isomorphic, verify_k_automorphism
from repro.workloads import generate_workload, load_dataset


def all_raw_labels(graph) -> set[str]:
    return {label for data in graph.vertices() for _, label in data.label_items()}


@pytest.fixture(scope="module")
def deployed():
    graph, schema = example_social_network()
    system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
    return graph, schema, system


class TestStructuralPrivacy:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_published_graph_is_k_automorphic(self, k):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=k))
        transform = system.published.transform
        verify_k_automorphism(transform.gk, transform.avt)
        verify_blocks_isomorphic(transform.gk, transform.avt)

    def test_every_vertex_has_k_minus_1_twins(self, deployed):
        _, _, system = deployed
        avt = system.published.transform.avt
        for vid in avt.vertex_ids():
            group = avt.symmetric_group(vid)
            assert len(set(group)) == avt.k
            assert vid in group

    def test_dataset_scale_structural_privacy(self):
        dataset = load_dataset("DBpedia", scale=0.1)
        system = PrivacyPreservingSystem.setup(
            dataset.graph, dataset.schema, SystemConfig(k=3)
        )
        transform = system.published.transform
        verify_k_automorphism(transform.gk, transform.avt)


class TestLabelPrivacy:
    def test_upload_contains_no_raw_label(self, deployed):
        graph, _, system = deployed
        payload = encode_upload(
            system.published.upload_graph, system.published.transform.avt
        )
        for label in all_raw_labels(graph):
            assert label.encode("utf-8") not in payload

    def test_query_message_contains_no_raw_label(self, deployed):
        graph, _, system = deployed
        query = example_query()
        anonymized = system.client.prepare_query(query)
        payload = encode_query(anonymized).decode("utf-8")
        for label in all_raw_labels(query):
            assert label not in payload

    def test_every_group_hides_at_least_theta_labels(self, deployed):
        _, _, system = deployed
        lct = system.published.lct
        for gid in lct.group_ids():
            assert len(lct.members(gid)) >= lct.theta

    def test_answer_rows_are_vertex_ids_only(self, deployed):
        graph, _, system = deployed
        system.channel.reset()
        outcome = system.query(example_query())
        # the one answer that traveled is the one the metrics report
        assert outcome.metrics.answer_bytes > 0
        assert outcome.metrics.answer_bytes == system.channel.total_bytes("answer")

    def test_bas_also_hides_labels(self):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2, method=MethodConfig.from_name("BAS"))
        )
        payload = encode_upload(
            system.published.upload_graph, system.published.transform.avt
        )
        for label in all_raw_labels(graph):
            assert label.encode("utf-8") not in payload


class TestSymmetricIndistinguishability:
    def test_twins_have_identical_local_views(self, deployed):
        """Type, label groups and degree coincide within each AVT row."""
        _, _, system = deployed
        gk = system.published.transform.gk
        avt = system.published.transform.avt
        for row in avt.rows():
            degrees = {gk.degree(v) for v in row}
            types = {gk.vertex(v).vertex_type for v in row}
            labels = {
                json.dumps(sorted((a, sorted(vs)) for a, vs in gk.vertex(v).labels.items()))
                for v in row
            }
            assert len(degrees) == 1
            assert len(types) == 1
            assert len(labels) == 1

    def test_neighborhood_multisets_match(self, deployed):
        """1-hop neighbourhood signatures coincide within each row
        (the 1-neighbor-graph attack of the introduction fails)."""
        _, _, system = deployed
        gk = system.published.transform.gk
        avt = system.published.transform.avt

        def signature(vid):
            return sorted(
                (gk.vertex(n).vertex_type, gk.degree(n)) for n in gk.neighbors(vid)
            )

        for row in avt.rows():
            signatures = {json.dumps(signature(v)) for v in row}
            assert len(signatures) == 1


class TestQueryResultConfidentiality:
    def test_cloud_candidates_superset_hides_true_answers(self):
        """The cloud's Rin strictly over-approximates the true result
        set whenever noise was added, so observing Rin does not reveal
        which candidates are real."""
        dataset = load_dataset("Web-NotreDame", scale=0.08)
        workload = generate_workload(dataset.graph, 4, 3, seed=5)
        system = PrivacyPreservingSystem.setup(
            dataset.graph, dataset.schema, SystemConfig(k=3), sample_workload=workload
        )
        saw_false_positive = False
        for query in workload:
            outcome = system.query(query)
            assert outcome.metrics.candidate_count >= outcome.metrics.result_count
            if outcome.metrics.candidate_count > outcome.metrics.result_count:
                saw_false_positive = True
        assert saw_false_positive
