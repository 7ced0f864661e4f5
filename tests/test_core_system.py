"""Integration tests for the end-to-end system facade."""

import json
from dataclasses import dataclass, field

import pytest

from repro import MethodConfig, PrivacyPreservingSystem, SystemConfig
from repro.core import METHOD_NAMES
from repro.core.protocol import NetworkChannel
from repro.core.storage import save_published
from repro.exceptions import ProtocolError, QueryError
from repro.graph import (
    example_query,
    example_social_network,
    make_schema,
    random_attributed_graph,
)
from repro.kauto.dynamic import DynamicRelease
from repro.matching import find_subgraph_matches, match_key, vec
from repro.workloads import generate_workload, load_dataset, random_walk_query
from tests.test_no_cyclic_garbage import an_absent_edge


def oracle_keys(query, graph):
    return {match_key(m) for m in find_subgraph_matches(query, graph)}


class TestExactnessOnRunningExample:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    @pytest.mark.parametrize("k", [2, 3])
    def test_all_methods_exact(self, method, k):
        graph, schema = example_social_network()
        query = example_query()
        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=k, method=MethodConfig.from_name(method))
        )
        outcome = system.query(query)
        assert {match_key(m) for m in outcome.matches} == oracle_keys(query, graph)

    def test_mutating_an_answer_does_not_change_a_requery(self):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        first = system.query(example_query()).matches
        baseline = sorted(match_key(m) for m in first)
        for match in first:  # a careless caller rewrites its answer in place
            for key in list(match):
                match[key] = -1
        again = system.query(example_query()).matches
        assert sorted(match_key(m) for m in again) == baseline


class TestExactnessOnDatasets:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_dataset_workload(self, method):
        dataset = load_dataset("DBpedia", scale=0.12)
        workload = generate_workload(dataset.graph, 4, 4, seed=2)
        system = PrivacyPreservingSystem.setup(
            dataset.graph,
            dataset.schema,
            SystemConfig(k=2, method=MethodConfig.from_name(method)),
            sample_workload=workload,
        )
        for query in workload:
            outcome = system.query(query)
            assert {match_key(m) for m in outcome.matches} == oracle_keys(
                query, dataset.graph
            )
            assert outcome.matches, "random-walk query must match its own source"


class TestMetrics:
    @pytest.fixture(scope="class")
    def system_and_outcome(self):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        return system, system.query(example_query())

    def test_publish_metrics_populated(self, system_and_outcome):
        system, _ = system_and_outcome
        pm = system.publish_metrics
        assert pm.method == "EFF"
        assert pm.k == 2
        assert pm.gk_edges >= pm.original_edges
        assert pm.uploaded_edges <= pm.gk_edges
        assert pm.upload_bytes > 0
        assert pm.index_bytes > 0
        assert pm.noise_edges == pm.gk_edges - pm.original_edges

    def test_query_metrics_populated(self, system_and_outcome):
        _, outcome = system_and_outcome
        qm = outcome.metrics
        assert qm.query_edges == 4
        assert qm.rin_size >= qm.result_count
        assert qm.candidate_count >= qm.rin_size
        assert qm.answer_bytes > 0
        assert qm.total_seconds == pytest.approx(
            qm.cloud_seconds + qm.network_seconds + qm.client_seconds
        )

    def test_channel_accumulates(self, system_and_outcome):
        system, _ = system_and_outcome
        assert system.channel.total_bytes("upload") > 0
        assert system.channel.total_bytes("query") > 0
        assert system.channel.total_bytes("answer") > 0


class TestQueryValidation:
    def test_disconnected_query_rejected(self):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        from repro.graph import AttributedGraph

        bad = AttributedGraph()
        bad.add_vertex(0, "person")
        bad.add_vertex(1, "person")
        with pytest.raises(QueryError):
            system.query(bad)

    def test_unknown_query_label_rejected(self):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        from repro.graph import AttributedGraph

        bad = AttributedGraph()
        bad.add_vertex(0, "person", {"gender": ["alien"]})
        with pytest.raises(Exception):
            system.query(bad)


class TestBehavioralShapes:
    def test_bas_uploads_more_than_eff(self):
        """|E(Gk)| > |E(Go)| and the upload bytes reflect it (Figure 12)."""
        dataset = load_dataset("Web-NotreDame", scale=0.1)
        eff = PrivacyPreservingSystem.setup(
            dataset.graph, dataset.schema, SystemConfig(k=3)
        )
        bas = PrivacyPreservingSystem.setup(
            dataset.graph,
            dataset.schema,
            SystemConfig(k=3, method=MethodConfig.from_name("BAS")),
        )
        assert bas.publish_metrics.uploaded_edges > eff.publish_metrics.uploaded_edges
        assert bas.publish_metrics.upload_bytes > eff.publish_metrics.upload_bytes

    def test_index_shrinks_as_k_grows(self):
        """Figure 13: larger k -> smaller B1 -> smaller index."""
        dataset = load_dataset("Web-NotreDame", scale=0.1)
        sizes = []
        for k in (2, 4):
            system = PrivacyPreservingSystem.setup(
                dataset.graph, dataset.schema, SystemConfig(k=k)
            )
            sizes.append(system.publish_metrics.index_bytes)
        assert sizes[1] < sizes[0]


@dataclass
class Wiretap(NetworkChannel):
    """A channel that keeps the payloads it carried."""

    payloads: list[tuple[str, bytes]] = field(default_factory=list)

    def transmit(self, direction, payload, obs=None):
        self.payloads.append((direction, bytes(payload)))
        return super().transmit(direction, payload, obs)


def observed(system, queries):
    """Everything one workload shows of a system: per query the exact
    matches, the cloud's ``Rin`` rows in order, and the ``query`` and
    ``answer`` payload bytes."""
    seen = []
    for query in queries:
        del system.channel.payloads[:]
        matches = system.submit([query]).outcomes[0].matches
        rin = system.cloud.answer(system.client.prepare_query(query)).table
        seen.append(
            (matches, rin.schema, list(rin.rows), list(system.channel.payloads))
        )
    return seen


def running_example():
    graph, schema = example_social_network()
    return graph, schema, [example_query()]


def dbpedia_quarter():
    dataset = load_dataset("DBpedia", scale=0.25)
    return dataset.graph, dataset.schema, generate_workload(dataset.graph, 4, 3, seed=2)


@pytest.mark.parametrize("arm", ("rows",) + (("numpy",) if vec.HAVE_NUMPY else ()))
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("method", ["EFF", "BAS"])
@pytest.mark.parametrize("deployment", [running_example, dbpedia_quarter])
class TestLoadedEqualsPublished:
    """``save_published`` -> ``load`` is the system that published it."""

    def test_same_matches_rin_and_wire_bytes(
        self, tmp_path, deployment, method, shards, arm
    ):
        graph, schema, queries = deployment()
        with vec.override(arm):
            published = PrivacyPreservingSystem.setup(
                graph,
                schema,
                SystemConfig(k=2, method=method, shards=shards),
                channel=Wiretap(),
            )
            save_published(published.published, tmp_path)
            loaded = PrivacyPreservingSystem.load(
                tmp_path, graph, shards=shards, channel=Wiretap()
            )
            assert loaded.owner is None and loaded.published is None
            assert (loaded.config.method, loaded.config.k, loaded.config.theta) == (
                published.config.method,
                published.config.k,
                published.config.theta,
            )
            assert observed(loaded, queries) == observed(published, queries)
            assert all(matches for matches, *_ in observed(loaded, queries))

            if method == "BAS":
                return  # a BAS cloud stores Gk verbatim: no deltas
            release = DynamicRelease(
                graph.copy(), published.published.transform, published.published.lct
            )
            delta = release.go_delta(release.insert_edge(*an_absent_edge(release)))
            assert not delta.is_empty
            published.cloud.apply_delta(delta)
            loaded.cloud.apply_delta(delta)
            assert observed(loaded, queries) == observed(published, queries)


def shared_signature():
    """Two stars of the query carry equal constraints but not the same
    query-id leaf order."""
    schema = make_schema(2, 1, 2)
    graph = random_attributed_graph(schema, 26, edges_per_vertex=2, seed=1666)
    return graph, schema, [random_walk_query(graph, 4, 1667, keep_label_probability=0.5)]


@pytest.mark.parametrize("arm", ("rows",) + (("numpy",) if vec.HAVE_NUMPY else ()))
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("method", ["EFF", "BAS"])
@pytest.mark.parametrize("deployment", [shared_signature, dbpedia_quarter])
def test_the_wire_is_the_same_at_every_shard_count(deployment, method, shards, arm):
    """``shards`` shards, cold and then warm, show what one shard shows
    cold: matches, ``Rin`` rows in order, and the ``query`` and
    ``answer`` payload bytes."""
    graph, schema, queries = deployment()
    with vec.override(arm):
        single, sharded = (
            PrivacyPreservingSystem.setup(
                graph,
                schema,
                SystemConfig(k=2, method=method, shards=count),
                channel=Wiretap(),
            )
            for count in (1, shards)
        )
        assert observed(sharded, queries * 2) == observed(single, queries) * 2


class TestLoad:
    def test_serving_fields_reach_the_config(self, tmp_path):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=3))
        save_published(system.published, tmp_path)
        loaded = PrivacyPreservingSystem.load(
            tmp_path, graph, shards=2, max_intermediate_results=500
        )
        assert (loaded.config.k, loaded.config.shards) == (3, 2)
        assert loaded.cloud.max_intermediate_results == 500
        # only load's own work is on the publish record
        assert loaded.publish_metrics.index_bytes > 0
        assert loaded.publish_metrics.upload_bytes == 0

    def test_a_directory_that_names_no_strategy_says_republish(self, tmp_path):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        save_published(system.published, tmp_path)
        lct_path = tmp_path / "client" / "lct.json"
        document = json.loads(lct_path.read_text())
        del document["strategy"]
        lct_path.write_text(json.dumps(document))
        with pytest.raises(ProtocolError, match="re-publish"):
            PrivacyPreservingSystem.load(tmp_path, graph)

    def test_a_missing_directory_is_a_protocol_error(self, tmp_path):
        graph, _ = example_social_network()
        with pytest.raises(ProtocolError):
            PrivacyPreservingSystem.load(tmp_path / "nowhere", graph)
