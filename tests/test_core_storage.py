"""Unit tests for deployment persistence."""

import json

import pytest

from repro.cloud import CloudServer
from repro.core import DataOwner, QueryClient, SystemConfig
from repro.core.storage import load_client_side, load_cloud_side, save_published
from repro.exceptions import ProtocolError
from repro.graph import example_query, example_social_network
from repro.matching import find_subgraph_matches, match_key


@pytest.fixture
def deployment(tmp_path):
    graph, schema = example_social_network()
    owner = DataOwner(graph, schema)
    published = owner.publish(SystemConfig(k=2))
    save_published(published, tmp_path / "dep")
    return graph, published, tmp_path / "dep"


class TestRoundTrip:
    def test_cloud_side_round_trip(self, deployment):
        _, published, root = deployment
        graph, avt, centers, expand = load_cloud_side(root)
        assert graph.structure_equal(published.upload_graph)
        assert list(avt.rows()) == list(published.transform.avt.rows())
        assert centers == published.center_vertices
        assert expand is True

    def test_client_side_round_trip(self, deployment):
        _, published, root = deployment
        lct, avt = load_client_side(root)
        assert lct.theta == published.lct.theta
        assert lct.group_ids() == published.lct.group_ids()
        assert avt.k == published.transform.avt.k

    @pytest.mark.parametrize(
        "method,grouping",
        [("EFF", "EFF"), ("RAN", "RAN"), ("FSIM", "FSIM"), ("BAS", "EFF")],
    )
    def test_the_lct_is_saved_with_the_name_of_its_grouping(
        self, tmp_path, method, grouping
    ):
        """The one key ``PrivacyPreservingSystem.load`` cannot work out
        from the artefacts themselves; the cloud half never sees it."""
        graph, schema = example_social_network()
        published = DataOwner(graph, schema).publish(SystemConfig(k=2, method=method))
        save_published(published, tmp_path)
        assert load_client_side(tmp_path)[0].strategy == grouping
        document = json.loads((tmp_path / "client" / "lct.json").read_text())
        assert document["strategy"] == grouping
        for name in ("graph.json", "avt.json", "meta.json"):
            assert "strategy" not in (tmp_path / "cloud" / name).read_text()

    def test_query_through_reloaded_deployment(self, deployment):
        original_graph, _, root = deployment
        cloud_graph, cloud_avt, centers, expand = load_cloud_side(root)
        lct, client_avt = load_client_side(root)

        cloud = CloudServer(cloud_graph, cloud_avt, centers, expand_in_cloud=expand)
        client = QueryClient(original_graph, lct, client_avt)
        query = example_query()
        answer = cloud.answer(client.prepare_query(query))
        outcome = client.process_answer(query, answer.table, answer.expanded)
        oracle = {match_key(m) for m in find_subgraph_matches(query, original_graph)}
        assert {match_key(m) for m in outcome.matches} == oracle


class TestSecuritySplit:
    def test_cloud_directory_has_no_lct(self, deployment):
        _, _, root = deployment
        cloud_files = {p.name for p in (root / "cloud").iterdir()}
        assert "lct.json" not in cloud_files

    def test_cloud_files_contain_no_raw_labels(self, deployment):
        original_graph, _, root = deployment
        raw_labels = {
            label
            for data in original_graph.vertices()
            for _, label in data.label_items()
        }
        for path in (root / "cloud").iterdir():
            content = path.read_text()
            for label in raw_labels:
                assert label not in content


class TestErrors:
    def test_missing_cloud_artifacts(self, tmp_path):
        with pytest.raises(ProtocolError):
            load_cloud_side(tmp_path)

    def test_corrupt_client_artifacts(self, deployment, tmp_path):
        _, _, root = deployment
        (root / "client" / "lct.json").write_text("not json{")
        with pytest.raises(ProtocolError):
            load_client_side(root)

    def test_corrupt_meta(self, deployment):
        _, _, root = deployment
        (root / "cloud" / "meta.json").write_text(json.dumps({"nope": 1}))
        with pytest.raises(ProtocolError):
            load_cloud_side(root)
