"""Query ids: one per query scope, stamped on every span of its trace.

The id is the key of a query's one record — ``/traces/<query_id>`` and
the line ``repro serve --events`` logs (``tests/test_cli.py``).
"""

from repro.core.config import SystemConfig
from repro.core.system import PrivacyPreservingSystem, QueryOutcome
from repro.graph.generators import example_query, example_social_network
from repro.obs import Observability, new_query_id


def _demo_system(**config) -> PrivacyPreservingSystem:
    graph, schema = example_social_network()
    return PrivacyPreservingSystem.setup(
        graph, schema, SystemConfig(k=2, **config), obs=Observability()
    )


class TestQueryIds:
    def test_new_query_id_shape_and_uniqueness(self):
        ids = {new_query_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(qid.startswith("q-") and len(qid) == 14 for qid in ids)

    def test_outcome_carries_query_id_stamped_on_every_span(self):
        system = _demo_system()
        outcome = system.query(example_query())
        assert outcome.query_id.startswith("q-")
        assert outcome.trace is not None and len(outcome.trace) > 0
        assert all(
            span.query_id == outcome.query_id for span in outcome.trace
        )

    def test_distinct_queries_get_distinct_ids(self):
        system = _demo_system()
        first = system.query(example_query())
        second = system.query(example_query())
        assert first.query_id != second.query_id

    def test_query_id_round_trips_through_dicts(self):
        system = _demo_system()
        outcome = system.query(example_query())
        clone = QueryOutcome.from_dict(outcome.to_dict())
        assert clone.query_id == outcome.query_id

    def test_old_dicts_without_query_id_still_load(self):
        system = _demo_system()
        doc = system.query(example_query()).to_dict()
        doc.pop("query_id")
        assert QueryOutcome.from_dict(doc).query_id == ""

    def test_disabled_obs_leaves_query_id_empty(self):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2), obs=Observability.disabled()
        )
        outcome = system.query(example_query())
        assert outcome.query_id == ""
        assert outcome.trace is None
