"""End-to-end observability: every pipeline phase emits its span.

These tests exercise the tentpole acceptance criteria of the
observability redesign: publish and query traces contain every phase
named in :mod:`repro.obs.names`, nesting survives the plain batch
loop and a forked batch, span durations account for the query wall
time, and the metric views are derivable from the trace alone.
"""

import pytest

from repro import QueryOptions, SystemConfig
from repro.cloud.parallel import fork_available
from repro.core.system import BatchOutcome, PrivacyPreservingSystem, QueryOutcome
from repro.graph import example_query, example_social_network
from repro.matching import match_key
from repro.obs import Observability, QueryMetrics, names


@pytest.fixture(scope="module")
def deployment():
    graph, schema = example_social_network()
    system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
    return system


@pytest.fixture(scope="module")
def outcome(deployment):
    return deployment.query(example_query())


PUBLISH_PHASES = (
    names.PUBLISH,
    names.PUBLISH_LCT,
    names.ANON_GROUPING,
    names.PUBLISH_KAUTO,
    names.KAUTO_PARTITION,
    names.KAUTO_ALIGNMENT,
    names.KAUTO_EDGE_COPY,
    names.PUBLISH_OUTSOURCE,
    names.ENCODE_UPLOAD,
    names.NETWORK_UPLOAD,
    names.CLOUD_INDEX_BUILD,
)

QUERY_PHASES = (
    names.QUERY,
    names.CLIENT_ANONYMIZE,
    names.ENCODE_QUERY,
    names.NETWORK_QUERY,
    names.DECODE_QUERY,
    names.CLOUD_ANSWER,
    names.CLOUD_DECOMPOSE,
    names.CLOUD_STAR_MATCHING,
    names.CLOUD_STAR_MATCH,
    names.CLOUD_JOIN,
    names.ENCODE_ANSWER,
    names.NETWORK_ANSWER,
    names.DECODE_ANSWER,
    names.CLIENT_EXPAND,
    names.CLIENT_FILTER,
)


class TestPublishTrace:
    def test_every_publish_phase_emits_a_span(self, deployment):
        trace = deployment.published.trace
        assert trace is not None
        for name in PUBLISH_PHASES:
            assert trace.first(name) is not None, f"missing span {name!r}"

    def test_publish_metrics_derivable_from_trace(self, deployment):
        from repro.obs import PublishMetrics

        trace = deployment.published.trace
        rebuilt = PublishMetrics.from_trace(trace)
        assert rebuilt == deployment.published.metrics
        assert rebuilt.k == 2
        assert rebuilt.gk_vertices > 0
        assert rebuilt.upload_bytes > 0
        assert rebuilt.index_bytes > 0


class TestQueryTrace:
    def test_every_query_phase_emits_a_span(self, outcome):
        trace = outcome.trace
        assert trace is not None
        for name in QUERY_PHASES:
            assert trace.first(name) is not None, f"missing span {name!r}"

    def test_phases_nest_under_the_query_root(self, outcome):
        trace = outcome.trace
        root = trace.first(names.QUERY)
        assert root.parent_id is None
        for name in QUERY_PHASES[1:]:
            span = trace.first(name)
            assert span.parent_id is not None, f"{name!r} is an orphan"

    def test_span_durations_account_for_wall_time(self, outcome):
        """The direct children of the root cover the root's wall time.

        Phases are sub-millisecond here, so scheduling noise between
        spans can be a visible fraction of the wall — the 20% relative
        tolerance is backed by a 2 ms absolute allowance.
        """
        trace = outcome.trace
        root = trace.first(names.QUERY)
        child_total = sum(s.duration for s in trace.children(root))
        slack = max(root.duration * 0.20, 0.002)
        assert child_total <= root.duration + slack  # children fit inside
        assert child_total >= root.duration - slack  # ... and cover the wall

    def test_metrics_are_a_pure_view_of_the_trace(self, outcome):
        rebuilt = QueryMetrics.from_trace(outcome.trace)
        assert rebuilt == outcome.metrics
        assert rebuilt.cloud_seconds > 0
        assert rebuilt.result_count == len(outcome.matches)
        assert rebuilt.query_bytes > 0 and rebuilt.answer_bytes > 0

    def test_outcome_dict_round_trip(self, outcome):
        restored = QueryOutcome.from_dict(outcome.to_dict())
        assert restored.matches == outcome.matches
        assert restored.metrics == outcome.metrics
        assert len(restored.trace) == len(outcome.trace)


class TestStarWorkerNesting:
    """One ``cloud.star_match`` span per matched star, each a child of
    the ``cloud.star_matching`` span of its query."""

    def test_parallel_star_spans_attach_to_star_matching(self):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        outcome = system.query(example_query())
        trace = outcome.trace
        matching = trace.first(names.CLOUD_STAR_MATCHING)
        stars = trace.named(names.CLOUD_STAR_MATCH)
        assert stars, "no per-star spans recorded"
        assert all(s.parent_id == matching.span_id for s in stars)
        assert all(s.depth == matching.depth + 1 for s in stars)
        assert len(stars) == outcome.metrics.stars


class TestBatchBackends:
    def _queries(self):
        return [example_query() for _ in range(4)]

    @pytest.mark.parametrize(
        "workers",
        [pytest.param(1, id="serial")]
        + ([pytest.param(2, id="process")] if fork_available() else []),
    )
    def test_each_outcome_has_its_own_trace(self, deployment, workers):
        batch = deployment.query_batch(
            self._queries(), options=QueryOptions(workers=workers)
        )
        assert batch.metrics.worker_count == workers
        for outcome in batch.outcomes:
            trace = outcome.trace
            assert trace is not None
            # exactly one query root each: concurrent queries never
            # interleave spans into one buffer
            roots = [s for s in trace.roots() if s.name == names.QUERY]
            assert len(roots) == 1
            assert trace.first(names.CLOUD_ANSWER) is not None
        batch_span = batch.trace.first(names.BATCH)
        assert batch_span is not None
        assert batch_span.attributes["workers"] == workers
        assert batch_span.attributes["queries"] == 4

    def test_batch_dict_round_trip(self, deployment):
        batch = deployment.query_batch(self._queries())
        restored = BatchOutcome.from_dict(batch.to_dict())
        assert restored.matches == batch.matches
        assert restored.metrics.worker_count == 1
        assert restored.metrics.query_count == 4


class TestDisabledObservability:
    def test_null_scope_answers_without_tracing(self):
        graph, schema = example_social_network()
        obs = Observability.disabled()
        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2), obs=obs
        )
        outcome = system.query(example_query())
        assert len(outcome.matches) == 2
        assert outcome.trace is None
        assert system.published.trace is None
        # the view over a None trace is all-defaults, not an error
        assert outcome.metrics == QueryMetrics.from_trace(None)

    def test_results_identical_with_and_without_tracing(self, deployment):
        graph, schema = example_social_network()
        silent = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2), obs=Observability.disabled()
        )
        traced = deployment.query(example_query())
        untraced = silent.query(example_query())
        assert [match_key(m) for m in traced.matches] == [
            match_key(m) for m in untraced.matches
        ]


class TestRegistryAggregation:
    def test_system_registry_accumulates_across_queries(self):
        graph, schema = example_social_network()
        obs = Observability()
        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2), obs=obs
        )
        for _ in range(3):
            system.query(example_query())
        registry = obs.metrics
        assert registry.counter(names.M_QUERIES).total == 3.0
        assert registry.counter(names.M_MATCHES).total == 6.0  # 2 each
        assert registry.counter(names.M_NETWORK_BYTES).total > 0
        assert registry.histogram(names.M_QUERY_SECONDS).count() == 3

    def test_seconds_histograms_observe_span_durations_only(self):
        """Spans are the only clock: a component called outside a
        recording scope has no seconds to report, so it observes none."""
        graph, schema = example_social_network()
        obs = Observability()
        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2), obs=obs
        )
        query = example_query()
        system.query(query)
        answer = system.cloud.answer(system.client.prepare_query(query))
        system.client.process_answer(query, answer.table, answer.expanded)
        for name in (names.M_CLOUD_SECONDS, names.M_CLIENT_SECONDS):
            histogram = obs.metrics.histogram(name)
            assert histogram.count() == 1
            assert histogram.sum() > 0.0
