"""Per-query EXPLAIN: :class:`~repro.obs.QueryMetrics` over one trace.

The record is a total derivation over a (possibly stitched) trace:
every field reads named spans of the canonical taxonomy, missing spans
degrade to zeros, and the renderer must always produce output — even
for an untraced run.  :func:`~repro.obs.layers` is the one span-name
to seconds mapping every view reads.
"""

import json

from repro.core.config import SystemConfig
from repro.core.options import QueryOptions
from repro.core.system import PrivacyPreservingSystem
from repro.graph.generators import example_query, example_social_network
from repro.obs import (
    Observability,
    PublishMetrics,
    QueryMetrics,
    Trace,
    Tracer,
    format_summary,
    layers,
    names,
)


def _stitched_trace() -> Trace:
    """A deterministic two-process serving trace, built like the real
    pipeline: client root -> gateway -> cloud -> two shard lanes."""
    tracer = Tracer(query_id="q-42")
    with tracer.span(names.CLIENT_SUBMIT) as root:
        with tracer.span(names.GATEWAY_REQUEST) as gw:
            gw.set(status="ok")
            with tracer.span(names.GATEWAY_DISPATCH):
                with tracer.span(names.CLOUD_ANSWER) as cloud:
                    cloud.set(rs_size=9, rin_size=4, matches=4)
                    with tracer.span(names.CLOUD_DECOMPOSE) as dec:
                        dec.set(stars=3)
                    with tracer.span(names.CLOUD_STAR_MATCHING) as sm:
                        sm.set(shards=2)
        with tracer.span(names.NETWORK_GATEWAY_QUERY) as nq:
            nq.set(bytes=120)
        with tracer.span(names.NETWORK_GATEWAY_ANSWER) as na:
            na.set(bytes=340)
        with tracer.span(names.CLIENT_FILTER) as filt:
            filt.set(
                candidates=4, results=2, dropped=2,
                dropped_vertex=0, dropped_edge=1, dropped_label=1, anchored=True,
            )
    # shard lanes arrive from fork children (other pids), absorbed in
    # arbitrary order — from_trace must sort them by shard index
    for shard, pid, results in ((1, 7002, 3), (0, 7001, 6)):
        child = Tracer(query_id="q-42")
        with child.span(names.CLOUD_SHARD_MATCH) as span:
            span.set(shard=shard, results=results)
        doc = child.take_trace().to_dict()
        for span_doc in doc["spans"]:
            span_doc["pid"] = pid
        tracer.absorb(Trace.from_dict(doc), parent=cloud)
    return tracer.take_trace()


def _gateway_only_trace(status: str) -> Trace:
    """A gateway request that never reached the dispatch pool."""
    tracer = Tracer(query_id="q-c")
    with tracer.span(names.GATEWAY_REQUEST) as gw:
        gw.set(status=status)
    return tracer.take_trace()


class TestFromTrace:
    def test_empty_inputs_degrade_to_zeros(self):
        for report in (
            QueryMetrics.from_trace(None),
            QueryMetrics.from_trace(Trace()),
        ):
            assert report.query_id == ""
            assert report.phases == {} and report.per_shard == []
            assert report.total_seconds == 0.0
            assert report.render_text()  # still renders

    def test_derives_plan_sizes_and_status(self):
        report = QueryMetrics.from_trace(_stitched_trace())
        assert report.query_id == "q-42"  # inferred from the spans
        assert report.status == "ok"
        assert report.stars == 3
        assert report.shards == 2
        assert report.dispatched is True
        assert report.rs_size == 9 and report.rin_size == 4
        assert report.matches == 4
        assert report.candidate_count == 4 and report.result_count == 2
        assert (report.dropped_vertex, report.dropped_edge, report.dropped_label) == (0, 1, 1)
        assert report.anchored is True

    def test_bytes_per_direction(self):
        report = QueryMetrics.from_trace(_stitched_trace())
        assert report.bytes_by_direction == {
            "gateway_query": 120,
            "gateway_answer": 340,
        }
        # the simulated in-process wire was not used
        assert report.query_bytes == 0 and report.answer_bytes == 0

    def test_per_shard_lanes_sorted_with_pids(self):
        report = QueryMetrics.from_trace(_stitched_trace())
        assert [lane["shard"] for lane in report.per_shard] == [0, 1]
        assert [lane["results"] for lane in report.per_shard] == [6, 3]
        assert [lane["pid"] for lane in report.per_shard] == [7001, 7002]
        assert report.process_count >= 2

    def test_phases_follow_pipeline_order(self):
        trace = _stitched_trace()
        report = QueryMetrics.from_trace(trace)
        rendered = list(report.phases)
        assert rendered == [name for name in names.PIPELINE if name in rendered]
        assert names.CLIENT_SUBMIT in rendered
        assert report.phases[names.CLOUD_SHARD_MATCH] == sum(
            span.duration for span in trace.named(names.CLOUD_SHARD_MATCH)
        )
        # the paper's per-phase seconds read the same entries
        assert report.star_matching_seconds == report.phases[names.CLOUD_STAR_MATCHING]
        assert report.cloud_seconds == report.phases[names.CLOUD_ANSWER]
        assert report.client_seconds == report.phases[names.CLIENT_FILTER]

    def test_missing_query_id_falls_back_to_argument(self):
        tracer = Tracer()  # no query id stamped
        with tracer.span(names.QUERY):
            pass
        report = QueryMetrics.from_trace(
            tracer.take_trace(), query_id="q-given"
        )
        assert report.query_id == "q-given"

    def test_coalesced_request_has_no_dispatch(self):
        report = QueryMetrics.from_trace(_gateway_only_trace("ok"))
        assert report.dispatched is False
        assert "[coalesced]" in report.render_text()

    def test_refused_request_is_not_coalesced(self):
        for status in ("unauthorized", "shed"):
            report = QueryMetrics.from_trace(_gateway_only_trace(status))
            assert report.dispatched is False
            text = report.render_text()
            assert f"status={status}" in text
            assert "[coalesced]" not in text


class TestRenderers:
    def test_text_report_names_the_load_bearing_numbers(self):
        text = QueryMetrics.from_trace(_stitched_trace()).render_text()
        assert "EXPLAIN query q-42" in text
        assert "status=ok" in text
        assert "3 star(s) over 2 shard(s)" in text
        assert "[coalesced]" not in text
        assert "|RS|=9" in text and "|Rin|=4" in text
        assert "candidates=4  results=2" in text
        assert "gateway_answer=340" in text and "gateway_query=120" in text
        assert "shard 0: results=6  pid=7001" in text
        assert "shard 1: results=3  pid=7002" in text
        assert "cache" not in text
        assert "dropped vertex=0  edge=1  label=1  rin=anchored" in text

    def test_json_round_trips(self):
        report = QueryMetrics.from_trace(_stitched_trace())
        restored = QueryMetrics.from_dict(
            json.loads(json.dumps(report.to_dict(), sort_keys=True))
        )
        assert restored == report

    def test_dict_round_trip_rehydrates_nested_types(self):
        report = QueryMetrics(
            query_id="q-1",
            phases={names.QUERY: 0.5},
            per_shard=[{"shard": 0, "results": 3, "seconds": 0.1, "pid": 0}],
            bytes_by_direction={"answer": 12},
        )
        restored = QueryMetrics.from_dict(report.to_dict())
        assert restored == report
        assert restored.answer_bytes == 12


class TestLayers:
    def test_stitched_trace_in_pipeline_order_with_lanes_summed(self):
        trace = _stitched_trace()
        seconds = layers(trace)
        assert set(seconds) == {span.name for span in trace}
        assert list(seconds) == [name for name in names.PIPELINE if name in seconds]
        lanes = trace.named(names.CLOUD_SHARD_MATCH)
        assert len(lanes) == 2
        assert seconds[names.CLOUD_SHARD_MATCH] == lanes[0].duration + lanes[1].duration

    def test_names_outside_the_pipeline_follow_in_first_seen_order(self):
        tracer = Tracer()
        for name in ("zeta", names.QUERY, "alpha", "zeta"):
            with tracer.span(name):
                pass
        assert list(layers(tracer.take_trace())) == [names.QUERY, "zeta", "alpha"]
        assert layers(None) == {} and layers(Trace()) == {}

    def test_summary_total_column_reads_layers(self):
        trace = _stitched_trace()
        seconds = layers(trace)
        rows = format_summary(trace).splitlines()[3:-1]
        assert [row.split()[0] for row in rows] == list(seconds)
        assert [row.split()[2] for row in rows] == [
            f"{value * 1000:.3f}" for value in seconds.values()
        ]

    def test_publish_metrics_read_layers(self):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        trace = system.published.trace
        seconds = layers(trace)
        assert list(seconds)[0] == names.PUBLISH
        metrics = PublishMetrics.from_trace(trace)
        assert metrics.lct_seconds == seconds[names.PUBLISH_LCT]
        assert metrics.gk_seconds == seconds[names.PUBLISH_KAUTO]
        assert metrics.go_seconds == seconds[names.PUBLISH_OUTSOURCE]

    def test_index_seconds_is_the_one_index_build_span(self):
        """One clock: the index time is the span's duration, not a
        second timer inside it."""
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        trace = system.published.trace
        assert len(trace.named(names.CLOUD_INDEX_BUILD)) == 1
        index_seconds = layers(trace)[names.CLOUD_INDEX_BUILD]
        assert index_seconds > 0.0
        assert system.publish_metrics.index_seconds == index_seconds

    def test_pipeline_names_every_span_once(self):
        assert len(set(names.PIPELINE)) == len(names.PIPELINE)


class TestQueryOptionsSurface:
    def test_outcome_carries_report_when_asked(self):
        """Tracing is the ask: a traced outcome's metrics are its
        EXPLAIN report; an untraced one reads empty."""
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2), obs=Observability()
        )
        plain = system.query(example_query(), options=QueryOptions(trace=False))
        assert plain.trace is None and plain.metrics == QueryMetrics()
        outcome = system.query(example_query())
        report = outcome.metrics
        assert report.query_id == outcome.query_id
        assert report.result_count == len(outcome.matches)
        assert report.anchored  # the honest cloud's Rin streams
        assert (
            report.dropped_vertex + report.dropped_edge + report.dropped_label
            == report.candidate_count - report.result_count
        )
        assert report.wall_seconds > 0.0
        assert f"EXPLAIN query {outcome.query_id}" in report.render_text()
        # the report survives the outcome's own dict round trip
        restored = type(outcome).from_dict(outcome.to_dict())
        assert restored.metrics == report
