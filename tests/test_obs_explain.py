"""Per-query EXPLAIN reports (`repro.obs.explain`).

The report is a total derivation over a (possibly stitched) trace:
every field reads named spans of the canonical taxonomy, missing spans
degrade to zeros, and the renderers must always produce output — even
for an untraced run.
"""

import json

import pytest

from repro.core.config import ConfigError, SystemConfig
from repro.core.options import QueryOptions
from repro.core.system import PrivacyPreservingSystem
from repro.graph.generators import example_query, example_social_network
from repro.obs import ExplainReport, Observability, Trace, Tracer, names
from repro.obs.explain import PHASE_SPANS, PhaseTiming, ShardWork


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
                        sm.set(cache_hits=1, cache_misses=2, shards=2)
        with tracer.span(names.NETWORK_GATEWAY_QUERY) as nq:
            nq.set(bytes=120)
        with tracer.span(names.NETWORK_GATEWAY_ANSWER) as na:
            na.set(bytes=340)
        with tracer.span(names.CLIENT_FILTER) as filt:
            filt.set(
                candidates=4, results=2, dropped=2,
                dropped_vertex=0, dropped_edge=1, dropped_label=1, anchored=True,
            )
    trace = tracer.take_trace()
    # shard lanes arrive from fork children (other pids), absorbed in
    # arbitrary order — from_trace must sort them by shard index
    for shard, pid, results in ((1, 7002, 3), (0, 7001, 6)):
        child = Tracer(query_id="q-42")
        with child.span(names.CLOUD_SHARD_MATCH) as span:
            span.set(shard=shard, results=results)
        doc = child.take_trace().to_dict()
        for span_doc in doc["spans"]:
            span_doc["pid"] = pid
        trace.merge(
            Trace.from_dict(doc),
            parent_id=trace.first(names.CLOUD_ANSWER).span_id,
        )
    return trace


class TestFromTrace:
    def test_empty_inputs_degrade_to_zeros(self):
        for report in (
            ExplainReport.from_trace(None),
            ExplainReport.from_trace(Trace()),
        ):
            assert report.query_id == ""
            assert report.phases == [] and report.per_shard == []
            assert report.render_text()  # still renders

    def test_derives_plan_sizes_and_status(self):
        report = ExplainReport.from_trace(_stitched_trace())
        assert report.query_id == "q-42"  # inferred from the spans
        assert report.status == "ok"
        assert report.stars == 3
        assert report.shards == 2
        assert report.dispatched is True
        assert report.rs_size == 9 and report.rin_size == 4
        assert report.matches == 4
        assert report.candidates == 4 and report.results == 2
        assert (report.dropped_vertex, report.dropped_edge, report.dropped_label) == (0, 1, 1)
        assert report.anchored is True
        assert report.cache_hits == 1 and report.cache_misses == 2

    def test_bytes_per_direction(self):
        report = ExplainReport.from_trace(_stitched_trace())
        assert report.bytes_by_direction == {
            "gateway_query": 120,
            "gateway_answer": 340,
        }

    def test_per_shard_lanes_sorted_with_pids(self):
        report = ExplainReport.from_trace(_stitched_trace())
        assert [work.shard for work in report.per_shard] == [0, 1]
        assert [work.results for work in report.per_shard] == [6, 3]
        assert [work.pid for work in report.per_shard] == [7001, 7002]
        assert report.process_count >= 2

    def test_phases_follow_pipeline_order(self):
        report = ExplainReport.from_trace(_stitched_trace())
        rendered = [phase.name for phase in report.phases]
        assert rendered == [
            name for name in PHASE_SPANS if name in rendered
        ]
        assert names.CLIENT_SUBMIT in rendered
        assert names.CLOUD_SHARD_MATCH in rendered
        shard_phase = next(
            phase
            for phase in report.phases
            if phase.name == names.CLOUD_SHARD_MATCH
        )
        assert shard_phase.count == 2

    def test_missing_query_id_falls_back_to_argument(self):
        tracer = Tracer()  # no query id stamped
        with tracer.span(names.QUERY):
            pass
        report = ExplainReport.from_trace(
            tracer.take_trace(), query_id="q-given"
        )
        assert report.query_id == "q-given"

    def test_coalesced_request_has_no_dispatch(self):
        tracer = Tracer(query_id="q-c")
        with tracer.span(names.GATEWAY_REQUEST) as gw:
            gw.set(status="ok")
        report = ExplainReport.from_trace(tracer.take_trace())
        assert report.dispatched is False
        assert "[coalesced]" in report.render_text()


class TestRenderers:
    def test_text_report_names_the_load_bearing_numbers(self):
        text = ExplainReport.from_trace(_stitched_trace()).render_text()
        assert "EXPLAIN query q-42" in text
        assert "status=ok" in text
        assert "3 star(s) over 2 shard(s)" in text
        assert "|RS|=9" in text and "|Rin|=4" in text
        assert "gateway_answer=340" in text and "gateway_query=120" in text
        assert "shard 0: results=6  pid=7001" in text
        assert "shard 1: results=3  pid=7002" in text
        assert "1 hit(s) / 2 miss(es)" in text
        assert "dropped vertex=0  edge=1  label=1  rin=anchored" in text

    def test_json_round_trips(self):
        report = ExplainReport.from_trace(_stitched_trace())
        restored = ExplainReport.from_dict(json.loads(report.to_json()))
        assert restored == report

    def test_dict_round_trip_rehydrates_nested_types(self):
        report = ExplainReport(
            query_id="q-1",
            phases=[PhaseTiming(name="query", seconds=0.5)],
            per_shard=[ShardWork(shard=0, results=3, seconds=0.1)],
        )
        restored = ExplainReport.from_dict(report.to_dict())
        assert isinstance(restored.phases[0], PhaseTiming)
        assert isinstance(restored.per_shard[0], ShardWork)
        assert restored == report


class TestQueryOptionsSurface:
    def test_explain_requires_trace(self):
        with pytest.raises(ConfigError):
            QueryOptions(trace=False, explain=True)

    def test_outcome_carries_report_when_asked(self):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2), obs=Observability()
        )
        plain = system.query(example_query())
        assert plain.explain is None
        outcome = system.query(
            example_query(), options=QueryOptions(explain=True)
        )
        report = outcome.explain
        assert report is not None
        assert report.query_id == outcome.query_id
        assert report.results == len(outcome.matches)
        assert report.anchored  # the honest cloud's Rin streams
        assert (
            report.dropped_vertex + report.dropped_edge + report.dropped_label
            == report.candidates - report.results
        )
        assert report.total_seconds > 0.0
        # the report survives the outcome's own dict round trip
        restored = type(outcome).from_dict(outcome.to_dict())
        assert restored.explain == report
