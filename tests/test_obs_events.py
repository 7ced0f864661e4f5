"""Structured event log: query ids, levels, deterministic sampling."""

import io
import json

import pytest

from repro.core.config import SystemConfig
from repro.core.options import QueryOptions
from repro.core.system import PrivacyPreservingSystem, QueryOutcome
from repro.graph.generators import example_query, example_social_network
from repro.obs import (
    EventLog,
    NULL_EVENTS,
    Observability,
    new_query_id,
)
from repro.obs.events import (
    DEBUG_SPANS,
    INFO_SPANS,
    _sampled,
    query_ids,
    read_events,
)
from repro.obs import names


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


class TestSampling:
    def test_rate_bounds_are_absolute(self):
        assert _sampled("q-anything", 1.0)
        assert not _sampled("q-anything", 0.0)

    def test_deterministic_per_query_id(self):
        qid = new_query_id()
        decisions = {_sampled(qid, 0.5) for _ in range(10)}
        assert len(decisions) == 1

    def test_rate_roughly_respected(self):
        kept = sum(
            1 for _ in range(2000) if _sampled(new_query_id(), 0.25)
        )
        assert 350 < kept < 650  # ~500 expected

    def test_zero_rate_writes_nothing(self):
        stream = io.StringIO()
        log = EventLog(stream, sample_rate=0.0)
        system = _demo_system()
        system.obs.events = log
        outcome = system.query(example_query())
        assert outcome.matches  # the query itself still works
        assert stream.getvalue() == ""
        assert log.emitted == 0


class TestEventLog:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            EventLog(io.StringIO(), level="verbose")
        with pytest.raises(ValueError):
            EventLog(io.StringIO(), sample_rate=1.5)

    def test_emit_writes_one_sorted_json_line(self):
        stream = io.StringIO()
        log = EventLog(stream)
        log.emit("serve", query_id="q-abc", port=123)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["event"] == "serve"
        assert doc["query_id"] == "q-abc"
        assert doc["port"] == 123
        assert doc["level"] == "info"
        assert "ts" in doc

    def test_info_level_hides_per_star_spans(self):
        assert names.CLOUD_STAR_MATCH in DEBUG_SPANS
        assert names.CLOUD_STAR_MATCH not in INFO_SPANS
        system = _demo_system()
        outcome = system.query(example_query())
        stream = io.StringIO()
        EventLog(stream, level="info").emit_query(
            outcome.trace, outcome.query_id
        )
        events = [json.loads(l) for l in stream.getvalue().splitlines()]
        span_names = {e["span"] for e in events if e["event"] == "span"}
        assert names.CLOUD_STAR_MATCH not in span_names
        assert names.CLOUD_JOIN in span_names

    def test_debug_level_includes_per_star_spans(self):
        system = _demo_system()
        outcome = system.query(example_query())
        stream = io.StringIO()
        EventLog(stream, level="debug").emit_query(
            outcome.trace, outcome.query_id
        )
        events = [json.loads(l) for l in stream.getvalue().splitlines()]
        star_events = [
            e
            for e in events
            if e.get("span") == names.CLOUD_STAR_MATCH
        ]
        assert star_events
        assert all(e["level"] == "debug" for e in star_events)

    def test_emit_query_appends_summary_event(self):
        system = _demo_system()
        outcome = system.query(example_query())
        stream = io.StringIO()
        written = EventLog(stream).emit_query(
            outcome.trace, outcome.query_id, matches=len(outcome.matches)
        )
        events = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert written == len(events)
        summary = events[-1]
        assert summary["event"] == "query"
        assert summary["matches"] == len(outcome.matches)
        assert summary["seconds"] == pytest.approx(
            outcome.trace.total_seconds
        )
        assert query_ids(events) == {outcome.query_id}

    def test_null_sink_is_disabled_and_silent(self):
        assert not NULL_EVENTS.enabled
        assert NULL_EVENTS.emit_query(None, "q-x") == 0
        assert not NULL_EVENTS.should_log("q-x")


class TestSystemIntegration:
    def test_config_attaches_file_log_and_ids_line_up(self, tmp_path):
        path = tmp_path / "logs" / "events.jsonl"
        system = _demo_system(event_log_path=str(path))
        assert system.obs.events.enabled
        first = system.query(example_query())
        second = system.query(example_query())
        system.obs.events.close()
        events = read_events(path)
        kinds = {e["event"] for e in events}
        assert {"publish", "span", "query"} <= kinds
        assert {first.query_id, second.query_id} <= query_ids(events)
        # every span event's id refers to a real query
        for event in events:
            if event["event"] == "span":
                assert event["query_id"] in {
                    first.query_id,
                    second.query_id,
                }

    def test_batch_emits_batch_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        system = _demo_system(event_log_path=str(path))
        system.query_batch([example_query()] * 3)
        system.obs.events.close()
        events = read_events(path)
        batch_events = [e for e in events if e["event"] == names.BATCH]
        assert len(batch_events) == 1
        assert batch_events[0]["queries"] == 3
        assert batch_events[0]["workers"] == 1
        assert "backend" not in batch_events[0]

    def test_config_validation_rejects_bad_values(self):
        from repro.exceptions import ConfigError

        with pytest.raises(ConfigError):
            SystemConfig(k=2, event_log_level="loud")
        with pytest.raises(ConfigError):
            SystemConfig(k=2, event_sample_rate=2.0)
        with pytest.raises(ConfigError):
            SystemConfig(k=2, slo_window_size=0)
        with pytest.raises(ConfigError):
            SystemConfig(k=2, slo_window_seconds=0.0)

    def test_query_window_feeds_metrics(self):
        system = _demo_system(slo_window_size=8)
        for _ in range(3):
            system.query(example_query())
        snap = system.query_window.snapshot()
        assert snap["count"] == 3.0
        assert snap["p95"] > 0.0
        from repro.obs import prometheus_text

        text = prometheus_text(system.obs.metrics)
        assert "repro_query_seconds_window_p99" in text
        assert "repro_cloud_seconds_window_p50" in text
