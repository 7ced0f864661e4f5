"""Unit tests for the metrics registry and the exporters.

Includes golden-file tests: a deterministic trace + registry are
exported and compared byte-for-byte against ``tests/data/``.  If the
export formats change intentionally, regenerate with::

    PYTHONPATH=src:tests python -c "import test_obs_registry as t; t.regenerate()"
"""

import json
import re
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, Span, Trace, prometheus_text
from repro.obs.exporters import (
    PROM_LINE_RE,
    chrome_trace_dict,
    export_chrome_trace,
    export_dict,
    export_json,
    format_summary,
    prom_name,
    write_prometheus,
)
from repro.obs.registry import NULL_REGISTRY

DATA_DIR = Path(__file__).parent / "data"


class TestCounter:
    def test_inc_and_total(self):
        counter = MetricsRegistry().counter("queries_total")
        counter.inc()
        counter.inc(2)
        assert counter.total == 3.0

    def test_labels_partition_the_series(self):
        counter = MetricsRegistry().counter("network_bytes_total")
        counter.inc(10, direction="query")
        counter.inc(20, direction="answer")
        assert counter.value(direction="query") == 10.0
        assert counter.value(direction="answer") == 20.0
        assert counter.total == 30.0

    def test_counters_only_go_up(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_unset_series_reads_zero_but_absent(self):
        counter = MetricsRegistry().counter("c")
        assert counter.value() == 0.0
        assert not counter.present()
        counter.inc(0)
        assert counter.present() and counter.value() == 0.0


class TestGauge:
    def test_set_and_set_max(self):
        gauge = MetricsRegistry().gauge("join_intermediate_peak")
        gauge.set(5)
        gauge.set_max(3)  # lower: ignored
        assert gauge.value() == 5.0
        gauge.set_max(9)
        assert gauge.value() == 9.0

    def test_unset_reads_zero_like_counter(self):
        # unified with Counter.value(): 0.0 default, present() to
        # distinguish "never set" from "set to zero"
        gauge = MetricsRegistry().gauge("g")
        assert gauge.value() == 0.0
        assert not gauge.present()
        gauge.set(0.0)
        assert gauge.present() and gauge.value() == 0.0

    def test_present_is_per_label_series(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(1.5, site="cloud")
        assert gauge.present(site="cloud")
        assert not gauge.present(site="client")
        assert gauge.value(site="client") == 0.0

    def test_remove_drops_exactly_one_series(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(1.0, query_id="q-1")
        gauge.set(2.0, query_id="q-2")
        assert gauge.remove(query_id="q-1") is True
        assert not gauge.present(query_id="q-1")
        assert gauge.value(query_id="q-2") == 2.0
        # removing an absent series reports False and changes nothing
        assert gauge.remove(query_id="q-1") is False
        assert gauge.remove(query_id="never-set") is False

    def test_null_gauge_remove_is_inert(self):
        assert NULL_REGISTRY.gauge("g").remove(query_id="q") is False


class TestHistogram:
    def test_observe_buckets_sum_count(self):
        hist = MetricsRegistry().histogram("query_seconds", buckets=(0.01, 0.1, 1.0))
        hist.observe(0.005)
        hist.observe(0.05)
        hist.observe(5.0)  # above every bound: only +Inf
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.055)
        snap = hist.snapshot_one(())
        assert snap["buckets"] == {"0.01": 1, "0.1": 2, "1.0": 2}

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_callback_evaluated_at_snapshot(self):
        registry = MetricsRegistry()
        state = {"depth": 0}
        registry.register_callback(
            "queue_depth", lambda: state["depth"], "queued requests"
        )
        state["depth"] = 7
        snapshot = registry.snapshot()
        assert snapshot["queue_depth"]["series"][0]["value"] == 7.0
        assert ("queue_depth", 7.0, "queued requests") in registry.callbacks()

    def test_null_registry_accepts_everything_stores_nothing(self):
        NULL_REGISTRY.counter("c").inc(5)
        NULL_REGISTRY.gauge("g").set(1)
        NULL_REGISTRY.histogram("h").observe(1)
        assert NULL_REGISTRY.snapshot() == {}


def _golden_trace() -> Trace:
    """A deterministic three-span trace (no clocks involved)."""
    return Trace(
        spans=[
            Span(
                name="cloud.star_matching",
                span_id=2,
                parent_id=1,
                depth=1,
                started_at=0.001,
                duration=0.004,
                thread="MainThread",
                pid=1,
                attributes={"stars": 2, "rs_size": 8},
            ),
            Span(
                name="cloud.answer",
                span_id=1,
                parent_id=None,
                depth=0,
                started_at=0.0,
                duration=0.01,
                thread="MainThread",
                pid=1,
                attributes={"rs_size": 8, "rin_size": 4},
            ),
            Span(
                name="client.filter",
                span_id=3,
                parent_id=None,
                depth=0,
                started_at=0.011,
                duration=0.002,
                thread="MainThread",
                pid=1,
                attributes={"candidates": 4, "results": 2, "dropped": 2},
            ),
        ]
    )


def _golden_registry() -> MetricsRegistry:
    """A deterministic registry covering all three metric kinds + a callback."""
    registry = MetricsRegistry()
    registry.counter("queries_total", "queries answered").inc(3)
    bytes_total = registry.counter("network_bytes_total", "wire bytes")
    bytes_total.inc(120, direction="query")
    bytes_total.inc(340, direction="answer")
    registry.gauge("join_intermediate_peak", "peak |join|").set_max(42)
    hist = registry.histogram("query_seconds", "end-to-end", buckets=(0.01, 0.1, 1.0))
    hist.observe(0.005)
    hist.observe(0.25)
    registry.register_callback(
        "gateway_seconds_window_count", lambda: 5, "observations inside the window"
    )
    return registry


class TestGoldenFiles:
    def test_json_export_matches_golden(self, tmp_path):
        path = export_json(
            tmp_path / "trace.json",
            trace=_golden_trace(),
            registry=_golden_registry(),
            extra={"command": "golden"},
        )
        expected = (DATA_DIR / "golden_trace.json").read_text(encoding="utf-8")
        assert path.read_text(encoding="utf-8") == expected

    def test_prometheus_export_matches_golden(self, tmp_path):
        path = write_prometheus(_golden_registry(), tmp_path / "metrics.prom")
        expected = (DATA_DIR / "golden_metrics.prom").read_text(encoding="utf-8")
        assert path.read_text(encoding="utf-8") == expected

    def test_golden_json_round_trips_through_trace(self):
        doc = json.loads((DATA_DIR / "golden_trace.json").read_text(encoding="utf-8"))
        trace = Trace.from_dict(doc["trace"])
        assert trace.first("cloud.answer").attributes["rin_size"] == 4
        assert doc["trace"]["total_seconds"] == pytest.approx(0.012)


class TestPrometheusFormat:
    def test_every_line_parses(self):
        text = prometheus_text(_golden_registry())
        for line in text.strip().splitlines():
            assert PROM_LINE_RE.match(line), f"unparseable line: {line!r}"

    def test_histogram_series_is_cumulative_and_ends_at_inf(self):
        text = prometheus_text(_golden_registry())
        buckets = re.findall(
            r'repro_query_seconds_bucket\{le="([^"]+)"\} (\d+)', text
        )
        assert buckets == [("0.01", "1"), ("0.1", "1"), ("1.0", "2"), ("+Inf", "2")]
        assert "repro_query_seconds_count 2" in text
        assert "repro_query_seconds_sum 0.255" in text

    def test_name_sanitization(self):
        assert prom_name("cloud.star-match rows") == "repro_cloud_star_match_rows"

    def test_labels_escaped_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1, z="quote\"inside", a="back\\slash")
        text = prometheus_text(registry)
        assert 'repro_c{a="back\\\\slash",z="quote\\"inside"} 1' in text
        for line in text.strip().splitlines():
            assert PROM_LINE_RE.match(line), f"unparseable line: {line!r}"

    def test_newline_in_label_value_stays_one_line(self):
        # a raw newline would split the sample across two unparseable
        # lines; the exposition format says it must become a literal \n
        registry = MetricsRegistry()
        registry.counter("c").inc(1, q="line one\nline two")
        text = prometheus_text(registry)
        assert 'repro_c{q="line one\\nline two"} 1' in text
        for line in text.strip().splitlines():
            assert PROM_LINE_RE.match(line), f"unparseable line: {line!r}"

    def test_backslash_then_n_distinct_from_newline(self):
        # "a\\nb" (backslash + n) and "a\nb" (newline) must render as
        # distinct series: \\n vs \n in the exposition text
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(1, q="a\\nb")
        counter.inc(2, q="a\nb")
        text = prometheus_text(registry)
        assert 'repro_c{q="a\\\\nb"} 1' in text
        assert 'repro_c{q="a\\nb"} 2' in text
        for line in text.strip().splitlines():
            assert PROM_LINE_RE.match(line), f"unparseable line: {line!r}"


class TestSummaryTable:
    def test_groups_by_span_name_with_shares(self):
        text = format_summary(_golden_trace(), _golden_registry(), title="t")
        assert "cloud.answer" in text and "client.filter" in text
        # roots are 10ms + 2ms; the non-root star_matching span does not
        # inflate the wall figure
        assert "wall (root spans): 12.000 ms" in text
        assert "queries_total: 3" in text
        assert "gateway_seconds_window_count: 5" in text

    def test_empty_trace_renders(self):
        text = format_summary(Trace())
        assert "wall (root spans): 0.000 ms" in text


class TestExportPaths:
    def test_export_json_creates_missing_parent_dirs(self, tmp_path):
        target = tmp_path / "runs" / "2026-08" / "trace.json"
        path = export_json(target, trace=_golden_trace())
        assert path == target and target.is_file()
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["trace"]["total_seconds"] == pytest.approx(0.012)

    def test_write_prometheus_creates_missing_parent_dirs(self, tmp_path):
        target = tmp_path / "scrapes" / "deep" / "metrics.prom"
        path = write_prometheus(_golden_registry(), target)
        assert path == target and target.is_file()


class TestChromeTrace:
    def test_event_per_span_with_microsecond_times(self):
        doc = chrome_trace_dict(_golden_trace())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 3
        by_name = {e["name"]: e for e in complete}
        answer = by_name["cloud.answer"]
        # started_at 0.0 is the origin; durations are microseconds
        assert answer["ts"] == pytest.approx(0.0)
        assert answer["dur"] == pytest.approx(10_000.0)
        assert by_name["client.filter"]["ts"] == pytest.approx(11_000.0)
        assert answer["cat"] == "cloud"
        assert answer["args"]["rin_size"] == 4
        assert answer["args"]["span_id"] == 1

    def test_lanes_get_integer_tids_and_metadata(self):
        doc = chrome_trace_dict(_golden_trace())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        # one (pid, thread) lane in the golden trace -> one tid
        assert {e["tid"] for e in complete} == {1}
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        assert all(isinstance(e["tid"], int) for e in complete)
        assert doc["displayTimeUnit"] == "ms"

    def test_empty_trace_exports(self):
        doc = chrome_trace_dict(Trace())
        assert doc["traceEvents"] == []

    def test_export_writes_valid_json(self, tmp_path):
        target = tmp_path / "chrome" / "trace.json"
        path = export_chrome_trace(target, _golden_trace())
        assert path == target and target.is_file()
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert len(doc["traceEvents"]) == 5  # 3 spans + 2 metadata


class TestExportDict:
    def test_sections_optional(self):
        assert export_dict() == {"version": 1}
        doc = export_dict(trace=_golden_trace())
        assert "metrics" not in doc and "trace" in doc
        doc = export_dict(registry=_golden_registry(), extra={"k": 2})
        assert doc["k"] == 2 and "trace" not in doc


def regenerate() -> None:  # pragma: no cover - maintenance helper
    DATA_DIR.mkdir(exist_ok=True)
    export_json(
        DATA_DIR / "golden_trace.json",
        trace=_golden_trace(),
        registry=_golden_registry(),
        extra={"command": "golden"},
    )
    write_prometheus(_golden_registry(), DATA_DIR / "golden_metrics.prom")
