"""Telemetry exposition endpoint: /metrics, /healthz, /readyz, /traces."""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.core.system import PrivacyPreservingSystem
from repro.graph.generators import example_query, example_social_network
from repro.obs import (
    MetricsRegistry,
    Observability,
    TelemetryServer,
    TraceRing,
)
from repro.obs.exporters import PROM_LINE_RE


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


class TestTraceRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRing(capacity=0)

    def test_push_and_snapshot_with_eviction(self):
        ring = TraceRing(capacity=2)
        for i in range(3):
            ring.push(None, query_id=f"q-{i}", matches=i)
        assert len(ring) == 2
        assert ring.pushed == 3
        snapshot = ring.snapshot()
        assert [doc["query_id"] for doc in snapshot] == ["q-1", "q-2"]
        assert snapshot[1]["matches"] == 2
        assert snapshot[0]["spans"] == []

    def test_find_returns_newest_entry_for_query_id(self):
        ring = TraceRing(capacity=4)
        ring.push(None, query_id="q-1", matches=1)
        ring.push(None, query_id="q-2", matches=2)
        ring.push(None, query_id="q-1", matches=3)
        entry = ring.find("q-1")
        assert entry is not None
        assert entry["matches"] == 3  # newest wins
        assert ring.find("q-2")["matches"] == 2
        assert ring.find("q-missing") is None

    def test_find_after_eviction(self):
        ring = TraceRing(capacity=1)
        ring.push(None, query_id="q-old")
        ring.push(None, query_id="q-new")
        assert ring.find("q-old") is None
        assert ring.find("q-new") is not None

    def test_push_retains_span_documents(self):
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2)
        )
        outcome = system.query(example_query())
        ring = TraceRing()
        ring.push(outcome.trace, query_id=outcome.query_id)
        doc = ring.snapshot()[0]
        assert doc["total_seconds"] == pytest.approx(
            outcome.trace.total_seconds
        )
        assert {span["query_id"] for span in doc["spans"]} == {
            outcome.query_id
        }

    def test_log_appends_every_document_as_one_json_line(self, tmp_path):
        path = tmp_path / "logs" / "traces.jsonl"  # parents are created
        ring = TraceRing(capacity=1, log=path)
        ring.push(None, query_id="q-1", matches=1)
        ring.push(None, query_id="q-2", matches=2)
        # flushed per line: readable while the ring is still open
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [doc["query_id"] for doc in lines] == ["q-1", "q-2"]
        assert lines[-1] == ring.find("q-2")  # eviction spares the log
        ring.close()
        ring.close()  # idempotent
        ring.push(None, query_id="q-3")  # a closed log stops logging
        assert len(path.read_text().splitlines()) == 2
        assert ring.find("q-3") is not None

    @pytest.mark.parametrize("close", [True, False])
    def test_close_closes_the_log_file(self, tmp_path, close):
        # a file dropped unclosed warns when it is collected; run in a
        # fresh interpreter with that warning made an error
        script = (
            "import gc, sys\n"
            "from repro.obs import TraceRing\n"
            "ring = TraceRing(log=sys.argv[1])\n"
            "ring.push(None, query_id='q-1')\n"
            f"if {close}: ring.close()\n"
            "del ring\n"
            "gc.collect()\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", script,
             str(tmp_path / "t.jsonl")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert ("ResourceWarning" in done.stderr) is not close


class TestEndpoints:
    def test_metrics_healthz_traces_and_404(self):
        registry = MetricsRegistry()
        registry.counter("queries_total", "queries").inc(2)
        ring = TraceRing()
        ring.push(None, query_id="q-1")
        with TelemetryServer(
            registry, traces=ring, health=lambda: {"extra": 1}
        ) as server:
            status, body = _get(server.url + "/metrics")
            assert status == 200
            assert "repro_queries_total 2" in body
            for line in body.strip().splitlines():
                assert PROM_LINE_RE.match(line), f"unparseable: {line!r}"

            status, body = _get(server.url + "/healthz")
            health = json.loads(body)
            assert status == 200
            assert health["status"] == "ok"
            assert health["queries_total"] == 2.0
            assert health["extra"] == 1
            assert health["uptime_seconds"] >= 0.0

            status, body = _get(server.url + "/traces")
            doc = json.loads(body)
            assert status == 200 and doc["count"] == 1
            assert doc["traces"][0]["query_id"] == "q-1"

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
            assert excinfo.value.code == 404

    def test_trace_lookup_by_query_id(self):
        ring = TraceRing()
        ring.push(None, query_id="q-7", matches=4)
        ring.push(None, query_id="q-8", matches=5)
        with TelemetryServer(MetricsRegistry(), traces=ring) as server:
            status, body = _get(server.url + "/traces/q-7")
            doc = json.loads(body)
            assert status == 200
            assert doc["query_id"] == "q-7"
            assert doc["matches"] == 4

    def test_trace_lookup_unknown_id_is_json_404(self):
        ring = TraceRing()
        ring.push(None, query_id="q-7")
        with TelemetryServer(MetricsRegistry(), traces=ring) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/traces/q-unknown")
            assert excinfo.value.code == 404
            doc = json.loads(excinfo.value.read().decode("utf-8"))
            assert doc["query_id"] == "q-unknown"
            assert doc["retained"] == 1
            assert "no retained trace" in doc["error"]

    def test_readyz_flips_with_the_callable(self):
        state = {"ready": False}
        with TelemetryServer(
            MetricsRegistry(), ready=lambda: state["ready"]
        ) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/readyz")
            assert excinfo.value.code == 503
            state["ready"] = True
            status, body = _get(server.url + "/readyz")
            assert status == 200 and json.loads(body) == {"ready": True}

    def test_degraded_health_when_extra_callable_raises(self):
        def boom():
            raise RuntimeError("backend gone")

        with TelemetryServer(MetricsRegistry(), health=boom) as server:
            _, body = _get(server.url + "/healthz")
            assert json.loads(body)["status"] == "degraded"

    def test_lifecycle_is_idempotent_and_port_is_bound(self):
        server = TelemetryServer(MetricsRegistry())
        assert not server.running
        server.start()
        try:
            assert server.running and server.port > 0
            assert server.start() is server  # idempotent
        finally:
            server.stop()
            server.stop()  # idempotent
        assert not server.running


class TestScrapeUnderLoad:
    def test_metrics_parse_while_batch_in_flight(self):
        # the acceptance criterion: every /metrics line parses under
        # PROM_LINE_RE while a concurrent batch workload is running.
        graph, schema = example_social_network()
        obs = Observability()
        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2), obs=obs
        )
        done = threading.Event()

        def workload():
            try:
                for _ in range(4):
                    system.query_batch([example_query()] * 4)
            finally:
                done.set()

        worker = threading.Thread(target=workload, daemon=True)
        with TelemetryServer(obs.metrics) as server:
            worker.start()
            scrapes = 0
            while not done.is_set() or scrapes == 0:
                status, body = _get(server.url + "/metrics")
                assert status == 200
                for line in body.strip().splitlines():
                    assert PROM_LINE_RE.match(line), f"unparseable: {line!r}"
                scrapes += 1
                if scrapes > 200:  # safety net; never hit in practice
                    break
            worker.join(timeout=30)
        assert done.is_set()
        assert scrapes >= 1
        # the scraped registry really reflected the workload
        assert obs.metrics.counter("queries_total").total == 16.0
