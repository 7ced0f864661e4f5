"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph import example_query, example_social_network, save_graph


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "matches (2)" in out

    def test_demo_with_bas(self, capsys):
        assert main(["demo", "--method", "BAS", "--k", "3"]) == 0
        assert "matches (2)" in capsys.readouterr().out


class TestPublishAndQuery:
    def test_publish_then_query(self, tmp_path, capsys):
        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        query_path = tmp_path / "q.json"
        save_graph(graph, graph_path)
        save_graph(example_query(), query_path)
        deployment = tmp_path / "dep"

        assert main(["publish", str(graph_path), str(deployment), "--k", "2"]) == 0
        publish_out = json.loads(capsys.readouterr().out)
        assert publish_out["uploaded_edges"] > 0
        assert (deployment / "cloud" / "graph.json").exists()

        assert (
            main(["query", str(deployment), str(graph_path), str(query_path)]) == 0
        )
        query_out = json.loads(capsys.readouterr().out)
        assert len(query_out["matches"]) == 2
        assert query_out["candidates"] >= 2

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_publish_then_batch(self, tmp_path, capsys, backend):
        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        query_path = tmp_path / "q.json"
        save_graph(graph, graph_path)
        save_graph(example_query(), query_path)
        deployment = tmp_path / "dep"

        assert main(["publish", str(graph_path), str(deployment), "--k", "2"]) == 0
        capsys.readouterr()

        assert (
            main(
                [
                    "batch",
                    str(deployment),
                    str(graph_path),
                    str(query_path),
                    str(query_path),
                    "--workers",
                    "2",
                    "--backend",
                    backend,
                    "--repeat",
                    "2",
                ]
            )
            == 0
        )
        batch_out = json.loads(capsys.readouterr().out)
        assert batch_out["queries"] == 4
        assert batch_out["backend"] == backend
        assert batch_out["wall_seconds"] >= 0
        assert len(batch_out["per_query"]) == 4
        assert all(entry["matches"] == 2 for entry in batch_out["per_query"])
        # the repeated workload must warm the shared star cache; fork
        # children warm their own copies, invisible to the parent
        assert (batch_out["cache"]["hits"] > 0) == (backend == "serial")

    def test_publish_with_method(self, tmp_path, capsys):
        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        save_graph(graph, graph_path)
        assert (
            main(
                [
                    "publish",
                    str(graph_path),
                    str(tmp_path / "dep"),
                    "--method",
                    "RAN",
                    "--k",
                    "3",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "RAN"
        assert out["k"] == 3


class TestVerify:
    def test_verify_healthy_deployment(self, tmp_path, capsys):
        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        save_graph(graph, graph_path)
        deployment = tmp_path / "dep"
        assert main(["publish", str(graph_path), str(deployment), "--k", "3"]) == 0
        capsys.readouterr()

        assert main(["verify", str(deployment)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["k"] == 3
        assert report["worst_attack_probability"] <= report["bound"] + 1e-9

    def test_verify_detects_broken_symmetry(self, tmp_path, capsys):
        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        save_graph(graph, graph_path)
        deployment = tmp_path / "dep"
        assert (
            main(
                [
                    "publish",
                    str(graph_path),
                    str(deployment),
                    "--k",
                    "2",
                    "--method",
                    "BAS",
                ]
            )
            == 0
        )
        capsys.readouterr()

        # tamper: drop one edge from the published Gk
        from repro.graph import load_graph as _load, save_graph as _save

        published_path = deployment / "cloud" / "graph.json"
        published = _load(published_path)
        edge = next(iter(published.edges()))
        published.remove_edge(*edge)
        _save(published, published_path)

        from repro.exceptions import VerificationError

        with pytest.raises(VerificationError):
            main(["verify", str(deployment)])


class TestDatasets:
    def test_generate_dataset(self, tmp_path, capsys):
        out_path = tmp_path / "web.json"
        assert main(["datasets", "Web-NotreDame", str(out_path), "--scale", "0.05"]) == 0
        assert out_path.exists()
        from repro.graph import load_graph

        graph = load_graph(out_path)
        assert graph.vertex_count > 0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["datasets", "nope", "out.json"])


class TestTraceExport:
    def _deployment(self, tmp_path, capsys):
        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        query_path = tmp_path / "q.json"
        save_graph(graph, graph_path)
        save_graph(example_query(), query_path)
        deployment = tmp_path / "dep"
        assert main(["publish", str(graph_path), str(deployment), "--k", "2"]) == 0
        capsys.readouterr()
        return graph_path, query_path, deployment

    def test_query_trace_file_spans_sum_to_wall(self, tmp_path, capsys):
        """Acceptance: span durations sum within 20% of the query wall."""
        graph_path, query_path, deployment = self._deployment(tmp_path, capsys)
        trace_path = tmp_path / "out.json"
        assert (
            main(
                [
                    "query",
                    str(deployment),
                    str(graph_path),
                    str(query_path),
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        from repro.obs import Trace

        trace = Trace.from_dict(doc["trace"])
        names = {span.name for span in trace}
        for expected in (
            "query",
            "client.anonymize",
            "cloud.answer",
            "cloud.decompose",
            "cloud.star_matching",
            "cloud.join",
            "client.expand",
            "client.filter",
        ):
            assert expected in names, f"missing span {expected!r}"
        root = trace.first("query")
        phase_total = sum(
            s.duration for s in trace if s.parent_id == root.span_id
        )
        # 20% relative, with a 2 ms absolute floor: the phases are
        # sub-millisecond, so scheduler noise is a visible fraction
        assert phase_total == pytest.approx(root.duration, rel=0.20, abs=0.002)
        assert doc["metrics"]["matches_total"]["series"][0]["value"] == 2.0

    def test_demo_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "demo.json"
        assert main(["demo", "--trace", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        names = {span["name"] for span in doc["trace"]["spans"]}
        assert "publish" in names and "query" in names

    def test_batch_prometheus_export_parses(self, tmp_path, capsys):
        from repro.obs.exporters import PROM_LINE_RE

        graph_path, query_path, deployment = self._deployment(tmp_path, capsys)
        prom_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "batch.json"
        assert (
            main(
                [
                    "batch",
                    str(deployment),
                    str(graph_path),
                    str(query_path),
                    "--repeat",
                    "2",
                    "--trace",
                    str(trace_path),
                    "--prometheus",
                    str(prom_path),
                ]
            )
            == 0
        )
        text = prom_path.read_text(encoding="utf-8")
        assert text.strip(), "empty Prometheus export"
        for line in text.strip().splitlines():
            assert PROM_LINE_RE.match(line), f"unparseable line: {line!r}"
        assert trace_path.exists()

    def test_batch_process_backend_reports_na_hit_rate(self, tmp_path, capsys):
        """Regression: None hit rate must serialize, not crash a %-format."""
        from repro.cloud.parallel import fork_available

        if not fork_available():
            pytest.skip("fork unavailable")
        graph_path, query_path, deployment = self._deployment(tmp_path, capsys)
        assert (
            main(
                [
                    "batch",
                    str(deployment),
                    str(graph_path),
                    str(query_path),
                    "--repeat",
                    "2",
                    "--backend",
                    "process",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["cache"]["hit_rate"] is None
        assert out["cache"]["hit_rate_text"] == "n/a"

    def test_batch_serial_backend_reports_numeric_hit_rate(
        self, tmp_path, capsys
    ):
        graph_path, query_path, deployment = self._deployment(tmp_path, capsys)
        assert (
            main(
                [
                    "batch",
                    str(deployment),
                    str(graph_path),
                    str(query_path),
                    "--repeat",
                    "2",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["cache"]["hit_rate"] is not None
        assert out["cache"]["hit_rate_text"].endswith("%")


class TestRemovedThreadTier:
    """The removed values and flag are refused by argparse itself."""

    @pytest.mark.parametrize(
        "flags,complaint",
        [
            (["--backend", "thread"], "invalid choice: 'thread'"),
            (["--shard-backend", "thread"], "invalid choice: 'thread'"),
            (["--star-workers", "2"], "unrecognized arguments: --star-workers"),
        ],
    )
    def test_batch_rejects(self, capsys, flags, complaint):
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "dep", "g.json", "q.json", *flags])
        assert exit_info.value.code == 2
        assert complaint in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "explain"])
    def test_shard_backend_choices_are_shared(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "dep", "g.json", "q.json", "--shard-backend", "thread"])
        assert exit_info.value.code == 2
        assert "'serial', 'process'" in capsys.readouterr().err


class TestProfile:
    def test_profile_prints_table_and_hot_functions(self, capsys):
        assert main(["profile", "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "span summary" in out or "profile: demo workload" in out
        assert "% wall" in out
        assert "hottest functions of" in out

    def test_profile_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "profile.json"
        assert main(["profile", "--queries", "1", "--trace", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        spans = doc["trace"]["spans"]
        assert any("profile" in span["attributes"] for span in spans)


class TestAudit:
    def test_demo_mode_prints_passing_table(self, capsys):
        assert main(["audit", "--queries-count", "2"]) == 0
        out = capsys.readouterr().out
        assert "k guarantee" in out and "PASS" in out
        assert "false-positive ratio" in out

    def test_demo_mode_json(self, capsys):
        assert main(["audit", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["candidate_set_min"] >= doc["k"]
        assert doc["label_group_min_size"] >= doc["theta"]

    def test_deployment_mode_with_queries_and_prometheus(
        self, tmp_path, capsys
    ):
        from repro.obs.exporters import PROM_LINE_RE

        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        query_path = tmp_path / "q.json"
        save_graph(graph, graph_path)
        save_graph(example_query(), query_path)
        deployment = tmp_path / "dep"
        assert main(["publish", str(graph_path), str(deployment)]) == 0
        capsys.readouterr()

        prom_path = tmp_path / "audit.prom"
        assert (
            main(
                [
                    "audit",
                    str(deployment),
                    "--graph",
                    str(graph_path),
                    "--queries",
                    str(query_path),
                    "--json",
                    "--prometheus",
                    str(prom_path),
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["candidates_total"] > doc["matches_total"] > 0
        assert 0.0 < doc["outsourced_fraction"] < 1.0
        assert doc["per_query"] and doc["per_query"][0]["query_id"]
        text = prom_path.read_text(encoding="utf-8")
        assert "repro_privacy_audit_ok 1" in text
        for line in text.strip().splitlines():
            assert PROM_LINE_RE.match(line), f"unparseable: {line!r}"


class TestServe:
    def test_serve_workload_and_scrape(self, tmp_path, capsys):
        import threading
        import urllib.request

        from repro.obs.exporters import PROM_LINE_RE

        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        query_path = tmp_path / "q.json"
        save_graph(graph, graph_path)
        save_graph(example_query(), query_path)
        deployment = tmp_path / "dep"
        assert main(["publish", str(graph_path), str(deployment)]) == 0
        capsys.readouterr()

        port_file = tmp_path / "port.txt"
        events_path = tmp_path / "events.jsonl"
        scraped: dict[str, str] = {}

        def scrape():
            import time

            for _ in range(100):
                if port_file.is_file() and port_file.read_text().strip():
                    break
                time.sleep(0.05)
            port = int(port_file.read_text())
            base = f"http://127.0.0.1:{port}"
            for path in ("/metrics", "/healthz", "/readyz", "/traces"):
                with urllib.request.urlopen(base + path, timeout=5) as rsp:
                    scraped[path] = rsp.read().decode("utf-8")

        scraper = threading.Thread(target=scrape, daemon=True)
        scraper.start()
        code = main(
            [
                "serve",
                str(deployment),
                str(graph_path),
                str(query_path),
                "--repeat",
                "3",
                "--events",
                str(events_path),
                "--port-file",
                str(port_file),
                "--linger",
                "3",
            ]
        )
        scraper.join(timeout=30)
        assert code == 0
        assert set(scraped) == {"/metrics", "/healthz", "/readyz", "/traces"}
        for line in scraped["/metrics"].strip().splitlines():
            assert PROM_LINE_RE.match(line), f"unparseable: {line!r}"
        assert "repro_query_seconds_window_p95" in scraped["/metrics"]
        assert "repro_privacy_audit_k" in scraped["/metrics"]
        assert json.loads(scraped["/readyz"]) == {"ready": True}
        health = json.loads(scraped["/healthz"])
        assert health["status"] == "ok"
        traces = json.loads(scraped["/traces"])
        assert traces["count"] >= 1
        assert all(t["query_id"].startswith("q-") for t in traces["traces"])
        # the JSONL event log was written with matching query ids
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
            if line.strip()
        ]
        assert {e["event"] for e in events} >= {"serve", "span", "query"}
        logged_ids = {e["query_id"] for e in events if "query_id" in e}
        ring_ids = {t["query_id"] for t in traces["traces"]}
        assert ring_ids <= logged_ids

    def test_serve_sample_rate_zero_logs_no_query_events(
        self, tmp_path, capsys
    ):
        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        query_path = tmp_path / "q.json"
        save_graph(graph, graph_path)
        save_graph(example_query(), query_path)
        deployment = tmp_path / "dep"
        assert main(["publish", str(graph_path), str(deployment)]) == 0
        capsys.readouterr()

        events_path = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "serve",
                    str(deployment),
                    str(graph_path),
                    str(query_path),
                    "--events",
                    str(events_path),
                    "--sample-rate",
                    "0.0",
                ]
            )
            == 0
        )
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
            if line.strip()
        ]
        # only the non-query "serve" lifecycle event is written
        assert {e["event"] for e in events} == {"serve"}


class TestExplain:
    def _deployment(self, tmp_path, capsys):
        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        query_path = tmp_path / "q.json"
        save_graph(graph, graph_path)
        save_graph(example_query(), query_path)
        deployment = tmp_path / "dep"
        assert main(["publish", str(graph_path), str(deployment)]) == 0
        capsys.readouterr()
        return str(deployment), str(graph_path), str(query_path)

    def test_local_explain_renders_phases(self, tmp_path, capsys):
        dep, graph, query = self._deployment(tmp_path, capsys)
        assert main(["explain", dep, graph, query]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN query q-" in out
        assert "star(s)" in out
        assert "phases:" in out
        assert "cloud.answer" in out and "client.filter" in out
        assert "candidates=" in out and "results=" in out

    def test_sharded_explain_shows_shard_lanes(self, tmp_path, capsys):
        dep, graph, query = self._deployment(tmp_path, capsys)
        assert main(["explain", dep, graph, query, "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "shards:" in out
        assert "shard 0:" in out and "shard 1:" in out

    def test_json_and_chrome_outputs(self, tmp_path, capsys):
        dep, graph, query = self._deployment(tmp_path, capsys)
        chrome_path = tmp_path / "trace.chrome.json"
        assert (
            main(
                [
                    "explain", dep, graph, query,
                    "--json", "--chrome", str(chrome_path),
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["query_id"].startswith("q-")
        assert report["span_count"] > 0
        assert report["total_seconds"] > 0
        phase_names = [phase["name"] for phase in report["phases"]]
        assert "query" in phase_names
        chrome = json.loads(chrome_path.read_text(encoding="utf-8"))
        events = chrome["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "M" for e in events)
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} >= {"query", "cloud.answer"}


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
