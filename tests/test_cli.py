"""Tests for the command-line interface."""

import argparse
import gc
import json
import time

import pytest

from repro.cli import build_parser, main
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

    @pytest.mark.parametrize(
        "workers", [pytest.param("1", id="serial"), pytest.param("2", id="process")]
    )
    def test_publish_then_batch(self, tmp_path, capsys, workers):
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
                    workers,
                    "--repeat",
                    "2",
                ]
            )
            == 0
        )
        batch_out = json.loads(capsys.readouterr().out)
        assert batch_out["queries"] == 4
        assert "backend" not in batch_out and "cache" not in batch_out
        assert batch_out["wall_seconds"] >= 0
        assert len(batch_out["per_query"]) == 4
        assert all(entry["matches"] == 2 for entry in batch_out["per_query"])

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
    """``audit <deployment>`` re-proves what the ``verify`` command did."""

    def test_verify_healthy_deployment(self, tmp_path, capsys):
        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        save_graph(graph, graph_path)
        deployment = tmp_path / "dep"
        assert main(["publish", str(graph_path), str(deployment), "--k", "3"]) == 0
        capsys.readouterr()

        assert main(["audit", str(deployment), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["k"] == 3
        assert report["k_automorphism"] == "verified"
        assert report["sampled_targets"] > 0
        assert report["bound"] == pytest.approx(1 / 3)
        assert report["worst_attack_probability"] <= report["bound"] + 1e-9

        assert main(["audit", str(deployment), "--sample", "4"]) == 0
        out = capsys.readouterr().out
        assert "k-automorphism of Gk  verified" in out
        assert "worst of 4 sampled targets" in out and out.rstrip().endswith("PASS")

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

        # a typed failure is one line on stderr and status 2, not a traceback
        assert main(["audit", str(deployment)]) == 2
        assert "repro: VerificationError:" in capsys.readouterr().err


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
        # every cyclic-collector pass inside the call, as (generation,
        # ms): a pause inside the query span but between its phases is
        # the suspected cause when the sum misses the wall
        passes = []
        started = []

        def on_gc(phase, info):
            if phase == "start":
                started.append(time.perf_counter())
            elif started:
                ms = (time.perf_counter() - started.pop()) * 1000
                passes.append((info["generation"], round(ms, 3)))

        gc.callbacks.append(on_gc)
        try:
            status = main(
                [
                    "query",
                    str(deployment),
                    str(graph_path),
                    str(query_path),
                    "--trace",
                    str(trace_path),
                ]
            )
        finally:
            gc.callbacks.remove(on_gc)
        assert status == 0
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
        assert phase_total == pytest.approx(root.duration, rel=0.20, abs=0.002), (
            f"cyclic-collector passes during the query (generation, ms): {passes}"
        )
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


class TestRemovedThreadTier:
    """The removed flags are refused by argparse itself."""

    @pytest.mark.parametrize(
        "flags,complaint",
        [
            (["--backend", "process"], "unrecognized arguments: --backend"),
            (["--shard-backend", "process"], "unrecognized arguments: --shard-backend"),
            (["--star-workers", "2"], "unrecognized arguments: --star-workers"),
            (["--star-cache", "0"], "unrecognized arguments: --star-cache"),
        ],
    )
    def test_batch_rejects(self, capsys, flags, complaint):
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "dep", "g.json", "q.json", *flags])
        assert exit_info.value.code == 2
        assert complaint in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "explain"])
    def test_shard_backend_choices_are_shared(self, capsys, command):
        """Every command that took ``--shard-backend`` refuses it alike:
        ``--shards N`` alone decides the scatter."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "dep", "g.json", "q.json", "--shard-backend", "process"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --shard-backend" in capsys.readouterr().err


class TestProfile:
    """``demo --profile`` is what the ``profile`` command printed."""

    def test_profile_prints_table_and_hot_functions(self, capsys):
        assert main(["demo", "--profile", "--queries-count", "2"]) == 0
        out = capsys.readouterr().out
        assert "matches (2)" in out
        assert "profile: demo workload" in out
        assert "% wall" in out
        assert "hottest functions of" in out

    def test_profile_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "profile.json"
        assert main(["demo", "--profile", "--trace", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        spans = doc["trace"]["spans"]
        assert any("profile" in span["attributes"] for span in spans)
        assert sum(span["name"] == "query" for span in spans) == 1

    def test_queries_count_runs_the_example_query_that_often(self, tmp_path, capsys):
        trace_path = tmp_path / "demo.json"
        assert main(["demo", "--queries-count", "3", "--trace", str(trace_path)]) == 0
        spans = json.loads(trace_path.read_text(encoding="utf-8"))["trace"]["spans"]
        assert sum(span["name"] == "query" for span in spans) == 3
        assert not any("profile" in span["attributes"] for span in spans)


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
        assert "repro_query_seconds_bucket" in scraped["/metrics"]
        assert "repro_privacy_audit_k" in scraped["/metrics"]
        assert json.loads(scraped["/readyz"]) == {"ready": True}
        health = json.loads(scraped["/healthz"])
        assert health["status"] == "ok"
        traces = json.loads(scraped["/traces"])
        assert traces["count"] >= 1
        assert all(t["query_id"].startswith("q-") for t in traces["traces"])
        # the trace log holds one /traces document per served query
        logged = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert len(logged) == 3
        assert all(doc["query_id"].startswith("q-") and doc["spans"] for doc in logged)
        ring_ids = {t["query_id"] for t in traces["traces"]}
        assert ring_ids <= {doc["query_id"] for doc in logged}

    def test_serve_events_logs_each_traces_document(
        self, tmp_path, capsys, monkeypatch
    ):
        """Queries on stdin: one log line each, equal to the document
        ``/traces/<query_id>`` serves for that query."""
        import io
        import sys
        import threading
        import time
        import urllib.request

        from repro.graph.io import graph_to_json

        graph, _ = example_social_network()
        graph_path = tmp_path / "g.json"
        save_graph(graph, graph_path)
        deployment = tmp_path / "dep"
        assert main(["publish", str(graph_path), str(deployment)]) == 0
        capsys.readouterr()
        count = 3
        monkeypatch.setattr(
            sys, "stdin", io.StringIO((graph_to_json(example_query()) + "\n") * count)
        )
        port_file = tmp_path / "port.txt"
        events_path = tmp_path / "events.jsonl"
        served: dict[str, dict] = {}

        def scrape():
            deadline = time.monotonic() + 30
            while not (port_file.is_file() and port_file.read_text().strip()):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            base = f"http://127.0.0.1:{int(port_file.read_text())}/traces/"
            lines: list[str] = []
            while len(lines) < count:
                assert time.monotonic() < deadline
                time.sleep(0.05)
                lines = events_path.read_text().splitlines()
            for line in lines:
                query_id = json.loads(line)["query_id"]
                with urllib.request.urlopen(base + query_id, timeout=5) as rsp:
                    served[query_id] = json.loads(rsp.read())

        scraper = threading.Thread(target=scrape, daemon=True)
        scraper.start()
        code = main(
            [
                "serve",
                str(deployment),
                str(graph_path),
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
        logged = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert len({doc["query_id"] for doc in logged}) == len(logged) == count
        assert logged == [served[doc["query_id"]] for doc in logged]
        assert all(doc["matches"] == 2 and doc["spans"] for doc in logged)


    def test_serve_gateway_token_end_to_end(self, tmp_path, capsys):
        """``serve --gateway-token``: ``call`` with the token answers,
        a wrong token exits with ``unauthorized``, and the request
        counter records the refusal."""
        import threading
        import time
        import urllib.request

        dep, graph_path, (query_path,) = publish_files(
            tmp_path, capsys, example_social_network()[0], [example_query()]
        )
        port_file, gport_file = tmp_path / "port.txt", tmp_path / "gport.txt"
        seen: dict[str, object] = {}

        def client():
            deadline = time.monotonic() + 30
            while not all(f.is_file() and f.read_text().strip() for f in (port_file, gport_file)):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            call = ["call", dep, graph_path, query_path, "--port", gport_file.read_text()]
            seen["right"] = main([*call, "--token", "s3cret"])
            seen["wrong"] = main([*call, "--token", "wrong"])
            url = f"http://127.0.0.1:{port_file.read_text()}/metrics"
            with urllib.request.urlopen(url, timeout=5) as rsp:
                seen["metrics"] = rsp.read().decode("utf-8")

        caller = threading.Thread(target=client, daemon=True)
        caller.start()
        code = main(
            [
                "serve", dep, graph_path, query_path,
                "--port", "0", "--port-file", str(port_file),
                "--gateway-port", "0", "--gateway-port-file", str(gport_file),
                "--gateway-token", "s3cret", "--linger", "3",
            ]
        )
        caller.join(timeout=30)
        assert code == 0
        assert (seen["right"], seen["wrong"]) == (0, 2)
        out, err = capsys.readouterr()
        answer, _ = json.JSONDecoder().raw_decode(out)
        assert len(answer[0]["matches"]) == 2
        assert "gateway rejected request (unauthorized)" in err
        assert 'repro_gateway_requests_total{status="unauthorized"} 1' in seen["metrics"]
        assert 'repro_gateway_requests_total{status="ok"} 1' in seen["metrics"]

    def test_serve_bounds_each_query_and_keeps_the_connection(
        self, tmp_path, capsys, monkeypatch
    ):
        """``serve`` loads under ``SERVE_MAX_INTERMEDIATE_RESULTS``: a
        query past it is a typed reject, and the next request on the
        same connection is answered.  Budget 3 trips the running
        example (4 join rows) but not its one-edge prefix (2 rows)."""
        import io
        import threading
        import time

        from repro import cli
        from repro.core.query_client import QueryClient
        from repro.core.storage import load_client_side
        from repro.exceptions import GatewayRejected
        from repro.gateway import SyncGatewayClient

        monkeypatch.setattr(cli, "SERVE_MAX_INTERMEDIATE_RESULTS", 3)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        graph = example_social_network()[0]
        dep, graph_path, _ = publish_files(tmp_path, capsys, graph, [example_query()])
        gport_file = tmp_path / "gport.txt"
        seen: dict[str, object] = {}

        def client():
            deadline = time.monotonic() + 30
            while not (gport_file.is_file() and gport_file.read_text().strip()):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            finisher = QueryClient(graph, *load_client_side(dep))
            small = example_query().induced_subgraph([0, 1])
            with SyncGatewayClient(
                "127.0.0.1", int(gport_file.read_text()), timeout=30
            ) as gateway:
                try:
                    gateway.query(finisher.prepare_query(example_query()))
                except GatewayRejected as exc:
                    seen["rejected"] = (exc.code, exc.reason)
                table, expanded = gateway.query(finisher.prepare_query(small))
                seen["answered"] = len(
                    finisher.process_answer(small, table, expanded).matches
                )

        caller = threading.Thread(target=client, daemon=True)
        caller.start()
        code = main(
            [
                "serve", dep, graph_path, "--port", "0",
                "--gateway-port", "0", "--gateway-port-file", str(gport_file),
                "--linger", "3",
            ]
        )
        caller.join(timeout=30)
        assert code == 0
        assert seen == {"rejected": ("internal", "ResultBudgetExceeded"), "answered": 2}


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
        assert report["wall_seconds"] > 0
        assert "query" in report["phases"]
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


def subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestOneParser:
    """Each option is declared once, in a parent parser its commands
    share, and the argvs the benchmark and CI run keep parsing."""

    def test_an_option_on_several_commands_is_one_action(self):
        owners: dict[str, dict[str, argparse.Action]] = {}
        for name, command in subcommands().items():
            for action in command._actions:
                if not isinstance(action, argparse._HelpAction):
                    for option in action.option_strings:
                        owners.setdefault(option, {})[name] = action
        shared = {option: actions for option, actions in owners.items() if len(actions) > 1}
        assert {"--port", "--host", "--k", "--shards", "--json", "--trace"} <= set(shared)
        for option, actions in shared.items():
            assert len({id(a) for a in actions.values()}) == 1, f"{option} declared twice"

    def test_ten_commands_and_at_most_88_settable_arguments(self):
        commands = subcommands()
        assert sorted(commands) == [
            "audit", "batch", "call", "datasets", "demo",
            "explain", "lint", "publish", "query", "serve",
        ]
        settable = sum(
            not isinstance(action, argparse._HelpAction)
            for command in commands.values()
            for action in command._actions
        )
        assert settable <= 88

    def test_the_benchmark_gateway_argv(self):
        """``benchmarks/e2e/gateway.py`` starts exactly this."""
        args = build_parser().parse_args(
            [
                "serve", "dep", "graph.json",
                "--gateway-port", "0", "--gateway-port-file", "gport.txt",
                "--port", "0", "--port-file", "port.txt",
                "--star-cache", "0",
            ]
        )
        assert (args.command, args.deployment, args.graph, args.queries) == (
            "serve", "dep", "graph.json", []
        )
        assert (args.gateway_port, args.gateway_port_file) == (0, "gport.txt")
        assert (args.port, args.port_file, args.star_cache) == (0, "port.txt", 0)

    @pytest.mark.parametrize(
        "argv",
        [
            "publish smoke/graph.json smoke/dep --k 2",
            "serve smoke/dep smoke/graph.json smoke/query.json --repeat 20 "
            "--events smoke/events.jsonl --port 0 --port-file smoke/port.txt --linger 20",
            "serve smoke/dep smoke/graph.json smoke/query.json --port 0 "
            "--port-file smoke/port.txt --gateway-port 0 --gateway-port-file "
            "smoke/gateway-port.txt --gateway-token ci-s3cret --gateway-max-inflight 64 "
            "--linger 90",
            "serve smoke/dep smoke/graph.json smoke/query.json --shards 2 "
            "--port 0 --port-file smoke/port2.txt "
            "--gateway-port 0 --gateway-port-file smoke/gateway-port2.txt --linger 90",
            "explain smoke/dep smoke/graph.json smoke/query.json --port 4242 "
            "--client-id ci-traced --json --chrome smoke/query.chrome.json",
            "lint src tests benchmarks --fail-on error --out lint-report.json "
            "--sarif lint-report.sarif",
        ],
        ids=["publish", "serve-smoke", "gateway-smoke", "traced-serve", "traced-explain", "lint"],
    )
    def test_the_ci_argvs(self, argv):
        assert build_parser().parse_args(argv.split()).command == argv.split()[0]

    def test_unset_cloud_options_leave_the_system_config_defaults(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.core.config import SystemConfig
        from repro.core.system import PrivacyPreservingSystem

        dep, graph_path, query_paths = publish_files(
            tmp_path, capsys, example_social_network()[0], [example_query()]
        )
        loaded = []
        load = PrivacyPreservingSystem.load

        def recording_load(*args, **kwargs):
            loaded.append(load(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(PrivacyPreservingSystem, "load", recording_load)
        assert main(["batch", dep, graph_path, *query_paths, "--repeat", "2"]) == 0
        (system,) = loaded
        assert system.config.shards == SystemConfig().shards
        assert system.config.max_intermediate_results is None

    def test_serve_accepts_only_a_zero_star_cache(self, capsys):
        """``--star-cache`` stays on ``serve`` so existing argvs parse;
        anything but 0 names the removal."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "dep", "g.json", "--star-cache", "1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "repro serve: error:" in err and "star cache was removed" in err


class TestIgnoredOptionsAreRejected:
    """An option the command would drop in the mode it runs in is a
    usage error, raised before any file is read."""

    @pytest.mark.parametrize(
        "argv,complaint",
        [
            ("explain dep g.json q.json --port 1 --shards 2", "--shards shapes a local cloud"),
            ("audit dep --k 3", "--k/--theta/--method/--queries-count"),
            ("audit dep --theta 3", "--k/--theta/--method/--queries-count"),
            ("audit dep --queries-count 2", "--k/--theta/--method/--queries-count"),
            ("audit --graph g.json --queries q.json", "name it"),
            ("audit dep --queries q.json", "--graph and --queries go together"),
            ("audit dep --sample 0", "--sample must be >= 1"),
            ("call dep g.json q.json", "the following arguments are required: --port"),
            (
                "serve dep g.json q.json --gateway-token x --gateway-max-inflight 3 "
                "--slo-seconds 0.5",
                "configure the gateway: add --gateway-port",
            ),
            ("serve dep g.json --gateway-port-file p.txt", "add --gateway-port"),
            (
                "serve dep g.json --gateway-port 0 --gateway-max-inflight 0",
                "--gateway-max-inflight must be >= 1",
            ),
            ("serve dep g.json --gateway-port 0 --slo-seconds -1", "--slo-seconds must be positive"),
            ("serve dep g.json --gateway-port 0 --gateway-token=", "--gateway-token must not be empty"),
        ],
    )
    def test_usage_error(self, capsys, argv, complaint):
        with pytest.raises(SystemExit) as exit_info:
            main(argv.split())
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv.split()[0]}: error:" in err and complaint in err


class TestGatewayClients:
    """``call`` and ``explain --port`` open one kind of session, and
    its failures leave ``main`` the same way."""

    @pytest.fixture
    def served(self, tmp_path, capsys):
        from repro.core.system import PrivacyPreservingSystem
        from repro.gateway import QueryGateway
        from repro.obs import Observability

        graph = example_social_network()[0]
        dep, graph_path, query_paths = publish_files(tmp_path, capsys, graph, [example_query()])
        system = PrivacyPreservingSystem.load(dep, graph)
        with QueryGateway(system.cloud, token="s3cret", obs=Observability()) as gateway:
            yield [dep, graph_path, query_paths[0], "--port", str(gateway.port)]

    def test_call(self, served, capsys):
        assert main(["call", *served, "--token", "s3cret"]) == 0
        (result,) = json.loads(capsys.readouterr().out)
        assert len(result["matches"]) == 2 and result["candidates"] >= 2

    def test_explain_through_the_gateway(self, served, capsys):
        assert main(["explain", *served, "--token", "s3cret", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["query_id"] and report["stars"] > 0 and report["rin_size"] > 0
        assert "gateway.request" in report["phases"]
        # the client's filter joins the stitched trace
        assert report["result_count"] == 2 and report["candidate_count"] >= 2

    @pytest.mark.parametrize("command", ["call", "explain"])
    def test_a_rejection_exits_two(self, served, capsys, command):
        assert main([command, *served, "--token", "wrong"]) == 2
        assert capsys.readouterr().err.startswith("gateway rejected request (unauthorized)")

    @pytest.mark.parametrize("command", ["call", "explain"])
    def test_a_dead_gateway_exits_one(self, served, capsys, command):
        dead = [*served[:3], "--port", "1"]  # nothing listens there
        assert main([command, *dead, "--timeout", "5"]) == 1
        assert capsys.readouterr().err.startswith("gateway error: ")


def publish_files(tmp_path, capsys, graph, queries, *flags):
    """Publish ``graph`` through the CLI; returns (deployment, graph
    path, query paths) as the strings the commands take."""
    graph_path = tmp_path / "g.json"
    save_graph(graph, graph_path)
    query_paths = []
    for index, query in enumerate(queries):
        query_paths.append(str(tmp_path / f"q{index}.json"))
        save_graph(query, query_paths[-1])
    deployment = tmp_path / "dep"
    assert main(["publish", str(graph_path), str(deployment), *flags]) == 0
    capsys.readouterr()
    return str(deployment), str(graph_path), query_paths


def dbpedia_quarter():
    from repro.workloads import generate_workload, load_dataset

    dataset = load_dataset("DBpedia", scale=0.25)
    return dataset.graph, generate_workload(dataset.graph, 3, 3, seed=2)


class TestEveryLocalCommandGoesThroughSubmit:
    """What a command prints is what ``system.submit`` answers on the
    same directory: there is no second pipeline to disagree with."""

    @pytest.fixture(
        params=[
            lambda: (example_social_network()[0], [example_query()]),
            dbpedia_quarter,
        ],
        ids=["running-example", "dbpedia-quarter"],
    )
    def case(self, request, tmp_path, capsys):
        from repro.core.system import PrivacyPreservingSystem

        graph, queries = request.param()
        dep, graph_path, query_paths = publish_files(tmp_path, capsys, graph, queries)
        expected = PrivacyPreservingSystem.load(dep, graph).submit(queries).matches
        assert all(expected)
        return dep, graph_path, query_paths, expected

    def test_query(self, case, capsys):
        dep, graph_path, query_paths, expected = case
        for path, matches in zip(query_paths, expected):
            assert main(["query", dep, graph_path, path]) == 0
            printed = json.loads(capsys.readouterr().out)["matches"]
            assert [{int(q): v for q, v in m.items()} for m in printed] == matches

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_batch(self, case, capsys, shards):
        dep, graph_path, query_paths, expected = case
        assert main(["batch", dep, graph_path, *query_paths, "--shards", shards]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert [entry["matches"] for entry in printed["per_query"]] == [
            len(matches) for matches in expected
        ]

    def test_serve(self, case, tmp_path, capsys):
        dep, graph_path, query_paths, expected = case
        events_path = tmp_path / "events.jsonl"
        assert (
            main(["serve", dep, graph_path, *query_paths, "--events", str(events_path)])
            == 0
        )
        logged = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert [doc["matches"] for doc in logged] == [len(matches) for matches in expected]

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_explain(self, case, capsys, shards):
        dep, graph_path, query_paths, expected = case
        for path, matches in zip(query_paths, expected):
            assert main(["explain", dep, graph_path, path, "--json", "--shards", shards]) == 0
            assert json.loads(capsys.readouterr().out)["result_count"] == len(matches)

    def test_audit(self, case, capsys):
        dep, graph_path, query_paths, expected = case
        assert (
            main(["audit", dep, "--graph", graph_path, "--queries", *query_paths, "--json"])
            == 0
        )
        printed = json.loads(capsys.readouterr().out)
        assert [entry["results"] for entry in printed["per_query"]] == [
            len(matches) for matches in expected
        ]


class TestTypedErrorsAreOneLine:
    """A ``ReproError`` leaves ``main`` as ``repro: <Type>: <message>``
    on stderr and status 2; anything else still propagates."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        from repro.graph import AttributedGraph

        disconnected = AttributedGraph()
        disconnected.add_vertex(0, "person")
        disconnected.add_vertex(1, "person")
        return publish_files(
            tmp_path,
            capsys,
            example_social_network()[0],
            [example_query(), disconnected, AttributedGraph()],
        )

    @pytest.mark.parametrize("command", ["query", "batch", "explain"])
    @pytest.mark.parametrize("bad", [1, 2], ids=["disconnected", "empty"])
    def test_a_bad_query(self, files, capsys, command, bad):
        dep, graph_path, query_paths = files
        assert main([command, dep, graph_path, query_paths[bad]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: QueryError: ")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["query", "batch", "explain"])
    def test_a_missing_deployment(self, files, tmp_path, capsys, command):
        _, graph_path, query_paths = files
        assert main([command, str(tmp_path / "nowhere"), graph_path, query_paths[0]]) == 2
        assert capsys.readouterr().err.startswith("repro: ProtocolError: ")

    def test_other_exceptions_still_propagate(self, files):
        dep, _, query_paths = files
        with pytest.raises(OSError):
            main(["query", dep, "no-such-graph.json", query_paths[0]])


class TestTheCloudIsClosedOnFailure:
    def test_batch_drains_the_fork_pool_when_a_query_trips_the_budget(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cloud.parallel import fork_available
        from repro.core.system import PrivacyPreservingSystem

        if not fork_available():
            pytest.skip("fork unavailable")
        dep, graph_path, query_paths = publish_files(
            tmp_path, capsys, example_social_network()[0], [example_query()]
        )
        load = PrivacyPreservingSystem.load
        clouds, pools = [], []

        def load_with_a_budget_that_tightens(*args, **kwargs):
            system = load(*args, **kwargs)
            cloud = system.cloud
            answer = cloud.answer

            def answer_then_tighten(query, obs=None):
                answered = answer(query, obs=obs)
                pools.append(cloud._scatter_pool)
                cloud.max_intermediate_results = 0
                return answered

            cloud.answer = answer_then_tighten
            clouds.append(cloud)
            return system

        monkeypatch.setattr(
            PrivacyPreservingSystem, "load", load_with_a_budget_that_tightens
        )
        assert (
            main(
                [
                    "batch", dep, graph_path, *query_paths * 2, "--shards", "2",
                ]
            )
            == 2
        )
        assert capsys.readouterr().err.startswith("repro: ResultBudgetExceeded: ")
        assert len(pools) == 1 and pools[0] is not None  # the first query forked
        assert clouds[0]._scatter_pool is None


def test_importing_the_cli_does_not_import_scipy():
    """Only the spectral partitioner needs scipy, and it imports it on
    use: no ``repro`` process pays for it at start-up."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    pytest.importorskip("scipy")
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import repro.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), *sys.path]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
