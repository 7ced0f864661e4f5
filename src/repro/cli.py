"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the paper's running example end to end and print the results.
``publish``
    Anonymize a data graph (JSON) and write the split deployment
    (cloud/ and client/ halves) to a directory.
``query``
    Answer a query graph (JSON) through a previously published
    deployment, using the original graph for client-side filtering.
``batch``
    Answer a whole workload of query graphs through the batched
    engine (``--backend serial|process``, ``--workers``).
``serve``
    Answer a workload through a deployment while exposing ``/metrics``,
    ``/healthz``, ``/readyz`` and ``/traces`` over HTTP (with optional
    JSONL event logging and sliding-window SLO gauges).  With
    ``--gateway-port`` it also stands up the :mod:`repro.gateway`
    frame server so remote clients can query the same cloud engine.
``call``
    Send query graphs to a running ``serve --gateway-port`` gateway
    over TCP and finish them client-side (expand + filter) locally.
``explain``
    Run one traced query and render its EXPLAIN report (phase
    timings, per-shard work, wire bytes, cache hits).  With ``--port``
    the query goes through a running gateway and the report covers the
    stitched cross-process trace.
``audit``
    Quantify a deployment's privacy posture: candidate sets vs ``k``,
    label groups vs ``theta``, outsourced fraction and Algorithm 3's
    false-positive ratio.
``profile``
    Run a traced (and cProfile'd) workload and print the per-phase
    span summary plus the hottest functions of each profiled phase.
``datasets``
    Generate one of the evaluation dataset analogues to a JSON file.

``demo``, ``query`` and ``batch`` accept ``--trace PATH`` to export
the run's spans + metrics registry as a JSON trace file, and
``--prometheus PATH`` (on ``batch``) for the Prometheus text format.
All graphs use the JSON format of :mod:`repro.graph.io`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cloud.parallel import BACKENDS
from repro.core.config import MethodConfig, SystemConfig
from repro.core.data_owner import DataOwner
from repro.core.options import QueryOptions
from repro.core.query_client import QueryClient
from repro.core.storage import load_client_side, load_cloud_side, save_published
from repro.core.system import PrivacyPreservingSystem
from repro.exceptions import ReproError
from repro.graph.generators import example_query, example_social_network, schema_from_graph
from repro.graph.io import load_graph, save_graph
from repro.obs import Observability, Trace, export_json, format_percent, names
from repro.workloads.datasets import DATASETS, load_dataset


def _merged(*traces: Trace | None) -> Trace:
    """One trace holding the spans of all of ``traces`` (``None`` skipped)."""
    merged = Trace()
    for trace in traces:
        if trace is not None:
            merged.extend(trace)
    return merged


def _cmd_demo(args: argparse.Namespace) -> int:
    graph, schema = example_social_network()
    obs = Observability()
    system = PrivacyPreservingSystem.setup(
        graph,
        schema,
        SystemConfig(k=args.k, method=MethodConfig.from_name(args.method)),
        obs=obs,
    )
    outcome = system.query(example_query())
    print(f"published: {system.publish_metrics.uploaded_edges} edges uploaded")
    print(f"matches ({len(outcome.matches)}):")
    for match in outcome.matches:
        print("  " + ", ".join(f"q{q}->v{v}" for q, v in sorted(match.items())))
    print(f"end-to-end: {outcome.metrics.total_seconds * 1000:.2f} ms")
    if args.trace:
        export_json(
            args.trace,
            trace=_merged(system.published.trace, outcome.trace),
            registry=obs.metrics,
        )
        print(f"trace written to {args.trace}")
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    schema = schema_from_graph(graph)
    owner = DataOwner(graph, schema)
    config = SystemConfig(
        k=args.k, theta=args.theta, method=MethodConfig.from_name(args.method)
    )
    published = owner.publish(config)
    save_published(published, args.out)
    metrics = published.metrics
    print(
        json.dumps(
            {
                "k": args.k,
                "method": args.method,
                "uploaded_vertices": metrics.uploaded_vertices,
                "uploaded_edges": metrics.uploaded_edges,
                "noise_edges": metrics.noise_edges,
                "noise_vertices": metrics.noise_vertices,
                "output": str(Path(args.out).resolve()),
            },
            indent=2,
        )
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    obs = Observability()
    system = PrivacyPreservingSystem.load(
        args.deployment, load_graph(args.graph), obs=obs
    )
    outcome = system.submit([load_graph(args.query)]).outcomes[0]
    print(
        json.dumps(
            {
                "matches": [
                    {str(q): v for q, v in sorted(m.items())} for m in outcome.matches
                ],
                "candidates": outcome.metrics.candidate_count,
                names.M_CLOUD_SECONDS: outcome.metrics.cloud_seconds,
                names.M_CLIENT_SECONDS: outcome.metrics.client_seconds,
            },
            indent=2,
        )
    )
    if args.trace:
        export_json(args.trace, trace=outcome.trace, registry=obs.metrics)
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Serve a workload of queries through the batched engine."""
    obs = Observability()
    system = PrivacyPreservingSystem.load(
        args.deployment,
        load_graph(args.graph),
        obs=obs,
        shards=args.shards,
        shard_backend=args.shard_backend,
        star_cache_size=args.star_cache,
    )
    try:
        batch = system.submit(
            [load_graph(path) for path in args.queries] * args.repeat,
            options=QueryOptions(backend=args.backend, workers=args.workers),
        )
    finally:
        system.cloud.close()
    metrics = batch.metrics
    print(
        json.dumps(
            {
                "queries": metrics.query_count,
                "backend": metrics.backend,
                "workers": metrics.worker_count,
                "wall_seconds": metrics.wall_seconds,
                "throughput_qps": metrics.throughput_qps,
                "cache": {
                    "hits": metrics.cache_hits,
                    "misses": metrics.cache_misses,
                    "hit_rate": metrics.cache_hit_rate,
                    "hit_rate_text": format_percent(metrics.cache_hit_rate),
                },
                "per_query": [
                    {
                        "matches": len(outcome.matches),
                        "candidates": outcome.metrics.candidate_count,
                        names.M_CLOUD_SECONDS: outcome.metrics.cloud_seconds,
                    }
                    for outcome in batch.outcomes
                ],
            },
            indent=2,
        )
    )
    if args.trace:
        export_json(
            args.trace,
            trace=_merged(batch.trace, *(o.trace for o in batch.outcomes)),
            registry=obs.metrics,
        )
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.prometheus:
        from repro.obs import write_prometheus

        write_prometheus(obs.metrics, args.prometheus)
        print(f"metrics written to {args.prometheus}", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Trace + cProfile a demo workload; print the per-phase summary."""
    from repro.obs import format_summary

    graph, schema = example_social_network()
    obs = Observability(profile=True)
    system = PrivacyPreservingSystem.setup(
        graph,
        schema,
        SystemConfig(k=args.k, method=MethodConfig.from_name(args.method)),
        obs=obs,
    )
    merged = _merged(
        system.published.trace,
        *(system.query(example_query()).trace for _ in range(args.queries)),
    )
    print(format_summary(merged, obs.metrics, title="profile: demo workload"))
    for span in merged:
        profile = span.attributes.get("profile")
        if not profile:
            continue
        print(f"\nhottest functions of '{span.name}' "
              f"({span.duration * 1000:.2f} ms):")
        for line in profile:
            print(f"  {line}")
    if args.trace:
        export_json(args.trace, trace=merged, registry=obs.metrics)
        print(f"\ntrace written to {args.trace}")
    return 0


def _served_gk(cloud_graph, avt, centers, expand):
    """The ``Gk`` a cloud half stands for: itself (BAS), or ``Go``
    closed under the automorphic functions of the AVT."""
    if not expand:
        return cloud_graph
    from repro.outsource import OutsourcedGraph, recover_gk

    return recover_gk(
        OutsourcedGraph(graph=cloud_graph, block_vertices=centers), avt
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    """Audit a deployment: re-prove the privacy guarantees on disk.

    Checks everything an auditor can check from the cloud-visible half
    alone: the k-automorphism property, and the worst structural-attack
    success probability over a vertex sample (must be <= 1/k).

    For a ``Go`` deployment the audited graph is the ``Gk`` recovered
    through the AVT — i.e. exactly the graph the cloud can reconstruct
    and serve.  Recovery closes the edge set under the automorphic
    functions by construction, so for ``Go`` deployments the audit
    attests the *served* view is k-automorphic (tampering with ``Go``
    cannot silently weaken the bound — it only changes which symmetric
    graph is served); a BAS deployment's ``Gk`` is checked verbatim.
    """
    from repro.attacks import degree_attack, neighborhood_attack
    from repro.kauto.verify import verify_k_automorphism

    cloud_graph, avt, centers, expand = load_cloud_side(args.deployment)
    gk = _served_gk(cloud_graph, avt, centers, expand)
    verify_k_automorphism(gk, avt)

    sample = sorted(gk.vertex_ids())[:: max(1, gk.vertex_count // args.sample)][
        : args.sample
    ]
    worst = 0.0
    for target in sample:
        worst = max(
            worst,
            degree_attack(gk, target).success_probability,
            neighborhood_attack(gk, target).success_probability,
        )
    bound = 1.0 / avt.k
    ok = worst <= bound + 1e-9
    print(
        json.dumps(
            {
                "k": avt.k,
                "k_automorphism": "verified",
                "vertices": gk.vertex_count,
                "edges": gk.edge_count,
                "sampled_targets": len(sample),
                "worst_attack_probability": worst,
                "bound": bound,
                "ok": ok,
            },
            indent=2,
        )
    )
    return 0 if ok else 1


def _write_port_file(path: str | None, port: int) -> None:
    """Tell a harness which port the OS assigned (``--port 0``)."""
    if path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(str(port), encoding="utf-8")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a deployment with live telemetry exposition.

    Starts the :class:`~repro.obs.serve.TelemetryServer` (``/metrics``,
    ``/healthz``, ``/readyz``, ``/traces``), loads the published
    deployment into one system, then answers the workload through it:
    query-graph files (optionally ``--repeat``-ed) or, with no files,
    one JSON graph document per stdin line.  ``--linger`` keeps the
    endpoint up after the workload drains so scrapers can collect.
    """
    import time

    from repro.obs import TelemetryServer, TraceRing
    from repro.obs.audit import build_audit

    obs = Observability()
    state = {"ready": False, "served": 0}
    ring = TraceRing(capacity=args.trace_ring)
    telemetry = TelemetryServer(
        obs.metrics,
        ready=lambda: state["ready"],
        health=lambda: {
            "deployment": str(Path(args.deployment).resolve()),
            "queries_served": state["served"],
        },
        traces=ring,
        host=args.host,
        port=args.port,
    ).start()
    system = gateway = None
    try:
        _write_port_file(args.port_file, telemetry.port)
        print(f"telemetry listening on {telemetry.url}", file=sys.stderr)

        system = PrivacyPreservingSystem.load(
            args.deployment,
            load_graph(args.graph),
            obs=obs,
            shards=args.shards,
            shard_backend=args.shard_backend,
            star_cache_size=args.star_cache,
            slo_window_size=args.window,
            event_log_path=args.events,
            event_log_level=args.event_level,
            event_sample_rate=args.sample_rate,
        )
        cloud = system.cloud
        if args.gateway_port is not None:
            from repro.gateway import (
                AdmissionPolicy,
                AuditLogMiddleware,
                AuthTokenMiddleware,
                QueryGateway,
            )

            middlewares: list = []
            if args.gateway_token:
                middlewares.append(
                    AuthTokenMiddleware(token=args.gateway_token)
                )
            if obs.events.enabled:
                middlewares.append(AuditLogMiddleware(obs.events))
            gateway = QueryGateway(
                cloud,
                host=args.host,
                port=args.gateway_port,
                middlewares=middlewares,
                policy=AdmissionPolicy(
                    max_inflight=args.gateway_max_inflight,
                    max_client_inflight=args.gateway_max_inflight,
                    slo_seconds=args.slo_seconds,
                ),
                workers=args.gateway_workers,
                obs=obs,
                traces=ring,
            ).start()
            _write_port_file(args.gateway_port_file, gateway.port)
            print(
                f"gateway listening on {gateway.host}:{gateway.port}",
                file=sys.stderr,
            )
        # static privacy posture of the served deployment, as gauges
        # next to the latency metrics (per-query filter counts feed the
        # live ratio callback QueryClient registers).
        build_audit(
            cloud.avt,
            system.client.lct,
            theta=system.config.theta,
            gk_edges=0 if cloud.expand_in_cloud else cloud.graph.edge_count,
            outsourced_edges=cloud.graph.edge_count,
            registry=obs.metrics,
        ).register(obs.metrics)
        state["ready"] = True  # index built: /readyz flips to 200
        if obs.events.enabled:
            obs.events.emit(
                "serve",
                deployment=str(args.deployment),
                url=telemetry.url,
                k=system.config.k,
            )

        if args.queries:
            queries = [load_graph(path) for path in args.queries] * args.repeat
        elif not sys.stdin.isatty():
            from repro.graph.io import graph_from_json

            queries = (graph_from_json(line) for line in sys.stdin if line.strip())
        else:
            queries = ()
        for query in queries:
            outcome = system.submit([query]).outcomes[0]
            ring.push(
                outcome.trace,
                query_id=outcome.query_id,
                matches=len(outcome.matches),
            )
            state["served"] += 1

        summary = {
            "deployment": str(args.deployment),
            "url": telemetry.url,
            "queries_served": state["served"],
            "window": system.query_window.snapshot(),
            "events_emitted": obs.events.emitted,
        }
        print(json.dumps(summary, indent=2), file=sys.stderr)
        if args.linger > 0:
            print(
                f"lingering {args.linger:.0f}s for scrapers...",
                file=sys.stderr,
            )
            time.sleep(args.linger)
        return 0
    finally:
        if gateway is not None:
            gateway.stop()
        telemetry.stop()
        if system is not None:
            system.cloud.close()
        obs.events.close()


def _cmd_call(args: argparse.Namespace) -> int:
    """Query a running gateway over TCP, finishing client-side locally.

    Loads the client half of a deployment (the LCT and AVT stay local —
    the wire only ever carries anonymized queries and ``Rin`` tables),
    anonymizes each query graph, ships it to the gateway started by
    ``serve --gateway-port``, and expands + filters the returned table
    against the original graph.  Typed gateway rejections (auth, rate
    limit, shedding) print as errors with their reject code.
    """
    from repro.exceptions import GatewayError, GatewayRejected
    from repro.gateway import SyncGatewayClient

    graph = load_graph(args.graph)
    queries = [load_graph(path) for path in args.queries]
    lct, client_avt = load_client_side(args.deployment)
    client = QueryClient(graph, lct, client_avt)
    results = []
    try:
        with SyncGatewayClient(
            args.host,
            args.port,
            client_id=args.client_id,
            token=args.token,
            timeout=args.timeout,
        ) as gateway:
            for path, query in zip(args.queries, queries):
                anonymized = client.prepare_query(query)
                table, expanded = gateway.query(anonymized)
                outcome = client.process_answer(query, table, expanded)
                results.append(
                    {
                        "query": str(path),
                        "matches": [
                            {str(q): v for q, v in sorted(m.items())}
                            for m in outcome.matches
                        ],
                        "candidates": outcome.candidate_count,
                    }
                )
    except GatewayRejected as exc:
        print(
            f"gateway rejected request ({exc.code}): {exc.reason}",
            file=sys.stderr,
        )
        return 2
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results, indent=2))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """One traced query -> its EXPLAIN report (text or JSON).

    Local mode (default) runs the query in process against the
    deployment (optionally sharded); with ``--port`` the anonymized
    query goes through a running ``serve --gateway-port`` gateway via
    ``submit_traced``, and the report is derived from the stitched
    cross-process trace (client, gateway, cloud, shard and fork-child
    spans in one tree).  ``--chrome PATH`` additionally writes the
    trace as Chrome/Perfetto trace-event JSON.
    """
    from repro.obs import ExplainReport, export_chrome_trace

    graph = load_graph(args.graph)
    query = load_graph(args.query)

    trace: Trace | None
    if args.port is not None:
        from repro.exceptions import GatewayError, GatewayRejected
        from repro.gateway import SyncGatewayClient

        client = QueryClient(graph, *load_client_side(args.deployment))
        anonymized = client.prepare_query(query)
        try:
            with SyncGatewayClient(
                args.host,
                args.port,
                client_id=args.client_id,
                token=args.token,
                timeout=args.timeout,
            ) as gateway:
                traced = gateway.submit_traced([anonymized])
        except GatewayRejected as exc:
            print(
                f"gateway rejected request ({exc.code}): {exc.reason}",
                file=sys.stderr,
            )
            return 2
        except GatewayError as exc:
            print(f"gateway error: {exc}", file=sys.stderr)
            return 1
        for table, expanded in traced.answers:
            client.process_answer(query, table, expanded)
        trace = traced.trace
        report = ExplainReport.from_trace(trace, query_id=traced.query_id)
    else:
        system = PrivacyPreservingSystem.load(
            args.deployment,
            graph,
            shards=args.shards,
            shard_backend=args.shard_backend,
        )
        try:
            outcome = system.submit(
                [query], options=QueryOptions(explain=True)
            ).outcomes[0]
        finally:
            system.cloud.close()
        trace, report = outcome.trace, outcome.explain

    if args.json:
        print(report.to_json())
    else:
        print(report.render_text())
    if args.chrome:
        if trace is None:
            print("no trace to export", file=sys.stderr)
        else:
            export_chrome_trace(args.chrome, trace)
            print(f"chrome trace written to {args.chrome}", file=sys.stderr)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    """Quantify a deployment's privacy posture (paper Sections 3-5).

    With a deployment directory, audits the on-disk artifacts (AVT
    candidate sets vs ``k``, LCT label groups vs ``theta``, outsourced
    fraction); add ``--graph``/``--queries`` to also run queries and
    report Algorithm 3's false-positive ratio.  Without a deployment,
    audits the paper's running example end to end.  Exit status is 0
    only when every guarantee holds.
    """
    from repro.obs.audit import audit_system, build_audit, format_audit

    obs = Observability()
    outcomes = []
    if args.deployment is None:
        # demo mode: the paper's running example, end to end
        graph, schema = example_social_network()
        system = PrivacyPreservingSystem.setup(
            graph,
            schema,
            SystemConfig(k=args.k, theta=args.theta),
            obs=obs,
        )
        for _ in range(args.queries_count):
            outcomes.append(system.query(example_query()))
        report = audit_system(system, outcomes=outcomes)
        title = "privacy audit: running example"
    else:
        if args.graph and args.queries:
            system = PrivacyPreservingSystem.load(
                args.deployment, load_graph(args.graph), obs=obs
            )
            cloud = system.cloud
            try:
                outcomes = system.submit(
                    [load_graph(path) for path in args.queries]
                ).outcomes
            finally:
                cloud.close()
            cloud_graph, avt, lct = cloud.graph, cloud.avt, system.client.lct
            centers, expand = cloud.center_vertices, cloud.expand_in_cloud
        else:
            cloud_graph, avt, centers, expand = load_cloud_side(
                args.deployment
            )
            lct, _ = load_client_side(args.deployment)
        report = build_audit(
            avt,
            lct,
            theta=lct.theta,
            gk_edges=_served_gk(cloud_graph, avt, centers, expand).edge_count,
            outsourced_edges=cloud_graph.edge_count,
            outcomes=outcomes,
            registry=obs.metrics if outcomes else None,
        )
        title = f"privacy audit: {args.deployment}"

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_audit(report, title=title))
    if args.prometheus:
        from repro.obs import write_prometheus

        report.register(obs.metrics)
        write_prometheus(obs.metrics, args.prometheus)
        print(f"metrics written to {args.prometheus}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the invariant linter (``repro.analysis``) over source trees.

    Exit status: 0 when clean at the ``--fail-on`` threshold (default:
    ``error``), 1 when gating findings exist, 2 on a bad ``--rule`` or
    unusable ``--baseline``.  ``--json`` emits the machine-readable
    findings document (the CI artifact format); ``--out`` writes it to
    a file as well; ``--sarif`` writes a SARIF 2.1.0 report.  A
    ``.lint-baseline.json`` in the working directory (or ``--baseline``)
    subtracts accepted findings before the gate; ``--update-baseline``
    rewrites it from the current findings.  See
    ``docs/static-analysis.md`` for the rule catalog.
    """
    from repro.analysis import (
        Severity,
        all_rules,
        apply_baseline,
        lint_paths,
        load_baseline,
        render_json,
        render_sarif,
        render_text,
        write_baseline,
    )
    from repro.analysis.baseline import BASELINE_NAME, BaselineError

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            meta = rule.describe()
            print(
                f"{rule.id}  {rule.name} [{meta['severity']}]: {meta['doc']}"
            )
        return 0
    if args.rule:
        wanted = {r.strip() for part in args.rule for r in part.split(",")}
        known = {rule.id for rule in rules}
        unknown = wanted - known
        if unknown:
            print(
                f"unknown rule(s) {sorted(unknown)}; known: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.id in wanted]
    result = lint_paths(args.paths, rules=rules)

    baseline_path = (
        Path(args.baseline) if args.baseline else Path(BASELINE_NAME)
    )
    if args.update_baseline:
        count = write_baseline(baseline_path, result)
        print(f"baseline: recorded {count} finding(s) in {baseline_path}")
        return 0
    suppressed = 0
    if not args.no_baseline and (args.baseline or baseline_path.is_file()):
        try:
            accepted = load_baseline(baseline_path)
        except BaselineError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        result, suppressed = apply_baseline(result, accepted)

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(render_json(result) + "\n", encoding="utf-8")
    if args.sarif:
        sarif_path = Path(args.sarif)
        sarif_path.parent.mkdir(parents=True, exist_ok=True)
        sarif_path.write_text(render_sarif(result) + "\n", encoding="utf-8")
    if args.json:
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
        if suppressed:
            print(f"({suppressed} baselined finding(s) suppressed)")
    fail_on = Severity(args.fail_on)
    return 1 if result.failed(fail_on) else 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.name, scale=args.scale)
    save_graph(dataset.graph, args.out)
    print(
        f"wrote {dataset.name} analogue: |V|={dataset.graph.vertex_count}, "
        f"|E|={dataset.graph.edge_count} -> {args.out}"
    )
    return 0


def _add_shard_options(parser: argparse.ArgumentParser) -> None:
    """``--shards`` / ``--shard-backend``: the cloud topology options."""
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the cloud graph over N shard servers (1 = single)",
    )
    parser.add_argument(
        "--shard-backend",
        default="serial",
        choices=BACKENDS,
        help="scatter backend of the sharded cloud",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy preserving subgraph matching in cloud (SIGMOD'16)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the paper's running example")
    demo.add_argument("--k", type=int, default=2)
    demo.add_argument("--method", default="EFF", choices=["EFF", "RAN", "FSIM", "BAS"])
    demo.add_argument("--trace", default=None, help="write a JSON trace file")
    demo.set_defaults(func=_cmd_demo)

    publish = sub.add_parser("publish", help="anonymize and publish a graph")
    publish.add_argument("graph", help="input graph JSON")
    publish.add_argument("out", help="output deployment directory")
    publish.add_argument("--k", type=int, default=2)
    publish.add_argument("--theta", type=int, default=2)
    publish.add_argument(
        "--method", default="EFF", choices=["EFF", "RAN", "FSIM", "BAS"]
    )
    publish.set_defaults(func=_cmd_publish)

    query = sub.add_parser("query", help="answer a query via a deployment")
    query.add_argument("deployment", help="deployment directory from 'publish'")
    query.add_argument("graph", help="original graph JSON (client side)")
    query.add_argument("query", help="query graph JSON")
    query.add_argument("--trace", default=None, help="write a JSON trace file")
    query.set_defaults(func=_cmd_query)

    batch = sub.add_parser(
        "batch", help="answer a workload of queries in one batch"
    )
    batch.add_argument("deployment", help="deployment directory from 'publish'")
    batch.add_argument("graph", help="original graph JSON (client side)")
    batch.add_argument("queries", nargs="+", help="query graph JSON file(s)")
    batch.add_argument(
        "--workers", type=int, default=None, help="process pool width (default: one per core)"
    )
    batch.add_argument(
        "--backend",
        default="serial",
        choices=BACKENDS,
        help="batch backend (serial = the plain loop, process = fork pool)",
    )
    batch.add_argument(
        "--star-cache",
        type=int,
        default=256,
        help="shared star-match LRU capacity (0 disables)",
    )
    _add_shard_options(batch)
    batch.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="repeat the workload N times (warms the shared cache)",
    )
    batch.add_argument("--trace", default=None, help="write a JSON trace file")
    batch.add_argument(
        "--prometheus",
        default=None,
        help="write the metrics registry in Prometheus text format",
    )
    batch.set_defaults(func=_cmd_batch)

    profile = sub.add_parser(
        "profile", help="trace + cProfile a demo workload, print a summary"
    )
    profile.add_argument("--k", type=int, default=2)
    profile.add_argument(
        "--method", default="EFF", choices=["EFF", "RAN", "FSIM", "BAS"]
    )
    profile.add_argument(
        "--queries", type=int, default=5, help="how many demo queries to run"
    )
    profile.add_argument("--trace", default=None, help="write a JSON trace file")
    profile.set_defaults(func=_cmd_profile)

    verify = sub.add_parser(
        "verify", help="audit a deployment's privacy guarantees"
    )
    verify.add_argument("deployment", help="deployment directory from 'publish'")
    verify.add_argument("--sample", type=int, default=50, help="attack targets")
    verify.set_defaults(func=_cmd_verify)

    serve = sub.add_parser(
        "serve",
        help="answer a workload while exposing /metrics, /healthz, "
        "/readyz and /traces over HTTP",
    )
    serve.add_argument("deployment", help="deployment directory from 'publish'")
    serve.add_argument("graph", help="original graph JSON (client side)")
    serve.add_argument(
        "queries",
        nargs="*",
        help="query graph JSON file(s); omit to read JSON graphs "
        "from stdin, one per line",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 = OS-assigned free port"
    )
    serve.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here once listening (for harnesses)",
    )
    serve.add_argument(
        "--repeat", type=int, default=1, help="repeat the workload N times"
    )
    serve.add_argument(
        "--linger",
        type=float,
        default=0.0,
        help="keep the endpoint up N seconds after the workload drains",
    )
    serve.add_argument(
        "--events", default=None, help="JSONL structured event log path"
    )
    serve.add_argument(
        "--event-level", default="info", choices=["info", "debug"]
    )
    serve.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help="fraction of queries whose events are logged",
    )
    serve.add_argument(
        "--window",
        type=int,
        default=1024,
        help="sliding SLO window capacity (observations)",
    )
    serve.add_argument(
        "--trace-ring",
        type=int,
        default=64,
        help="how many recent query traces /traces retains",
    )
    serve.add_argument(
        "--star-cache",
        type=int,
        default=256,
        help="shared star-match LRU capacity (0 disables)",
    )
    _add_shard_options(serve)
    serve.add_argument(
        "--gateway-port",
        type=int,
        default=None,
        help="also serve the frame-protocol gateway on this TCP port "
        "(0 = OS-assigned free port; omit to disable)",
    )
    serve.add_argument(
        "--gateway-port-file",
        default=None,
        help="write the gateway's bound port here once listening",
    )
    serve.add_argument(
        "--gateway-token",
        default=None,
        help="require this auth token on gateway hello frames",
    )
    serve.add_argument(
        "--gateway-workers",
        type=int,
        default=None,
        help="gateway dispatch pool size (default: cpu count)",
    )
    serve.add_argument(
        "--slo-seconds",
        type=float,
        default=None,
        help="arm gateway load shedding when the sliding-window p99 "
        "exceeds this many seconds",
    )
    serve.add_argument(
        "--gateway-max-inflight",
        type=int,
        default=64,
        help="global cap on concurrently admitted gateway requests",
    )
    serve.set_defaults(func=_cmd_serve)

    call = sub.add_parser(
        "call",
        help="send queries to a running 'serve --gateway-port' gateway",
    )
    call.add_argument("deployment", help="deployment directory from 'publish'")
    call.add_argument("graph", help="original graph JSON (client side)")
    call.add_argument("queries", nargs="+", help="query graph JSON file(s)")
    call.add_argument("--host", default="127.0.0.1")
    call.add_argument(
        "--port", type=int, required=True, help="gateway TCP port"
    )
    call.add_argument(
        "--client-id", default="cli", help="client identity for middleware"
    )
    call.add_argument(
        "--token", default="", help="auth token for the hello frame"
    )
    call.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="seconds to wait per gateway call",
    )
    call.set_defaults(func=_cmd_call)

    explain = sub.add_parser(
        "explain",
        help="run one traced query and render its EXPLAIN report",
    )
    explain.add_argument(
        "deployment", help="deployment directory from 'publish'"
    )
    explain.add_argument("graph", help="original graph JSON (client side)")
    explain.add_argument("query", help="query graph JSON")
    _add_shard_options(explain)  # local mode only; --port ignores them
    explain.add_argument("--host", default="127.0.0.1")
    explain.add_argument(
        "--port",
        type=int,
        default=None,
        help="query a running gateway on this TCP port instead of "
        "running locally (the report covers the stitched trace)",
    )
    explain.add_argument(
        "--client-id", default="cli", help="client identity for middleware"
    )
    explain.add_argument(
        "--token", default="", help="auth token for the hello frame"
    )
    explain.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="seconds to wait per gateway call",
    )
    explain.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    explain.add_argument(
        "--chrome",
        default=None,
        help="also write the trace as Chrome/Perfetto trace-event JSON",
    )
    explain.set_defaults(func=_cmd_explain)

    audit = sub.add_parser(
        "audit", help="quantify a deployment's privacy posture"
    )
    audit.add_argument(
        "deployment",
        nargs="?",
        default=None,
        help="deployment directory (omit to audit the running example)",
    )
    audit.add_argument(
        "--graph", default=None, help="original graph JSON (client side)"
    )
    audit.add_argument(
        "--queries",
        nargs="*",
        default=None,
        help="query graph JSON file(s) for the false-positive audit",
    )
    audit.add_argument("--k", type=int, default=2, help="demo-mode k")
    audit.add_argument(
        "--theta", type=int, default=2, help="demo-mode theta"
    )
    audit.add_argument(
        "--queries-count",
        type=int,
        default=3,
        help="demo-mode: how many example queries to audit",
    )
    audit.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    audit.add_argument(
        "--prometheus",
        default=None,
        help="also write the audit gauges in Prometheus text format",
    )
    audit.set_defaults(func=_cmd_audit)

    lint = sub.add_parser(
        "lint", help="check the codebase's architectural invariants"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        default=None,
        help="run only these rule ids (comma-separated, repeatable)",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )
    lint.add_argument(
        "--out", default=None, help="also write the JSON findings here"
    )
    lint.add_argument(
        "--sarif", default=None, help="also write a SARIF 2.1.0 report here"
    )
    lint.add_argument(
        "--fail-on",
        choices=["error", "warning", "info"],
        default="error",
        help="lowest severity that fails the run (default: error)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        help="accepted-findings file (default: ./.lint-baseline.json if present)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="record the current findings as the accepted baseline and exit",
    )
    lint.add_argument(
        "--verbose", action="store_true", help="print per-finding fix hints"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list the rule catalog"
    )
    lint.set_defaults(func=_cmd_lint)

    datasets = sub.add_parser("datasets", help="generate a dataset analogue")
    datasets.add_argument("name", choices=sorted(DATASETS))
    datasets.add_argument("out", help="output graph JSON path")
    datasets.add_argument("--scale", type=float, default=0.25)
    datasets.set_defaults(func=_cmd_datasets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # a typed failure (bad query, unreadable deployment, tripped
        # budget) is the user's to fix, not a crash: one line, status 2
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
