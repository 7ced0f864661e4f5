"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the paper's running example end to end and print the results.
    ``--profile`` runs it under cProfile and adds the per-phase span
    summary and the hottest functions of each profiled phase.
``publish``
    Anonymize a data graph (JSON) and write the split deployment
    (cloud/ and client/ halves) to a directory.
``query``
    Answer a query graph (JSON) through a previously published
    deployment, using the original graph for client-side filtering.
``batch``
    Answer a whole workload of query graphs through the batched
    engine (``--workers N`` forks a pool of N workers).
``serve``
    Answer a workload through a deployment while exposing ``/metrics``,
    ``/healthz``, ``/readyz`` and ``/traces`` over HTTP; ``--events``
    also logs each ``/traces`` document as one JSON line.  With
    ``--gateway-port`` it also stands up the :mod:`repro.gateway`
    frame server so remote clients can query the same cloud engine.
``call``
    Send query graphs to a running ``serve --gateway-port`` gateway
    over TCP and finish them client-side (expand + filter) locally.
``explain``
    Run one traced query and render its EXPLAIN report (phase
    timings, per-shard work, wire bytes).  With ``--port``
    the query goes through a running gateway and the report covers the
    stitched cross-process trace.
``audit``
    Re-prove a deployment's privacy: the served ``Gk`` is
    k-automorphic, sampled structural attacks succeed with probability
    at most ``1/k``, candidate sets vs ``k``, label groups vs
    ``theta``, outsourced fraction and Algorithm 3's false-positive
    ratio.  Without a deployment it audits the running example.
``lint``
    Check the codebase's architectural invariants (:mod:`repro.analysis`).
``datasets``
    Generate one of the evaluation dataset analogues to a JSON file.

Every option is declared once, in a parent parser that each command
taking it lists (:func:`build_parser`).  A cloud or publish option
left unset leaves :class:`~repro.core.config.SystemConfig`'s default,
and an option the command would ignore in the mode it runs in is a
usage error (status 2).  All graphs use the JSON format of
:mod:`repro.graph.io`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.core.config import METHOD_NAMES, SystemConfig
from repro.core.data_owner import DataOwner
from repro.core.options import QueryOptions
from repro.core.query_client import QueryClient
from repro.core.storage import load_client_side, load_cloud_side, save_published
from repro.core.system import PrivacyPreservingSystem
from repro.exceptions import GatewayError, GatewayRejected, ReproError
from repro.graph.generators import example_query, example_social_network, schema_from_graph
from repro.graph.io import load_graph, save_graph
from repro.obs import Observability, Trace, export_json, names
from repro.workloads.datasets import DATASETS, load_dataset

# the options that set the SystemConfig field of the same name
PUBLISH = ("k", "theta", "method")
# serve's per-query cloud quota: a star-match or join intermediate past
# it is a typed ResultBudgetExceeded (a gateway reject), never an
# unbounded allocation.  No query of the e2e benchmark's workloads
# comes near it.
SERVE_MAX_INTERMEDIATE_RESULTS = 500_000
# serve's options that only the gateway (--gateway-port) reads
GATEWAY = ("gateway_port_file", "gateway_token", "slo_seconds", "max_inflight")


def _given(args: argparse.Namespace, *fields: str) -> dict[str, Any]:
    """The ``fields`` set on the command line; an unset one is ``None``
    and leaves the :class:`SystemConfig` default."""
    return {f: getattr(args, f) for f in fields if getattr(args, f) is not None}


def _merged(*traces: Trace | None) -> Trace:
    """One trace holding the spans of all of ``traces`` (``None`` skipped)."""
    merged = Trace()
    for trace in traces:
        if trace is not None:
            merged.extend(trace)
    return merged


def _example_system(
    args: argparse.Namespace, obs: Observability
) -> tuple[PrivacyPreservingSystem, list]:
    """The running example published with ``--k/--theta/--method``, and
    its example query answered ``--queries-count`` times (default once)."""
    graph, schema = example_social_network()
    system = PrivacyPreservingSystem.setup(
        graph, schema, SystemConfig(**_given(args, *PUBLISH)), obs=obs
    )
    count = 1 if args.queries_count is None else args.queries_count
    return system, [system.query(example_query()) for _ in range(count)]


def _cmd_demo(args: argparse.Namespace) -> int:
    obs = Observability(profile=args.profile)
    system, outcomes = _example_system(args, obs)
    trace = _merged(system.published.trace, *(outcome.trace for outcome in outcomes))
    print(f"published: {system.publish_metrics.uploaded_edges} edges uploaded")
    for outcome in outcomes[-1:]:
        print(f"matches ({len(outcome.matches)}):")
        for match in outcome.matches:
            print("  " + ", ".join(f"q{q}->v{v}" for q, v in sorted(match.items())))
        print(f"end-to-end: {outcome.metrics.total_seconds * 1000:.2f} ms")
    if args.profile:
        from repro.obs import format_summary

        print(format_summary(trace, obs.metrics, title="profile: demo workload"))
        for span in trace:
            profile = span.attributes.get("profile")
            if not profile:
                continue
            print(f"\nhottest functions of '{span.name}' "
                  f"({span.duration * 1000:.2f} ms):")
            for line in profile:
                print(f"  {line}")
    if args.trace:
        export_json(args.trace, trace=trace, registry=obs.metrics)
        print(f"trace written to {args.trace}")
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    config = SystemConfig(**_given(args, *PUBLISH))
    published = DataOwner(graph, schema_from_graph(graph)).publish(config)
    save_published(published, args.out)
    metrics = published.metrics
    print(
        json.dumps(
            {
                "k": config.k,
                "method": config.method.name,
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
        args.deployment, load_graph(args.graph), obs=obs, **_given(args, "shards")
    )
    with system.cloud:
        batch = system.submit(
            [load_graph(path) for path in args.queries] * args.repeat,
            options=QueryOptions(workers=args.workers),
        )
    metrics = batch.metrics
    print(
        json.dumps(
            {
                "queries": metrics.query_count,
                "workers": metrics.worker_count,
                "wall_seconds": metrics.wall_seconds,
                "throughput_qps": metrics.throughput_qps,
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


def _served_gk(cloud_graph, avt, centers, expand):
    """The ``Gk`` a cloud half stands for: itself (BAS), or ``Go``
    closed under the automorphic functions of the AVT."""
    if not expand:
        return cloud_graph
    from repro.outsource import OutsourcedGraph, recover_gk

    return recover_gk(
        OutsourcedGraph(graph=cloud_graph, block_vertices=centers), avt
    )


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
    deployment into one system under the
    :data:`SERVE_MAX_INTERMEDIATE_RESULTS` quota, then answers the
    workload through it: query-graph files (optionally
    ``--repeat``-ed) or, with no files, one JSON graph document per
    stdin line.  Every served query and
    gateway request is pushed to the trace ring behind ``/traces``;
    with ``--events`` the ring appends each document to that file as
    one JSON line.  ``--linger`` keeps the endpoint up after the
    workload drains so scrapers can collect.
    """
    import time

    from repro.obs import TelemetryServer, TraceRing
    from repro.obs.audit import build_audit

    gateway_options = _given(args, *GATEWAY)
    if args.gateway_port is None and gateway_options:
        args.parser.error(
            "--gateway-port-file/--gateway-token/--slo-seconds/--gateway-max-inflight "
            "configure the gateway: add --gateway-port"
        )
    if gateway_options.get("gateway_token") == "":
        args.parser.error("--gateway-token must not be empty")
    if gateway_options.get("max_inflight", 1) < 1:
        args.parser.error("--gateway-max-inflight must be >= 1")
    if not gateway_options.get("slo_seconds", 1) > 0:
        args.parser.error("--slo-seconds must be positive")
    if args.star_cache not in (None, 0):
        args.parser.error("--star-cache: the star cache was removed; only 0 is accepted")

    obs = Observability()
    state = {"ready": False, "served": 0}
    ring = TraceRing(capacity=args.trace_ring, log=args.events)
    telemetry = TelemetryServer(
        obs.metrics,
        ready=lambda: state["ready"],
        health=lambda: {
            "deployment": str(Path(args.deployment).resolve()),
            "queries_served": state["served"],
        },
        traces=ring,
        host=args.host,
        port=args.port or 0,
    )
    system = gateway = None
    try:
        telemetry.start()
        _write_port_file(args.port_file, telemetry.port)
        print(f"telemetry listening on {telemetry.url}", file=sys.stderr)

        system = PrivacyPreservingSystem.load(
            args.deployment,
            load_graph(args.graph),
            obs=obs,
            max_intermediate_results=SERVE_MAX_INTERMEDIATE_RESULTS,
            **_given(args, "shards"),
        )
        cloud = system.cloud
        if args.gateway_port is not None:
            from repro.gateway import QueryGateway

            gateway = QueryGateway(
                cloud,
                host=args.host,
                port=args.gateway_port,
                token=args.gateway_token,
                slo_seconds=args.slo_seconds,
                obs=obs,
                traces=ring,
                **_given(args, "max_inflight"),
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
        ring.close()


def _gateway(args: argparse.Namespace) -> Any:
    """A session with the gateway at ``--host``/``--port``.  What it
    raises leaves :func:`main` as one stderr line: a typed rejection
    (a refused token, shedding) with status 2, a failed transport 1."""
    from repro.gateway import SyncGatewayClient

    return SyncGatewayClient(
        args.host,
        args.port,
        client_id=args.client_id,
        token=args.token,
        timeout=args.timeout,
    )


def _cmd_call(args: argparse.Namespace) -> int:
    """Query a running gateway over TCP, finishing client-side locally.

    Loads the client half of a deployment (the LCT and AVT stay local —
    the wire only ever carries anonymized queries and ``Rin`` tables),
    anonymizes each query graph, ships it to the gateway started by
    ``serve --gateway-port``, and expands + filters the returned table
    against the original graph.
    """
    if args.port is None:
        args.parser.error("the following arguments are required: --port")
    client = QueryClient(load_graph(args.graph), *load_client_side(args.deployment))
    queries = [load_graph(path) for path in args.queries]
    results = []
    with _gateway(args) as gateway:
        for path, query in zip(args.queries, queries):
            table, expanded = gateway.query(client.prepare_query(query))
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
    from repro.obs import QueryMetrics, export_chrome_trace

    if args.port is not None and args.shards is not None:
        args.parser.error(
            "--shards shapes a local cloud; with --port the gateway's server answers"
        )
    graph = load_graph(args.graph)
    query = load_graph(args.query)

    trace: Trace | None
    if args.port is not None:
        client = QueryClient(graph, *load_client_side(args.deployment))
        with _gateway(args) as gateway:
            traced = gateway.submit_traced([client.prepare_query(query)])
        # the client's expand and filter spans join the stitched trace
        scope = Observability().for_query(traced.query_id)
        scope.tracer.absorb(traced.trace)
        for table, expanded in traced.answers:
            client.process_answer(query, table, expanded, obs=scope)
        trace = scope.tracer.take_trace()
        report = QueryMetrics.from_trace(trace)
    else:
        system = PrivacyPreservingSystem.load(
            args.deployment, graph, **_given(args, "shards")
        )
        with system.cloud:
            outcome = system.submit([query]).outcomes[0]
        trace, report = outcome.trace, outcome.metrics

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
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
    """Re-prove a deployment's privacy guarantees (paper Sections 3-5).

    Audits the ``Gk`` the cloud half stands for — the graph itself for
    BAS, ``Go`` recovered through the AVT otherwise, so tampering with
    ``Go`` cannot silently weaken the bound: it is k-automorphic under
    the AVT (else ``VerificationError``, status 2), and the degree and
    neighbourhood attacks on ``--sample`` targets succeed with
    probability at most ``1/k``.  Beside them: AVT candidate sets vs
    ``k``, LCT label groups vs ``theta``, the outsourced fraction and,
    with ``--graph``/``--queries``, Algorithm 3's false-positive ratio.
    Without a deployment, audits the paper's running example end to
    end.  Exit status is 0 only when every guarantee holds.
    """
    from repro.attacks import degree_attack, neighborhood_attack
    from repro.kauto.verify import verify_k_automorphism
    from repro.obs.audit import build_audit, format_audit

    if args.deployment is None:
        if args.graph or args.queries:
            args.parser.error("--graph/--queries run queries on a deployment: name it")
    elif _given(args, *PUBLISH, "queries_count"):
        args.parser.error(
            "--k/--theta/--method/--queries-count publish the running example; "
            "a deployment's parameters are on disk"
        )
    elif bool(args.graph) != bool(args.queries):
        args.parser.error("--graph and --queries go together")
    if args.sample < 1:
        args.parser.error("--sample must be >= 1")

    obs = Observability()
    system, outcomes = None, []
    if args.deployment is None:
        system, outcomes = _example_system(args, obs)
    elif args.queries:
        system = PrivacyPreservingSystem.load(
            args.deployment, load_graph(args.graph), obs=obs
        )
        with system.cloud:
            outcomes = system.submit([load_graph(path) for path in args.queries]).outcomes
    if system is None:
        cloud_graph, avt, centers, expand = load_cloud_side(args.deployment)
        lct, _ = load_client_side(args.deployment)
    else:
        cloud, lct = system.cloud, system.client.lct
        cloud_graph, avt = cloud.graph, cloud.avt
        centers, expand = cloud.center_vertices, cloud.expand_in_cloud

    gk = _served_gk(cloud_graph, avt, centers, expand)
    verify_k_automorphism(gk, avt)
    sample = sorted(gk.vertex_ids())[:: max(1, gk.vertex_count // args.sample)][
        : args.sample
    ]
    worst = max(
        (
            attack(gk, target).success_probability
            for target in sample
            for attack in (degree_attack, neighborhood_attack)
        ),
        default=0.0,
    )
    bound = 1.0 / avt.k
    report = build_audit(
        avt,
        lct,
        theta=lct.theta,
        gk_edges=gk.edge_count,
        outsourced_edges=cloud_graph.edge_count,
        outcomes=outcomes,
        registry=obs.metrics if outcomes else None,
    )
    ok = report.ok and worst <= bound + 1e-9

    if args.json:
        doc = report.to_dict()
        doc.update(
            k_automorphism="verified",
            sampled_targets=len(sample),
            worst_attack_probability=worst,
            bound=bound,
            ok=ok,
        )
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        title = f"privacy audit: {args.deployment or 'running example'}"
        print(format_audit(report, title=title))
        print(f"k-automorphism of Gk  verified ({gk.vertex_count} vertices)")
        print(
            f"attack probability    {worst:.4f} worst of {len(sample)} sampled "
            f"targets, bound 1/k = {bound:.4f}: {'PASS' if ok else 'FAIL'}"
        )
    if args.prometheus:
        from repro.obs import write_prometheus

        report.register(obs.metrics)
        write_prometheus(obs.metrics, args.prometheus)
        print(f"metrics written to {args.prometheus}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the invariant linter (``repro.analysis``) over source trees.

    Exit status: 0 when clean at the ``--fail-on`` threshold (default:
    ``error``), 1 when gating findings exist, 2 on a bad ``--rule``.
    ``--json`` emits the machine-readable findings document (the CI
    artifact format); ``--out`` writes it to a file as well;
    ``--sarif`` writes a SARIF 2.1.0 report.  See
    ``docs/static-analysis.md`` for the rule catalog.
    """
    from repro.analysis import (
        Severity,
        all_rules,
        lint_paths,
        render_json,
        render_sarif,
        render_text,
    )

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


def _options(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser: options declared once, shared by the commands
    listing it (and by the parents built on it)."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy preserving subgraph matching in cloud (SIGMOD'16)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        command_parser = sub.add_parser(name, help=help, parents=list(parents))
        command_parser.set_defaults(func=func, parser=command_parser)
        return command_parser

    target = _options()
    target.add_argument("deployment", help="deployment directory from 'publish'")
    target.add_argument("graph", help="original graph JSON (client side)")
    one_query = _options()
    one_query.add_argument("query", help="query graph JSON")
    query_files = _options()
    query_files.add_argument("queries", nargs="+", help="query graph JSON file(s)")

    trace = _options()
    trace.add_argument("--trace", metavar="PATH", help="write a JSON trace file")
    json_out = _options()
    json_out.add_argument("--json", action="store_true", help="print JSON, not text")
    prometheus = _options()
    prometheus.add_argument(
        "--prometheus",
        metavar="PATH",
        help="also write the metrics registry (audit: its gauges) "
        "in Prometheus text format",
    )
    repeat = _options()
    repeat.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the workload N times",
    )

    endpoint = _options()
    endpoint.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: the address to bind; call/explain: the gateway's",
    )
    endpoint.add_argument(
        "--port",
        type=int,
        help="call/explain: the gateway's TCP port (explain runs locally "
        "without it); serve: the telemetry port (unset or 0: OS-assigned)",
    )
    gateway_client = _options(endpoint)
    gateway_client.add_argument(
        "--client-id",
        default="cli",
        help="client identity the gateway records on each request's trace",
    )
    gateway_client.add_argument(
        "--token", default="", help="auth token for the hello frame"
    )
    gateway_client.add_argument(
        "--timeout", type=float, default=60.0, help="seconds to wait per gateway call"
    )

    shards = _options()
    shards.add_argument(
        "--shards",
        type=int,
        help="split the candidate star centers over N shards, scattered over N "
        f"forked workers (default {SystemConfig.shards})",
    )

    publish_params = _options()
    publish_params.add_argument(
        "--k", type=int, help=f"k of k-automorphism (default {SystemConfig.k})"
    )
    publish_params.add_argument(
        "--theta", type=int, help=f"labels per label group (default {SystemConfig.theta})"
    )
    publish_params.add_argument(
        "--method", choices=METHOD_NAMES, help="publishing method (default EFF)"
    )
    example = _options(publish_params)
    example.add_argument(
        "--queries-count",
        type=int,
        metavar="N",
        help="answer the running example's query N times (default 1)",
    )

    demo = command("demo", _cmd_demo, "run the paper's running example", example, trace)
    demo.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each phase; print the span summary and hottest functions",
    )

    publish = command("publish", _cmd_publish, "anonymize and publish a graph", publish_params)
    publish.add_argument("graph", help="input graph JSON")
    publish.add_argument("out", help="output deployment directory")

    command("query", _cmd_query, "answer a query via a deployment", target, one_query, trace)

    batch = command(
        "batch",
        _cmd_batch,
        "answer a workload of queries in one batch",
        target, query_files, shards, repeat, trace, prometheus,
    )
    batch.add_argument(
        "--workers", type=int, help="fork a pool of N workers (default: the plain loop)"
    )

    serve = command(
        "serve",
        _cmd_serve,
        "answer a workload while exposing /metrics, /healthz, /readyz and /traces over HTTP",
        target, endpoint, shards, repeat,
    )
    serve.add_argument(
        "queries",
        nargs="*",
        help="query graph JSON file(s); omit to read JSON graphs from stdin, one per line",
    )
    serve.add_argument(
        "--port-file", help="write the bound port here once listening (for harnesses)"
    )
    serve.add_argument(
        "--linger",
        type=float,
        default=0.0,
        help="keep the endpoint up N seconds after the workload drains",
    )
    serve.add_argument(
        "--events", help="append each /traces document to this file as one JSON line"
    )
    serve.add_argument(
        "--trace-ring", type=int, default=64, help="how many recent query traces /traces retains"
    )
    serve.add_argument(
        "--gateway-port",
        type=int,
        help="also serve the frame-protocol gateway on this TCP port "
        "(0 = OS-assigned free port; omit to disable)",
    )
    serve.add_argument(
        "--gateway-port-file", help="write the gateway's bound port here once listening"
    )
    serve.add_argument(
        "--gateway-token", help="require this auth token on gateway hello frames"
    )
    serve.add_argument(
        "--slo-seconds",
        type=float,
        help="arm gateway load shedding when the sliding-window p99 exceeds this many seconds",
    )
    serve.add_argument(
        "--star-cache",
        type=int,
        metavar="0",
        help="removed (the cloud keeps no star cache); only 0 is accepted",
    )
    serve.add_argument(
        "--gateway-max-inflight",
        dest="max_inflight",
        type=int,
        metavar="N",
        help="global cap on concurrently admitted gateway requests (default 64)",
    )

    command(
        "call",
        _cmd_call,
        "send queries to a running 'serve --gateway-port' gateway",
        target, query_files, gateway_client,
    )

    explain = command(
        "explain",
        _cmd_explain,
        "run one traced query and render its EXPLAIN report",
        target, one_query, shards, gateway_client, json_out,
    )
    explain.add_argument(
        "--chrome", help="also write the trace as Chrome/Perfetto trace-event JSON"
    )

    audit = command(
        "audit",
        _cmd_audit,
        "re-prove a deployment's privacy guarantees",
        example, json_out, prometheus,
    )
    audit.add_argument(
        "deployment",
        nargs="?",
        help="deployment directory (omit to audit the running example)",
    )
    audit.add_argument("--graph", help="original graph JSON (client side)")
    audit.add_argument(
        "--queries", nargs="*", help="query graph JSON file(s) for the false-positive audit"
    )
    audit.add_argument(
        "--sample", type=int, default=50, help="attack targets sampled for the 1/k bound"
    )

    lint = command("lint", _cmd_lint, "check the codebase's architectural invariants", json_out)
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        help="run only these rule ids (comma-separated, repeatable)",
    )
    lint.add_argument("--out", help="also write the JSON findings here")
    lint.add_argument("--sarif", help="also write a SARIF 2.1.0 report here")
    lint.add_argument(
        "--fail-on",
        choices=["error", "warning", "info"],
        default="error",
        help="lowest severity that fails the run (default: error)",
    )
    lint.add_argument("--verbose", action="store_true", help="print per-finding fix hints")
    lint.add_argument("--list-rules", action="store_true", help="list the rule catalog")

    datasets = command("datasets", _cmd_datasets, "generate a dataset analogue")
    datasets.add_argument("name", choices=sorted(DATASETS))
    datasets.add_argument("out", help="output graph JSON path")
    datasets.add_argument("--scale", type=float, default=0.25)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GatewayRejected as exc:
        print(f"gateway rejected request ({exc.code}): {exc.reason}", file=sys.stderr)
        return 2
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        # a typed failure (bad query, unreadable deployment, tripped
        # budget) is the user's to fix, not a crash: one line, status 2
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
