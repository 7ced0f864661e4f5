"""Per-layer measurement (``--trace 1``): a stepped replay from outside.

The program is not changed by this benchmark, so a layer's cost is
taken by calling the layer's *public* function ourselves, in the order
``PrivacyPreservingSystem.setup`` / ``_run_one`` / ``CloudServer.answer``
call it, with a span around each call (names reuse ``repro.obs.names``
so the follow-up that reads the program's own spans keeps the columns).

A replay only counts if it is the same program: the stepped upload
payload, answer payload and match list must equal, byte for byte and
row for row, what ``setup`` / ``submit`` produced for the same input;
otherwise the run is marked incorrect.  Where a step is private
(``_unify_row_labels``, the ``CloudServer`` constructor's estimator)
its cost lands in ``kauto.other`` / ``system.unattributed`` instead of
being called.
"""

from __future__ import annotations

import gc
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import mean, median

import gateway
from harness import Tally, canonical, oracle_answers, quantile, setup_system, verify_publish
from spans import Recorder
from workloads import Deployment, Workload

from repro.client.expansion import expand_rin_table
from repro.client.filtering import ClientFilter
from repro.cloud.decomposition import decompose_query
from repro.cloud.index import CloudIndex
from repro.cloud.result_join import join_star_tables
from repro.cloud.star_matching import match_star_table
from repro.core.data_owner import DataOwner
from repro.core.options import QueryOptions
from repro.core.protocol import (
    NetworkChannel,
    decode_answer_table,
    decode_query,
    decode_upload,
    encode_answer_table,
    encode_query,
    encode_upload,
)
from repro.core.system import PrivacyPreservingSystem
from repro.exceptions import ReproError
from repro.graph import AttributedGraph
from repro.kauto.alignment import align_blocks, build_avt
from repro.kauto.builder import build_k_automorphic_graph
from repro.kauto.edge_copy import copy_crossing_edges
from repro.kauto.partition import balance_types, cut_size, partition_graph, validate_partition
from repro.obs import Observability
from repro.outsource import build_outsourced_graph

NO_OBS = Observability.disabled()
UNTRACED = QueryOptions(trace=False)
DEFAULT = QueryOptions()

QUERY_LAYERS = (
    "client.anonymize",
    "protocol.encode_query",
    "protocol.decode_query",
    "cloud.decompose",
    "cloud.star_match",
    "cloud.join",
    "protocol.encode_answer",
    "protocol.decode_answer",
    "client.expand",
    "client.filter",
)
KAUTO_PARTS = ("kauto.partition", "kauto.alignment", "kauto.edge_copy")
PUBLISH_LAYERS = (
    "publish.lct",
    "publish.generalize",
    *KAUTO_PARTS,
    "publish.outsource",
    "protocol.encode_upload",
    "protocol.decode_upload",
    "cloud.index_build",
)
SCALING_LAYERS = (*KAUTO_PARTS, "cloud.index_build")


@dataclass
class RecordingChannel(NetworkChannel):
    """The default channel, remembering the last payload per direction."""

    last: dict[str, bytes] = field(default_factory=dict)

    def transmit(self, direction: str, payload: bytes, obs: Observability | None = None) -> float:
        self.last[direction] = payload
        return super().transmit(direction, payload, obs=obs)


# ----------------------------------------------------------------------
# publish path
# ----------------------------------------------------------------------
@dataclass
class PublishReplay:
    """What the stepped publish produced, to hold against the real one."""

    upload: bytes
    avt_rows: list[tuple[int, ...]]
    alignment_edges: int
    crossing_edges: int
    counts: dict[str, int]


def replay_publish(deployment: Deployment, recorder: Recorder) -> PublishReplay:
    """``PrivacyPreservingSystem.setup`` through public functions, one span each."""
    graph, schema, config = deployment.graph, deployment.schema, deployment.config
    span = recorder.span
    with span("stepped.publish"):
        with span("publish.lct"):
            lct, _ = DataOwner(graph, schema).build_lct(config)
        with span("publish.generalize"):
            generalized = lct.apply_to_graph(graph)
        # the three public phases of build_k_automorphic_graph first,
        # and their Gk dropped, so that the real call below runs
        # against the same heap as they did
        with span("kauto.partition"):
            blocks = partition_graph(generalized, config.k, seed=config.seed)
            validate_partition(generalized, blocks, config.k)
            blocks = balance_types(generalized, blocks)
            validate_partition(generalized, blocks, config.k)
        with span("kauto.alignment"):
            avt, _, gk = build_avt(
                generalized, blocks, label_aware=config.label_aware_alignment
            )
            alignment_edges = len(align_blocks(gk, avt))
        with span("kauto.edge_copy"):
            crossing_edges = len(copy_crossing_edges(gk, avt))
        cut_edges = cut_size(generalized, blocks)
        avt_rows = list(avt.rows())
        del gk, avt, blocks
        # the call itself: its total minus the three phases is
        # kauto.other (validation, row-label unification, bookkeeping)
        with span("publish.kauto"):
            transform = build_k_automorphic_graph(
                generalized,
                config.k,
                seed=config.seed,
                label_aware_alignment=config.label_aware_alignment,
            )
        with span("publish.outsource"):
            outsourced = build_outsourced_graph(transform.gk, transform.avt)
        with span("protocol.encode_upload"):
            upload = encode_upload(outsourced.graph, transform.avt)
        with span("protocol.decode_upload"):
            cloud_graph, _ = decode_upload(upload)
        with span("cloud.index_build"):
            index = CloudIndex.build(cloud_graph, outsourced.block_vertices)
    return PublishReplay(
        upload=upload,
        avt_rows=avt_rows,
        alignment_edges=alignment_edges,
        crossing_edges=crossing_edges,
        counts={
            "publish.lct.groups": lct.group_count(),
            "kauto.partition.cut_edges": cut_edges,
            "kauto.alignment.noise_edges": alignment_edges,
            "kauto.edge_copy.noise_edges": crossing_edges,
            "publish.outsource.go_edges": outsourced.graph.edge_count,
            "protocol.upload_bytes": len(upload),
            "cloud.index_build.index_bytes": index.size_bytes(),
        },
    )


def stepped_publish(
    deployment: Deployment, recorder: Recorder, tally: Tally
) -> tuple[PrivacyPreservingSystem, dict[str, float], dict[str, int]]:
    """Replay one publish step by step, then publish for real and compare.

    Returns the real system, ``{layer: seconds}`` and the counts taken
    at the same boundaries.
    """
    first = recorder.begin_request()
    # a full collection costs 50-100 ms on this heap and lands on
    # whichever 50 ms layer happens to be allocating; for attribution
    # the replay runs with the collector off (the end-to-end publish
    # numbers, and the real setup below, keep it on)
    gc.collect()
    gc.disable()
    try:
        replay = replay_publish(deployment, recorder)
    finally:
        gc.enable()
    seconds = recorder.self_times(first)
    seconds["kauto.other"] = seconds.pop("publish.kauto") - sum(
        seconds[name] for name in KAUTO_PARTS
    )

    channel = RecordingChannel()
    system = setup_system(deployment, channel=channel)
    transform = system.published.transform
    tally.check(
        replay.upload == channel.last["upload"]
        and replay.avt_rows == list(transform.avt.rows())
        and replay.alignment_edges == len(transform.alignment_noise_edges)
        and replay.crossing_edges == len(transform.crossing_noise_edges)
        and replay.counts["cloud.index_build.index_bytes"] == system.cloud.index_size_bytes(),
        "stepped publish diverged from PrivacyPreservingSystem.setup",
    )
    return system, seconds, replay.counts


def publish_layers(
    workload: Workload, recorder: Recorder, tally: Tally
) -> tuple[PrivacyPreservingSystem, dict[str, float]]:
    """One sweep (the first three deployments) plus the quarter-size twin.

    Returns the first deployment's system and the summed layer metrics.
    """
    _, quarter_seconds, _ = stepped_publish(workload.quarter, recorder, tally)
    sweep = [
        stepped_publish(deployment, recorder, tally)
        for deployment in workload.deployments[:3]
    ]
    first_system, first_seconds, _ = sweep[0]
    verify_publish(first_system, tally, "publish 0")
    totals: dict[str, float] = defaultdict(float)
    for _, seconds, counts in sweep:
        for name in (*PUBLISH_LAYERS, "kauto.other"):
            totals[f"{name}.s"] += seconds[name]
        for name, value in counts.items():
            totals[name] += value
    for name in SCALING_LAYERS:
        # the twin has a quarter of the vertices: exponent = log4(ratio)
        ratio = first_seconds[name] / quarter_seconds[name]
        totals[f"{name}.scaling_exp"] = math.log(ratio, 4)
    return first_system, dict(totals)


# ----------------------------------------------------------------------
# query path
# ----------------------------------------------------------------------
@dataclass
class QuerySamples:
    """Per-query repeats of the three ways one query was run."""

    untraced: list[float] = field(default_factory=list)
    default: list[float] = field(default_factory=list)
    stepped: list[float] = field(default_factory=list)
    layers: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    counts: dict[str, int] = field(default_factory=dict)


def stepped_query(
    system: PrivacyPreservingSystem, query: AttributedGraph, recorder: Recorder
) -> tuple[list[dict[int, int]], bytes, dict[str, int]]:
    """``_run_one`` + ``CloudServer.answer`` through public functions."""
    cloud, client = system.cloud, system.client
    budget = cloud.max_intermediate_results
    span = recorder.span
    with span("stepped.query"):
        with span("client.anonymize"):
            anonymized = client.prepare_query(query, obs=NO_OBS)
        with span("protocol.encode_query"):
            query_payload = encode_query(anonymized)
        with span("protocol.decode_query"):
            cloud_query = decode_query(query_payload)
        with span("cloud.decompose"):
            stars = decompose_query(
                cloud_query, cloud.estimator, strategy=cloud.decomposition_strategy
            ).stars
        tables = {}
        for star in stars:
            with span("cloud.star_match"):
                tables[star.center] = match_star_table(
                    cloud_query, star, cloud.index, cloud.graph, max_results=budget
                )
        with span("cloud.join"):
            rin, join_stats = join_star_tables(
                stars, tables, cloud.avt, expand=cloud.expand_in_cloud, max_intermediate=budget
            )
        order = sorted(query.vertex_ids())
        with span("protocol.encode_answer"):
            answer_payload = encode_answer_table(rin, order, not cloud.expand_in_cloud)
        with span("protocol.decode_answer"):
            candidates, expanded = decode_answer_table(answer_payload)
        if not expanded:
            with span("client.expand"):
                candidates = expand_rin_table(candidates, client.avt).table
        with span("client.filter"):
            matches = (
                ClientFilter(client.graph, query).filter_table(candidates).table.to_matches()
            )
    counts = {
        "cloud.decompose.stars": len(stars),
        "cloud.star_match.rs_rows": sum(len(table) for table in tables.values()),
        "cloud.join.rin_rows": len(rin),
        "cloud.join.peak_rows": max(join_stats.intermediate_sizes, default=0),
        "protocol.answer_bytes": len(answer_payload),
        "client.expand.candidates": len(candidates),
        "results": len(matches),
    }
    return matches, answer_payload, counts


def query_layers(
    system: PrivacyPreservingSystem,
    deployment: Deployment,
    seconds: float,
    recorder: Recorder,
    tally: Tally,
) -> tuple[dict[str, float], list[list[dict[int, int]]]]:
    """Interleave untraced / default-traced / stepped runs of every query.

    The three variants of one query run back to back, pass after pass,
    so drift hits them alike.  Per query the median over passes is
    kept, then the mean over the query mix, which makes the layers
    additive: they sum to the stepped total.  Also returns the answers.
    """
    queries = deployment.queries
    truth = oracle_answers(deployment.graph, queries)
    samples = [QuerySamples() for _ in queries]
    answers: list[list[dict[int, int]]] = [[] for _ in queries]
    clock = time.perf_counter
    begun = clock()
    passes = 0
    # another pass only while more than half of it still fits
    while passes == 0 or (clock() - begun) * (1 + 0.5 / passes) < seconds:
        for index, query in enumerate(queries):
            sample = samples[index]
            try:
                started = clock()
                plain = system.submit([query], options=UNTRACED).outcomes[0].matches
                sample.untraced.append(clock() - started)
                started = clock()
                traced = system.submit([query], options=DEFAULT).outcomes[0].matches
                sample.default.append(clock() - started)
                submitted_payload = system.channel.last["answer"]
                first = recorder.begin_request()
                started = clock()
                matches, payload, counts = stepped_query(system, query, recorder)
                sample.stepped.append(clock() - started)
            except ReproError as exc:
                tally.fail(f"query {index}: {type(exc).__name__}: {exc}")
                continue
            for name, value in recorder.self_times(first).items():
                sample.layers[name].append(value)
            sample.counts = counts
            answers[index] = plain
            if passes == 0:
                tally.check(canonical(plain) == truth[index], f"query {index} != VF2 oracle")
            tally.check(
                matches == plain == traced and payload == submitted_payload,
                f"stepped replay of query {index} diverged from system.submit",
            )
        passes += 1
        system.channel.reset()

    done = [s for s in samples if s.stepped]
    untraced = mean(median(s.untraced) for s in done)
    default = mean(median(s.default) for s in done)
    stepped = mean(median(s.stepped) for s in done)
    out: dict[str, float] = {}
    attributed = 0.0
    for name in QUERY_LAYERS:
        layer = mean(median(s.layers[name]) if name in s.layers else 0.0 for s in done)
        out[f"{name}.ms"] = layer * 1e3
        attributed += layer
    out["system.unattributed.ms"] = (untraced - attributed) * 1e3
    # the tail of the whole query is reported here, where it carries no
    # bound: on this host the slowest tenth of a run is mostly the host's
    out["system.query_p90.ms"] = quantile([t for s in done for t in s.untraced], 0.90) * 1e3
    out["obs.trace_overhead_share"] = (default - untraced) / untraced
    out["bench.trace_overhead_share"] = (stepped - untraced) / untraced
    for name in (
        "cloud.decompose.stars",
        "cloud.star_match.rs_rows",
        "cloud.join.rin_rows",
        "cloud.join.peak_rows",
        "protocol.answer_bytes",
        "client.expand.candidates",
    ):
        out[name] = mean(s.counts[name] for s in done)
    candidates = sum(s.counts["client.expand.candidates"] for s in done)
    out["client.filter.keep_ratio"] = sum(s.counts["results"] for s in done) / max(1, candidates)
    return out, answers


# ----------------------------------------------------------------------
# gateway hop
# ----------------------------------------------------------------------
def gateway_layers(
    system: PrivacyPreservingSystem,
    workload: Workload,
    deployment: Deployment,
    answers: list[list[dict[int, int]]],
    seconds: float,
    workdir: str,
    tally: Tally,
) -> dict[str, float]:
    """Round trip vs the same cloud work in process, server CPU, lateness."""
    queries = deployment.queries
    server = gateway.serve(system, deployment.graph, f"{workdir}/dep")
    try:
        generator = gateway.LoadGenerator(
            server, system.client, queries, answers, tally, workload.latency_limit_s
        )
        single = generator.closed_loop(1, 0.4 * seconds, min_ops=len(queries))
        double = generator.closed_loop(2, 0.3 * seconds)
        open_arm = generator.open_loop(workload.open_rate, 0.3 * seconds)
    finally:
        server.stop()
    tally.check(server.returncode == 0, f"serve exited with {server.returncode}")

    roundtrips: dict[int, list[float]] = defaultdict(list)
    for index, value in single.roundtrips:
        roundtrips[index].append(value)
    clock = time.perf_counter
    in_process = []
    for index in roundtrips:
        anonymized = system.client.prepare_query(queries[index], obs=NO_OBS)
        order = sorted(queries[index].vertex_ids())
        repeats: list[float] = []
        while len(repeats) < 3 and sum(repeats) < 0.05:
            started = clock()
            answer = system.cloud.answer(anonymized, obs=NO_OBS)
            decode_answer_table(encode_answer_table(answer.table, order, answer.expanded))
            repeats.append(clock() - started)
        in_process.append(median(repeats))
    roundtrip = mean(median(values) for values in roundtrips.values())
    arms = (single, double, open_arm)
    return {
        "gateway.roundtrip.ms": roundtrip * 1e3,
        "gateway.roundtrip_p90.ms": quantile([t for _, t in single.roundtrips], 0.90) * 1e3,
        "gateway.hop_overhead.ms": (roundtrip - mean(in_process)) * 1e3,
        "gateway.server_cpu.ms": double.server_cpu_seconds / max(1, double.completed) * 1e3,
        "gateway.shed": sum(arm.shed for arm in arms),
        "gateway.errors": sum(arm.errors for arm in arms),
        "gateway.late_p99.ms": quantile(open_arm.late, 0.99) * 1e3,
    }


def run(workload: Workload, seconds: float, workdir: str, spans_out: str | None):
    """All three segments on this workload's own inputs.

    The publish layers cover one sweep of deployments; the query and
    gateway layers run on the first deployment and its queries.
    """
    tally = Tally()
    recorder = Recorder()
    system, metrics = publish_layers(workload, recorder, tally)
    first = workload.deployments[0]
    layers, answers = query_layers(system, first, 0.5 * seconds, recorder, tally)
    metrics.update(layers)
    metrics.update(
        gateway_layers(system, workload, first, answers, 0.5 * seconds, workdir, tally)
    )
    if spans_out:
        recorder.dump(spans_out)
    return metrics, tally
