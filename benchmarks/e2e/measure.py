"""End-to-end measurement (``--trace 0``): public entry points only.

Nothing here looks inside the program: a deployment is stood up with
``PrivacyPreservingSystem.setup``, queries go through
``system.submit([q], options=QueryOptions(trace=False))`` (or, for the
``gateway`` workload, ``GatewayClient.query`` against a ``repro serve``
subprocess), and the clock is read around those calls.  gc stays on and
the star cache stays at its default (off).  The measured time is split
evenly over the workload's deployments.

Every figure is a median, or a mean of medians: this runs on a few
cores of a shared host, where a stall lands on whatever is running, so
nothing reported may hang on the slowest few samples of a run.
"""

from __future__ import annotations

import time
from statistics import mean, median

import gateway
from harness import (
    Tally,
    canonical,
    oracle_answers,
    peak_rss_mb,
    setup_system,
    verify_publish,
)
from workloads import Deployment, Workload

from repro.core.options import QueryOptions
from repro.core.system import PrivacyPreservingSystem
from repro.exceptions import ReproError

UNTRACED = QueryOptions(trace=False)
#: a dense graph is stood up in milliseconds: do it a few times for ``setup_s``
SETUPS_PER_DENSE_GRAPH = 5
Matches = list[dict[int, int]]


def first_pass(
    system: PrivacyPreservingSystem, deployment: Deployment, tally: Tally
) -> tuple[list[Matches], list[int], list[float]]:
    """The first pass: every distinct query must equal the VF2 oracle.

    Returns the engine's answers (later passes compare each repeat
    against them exactly: same matches, same order), the bytes each
    query put on the wire, query plus answer — a function of the inputs
    alone, so it is taken here, once per distinct query — and the
    seconds each ``submit`` took, caches cold.
    """
    expected = oracle_answers(deployment.graph, deployment.queries)
    answers: list[Matches] = []
    wire: list[int] = []
    seconds: list[float] = []
    channel = system.channel
    clock = time.perf_counter
    for index, (query, truth) in enumerate(zip(deployment.queries, expected)):
        channel.reset()
        started = clock()
        try:
            matches = system.submit([query], options=UNTRACED).outcomes[0].matches
        except ReproError as exc:
            seconds.append(clock() - started)
            tally.fail(f"query {index}: {type(exc).__name__}: {exc}")
            matches = []
        else:
            seconds.append(clock() - started)
            tally.check(canonical(matches) == truth, f"query {index} != VF2 oracle")
        answers.append(matches)
        wire.append(channel.total_bytes("query") + channel.total_bytes("answer"))
    return answers, wire, seconds


def timed_submit(
    system: PrivacyPreservingSystem,
    deployment: Deployment,
    answers: list[Matches],
    index: int,
    tally: Tally,
) -> float:
    """Seconds one ``submit`` took; the answer is checked outside the clock."""
    clock = time.perf_counter
    started = clock()
    try:
        matches = system.submit([deployment.queries[index]], options=UNTRACED).outcomes[0].matches
    except ReproError as exc:
        seconds = clock() - started
        tally.fail(f"query {index}: {type(exc).__name__}: {exc}")
        return seconds
    seconds = clock() - started
    tally.check(matches == answers[index], f"query {index} changed its answer")
    return seconds


def timed_pass(
    system: PrivacyPreservingSystem, deployment: Deployment, answers: list[Matches], tally: Tally
) -> list[float]:
    """Closed loop, one client: every query of the deployment once."""
    return [
        timed_submit(system, deployment, answers, index, tally)
        for index in range(len(deployment.queries))
    ]


def run_selective(workload: Workload, seconds: float) -> tuple[dict, Tally]:
    """``selective``: one operation is one query.

    The deployments take their share of the time one after another, in
    whole passes over the query set.  Latency is the median of all
    queries; throughput is the median over the passes, so the one
    pathological query a seed may draw, or a stall of the host, counts
    in the passes it falls into and not in the figure.
    """
    tally = Tally()
    setup_seconds: list[float] = []
    ops: list[float] = []
    pass_rates: list[float] = []
    wire_per_op: list[float] = []
    share = seconds / len(workload.deployments)
    for deployment in workload.deployments:
        started = time.perf_counter()
        system = setup_system(deployment)
        setup_seconds.append(time.perf_counter() - started)
        answers, wire, _ = first_pass(system, deployment, tally)  # warm-up, not timed
        wire_per_op += wire
        busy = 0.0
        while busy < share:
            times = timed_pass(system, deployment, answers, tally)
            ops += times
            pass_rates.append(len(times) / sum(times))
            busy += sum(times)
        system.channel.reset()
    metrics = {
        "setup_s": median(setup_seconds),
        "op_p50_ms": median(ops) * 1e3,
        "ops_per_s": median(pass_rates),
        "wire_kb_per_op": median(wire_per_op) / 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, tally


def run_dense(workload: Workload, seconds: float) -> tuple[dict, Tally]:
    """``dense``: one operation is a sweep over a graph's pattern classes.

    A sweep's cost follows the graph's hubs, +-13 % from graph to graph
    and 3 % from repeat to repeat, so graphs are what the time is spent
    on: the figure is the *mean* over the graphs of each graph's median
    sweep, and the verified first pass is timed as a sample as well (a
    cold sweep reads 0-5 % above a warm one; the median of three drops
    it).  The graphs take turns, round after round: a slow stretch of
    the host then costs each graph one sweep, which its median ignores,
    instead of all the sweeps of one graph.
    """
    tally = Tally()
    deployments = workload.deployments
    setup_seconds: list[float] = []
    systems: list[PrivacyPreservingSystem] = []
    for deployment in deployments:
        for _ in range(SETUPS_PER_DENSE_GRAPH):
            started = time.perf_counter()
            system = setup_system(deployment)
            setup_seconds.append(time.perf_counter() - started)
        systems.append(system)
    answers: list[list[Matches]] = []
    wire_per_op: list[float] = []
    sweeps: list[list[float]] = []
    for system, deployment in zip(systems, deployments):
        verified, wire, times = first_pass(system, deployment, tally)
        answers.append(verified)
        wire_per_op.append(sum(wire))
        sweeps.append([sum(times)])
    busy = sum(mine[0] for mine in sweeps)
    rounds = 1
    # three rounds for the medians, then another only while more than
    # half of it still fits
    while rounds < 3 or busy * (1 + 0.5 / rounds) < seconds:
        for system, deployment, verified, mine in zip(systems, deployments, answers, sweeps):
            mine.append(sum(timed_pass(system, deployment, verified, tally)))
            busy += mine[-1]
        rounds += 1
    sweep_seconds = mean(median(mine) for mine in sweeps)
    metrics = {
        "setup_s": median(setup_seconds),
        "op_p50_ms": sweep_seconds * 1e3,
        "ops_per_s": 1.0 / sweep_seconds,  # one client: the same figure, inverted
        "wire_kb_per_op": mean(wire_per_op) / 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, tally


def run_publish(workload: Workload, seconds: float) -> tuple[dict, Tally]:
    """``publish``: one operation is one ``PrivacyPreservingSystem.setup``.

    Each distinct (graph, k) is verified the first time it is published
    (outside the clock); a repeat must reproduce the same sizes.  The
    deployments come in Latin-square order, k = 2, 4, 6 over and over:
    latency is the mean over k of the median publish at that k (a plain
    median of the pool would sit in the k = 4 class and jump with it),
    throughput the median over those rounds of three.
    """
    tally = Tally()
    deployments = workload.deployments
    ks = sorted({d.config.k for d in deployments})
    digests: dict[int, tuple] = {}
    ops: list[float] = []
    while sum(ops) < seconds or len(ops) % len(ks):
        slot = len(ops) % len(deployments)
        deployment = deployments[slot]
        started = time.perf_counter()
        try:
            system = setup_system(deployment)
        except ReproError as exc:
            system = None
            tally.fail(f"publish {slot}: {type(exc).__name__}: {exc}")
        ops.append(time.perf_counter() - started)
        if system is None:
            continue
        record = system.publish_metrics
        digest = (
            system.channel.total_bytes("upload"),
            record.gk_edges,
            record.noise_edges,
            record.index_bytes,
        )
        if slot not in digests:
            digests[slot] = digest
            verify_publish(system, tally, f"publish {slot} (k={deployment.config.k})")
        else:
            tally.check(digest == digests[slot], f"publish {slot} not repeatable")
    # deployment i has k = ks[i % 3], so every third operation shares a k
    by_k = [median(ops[i :: len(ks)]) for i in range(len(ks))]
    rounds = [ops[i : i + len(ks)] for i in range(0, len(ops), len(ks))]
    metrics = {
        # publishing *is* this workload's set-up: report the cheapest
        # deployment that answers queries (smallest k)
        "setup_s": by_k[0],
        "op_p50_ms": mean(by_k) * 1e3,
        "ops_per_s": median(len(ks) / sum(times) for times in rounds),
        # upload bytes of the distinct deployments published
        "wire_kb_per_op": median(d[0] for d in digests.values()) / 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, tally


def run_gateway(workload: Workload, seconds: float, workdir: str) -> tuple[dict, Tally]:
    """``gateway``: the bench process is the client, ``repro serve`` the cloud.

    Per deployment: stand it up and serve it (timed as set-up), send
    every distinct query once and compare with the in-process answer,
    then an open-loop arm (latency, samples pooled) and a closed-loop
    arm with two connections (capacity, median over the deployments).
    """
    tally = Tally()
    setup_seconds: list[float] = []
    open_latencies: list[float] = []
    closed_rates: list[float] = []
    wire_per_op: list[float] = []
    share = seconds / len(workload.deployments)
    for number, deployment in enumerate(workload.deployments):
        started = time.perf_counter()
        system = setup_system(deployment)
        server = gateway.serve(system, deployment.graph, f"{workdir}/dep{number}")
        try:
            setup_seconds.append(time.perf_counter() - started)
            answers, payload_bytes, _ = first_pass(system, deployment, tally)
            generator = gateway.LoadGenerator(
                server, system.client, deployment.queries, answers, tally,
                workload.latency_limit_s,
            )
            warm = generator.closed_loop(1, 0.0, min_ops=len(deployment.queries))
            # what the server counted for one pass over the distinct
            # queries, minus the payloads it framed, is the frame
            # overhead; spread evenly it turns payload into wire bytes
            framing = (server.wire_bytes() - sum(payload_bytes)) / max(1, warm.completed)
            wire_per_op += [size + framing for size in payload_bytes]
            open_arm = generator.open_loop(workload.open_rate, 0.6 * share)
            closed_arm = generator.closed_loop(2, 0.4 * share)
        finally:
            server.stop()
        tally.check(server.returncode == 0, f"serve exited with {server.returncode}")
        open_latencies += open_arm.latencies
        closed_rates.append(closed_arm.completed / closed_arm.wall_seconds)
    metrics = {
        "setup_s": median(setup_seconds),
        "op_p50_ms": median(open_latencies) * 1e3,
        "ops_per_s": median(closed_rates),
        "wire_kb_per_op": median(wire_per_op) / 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, tally


def run(workload: Workload, seconds: float, workdir: str) -> tuple[dict, Tally]:
    if workload.name == "gateway":
        return run_gateway(workload, seconds, workdir)
    in_process = {"selective": run_selective, "dense": run_dense, "publish": run_publish}
    return in_process[workload.name](workload, seconds)
