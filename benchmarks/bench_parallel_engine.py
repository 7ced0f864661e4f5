"""Batched query engine: the serial loop vs. the fork pool.

Not a paper figure — this measures the extension of the cloud engine
to batch serving (ISSUE 1).  A workload of 8+ anonymized queries (k=3)
is answered both ways on one published system:

* ``serial``  — the paper's loop, one query after another (the
  default, ``workers=None``; the steady-state and tracing rows run on
  it);
* ``process`` — ``query_batch`` with ``workers=4``: a fork pool (the
  CPU-bound scaling path; skipped where fork is unavailable).

Assertions: both ways return *bit-identical* match sets in
submission order, and — at full scale (``REPRO_BENCH_SCALE >= 1``) on
hosts with >= 2 usable cores — a >= 1.5x throughput gain over the
serial wall time with 4 workers.  Below that the speedup assertion is
skipped (at smoke scale the batch is a few milliseconds of work and the
fork alone costs more) but the equality checks still run.
"""

from __future__ import annotations

import os
from statistics import mean

import pytest
from conftest import bench_queries, bench_scale

from repro.bench import format_table, print_report
from repro.cloud.parallel import fork_available
from repro.core.options import QueryOptions
from repro.matching import match_key
from repro.obs import Observability, SlidingWindow

WORKERS = 4
BATCH_K = 3
BATCH_EDGES = 6


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _batch_workload(sweep, dataset: str = "DBpedia"):
    system = sweep.system(dataset, "EFF", BATCH_K)
    count = max(8, bench_queries())
    queries = sweep.context(dataset).workload(BATCH_EDGES, count)
    return system, queries


def _match_sets(outcomes):
    return [[match_key(m) for m in outcome.matches] for outcome in outcomes]


def test_batch_backends_bit_identical(sweep):
    """The fork pool returns exactly the serial loop's match lists."""
    system, queries = _batch_workload(sweep)
    serial = system.query_batch(queries)
    expected = _match_sets(serial.outcomes)

    if fork_available():
        forked = system.query_batch(queries, options=QueryOptions(workers=WORKERS))
        assert _match_sets(forked.outcomes) == expected


def test_batch_throughput_cell(benchmark, sweep):
    """Timed cell: the whole batch through the serial loop.

    Tracing is disabled for the timed runs — this cell measures raw
    engine throughput, the number every perf PR reports against.
    """
    system, queries = _batch_workload(sweep)
    silent = Observability.disabled()

    def run():
        return system.query_batch(queries, obs=silent)

    outcome = benchmark(run)
    assert outcome.metrics.query_count == len(queries)


def test_report_parallel_engine(sweep):
    system, queries = _batch_workload(sweep)

    serial = system.query_batch(queries)
    serial_wall = serial.metrics.wall_seconds
    expected = _match_sets(serial.outcomes)

    rows = [
        [
            "serial",
            1,
            f"{serial_wall * 1000:.1f}",
            f"{serial.metrics.throughput_qps:.1f}",
            "1.00x",
        ]
    ]
    speedup = None
    if fork_available():
        batch = system.query_batch(queries, options=QueryOptions(workers=WORKERS))
        assert _match_sets(batch.outcomes) == expected
        speedup = batch.metrics.speedup_vs(serial_wall)
        rows.append(
            [
                "process",
                batch.metrics.worker_count,
                f"{batch.metrics.wall_seconds * 1000:.1f}",
                f"{batch.metrics.throughput_qps:.1f}",
                f"{speedup:.2f}x",
            ]
        )

    print_report(
        format_table(
            ["arm", "workers", "wall ms", "qps", "speedup"],
            rows,
            title=(
                f"batched engine — {len(queries)} queries, "
                f"k={BATCH_K}, |E(Q)|={BATCH_EDGES}, {WORKERS} workers"
            ),
        )
    )

    if speedup is None or _usable_cores() < 2:
        pytest.skip("no fork or single-core host: no speedup to assert")
    if bench_scale() < 1.0:
        pytest.skip(
            "batch scaled below gating size (set REPRO_BENCH_SCALE=1 "
            "to enforce the >= 1.5x fork-pool gate)"
        )
    assert speedup >= 1.5, (
        f"expected >=1.5x throughput with {WORKERS} workers, got {speedup:.2f}x"
    )


def test_report_tracing_overhead(sweep):
    """Traced vs. untraced: what does distributed tracing cost?

    Runs the same serial batch twice — once with observability
    fully disabled (the raw-engine configuration of the throughput
    cell above) and once with a recording tracer retaining every span
    — and prints the overhead row.  Gates: the match sets are
    bit-identical with tracing on or off, the tracing-off run really
    does no tracer work (zero spans retained), and turning tracing ON
    never makes the tracing-OFF configuration look slow (the off run
    must stay within noise of the on run — tracing is pay-as-you-go).
    """
    system, queries = _batch_workload(sweep)
    options = QueryOptions()

    silent = Observability.disabled()
    untraced = system.query_batch(queries, options=options, obs=silent)
    assert len(silent.tracer.trace()) == 0  # off means off: no spans

    recording = Observability()
    traced = system.query_batch(queries, options=options, obs=recording)
    assert all(
        outcome.trace is not None and len(outcome.trace) > 0
        for outcome in traced.outcomes
    )
    # bit-identity: the answers do not depend on the tracing grade
    assert _match_sets(traced.outcomes) == _match_sets(untraced.outcomes)

    off_wall = untraced.metrics.wall_seconds
    on_wall = traced.metrics.wall_seconds
    overhead = (on_wall / off_wall - 1.0) * 100 if off_wall > 0 else 0.0
    spans = sum(len(outcome.trace) for outcome in traced.outcomes)
    print_report(
        format_table(
            ["tracing", "wall ms", "qps", "spans", "overhead"],
            [
                [
                    "off",
                    f"{off_wall * 1000:.1f}",
                    f"{untraced.metrics.throughput_qps:.1f}",
                    0,
                    "—",
                ],
                [
                    "on",
                    f"{on_wall * 1000:.1f}",
                    f"{traced.metrics.throughput_qps:.1f}",
                    spans,
                    f"{overhead:+.1f}%",
                ],
            ],
            title=(
                f"tracing overhead — {len(queries)} queries, "
                f"k={BATCH_K}, serial loop"
            ),
        )
    )

    # generous noise bound: the untraced configuration must not be
    # slower than the traced one beyond run-to-run jitter
    assert off_wall <= on_wall * 2.0, (
        f"tracing-off wall {off_wall:.4f}s vs traced {on_wall:.4f}s — "
        "the disabled path is doing work it should not"
    )


def test_report_steady_state_latency(sweep):
    """Steady-state per-query latency through the SLO window.

    Feeds every outcome's end-to-end seconds into a ``SlidingWindow``
    (the structure the serving gateway exports as
    ``repro_gateway_seconds_window_*``) and prints the p50/p95/p99 row
    a serving deployment would expose.  The untraced throughput cell
    above stays the authoritative raw-engine number; this row is the
    tail-latency view of the same workload.
    """
    system, queries = _batch_workload(sweep)
    window = SlidingWindow(capacity=256)

    batch = system.query_batch(queries)
    for outcome in batch.outcomes:
        window.observe(outcome.metrics.total_seconds)

    p50, p95, p99 = (window.quantile(q) for q in (0.5, 0.95, 0.99))
    ms = lambda v: f"{v * 1000:.2f}"  # noqa: E731
    print_report(
        format_table(
            ["queries", "p50 ms", "p95 ms", "p99 ms", "mean ms"],
            [
                [
                    window.count(),
                    ms(p50),
                    ms(p95),
                    ms(p99),
                    ms(mean(window.values())),
                ]
            ],
            title=(
                f"steady-state query latency — {len(queries)} queries, "
                f"k={BATCH_K}, |E(Q)|={BATCH_EDGES}, serial loop"
            ),
        )
    )

    assert window.count() == len(queries)
    assert 0.0 < p50 <= p95 <= p99
