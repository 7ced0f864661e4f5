"""Shard-count scaling: a sharded ``CloudServer`` vs the single server.

Not a paper figure — this measures the scatter-gather extension of the
cloud engine.  One BAS-style identity-AVT deployment (k=1 alignment
rows, so no k-automorphism build and the graph can be serving-sized)
answers a fixed random-walk query:

* ``single``  — the paper's :class:`~repro.cloud.server.CloudServer`;
* ``shards=N`` — ``CloudServer(shards=N)`` over the same graph and
  index, its candidate centers split into N position ranges, scattering
  the star plan over a warm pool of N forked workers.

The cell is *scan-bound* star matching: selective labels keep the
emitted tables small while every candidate center's neighbourhood is
scanned, which is the regime sharding parallelizes (the positional
hash join always runs centrally and is excluded from the speedup by
timing the ``cloud.star_matching`` span; the whole ``cloud.answer``
span and each arm's construction are reported beside it).  The sharded arms are timed *warm*:
the first answer forks the persistent scatter pool
(:class:`~repro.cloud.parallel.PersistentProcessPool`), and the first
few repay the children's copy-on-write faulting; steady-state serving
is what the cell measures.

Assertions: every arm is *bit-identical* to the single server (same
rows, same order — the shard tables concatenate in range order), and
— at full scale (``REPRO_BENCH_SCALE >= 1``) on hosts with >= 4 usable
cores — a >= 1.5x star-phase gain at 4 shards.  The report cell
always writes ``BENCH_sharding.json`` at the repo root, host block
included (the CI shard-scaling smoke uploads it).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from conftest import bench_host, bench_scale

from repro.bench import format_table, ms, print_report
from repro.cloud import CloudServer
from repro.graph import make_schema, random_attributed_graph
from repro.kauto import AlignmentVertexTable
from repro.obs import Observability, layers, names
from repro.workloads import random_walk_query

#: Full-scale cell (REPRO_BENCH_SCALE=1): ~20k vertices, degree ~24,
#: labels selective enough that the single star emits ~29k rows while
#: every candidate center is scanned.  The CI smoke runs SCALE=0.1.
CELL = dict(seed=7, n=20_000, edges_per_vertex=12, labels=6, query_edges=2)
MIN_VERTICES = 2_000
SHARD_COUNTS = (2, 4)
GATE_SHARDS = 4
GATE_CORES = 4
REPEATS = 3
#: Answers before timing: a fork child faults in the heap of whichever
#: range the pool hands it, so one answer leaves a child cold on the other.
WARMUP = 5
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sharding.json"


def _cell_vertices() -> int:
    return max(MIN_VERTICES, int(CELL["n"] * bench_scale()))


def _deployment():
    """Identity-AVT deployment: every vertex its own alignment row.

    ``expand_in_cloud=False`` (k=1 — there is nothing to expand), so
    ``answer`` returns exactly the merged-and-joined star tables and
    the star phase dominates the pipeline.
    """
    schema = make_schema(2, 1, CELL["labels"])
    graph = random_attributed_graph(
        schema,
        _cell_vertices(),
        edges_per_vertex=CELL["edges_per_vertex"],
        seed=CELL["seed"],
    )
    avt = AlignmentVertexTable([[v] for v in sorted(graph.vertex_ids())])
    centers = sorted(graph.vertex_ids())
    query = random_walk_query(graph, CELL["query_edges"], seed=CELL["seed"] + 1)
    return graph, avt, centers, query


@pytest.fixture(scope="module")
def deployment():
    return _deployment()


def _sharded(deployment, shards: int) -> CloudServer:
    graph, avt, centers, _ = deployment
    return CloudServer(graph, avt, centers, expand_in_cloud=False, shards=shards)


def _assert_identical(answer, expected) -> None:
    assert answer.table.schema == expected.table.schema
    assert answer.table.rows == expected.table.rows
    assert answer.star_stats.result_sizes == expected.star_stats.result_sizes


def _built(make):
    """``make()`` and its wall seconds: the arm's construction cost."""
    started = time.perf_counter()
    cloud = make()
    return cloud, time.perf_counter() - started


def _timed(cloud, query) -> tuple[float, float]:
    """Best-of-``REPEATS`` (star-phase, whole-``answer``) seconds, after
    ``WARMUP`` answers: span durations of a recording scope."""
    for _ in range(WARMUP):  # fork/warm pools, caches, allocators
        cloud.answer(query)
    star = whole = float("inf")
    for _ in range(REPEATS):
        scope = Observability().for_query()
        cloud.answer(query, obs=scope)
        seconds = layers(scope.tracer.take_trace())
        whole = min(whole, seconds[names.CLOUD_ANSWER])
        star = min(star, seconds[names.CLOUD_STAR_MATCHING])
    return star, whole


def test_shard_counts_bit_identical(deployment):
    """N=2/4 shards reproduce the single server's table exactly.

    This is the CI shard-scaling smoke: every shard count, forked,
    against one seeded workload.
    """
    graph, avt, centers, query = deployment
    expected = CloudServer(graph, avt, centers, expand_in_cloud=False).answer(
        query
    )
    assert expected.table.rows, "cell must produce matches to compare"
    for shards in SHARD_COUNTS:
        with _sharded(deployment, shards) as cloud:
            _assert_identical(cloud.answer(query), expected)


def test_shard_scatter_cell(benchmark, deployment):
    """Timed cell: one warm scatter-gather answer at 4 shards."""
    graph, avt, centers, query = deployment
    with _sharded(deployment, GATE_SHARDS) as cloud:
        cloud.answer(query)  # warm the persistent pool
        answer = benchmark(lambda: cloud.answer(query))
        assert answer.table.rows


def test_report_shard_scaling(deployment):
    """Scaling report + ``BENCH_sharding.json``; the full-scale gate."""
    graph, avt, centers, query = deployment
    single, single_build = _built(
        lambda: CloudServer(graph, avt, centers, expand_in_cloud=False)
    )
    expected = single.answer(query)
    single_star, single_answer = _timed(single, query)

    arms = []
    rows = [
        [
            "single",
            f"{single_build:.2f}",
            ms(single_star),
            "1.00x",
            ms(single_answer),
            "1.00x",
            len(expected.table),
        ]
    ]
    for shards in SHARD_COUNTS:
        cloud, build = _built(lambda: _sharded(deployment, shards))
        with cloud:
            answer = cloud.answer(query)
            _assert_identical(answer, expected)
            star, whole = _timed(cloud, query)
        speedup = single_star / star if star else float("inf")
        answer_speedup = single_answer / whole
        arms.append(
            {
                "shards": shards,
                "build_seconds": build,
                "star_seconds": star,
                "speedup": round(speedup, 3),
                "answer_seconds": whole,
                "answer_speedup": round(answer_speedup, 3),
            }
        )
        rows.append(
            [
                f"shards={shards}",
                f"{build:.2f}",
                ms(star),
                f"{speedup:.2f}x",
                ms(whole),
                f"{answer_speedup:.2f}x",
                len(answer.table),
            ]
        )

    print_report(
        format_table(
            [
                "arm",
                "build s",
                "star ms",
                "speedup",
                "answer ms",
                "speedup",
                "rows",
            ],
            rows,
            title=(
                f"shard-count scaling — n={_cell_vertices()}, "
                f"deg~{2 * CELL['edges_per_vertex']}, "
                f"labels={CELL['labels']}, |E(Q)|={CELL['query_edges']}, "
                f"star phase and whole answer, best of {REPEATS}"
            ),
        )
    )

    best = max(a["speedup"] for a in arms if a["shards"] == GATE_SHARDS)
    host = bench_host()
    RESULT_PATH.write_text(
        json.dumps(
            {
                "segment": "star matching (scatter-gather)",
                "repeats": REPEATS,
                "host": host,
                "bit_identical": True,
                "speedup": best,
                "cell": {**CELL, "n": _cell_vertices()},
                "single_build_seconds": single_build,
                "single_star_seconds": single_star,
                "single_answer_seconds": single_answer,
                "arms": arms,
            },
            indent=2,
        )
        + "\n"
    )

    if host["cores"] < GATE_CORES:
        pytest.skip(
            f"{host['cores']}-core host: the shard-scaling verdict needs "
            f">= {GATE_CORES} cores"
        )
    if bench_scale() < 1.0:
        pytest.skip(
            "cell scaled below gating size (set REPRO_BENCH_SCALE=1 "
            "to enforce the >= 1.5x shard-scaling gate)"
        )
    assert best >= 1.5, (
        f"expected >= 1.5x star-phase gain at {GATE_SHARDS} shards, "
        f"got {arms}"
    )
