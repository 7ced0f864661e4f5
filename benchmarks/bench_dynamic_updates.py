"""Extension: incremental release maintenance vs re-publication.

The paper publishes once; this bench quantifies the two maintenance
strategies the library offers for evolving graphs:

* re-publish — rebuild Gk/Go and re-upload everything;
* incremental — orbit-wise update (`DynamicRelease`) + `GoDelta`
  shipping only the cloud-visible changes.

Expected shape: per-update delta bytes are orders of magnitude below a
re-upload and roughly independent of graph size; patching the bare
graph is micro-seconds against a full rebuild's milliseconds — and the
serving object (`CloudServer.apply_delta`, which today rebuilds its
index and estimator) is timed beside it, so the table shows both.
"""

import time

from conftest import bench_scale

from repro.anonymize import build_lct, cost_based_grouping
from repro.bench import format_table, ms, print_report
from repro.cloud import CloudServer
from repro.core import DataOwner, SystemConfig
from repro.core.protocol import encode_upload
from repro.graph import compute_statistics
from repro.kauto import build_k_automorphic_graph, verify_k_automorphism
from repro.kauto.dynamic import DynamicRelease
from repro.outsource import apply_go_delta
from repro.workloads import generate_workload, load_dataset

UPDATES = 20


def _release(dataset_name: str, k: int):
    dataset = load_dataset(dataset_name, scale=bench_scale())
    lct = build_lct(
        dataset.schema,
        2,
        cost_based_grouping,
        graph_stats=compute_statistics(dataset.graph),
    )
    transform = build_k_automorphic_graph(lct.apply_to_graph(dataset.graph), k, seed=1)
    return dataset, DynamicRelease(dataset.graph.copy(), transform, lct)


def test_incremental_edge_insert(benchmark):
    _, release = _release("DBpedia", 3)
    vertices = sorted(release.original.vertex_ids())
    pairs = [
        (vertices[i], vertices[-(i + 1)])
        for i in range(40)
        if vertices[i] != vertices[-(i + 1)]
        and not release.original.has_edge(vertices[i], vertices[-(i + 1)])
    ]
    iterator = iter(pairs)

    def insert():
        u, v = next(iterator)
        return release.insert_edge(u, v)

    log = benchmark.pedantic(insert, rounds=1, iterations=1)
    assert log.added_edges


def test_report_dynamic_update_cost(benchmark):
    def run():
        rows = []
        raw = {}
        for k in (2, 3, 5):
            dataset, release = _release("DBpedia", k)
            outsourced = release.refresh_outsourced()
            server = CloudServer(
                outsourced.graph.copy(), release.avt, list(outsourced.block_vertices)
            )
            vertices = sorted(release.original.vertex_ids())

            delta_bytes = 0
            incremental_seconds = 0.0
            cloud_seconds = 0.0
            applied = 0
            for i in range(UPDATES):
                u = vertices[(7 * i) % len(vertices)]
                v = vertices[(11 * i + 3) % len(vertices)]
                if u == v or release.original.has_edge(u, v):
                    continue
                started = time.perf_counter()
                log = release.insert_edge(u, v)
                delta = release.go_delta(log)
                apply_go_delta(outsourced, delta)
                incremental_seconds += time.perf_counter() - started
                started = time.perf_counter()
                server.apply_delta(delta)
                cloud_seconds += time.perf_counter() - started
                delta_bytes += delta.payload_bytes()
                applied += 1

            verify_k_automorphism(release.gk, release.avt)
            # the patched server is the server of the patched Go
            fresh = CloudServer(
                outsourced.graph.copy(), release.avt, list(outsourced.block_vertices)
            )
            probe = release.lct.apply_to_graph(
                generate_workload(dataset.graph, 4, 1, seed=k)[0]
            )
            assert server.answer(probe).table == fresh.answer(probe).table

            started = time.perf_counter()
            owner = DataOwner(release.original, dataset.schema)
            republished = owner.publish(SystemConfig(k=k))
            republish_seconds = time.perf_counter() - started
            full_bytes = len(
                encode_upload(republished.upload_graph, republished.transform.avt)
            )
            raw[k] = (delta_bytes / max(applied, 1), full_bytes)
            rows.append(
                [
                    k,
                    applied,
                    round(delta_bytes / max(applied, 1)),
                    full_bytes,
                    ms(incremental_seconds / max(applied, 1)),
                    ms(cloud_seconds / max(applied, 1)),
                    ms(republish_seconds),
                ]
            )
        table = format_table(
            [
                "k",
                "updates",
                "delta B/update",
                "re-upload B",
                "incremental ms/update",
                "cloud apply ms/update",
                "re-publish ms",
            ],
            rows,
            title="[Extension] incremental maintenance vs re-publication (DBpedia)",
        )
        return table, raw

    table, raw = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(table)

    for k, (per_update, full) in raw.items():
        assert per_update < full / 20