"""Ablation: the Rin optimization of Algorithm 2.

Compares the paper's join strategy — keep the anchor star in B1,
return the 1/k-size ``Rin`` slice — against the *straightforward*
strategy it replaces (expand every star through the automorphic
functions and materialize R(Qo, Gk) in the cloud).

Expected shape: the full strategy joins ~k times more anchor tuples
and ships ~k times more bytes; Rin's cloud time and answer size are
strictly better, and the gap grows with k.
"""

import time
from functools import partial
from types import SimpleNamespace

from conftest import bench_datasets, bench_scale

from repro.bench import format_table, ms, print_report
from repro.cloud import (
    CloudServer,
    decompose_query,
    expand_star_table,
    join_star_tables,
    match_star_table,
)
from repro.core import DataOwner, SystemConfig
from repro.core.protocol import encode_answer_table
from repro.workloads import generate_workload, load_dataset

KS = (2, 3, 5)


def full_answer(server: CloudServer, query) -> SimpleNamespace:
    """The straightforward strategy, composed from the server's own
    kernels: every star table expanded up front, then joined as-is."""
    budget = server.max_intermediate_results
    started = time.perf_counter()
    stars = decompose_query(query, server.estimator).stars
    tables = {
        star.center: expand_star_table(
            match_star_table(query, star, server.index, server.graph, budget),
            server.avt,
        )
        for star in stars
    }
    table, _ = join_star_tables(
        stars, tables, server.avt, expand=False, max_intermediate=budget
    )
    return SimpleNamespace(table=table, expanded=True, cloud_seconds=time.perf_counter() - started)


def _setup(dataset_name: str, k: int):
    dataset = load_dataset(dataset_name, scale=bench_scale())
    workload = generate_workload(dataset.graph, 6, 8, seed=4)
    owner = DataOwner(dataset.graph, dataset.schema, workload)
    published = owner.publish(SystemConfig(k=k))
    server = CloudServer(
        published.upload_graph,
        published.transform.avt,
        published.center_vertices,
        max_intermediate_results=500_000,
    )
    servers = {"rin": server.answer, "full": partial(full_answer, server)}
    queries = [published.lct.apply_to_graph(q) for q in workload]
    return servers, queries


def test_rin_join_k3(benchmark):
    """Timed cell: the Rin-strategy cloud answer at k=3."""
    servers, queries = _setup("Web-NotreDame", 3)
    answer = benchmark(lambda: servers["rin"](queries[0]))
    assert not answer.expanded


def test_report_ablation_rin_vs_full(benchmark):
    def run() -> tuple[str, dict]:
        rows = []
        raw: dict = {}
        for dataset_name in bench_datasets():
            for k in KS:
                servers, queries = _setup(dataset_name, k)
                cell = {}
                for strategy, answer_query in servers.items():
                    seconds = 0.0
                    out_bytes = 0
                    tuples = 0
                    for query in queries:
                        answer = answer_query(query)
                        seconds += answer.cloud_seconds
                        order = sorted(query.vertex_ids())
                        out_bytes += len(
                            encode_answer_table(
                                answer.table, order, answer.expanded
                            )
                        )
                        tuples += len(answer.table)
                    cell[strategy] = (seconds, out_bytes, tuples)
                raw[(dataset_name, k)] = cell
                rows.append(
                    [
                        dataset_name,
                        k,
                        ms(cell["rin"][0]),
                        ms(cell["full"][0]),
                        cell["rin"][2],
                        cell["full"][2],
                        cell["rin"][1],
                        cell["full"][1],
                    ]
                )
        table = format_table(
            [
                "dataset",
                "k",
                "rin ms",
                "full ms",
                "rin tuples",
                "full tuples",
                "rin bytes",
                "full bytes",
            ],
            rows,
            title="[Ablation] Rin join vs straightforward full expansion",
        )
        return table, raw

    table, raw = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(table)

    for (dataset_name, k), cell in raw.items():
        rin_seconds, rin_bytes, rin_tuples = cell["rin"]
        full_seconds, full_bytes, full_tuples = cell["full"]
        # the cloud materializes exactly k times more tuples without Rin
        assert full_tuples == k * rin_tuples
        assert full_bytes > rin_bytes or full_tuples == 0
