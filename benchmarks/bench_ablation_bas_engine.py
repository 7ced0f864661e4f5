"""Ablation: BAS with the star framework vs plain subgraph matching.

The BAS baseline stores the full Gk; the paper runs its star
decompose-match-join pipeline there too.  This ablation asks whether
the star framework earns its keep even without the Go/Rin tricks, by
comparing it against direct (bitset VF2) matching over Gk.

Results are identical (asserted).  Either engine may win depending on
query selectivity — the interesting output is the measured ratio.
"""

import time
from functools import partial
from types import SimpleNamespace

from conftest import bench_datasets, bench_queries, bench_scale

from repro.bench import format_table, ms, print_report
from repro.cloud import CloudServer
from repro.core import DataOwner, MethodConfig, SystemConfig
from repro.matching import BitsetMatcher, MatchTable
from repro.workloads import generate_workload, load_dataset

K = 3
SIZE = 6


def direct_answer(gk, built: list, query) -> SimpleNamespace:
    """Plain bitset matching over ``Gk``, tabulated in wire order; the
    matcher is built lazily, inside the first query's time."""
    started = time.perf_counter()
    if not built:
        built.append(BitsetMatcher(gk))
    matches = built[0].find_matches(query)
    table = MatchTable.from_matches(matches, sorted(query.vertex_ids()))
    return SimpleNamespace(table=table, cloud_seconds=time.perf_counter() - started)


def _setup(dataset_name: str):
    dataset = load_dataset(dataset_name, scale=bench_scale())
    workload = generate_workload(dataset.graph, SIZE, bench_queries(), seed=29)
    owner = DataOwner(dataset.graph, dataset.schema, workload)
    published = owner.publish(
        SystemConfig(k=K, method=MethodConfig.from_name("BAS"))
    )
    stars = CloudServer(
        published.upload_graph,
        published.transform.avt,
        published.center_vertices,
        expand_in_cloud=False,
        max_intermediate_results=500_000,
    )
    servers = {"stars": stars.answer, "direct": partial(direct_answer, published.upload_graph, [])}
    queries = [published.lct.apply_to_graph(q) for q in workload]
    return servers, queries


def test_direct_bas_answer(benchmark):
    servers, queries = _setup("DBpedia")
    answer = benchmark(lambda: servers["direct"](queries[0]))
    assert answer.table.schema == tuple(sorted(queries[0].vertex_ids()))


def test_report_ablation_bas_engine(benchmark):
    def run():
        rows = []
        raw = {}
        for dataset_name in bench_datasets():
            servers, queries = _setup(dataset_name)
            seconds = {}
            results = {}
            for name, answer_query in servers.items():
                total = 0.0
                keys = []
                for query in queries:
                    answer = answer_query(query)
                    total += answer.cloud_seconds
                    order = sorted(query.vertex_ids())
                    keys.append(frozenset(answer.table.project_rows(order)))
                seconds[name] = total
                results[name] = keys
            raw[dataset_name] = (seconds, results)
            rows.append(
                [
                    dataset_name,
                    ms(seconds["stars"]),
                    ms(seconds["direct"]),
                    f"{seconds['stars'] / max(seconds['direct'], 1e-9):.1f}x",
                ]
            )
        table = format_table(
            ["dataset", "star pipeline ms", "direct VF2 ms", "stars/direct"],
            rows,
            title=f"[Ablation] BAS engine: star framework vs direct matching (k={K})",
        )
        return table, raw

    table, raw = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(table)

    for dataset_name, (seconds, results) in raw.items():
        assert results["stars"] == results["direct"], dataset_name
