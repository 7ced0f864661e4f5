"""Ablation: BAS with the star framework vs plain subgraph matching.

The BAS baseline stores the full Gk; the paper runs its star
decompose-match-join pipeline there too.  This ablation asks whether
the star framework earns its keep even without the Go/Rin tricks, by
comparing it against direct (bitset VF2) matching over Gk.

Results are identical (asserted).  Either engine may win depending on
query selectivity — the interesting output is the measured ratio.
"""

from conftest import bench_datasets, bench_queries, bench_scale

from repro.bench import format_table, ms, print_report
from repro.cloud import CloudServer
from repro.core import DataOwner, MethodConfig, SystemConfig
from repro.workloads import generate_workload, load_dataset

K = 3
SIZE = 6


def _setup(dataset_name: str):
    dataset = load_dataset(dataset_name, scale=bench_scale())
    workload = generate_workload(dataset.graph, SIZE, bench_queries(), seed=29)
    owner = DataOwner(dataset.graph, dataset.schema, workload)
    published = owner.publish(
        SystemConfig(k=K, method=MethodConfig.from_name("BAS"))
    )
    centers = published.center_vertices
    servers = {
        "stars": CloudServer(
            published.upload_graph,
            published.transform.avt,
            centers,
            expand_in_cloud=False,
            max_intermediate_results=500_000,
        ),
        "direct": CloudServer(
            published.upload_graph,
            published.transform.avt,
            centers,
            expand_in_cloud=False,
            engine="direct",
        ),
    }
    queries = [published.lct.apply_to_graph(q) for q in workload]
    return servers, queries


def test_direct_bas_answer(benchmark):
    servers, queries = _setup("DBpedia")
    answer = benchmark(lambda: servers["direct"].answer(queries[0]))
    assert answer.expanded


def test_report_ablation_bas_engine(benchmark):
    def run():
        rows = []
        raw = {}
        for dataset_name in bench_datasets():
            servers, queries = _setup(dataset_name)
            seconds = {}
            results = {}
            for name, server in servers.items():
                total = 0.0
                keys = []
                for query in queries:
                    answer = server.answer(query)
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
