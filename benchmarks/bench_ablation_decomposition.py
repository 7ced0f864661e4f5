"""Ablation: cost-model-driven query decomposition (Definition 6).

Compares the paper's decomposition — an exact minimum *weighted*
vertex cover where weights are the cost model's |R(S)| estimates —
against an unweighted minimum vertex cover (structure-only, blind to
selectivity).

Expected shape: both cover the query, but the cost-model decomposition
feeds fewer star-match tuples into the join (smaller |RS|), which is
exactly what the paper's cost model exists to achieve.
"""

from conftest import bench_datasets, bench_scale

from repro.anonymize import estimator_from_outsourced
from repro.bench import format_table, print_report
from repro.cloud import CloudIndex, decompose_query, match_star_table
from repro.core import DataOwner, SystemConfig
from repro.workloads import generate_workload, load_dataset


class _UnitEstimator:
    """Estimator stub: every star costs 1 (degenerates Definition 6 to
    an unweighted minimum vertex cover)."""

    def estimate(self, star_graph, center):
        return 1.0


def _setup(dataset_name: str, k: int = 3):
    dataset = load_dataset(dataset_name, scale=bench_scale())
    workload = generate_workload(dataset.graph, 8, 10, seed=6)
    owner = DataOwner(dataset.graph, dataset.schema, workload)
    published = owner.publish(SystemConfig(k=k))
    index = CloudIndex.build(published.upload_graph, published.center_vertices)
    estimator = estimator_from_outsourced(
        published.center_vertices, published.upload_graph, k
    )
    queries = [published.lct.apply_to_graph(q) for q in workload]
    return published, index, estimator, queries


def _total_rs(published, index, queries, estimator) -> int:
    total = 0
    for query in queries:
        decomposition = decompose_query(query, estimator)
        total += sum(
            len(match_star_table(query, star, index, published.upload_graph))
            for star in decomposition.stars
        )
    return total


def test_cost_model_decomposition_k3(benchmark):
    """Timed cell: decomposing one query with the cost model."""
    published, index, estimator, queries = _setup("Web-NotreDame")
    decomposition = benchmark(lambda: decompose_query(queries[0], estimator))
    assert decomposition.covers(queries[0])


def test_report_ablation_decomposition(benchmark):
    def run() -> tuple[str, dict]:
        rows = []
        raw = {}
        for dataset_name in bench_datasets():
            published, index, estimator, queries = _setup(dataset_name)
            weighted = _total_rs(published, index, queries, estimator)
            unweighted = _total_rs(published, index, queries, _UnitEstimator())
            raw[dataset_name] = (weighted, unweighted)
            rows.append([dataset_name, weighted, unweighted])
        table = format_table(
            ["dataset", "|RS| cost-model", "|RS| unweighted-cover"],
            rows,
            title="[Ablation] decomposition: cost model vs structure-only",
        )
        return table, raw

    table, raw = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(table)

    total_weighted = sum(w for w, _ in raw.values())
    total_unweighted = sum(u for _, u in raw.values())
    # the cost model should not lose to selectivity-blind covering
    assert total_weighted <= total_unweighted * 1.05
