"""Ablation: the VBV/LBV bit-vector index (Figure 7).

Star matching with the full index vs with each half disabled:

* no VBV — candidate centers come from a linear label scan of B1;
* no LBV — no neighbourhood pruning (the ``nbv`` AND) before leaf
  enumeration;
* neither — plain scan-and-enumerate.

Expected shape: the full index is fastest; results are identical in
all configurations (asserted).
"""

import time

import pytest
from conftest import bench_datasets, bench_queries, bench_scale

from repro.anonymize import estimator_from_outsourced
from repro.bench import format_table, ms, print_report
from repro.cloud import CloudIndex, decompose_query
from repro.cloud.star_matching import match_star_table
from repro.core import DataOwner, SystemConfig
from repro.workloads import generate_workload, load_dataset

K = 3
CONFIGS = {
    "full index": dict(use_vbv=True, use_lbv=True),
    "no LBV": dict(use_vbv=True, use_lbv=False),
    "no VBV": dict(use_vbv=False, use_lbv=True),
    "no index": dict(use_vbv=False, use_lbv=False),
}


class DegradedIndex:
    """A real ``CloudIndex`` answering without its VBV and/or LBV table."""

    def __init__(self, index, graph, use_vbv, use_lbv):
        self._index, self._graph = index, graph
        self._use_vbv, self._use_lbv = use_vbv, use_lbv

    def __getattr__(self, name):  # everything not degraded: the real index
        return getattr(self._index, name)

    def candidate_center_mask(self, query_vertex):
        if self._use_vbv:
            return self._index.candidate_center_mask(query_vertex)
        vertex = self._graph.vertex  # no VBV: a linear label scan of B1
        return sum(
            1 << p
            for p, v in enumerate(self._index.indexed_vertices)
            if query_vertex.matches(vertex(v))
        )

    def neighborhood_mask(self, leaf_vertices):
        if self._use_lbv:
            return self._index.neighborhood_mask(leaf_vertices)
        return -1  # no LBV: every indexed vertex passes line 6


def _setup(dataset_name: str):
    dataset = load_dataset(dataset_name, scale=bench_scale())
    workload = generate_workload(dataset.graph, 8, bench_queries(), seed=19)
    owner = DataOwner(dataset.graph, dataset.schema, workload)
    published = owner.publish(SystemConfig(k=K))
    index = CloudIndex.build(published.upload_graph, published.center_vertices)
    estimator = estimator_from_outsourced(
        published.center_vertices, published.upload_graph, K
    )
    stars = []
    for query in workload:
        anonymized = published.lct.apply_to_graph(query)
        decomposition = decompose_query(anonymized, estimator)
        for star in decomposition.stars:
            stars.append((anonymized, star))
    return published, index, stars


def test_full_index_star_matching(benchmark):
    published, index, stars = _setup("Web-NotreDame")
    query, star = stars[0]
    table = benchmark(
        lambda: match_star_table(query, star, index, published.upload_graph)
    )
    assert table.schema == tuple(star.vertex_order)


def test_report_ablation_index(benchmark):
    def run():
        rows = []
        raw = {}
        for dataset_name in bench_datasets():
            published, index, stars = _setup(dataset_name)
            per_config = {}
            for config_name, flags in CONFIGS.items():
                degraded = DegradedIndex(index, published.upload_graph, **flags)
                started = time.perf_counter()
                keys = []
                for query, star in stars:
                    table = match_star_table(
                        query, star, degraded, published.upload_graph
                    )
                    keys.append(frozenset(table.rows))
                per_config[config_name] = (time.perf_counter() - started, keys)
            raw[dataset_name] = per_config
            rows.append(
                [dataset_name]
                + [ms(per_config[name][0]) for name in CONFIGS]
            )
        table = format_table(
            ["dataset", *CONFIGS.keys()],
            rows,
            title=f"[Ablation] Figure 7 index: star matching time (ms), k={K}",
        )
        return table, raw

    table, raw = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(table)

    for dataset_name, per_config in raw.items():
        reference = per_config["full index"][1]
        for config_name, (_, keys) in per_config.items():
            assert keys == reference, f"{config_name} changed results"
    if bench_scale() < 1.0:
        pytest.skip(
            "stars scaled below timing size (set REPRO_BENCH_SCALE=1 "
            "to enforce full index <= 1.1x no index)"
        )
    for dataset_name, per_config in raw.items():
        # the full index is not slower than running with no index at all
        assert per_config["full index"][0] <= per_config["no index"][0] * 1.1, (
            dataset_name
        )