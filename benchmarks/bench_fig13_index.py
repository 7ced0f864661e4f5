"""Figure 13: index size and construction time of the VBV/LBV index.

Paper shape: both index size and build time *decrease* as k grows,
because the index covers only block B1 of Gk and |B1| = |V(Gk)|/k.
"""

import time

from _publish_cache import published
from conftest import bench_datasets, bench_ks

from repro.bench import format_series, ms, print_report
from repro.cloud import CloudIndex


def _index_for(dataset_name: str, k: int) -> tuple[CloudIndex, float]:
    """The index over ``Go`` at ``k`` and its build's wall seconds."""
    data = published(dataset_name, "EFF", k)
    started = time.perf_counter()
    index = CloudIndex.build(data.upload_graph, data.center_vertices)
    return index, time.perf_counter() - started


def test_index_build_k3(benchmark):
    """Timed cell: building the index over Go at k=3."""
    data = published("Web-NotreDame", "EFF", 3)
    index = benchmark(
        lambda: CloudIndex.build(data.upload_graph, data.center_vertices)
    )
    assert index.size_bytes() > 0


def test_report_fig13_index_cost(benchmark):
    def run() -> str:
        size_series = {}
        time_series = {}
        for dataset_name in bench_datasets():
            timed = {k: _index_for(dataset_name, k) for k in bench_ks()}
            size_series[dataset_name] = [
                timed[k][0].size_bytes() / 1024.0 for k in bench_ks()
            ]
            time_series[dataset_name] = [ms(timed[k][1]) for k in bench_ks()]
        size_table = format_series(
            "[Figure 13a] index size (KiB)", "k", bench_ks(), size_series
        )
        time_table = format_series(
            "[Figure 13b] index construction time (ms)", "k", bench_ks(), time_series
        )
        return size_table + "\n\n" + time_table

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(report)

    # shape: index size decreases with k (B1 shrinks)
    for dataset_name in bench_datasets():
        sizes = [_index_for(dataset_name, k)[0].size_bytes() for k in bench_ks()]
        assert sizes[-1] < sizes[0]
