"""Figure 18 (+ Figure 31): star matching time.

Paper shape: the star matching phase itself is fast (milliseconds);
EFF produces the fastest star matching of the Go-based methods because
its label groups are the most selective; time rises with k and |E(Q)|.
"""

from conftest import GO_METHODS, bench_datasets

from repro.bench import format_table, ms, print_report

CELLS = [(3, 6), (3, 12), (5, 6), (5, 12)]  # (k, |E(Q)|) as in the paper


def test_star_matching_phase_k3_e6(benchmark, sweep):
    """Timed cell: the star matching phase alone."""
    from repro.cloud import match_star_table
    from repro.cloud.decomposition import decompose_query

    system = sweep.system("Web-NotreDame", "EFF", 3)
    query = sweep.context("Web-NotreDame").workload(6, 1)[0]
    anonymized = system.client.prepare_query(query)
    decomposition = decompose_query(anonymized, system.cloud.estimator)

    def run():
        return [
            match_star_table(
                anonymized, star, system.cloud.index, system.cloud.graph
            )
            for star in decomposition.stars
        ]

    tables = benchmark(run)
    assert len(tables) == len(decomposition.stars)


def test_report_fig18_star_matching_time(benchmark, sweep):
    def run() -> str:
        headers = ["dataset", "method"] + [f"k={k},|E(Q)|={s}" for k, s in CELLS]
        rows = []
        for dataset_name in bench_datasets():
            for method in GO_METHODS:
                row = [dataset_name, method]
                for k, size in CELLS:
                    cell = sweep.cell(dataset_name, method, k, size)
                    row.append(ms(cell.star_matching_seconds))
                rows.append(row)
        return format_table(
            headers, rows, title="[Figure 18] star matching time (ms)"
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(report)

    # shape: EFF's star matching is no slower than FSIM's on aggregate
    from conftest import cells_clean

    keys = [
        (d, m, k, s) for d in bench_datasets() for m in GO_METHODS for k, s in CELLS
    ]
    if cells_clean(sweep, keys):
        eff = sum(
            sweep.cell(d, "EFF", k, s).star_matching_seconds
            for d in bench_datasets()
            for k, s in CELLS
        )
        fsim = sum(
            sweep.cell(d, "FSIM", k, s).star_matching_seconds
            for d in bench_datasets()
            for k, s in CELLS
        )
        assert eff <= fsim * 1.25
