"""Figures 20/21/27: client-side processing time.

Paper shape: client time is orders of magnitude below cloud time and
scales gently with |E(Q)| and k.  EFF beats RAN and FSIM (fewer
candidates to expand/filter); BAS is slightly *better* than EFF at the
client because the cloud already expanded everything — the price is
paid in communication instead (Figure 33).
"""

from conftest import METHODS, bench_datasets, bench_ks, bench_sizes

from repro.bench import format_series, ms, print_report


def test_client_phase_k3_e6(benchmark, sweep):
    """Timed cell: expansion + filtering for one answer."""
    system = sweep.system("Web-NotreDame", "EFF", 3)
    query = sweep.context("Web-NotreDame").workload(6, 1)[0]
    outcome = system.query(query)
    answer = system.cloud.answer(system.client.prepare_query(query))

    def run():
        return system.client.process_answer(query, answer.table, answer.expanded)

    result = benchmark(run)
    assert len(result.matches) == outcome.metrics.result_count


def test_report_fig20_client_time_vs_size(benchmark, sweep):
    def run() -> str:
        blocks = []
        for dataset_name in bench_datasets():
            series = {
                method: [
                    ms(sweep.cell(dataset_name, method, 3, size).client_seconds)
                    for size in bench_sizes()
                ]
                for method in METHODS
            }
            blocks.append(
                format_series(
                    f"[Figure 20a] client time (ms) vs |E(Q)| — {dataset_name}, k=3",
                    "|E(Q)|",
                    bench_sizes(),
                    series,
                )
            )
            series_k = {
                method: [
                    ms(sweep.cell(dataset_name, method, k, 6).client_seconds)
                    for k in bench_ks()
                ]
                for method in METHODS
            }
            blocks.append(
                format_series(
                    f"[Figure 20b] client time (ms) vs k — {dataset_name}, |E(Q)|=6",
                    "k",
                    bench_ks(),
                    series_k,
                )
            )
        return "\n\n".join(blocks)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(report)

    # shape: client time is small next to cloud time for every method
    from conftest import cells_clean

    for dataset_name in bench_datasets():
        for method in METHODS:
            cell = sweep.cell(dataset_name, method, 3, 6)
            assert cell.client_seconds <= cell.cloud_seconds * 2 + 0.005
    # EFF's client work <= FSIM's (fewer candidates), on aggregate
    keys = [
        (d, m, 3, s) for d in bench_datasets() for m in METHODS for s in bench_sizes()
    ]
    if cells_clean(sweep, keys):
        eff = sum(
            sweep.cell(d, "EFF", 3, s).client_seconds
            for d in bench_datasets()
            for s in bench_sizes()
        )
        fsim = sum(
            sweep.cell(d, "FSIM", 3, s).client_seconds
            for d in bench_datasets()
            for s in bench_sizes()
        )
        assert eff <= fsim * 1.5 + 0.005
