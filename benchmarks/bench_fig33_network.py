"""Figure 33: network overhead of shipping candidate results.

Paper shape: the optimized methods transmit Rin — a 1/k-size subset of
R(Qo, Gk) — so EFF's transmission cost is well below BAS's, which
ships the fully expanded candidate set; bytes grow with k and |E(Q)|.
"""

from conftest import METHODS, bench_datasets

from repro.bench import format_table, ms, print_report

CELLS = [(2, 6), (2, 12), (3, 6), (3, 12), (5, 6), (5, 12)]


def test_answer_encoding(benchmark, sweep):
    """Timed cell: serializing one answer for the wire."""
    from repro.core.protocol import encode_answer_table

    system = sweep.system("Web-NotreDame", "EFF", 3)
    query = sweep.context("Web-NotreDame").workload(6, 1)[0]
    answer = system.cloud.answer(system.client.prepare_query(query))
    order = sorted(query.vertex_ids())

    payload = benchmark(
        lambda: encode_answer_table(answer.table, order, answer.expanded)
    )
    assert len(payload) > 0


def test_report_fig33_network_overhead(benchmark, sweep):
    def run() -> str:
        headers = ["dataset", "method"] + [f"k={k},|E(Q)|={s}" for k, s in CELLS]
        byte_rows, time_rows = [], []
        for dataset_name in bench_datasets():
            for method in METHODS:
                byte_row = [dataset_name, method]
                time_row = [dataset_name, method]
                for k, size in CELLS:
                    cell = sweep.cell(dataset_name, method, k, size)
                    byte_row.append(round(cell.answer_bytes))
                    time_row.append(ms(cell.network_seconds))
                byte_rows.append(byte_row)
                time_rows.append(time_row)
        return (
            format_table(headers, byte_rows, title="[Figure 33a] answer bytes")
            + "\n\n"
            + format_table(
                headers, time_rows, title="[Figure 33b] network transmission time (ms)"
            )
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(report)

    # shape: EFF ships fewer answer bytes than BAS whenever candidates
    # exist — compared only on uncensored grids (a budget-skipped query
    # removes a method's heaviest answer and voids the comparison)
    from conftest import cells_clean

    keys = [(d, m, k, s) for d in bench_datasets() for m in METHODS for k, s in CELLS]
    if cells_clean(sweep, keys):
        for dataset_name in bench_datasets():
            eff = sum(
                sweep.cell(dataset_name, "EFF", k, s).answer_bytes for k, s in CELLS
            )
            bas = sum(
                sweep.cell(dataset_name, "BAS", k, s).answer_bytes for k, s in CELLS
            )
            assert eff <= bas
