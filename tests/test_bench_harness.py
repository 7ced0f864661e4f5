"""Unit tests for the benchmark harness (reporting + runner)."""

import pytest

from repro.bench import (
    ExperimentContext,
    bench_query_count,
    bench_scale,
    format_series,
    format_table,
    ms,
)
from repro.obs import names
from repro.obs.views import AggregatedMetrics, QueryMetrics
from repro.workloads import load_dataset


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbbb"], [[1, 2.5], [30, 0.001]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "bbbb" in lines[1]
        # all rows same width
        assert len({len(line) for line in lines[1:]}) == 1

    def test_format_series_layout(self):
        text = format_series("fig", "k", [2, 3], {"EFF": [1.0, 2.0], "BAS": [3.0, 4.0]})
        assert "EFF" in text and "BAS" in text
        # title + header + rule + 2 data rows = 5 lines
        assert len(text.splitlines()) == 5

    def test_float_formatting(self):
        table = format_table(["x"], [[0.0], [123456.0], [0.1234567], [12.3]])
        assert "0" in table
        assert "123,456" in table
        assert "0.1235" in table
        assert "12.30" in table

    def test_ms_conversion(self):
        assert ms(1.5) == 1500.0


class TestAggregatedMetrics:
    def test_means(self):
        agg = AggregatedMetrics()
        for cloud, client, rs_size in ((1.0, 0.2, 10), (3.0, 0.4, 20)):
            phases = {names.CLOUD_ANSWER: cloud, names.CLIENT_FILTER: client}
            agg.add(QueryMetrics(phases=phases, rs_size=rs_size))
        assert agg.cloud_seconds == pytest.approx(2.0)
        assert agg.client_seconds == pytest.approx(0.3)
        assert agg.rs_size == pytest.approx(15.0)

    def test_empty_aggregate(self):
        agg = AggregatedMetrics()
        assert agg.cloud_seconds == 0.0
        assert agg.total_seconds == 0.0


class TestRunner:
    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        monkeypatch.setenv("REPRO_BENCH_QUERIES", "7")
        assert bench_scale() == 0.5
        assert bench_query_count() == 7

    def test_env_knobs_malformed_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "lots")
        monkeypatch.setenv("REPRO_BENCH_QUERIES", "many")
        assert bench_scale(0.3) == 0.3
        assert bench_query_count(9) == 9

    def test_context_caches_systems(self):
        context = ExperimentContext(dataset=load_dataset("DBpedia", scale=0.05))
        first = context.system("EFF", 2)
        second = context.system("EFF", 2)
        assert first is second
        other = context.system("RAN", 2)
        assert other is not first

    def test_context_runs_cells(self):
        context = ExperimentContext(dataset=load_dataset("DBpedia", scale=0.08))
        aggregate = context.run("EFF", 2, 3, query_count=3)
        assert len(aggregate.runs) + aggregate.skipped == 3
        assert aggregate.cloud_seconds >= 0.0

    def test_workload_is_cached_and_sized(self):
        context = ExperimentContext(dataset=load_dataset("DBpedia", scale=0.08))
        first = context.workload(4, 3)
        again = context.workload(4, 3)
        assert [q.edge_count for q in first] == [4, 4, 4]
        assert first == again[: len(first)]

    def test_budget_exceeding_queries_are_counted_as_skipped(self, monkeypatch):
        """A query over budget is skipped, not fatal, in the runner."""
        import repro.bench.runner as runner_module

        monkeypatch.setattr(runner_module, "BENCH_RESULT_BUDGET", 0)
        context = ExperimentContext(dataset=load_dataset("DBpedia", scale=0.08))
        aggregate = context.run("EFF", 2, 4, query_count=3)
        # every query matches its own source, so a zero budget trips always
        assert aggregate.skipped == 3
        assert aggregate.runs == []
