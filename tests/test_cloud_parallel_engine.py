"""Tests for the batched query engine (ISSUE 1, reduced by ISSUE 14).

Covers: `map_batch`'s plain loop and fork pool (also over a bare
`CloudServer.answer`), `PrivacyPreservingSystem.query_batch` +
`BatchMetrics`, exception propagation, and thread-safety stress tests
of concurrent callers (the gateway's dispatch threads) sharing one
server.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import (
    BatchOutcome,
    MethodConfig,
    PrivacyPreservingSystem,
    QueryOptions,
    SystemConfig,
)
from repro.cloud import CloudServer, fork_available, parallel
from repro.cloud.parallel import (
    PersistentProcessPool,
    effective_workers,
    map_batch,
)
from repro.exceptions import ConfigError, ResultBudgetExceeded
from repro.matching import match_key
from repro.workloads import generate_workload, load_dataset


#: A batch's worker counts: the plain loop, and a fork pool.
WORKERS = (None, 4)


def match_lists(outcomes) -> list[list[tuple]]:
    """Per-query ordered match keys (bit-identity comparison)."""
    return [[match_key(m) for m in outcome.matches] for outcome in outcomes]


@pytest.fixture(scope="module")
def dataset_workload():
    dataset = load_dataset("DBpedia", scale=0.1)
    workload = generate_workload(dataset.graph, 4, 6, seed=7)
    return dataset, workload


def build_system(dataset, workload, **config_kwargs) -> PrivacyPreservingSystem:
    return PrivacyPreservingSystem.setup(
        dataset.graph,
        dataset.schema,
        SystemConfig(k=2, **config_kwargs),
        sample_workload=workload,
    )


class TestPoolHelpers:
    def test_effective_workers_clamps(self, monkeypatch):
        assert effective_workers(8, 3) == 3
        assert effective_workers(2, 100) == 2
        assert effective_workers(0, 5) == 1
        assert effective_workers(4, 1) == 1
        # no count is the plain loop, not a default pool
        assert effective_workers(None, 100) == 1
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        assert effective_workers(8, 3) == 1

    def test_thread_backend_is_gone_at_every_level(self):
        """The backend knob itself is gone: a count is the only setting."""
        with pytest.raises(TypeError):
            QueryOptions(backend="thread")
        with pytest.raises(TypeError):
            SystemConfig(shard_backend="thread")
        with pytest.raises(TypeError):
            map_batch(abs, [1], 2, "process")
        with pytest.raises(ConfigError):
            QueryOptions(workers=0)

    def test_map_batch_preserves_order(self):
        items = list(range(20))
        for workers in WORKERS:
            assert map_batch(lambda x: x * x, items, workers) == [
                x * x for x in items
            ]

    def test_map_batch_propagates_exceptions(self):
        def boom(x):
            if x == 3:
                raise ValueError("task 3 failed")
            return x

        for workers in WORKERS:
            with pytest.raises(ValueError, match="task 3 failed"):
                map_batch(boom, list(range(6)), workers)


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
class TestPersistentProcessPool:
    def test_map_preserves_order_across_calls(self):
        with PersistentProcessPool(lambda x: x * x, 2) as pool:
            assert pool.map(list(range(10))) == [x * x for x in range(10)]
            # the same forked children serve every later call
            assert pool.map([7, 3]) == [49, 9]
            assert not pool.closed

    def test_survives_task_exceptions(self):
        def boom(x):
            if x == 2:
                raise ValueError("task 2 failed")
            return x

        with PersistentProcessPool(boom, 2) as pool:
            with pytest.raises(ValueError, match="task 2 failed"):
                pool.map(list(range(4)))
            # a task exception must not poison the pool
            assert pool.map([0, 1]) == [0, 1]

    def test_close_is_idempotent_and_final(self):
        pool = PersistentProcessPool(lambda x: x, 2)
        assert pool.map([1, 2]) == [1, 2]
        pool.close()
        assert pool.closed
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.map([3])

    def test_close_works_on_a_broken_pool(self):
        pool = PersistentProcessPool(lambda x: x, 2)
        assert pool.map([1, 2]) == [1, 2]
        children = list(pool._pool._processes.values())
        os.kill(children[0].pid, signal.SIGKILL)
        children[0].join(timeout=10)
        with pytest.raises(BrokenProcessPool):
            pool.map([3, 4])
        pool.close()
        assert pool.closed
        assert not any(child.is_alive() for child in children)


class TestParallelStarMatching:
    """The intra-query star pool is gone: one serial star loop remains.

    ``star_workers`` never reached 1.0x on any workload
    (docs/performance.md, "Thread tier"), so the knob was removed at
    every level.
    """

    def test_star_workers_validation(self, figure1_pipeline):
        """The removed knob is rejected wherever it used to be accepted."""
        pipe = figure1_pipeline
        with pytest.raises(TypeError):
            SystemConfig(k=2, star_workers=2)
        with pytest.raises(TypeError):
            QueryOptions(star_workers=2)
        with pytest.raises(TypeError):
            CloudServer(
                pipe.outsourced.graph,
                pipe.transform.avt,
                pipe.outsourced.block_vertices,
                star_workers=2,
            )


class TestCloudQueryBatch:
    def test_backends_match_serial_loop(self, dataset_workload, figure1_pipeline):
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
        )
        queries = [pipe.qo] * 6
        expected = [[match_key(m) for m in server.answer(q).matches] for q in queries]
        for workers in WORKERS:
            answers = map_batch(server.answer, queries, workers)
            assert [[match_key(m) for m in a.matches] for a in answers] == expected
        default = map_batch(server.answer, queries)
        assert [[match_key(m) for m in a.matches] for a in default] == expected

    @pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
    def test_process_backend_matches(self, figure1_pipeline):
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
        )
        queries = [pipe.qo] * 4
        expected = [[match_key(m) for m in server.answer(q).matches] for q in queries]
        answers = map_batch(server.answer, queries, 2)
        assert [[match_key(m) for m in a.matches] for a in answers] == expected

    def test_unknown_backend_rejected(self, figure1_pipeline):
        """No backend is accepted at all: the knob is gone."""
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
        )
        with pytest.raises(TypeError):
            map_batch(server.answer, [pipe.qo], backend="quantum")

    def test_budget_exceeded_propagates_from_batch(self, figure1_pipeline):
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
            max_intermediate_results=0,
        )
        for workers in WORKERS:
            with pytest.raises(ResultBudgetExceeded):
                map_batch(server.answer, [pipe.qo] * 3, workers)

    def test_close_is_idempotent(self, figure1_pipeline):
        pipe = figure1_pipeline
        with CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
        ) as server:
            server.answer(pipe.qo)
        server.close()  # second close must be a no-op


class TestSystemQueryBatch:
    def test_batch_outcome_shape_and_metrics(self, dataset_workload):
        dataset, workload = dataset_workload
        system = build_system(dataset, workload)
        batch = system.query_batch(workload)
        assert isinstance(batch, BatchOutcome)
        assert len(batch.outcomes) == len(workload)
        metrics = batch.metrics
        assert metrics.query_count == len(workload)
        assert metrics.worker_count == 1  # the default: the plain loop
        assert metrics.wall_seconds > 0
        assert metrics.throughput_qps > 0
        assert len(metrics.per_query) == len(workload)
        aggregate = metrics.aggregated()
        assert len(aggregate.runs) == len(workload)

    def test_batch_matches_serial_loop_bit_identical(self, dataset_workload):
        dataset, workload = dataset_workload
        system = build_system(dataset, workload)
        serial = [system.query(q) for q in workload]
        for workers in WORKERS:
            batch = system.query_batch(
                workload, options=QueryOptions(workers=workers)
            )
            assert match_lists(batch.outcomes) == match_lists(serial)
            # submission order: per-query metrics line up with the inputs
            for query, outcome in zip(workload, batch.outcomes):
                assert outcome.metrics.query_edges == query.edge_count

    @pytest.mark.parametrize("method", ["EFF", "BAS"])
    def test_methods_agree_across_backends(self, dataset_workload, method):
        dataset, workload = dataset_workload
        system = PrivacyPreservingSystem.setup(
            dataset.graph,
            dataset.schema,
            SystemConfig(k=2, method=MethodConfig.from_name(method)),
            sample_workload=workload,
        )
        expected = match_lists(system.query_batch(workload).outcomes)
        forked = system.query_batch(workload, options=QueryOptions(workers=3))
        assert match_lists(forked.outcomes) == expected

    def test_limit_is_honored_in_batches(self, dataset_workload):
        dataset, workload = dataset_workload
        system = build_system(dataset, workload)
        batch = system.query_batch(
            workload, options=QueryOptions(workers=2, max_results=1)
        )
        for outcome in batch.outcomes:
            assert len(outcome.matches) <= 1

    def test_empty_batch(self, dataset_workload):
        dataset, workload = dataset_workload
        system = build_system(dataset, workload)
        batch = system.query_batch([])
        assert batch.outcomes == []
        assert batch.metrics.query_count == 0
        assert batch.metrics.throughput_qps == 0.0


class TestSharedServerStress:
    """Concurrent queries hammering one server must be deterministic."""

    def test_stress_batches_are_deterministic(self, dataset_workload):
        """Raw threads through ``system.query``: every thread must see
        the serial loop's matches."""
        dataset, workload = dataset_workload
        system = build_system(dataset, workload)
        stress = (workload * 3)[: max(12, len(workload))]
        reference = match_lists(system.query_batch(stress).outcomes)
        diverged: list[int] = []
        barrier = threading.Barrier(4)

        def worker(thread_id: int) -> None:
            barrier.wait()
            got = match_lists([system.query(query) for query in stress])
            if got != reference:  # pragma: no cover - failure path
                diverged.append(thread_id)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        # at the default 5 ms switch interval one thread can run most of
        # the list alone; a short one interleaves the queries' phases
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(switch_interval)
        assert not diverged

    def test_raw_threads_share_one_server(self, figure1_pipeline):
        """Belt and braces: hand-rolled threads, no pool abstraction."""
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
        )
        expected = [match_key(m) for m in server.answer(pipe.qo).matches]
        errors: list[str] = []
        barrier = threading.Barrier(4)

        def worker() -> None:
            barrier.wait()
            for _ in range(10):
                got = [match_key(m) for m in server.answer(pipe.qo).matches]
                if got != expected:  # pragma: no cover - failure path
                    errors.append("diverged")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
