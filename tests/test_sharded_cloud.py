"""Equivalence suite: the sharded cloud is bit-identical to one server.

``ShardedCloud`` splits the positions of its one VBV/LBV index into N
contiguous ranges of candidate centers and scatter-gathers the stars
its one star cache lacks over them.  These tests pin its core contract
— for every shard count and scatter backend, :meth:`ShardedCloud.answer`
returns exactly what :meth:`CloudServer.answer` returns: same table
schema, same rows, same row order, same per-star result sizes, same
budget trips.  The range invariants (exact, ascending, non-empty
cover; a shard's table is the single server's rows in its range) and
the cache/telemetry surfaces are covered alongside.
"""

from __future__ import annotations

import os
import signal
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud import (
    CloudServer,
    ShardedCloud,
    center_ranges,
    decompose_query,
    fork_available,
)
from repro.cloud.parallel import BACKENDS, map_batch
from repro.cloud.sharding import match_range
from repro.core.config import SystemConfig
from repro.core.options import QueryOptions
from repro.core.system import PrivacyPreservingSystem
from repro.exceptions import ConfigError, QueryError, ResultBudgetExceeded
from repro.graph import make_schema, random_attributed_graph
from repro.kauto import build_k_automorphic_graph
from repro.kauto.dynamic import DynamicRelease
from repro.matching import vec
from repro.obs import NULL_SPAN, Observability
from repro.outsource import build_outsourced_graph
from repro.workloads import generate_workload, load_dataset, random_walk_query

EQUIV = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

PARAMS = dict(
    seed=st.integers(0, 10_000),
    n=st.integers(16, 40),
    k=st.integers(2, 4),
    edges=st.integers(1, 4),
)


def deployment(seed: int, n: int, k: int, edges: int) -> SimpleNamespace:
    """A random outsourced deployment plus a random query over it."""
    schema = make_schema(2, 1, 4)
    graph = random_attributed_graph(schema, n, edges_per_vertex=2, seed=seed)
    query = random_walk_query(graph, edges, seed=seed + 1)
    transform = build_k_automorphic_graph(graph, k, seed=seed)
    outsourced = build_outsourced_graph(transform.gk, transform.avt)
    return SimpleNamespace(
        query=query, avt=transform.avt, outsourced=outsourced
    )


def single_server(dep: SimpleNamespace, **kwargs) -> CloudServer:
    return CloudServer(
        dep.outsourced.graph,
        dep.avt,
        dep.outsourced.block_vertices,
        **kwargs,
    )


def sharded(dep: SimpleNamespace, shards: int, **kwargs) -> ShardedCloud:
    return ShardedCloud(
        dep.outsourced.graph,
        dep.avt,
        dep.outsourced.block_vertices,
        shards=shards,
        **kwargs,
    )


def assert_answers_identical(reference, candidate) -> None:
    """Bitwise answer equality: table, order, and telemetry sizes."""
    assert candidate.table.schema == reference.table.schema
    assert candidate.table.rows == reference.table.rows
    assert candidate.expanded == reference.expanded
    assert (
        candidate.star_stats.result_sizes == reference.star_stats.result_sizes
    )
    assert candidate.join_stats.rin_size == reference.join_stats.rin_size


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    @EQUIV
    @given(**PARAMS)
    def test_answer_matches_single_server(self, shards, seed, n, k, edges):
        dep = deployment(seed, n, k, edges)
        reference = single_server(dep).answer(dep.query)
        cloud = sharded(dep, shards, backend="serial")
        assert_answers_identical(reference, cloud.answer(dep.query))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_identical(self, backend):
        dep = deployment(7, 40, 2, 3)
        reference = single_server(dep).answer(dep.query)
        with sharded(dep, 4, backend=backend) as cloud:
            assert_answers_identical(reference, cloud.answer(dep.query))

    def test_query_batch_matches_serial_answers(self):
        dep = deployment(5, 32, 2, 2)
        queries = [dep.query] * 3
        cloud = sharded(dep, 2)
        serial = [cloud.answer(query) for query in queries]
        for backend in BACKENDS:
            batched = map_batch(cloud.answer, queries, backend=backend)
            for one, other in zip(serial, batched):
                assert_answers_identical(one, other)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_telemetry_fields_equal_single_server(self, shards):
        """The inherited answer body reports what the single server does."""
        dep = deployment(7, 40, 2, 3)
        reference = single_server(dep).answer(dep.query)
        answer = sharded(dep, shards).answer(dep.query)
        assert answer.rs_size == reference.rs_size
        assert answer.expanded == reference.expanded
        assert answer.decomposition == reference.decomposition
        # everything Algorithm 2 reports but its wall time
        assert replace(answer.join_stats, seconds=0.0) == replace(
            reference.join_stats, seconds=0.0
        )


#: Vector arms of the join (star matching itself is arm-free).
ARMS = ("rows",) + (("numpy",) if vec.HAVE_NUMPY else ())


def _published(seed: int, n: int, k: int, edges: int):
    """A published system, its graph and an anonymized query over it."""
    schema = make_schema(2, 1, 2)
    graph = random_attributed_graph(schema, n, edges_per_vertex=2, seed=seed)
    system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=k, seed=seed))
    try:
        query = random_walk_query(graph, edges, seed + 1, keep_label_probability=0.5)
    except QueryError:
        query = random_walk_query(graph, 1, seed + 1)
    return system, graph, system.client.prepare_query(query)


def _one_edge_delta(system, graph):
    """The ``Go`` delta of one inserted edge."""
    release = DynamicRelease(
        graph.copy(), system.published.transform, system.published.lct
    )
    vertices = sorted(release.original.vertex_ids())
    u, v = next(
        (u, v)
        for u in vertices
        for v in vertices
        if u < v and not release.original.has_edge(u, v)
    )
    return release.go_delta(release.insert_edge(u, v))


class TestShardStructure:
    @given(count=st.integers(0, 200), shards=st.integers(1, 8))
    def test_ranges_cover_every_position_once(self, count, shards):
        ranges = center_ranges(count, shards)
        assert len(ranges) == min(count, shards)
        assert all(len(r) > 0 for r in ranges)
        # with no range empty, this is: contiguous, ascending, every
        # position exactly once
        assert [p for r in ranges for p in r] == list(range(count))
        # near-equal sizes
        assert max(map(len, ranges), default=0) - min(map(len, ranges), default=0) <= 1

    def test_centers_partition_exactly(self):
        dep = deployment(13, 36, 3, 2)
        centers = dep.outsourced.block_vertices
        with sharded(dep, 3) as cloud:
            seen = [cloud.index.indexed_vertices[p] for r in cloud.shards for p in r]
            assert len(cloud.shards) == 3
        # every center in exactly one shard, in the global order
        assert seen == list(centers)

    def test_fewer_centers_than_shards(self):
        dep = deployment(19, 30, 2, 2)
        few = dep.outsourced.block_vertices[:2]
        reference = CloudServer(dep.outsourced.graph, dep.avt, few)
        with ShardedCloud(dep.outsourced.graph, dep.avt, few, shards=4) as cloud:
            assert cloud.shards == [range(0, 1), range(1, 2)]
            assert_answers_identical(
                reference.answer(dep.query), cloud.answer(dep.query)
            )

    def test_single_shard_holds_all_centers(self):
        dep = deployment(19, 30, 2, 2)
        with sharded(dep, 1) as cloud:
            assert cloud.shards == [range(len(dep.outsourced.block_vertices))]

    def test_one_index_for_every_topology(self):
        dep = deployment(31, 30, 2, 2)
        reference = single_server(dep)
        for shards in (2, 4):
            with sharded(dep, shards) as cloud:
                assert cloud.index_size_bytes() == reference.index_size_bytes()
                assert cloud.index.indexed_vertices == reference.index.indexed_vertices

    def test_rejects_zero_shards(self):
        dep = deployment(1, 20, 2, 1)
        with pytest.raises(ValueError):
            sharded(dep, 0)
        with pytest.raises(ValueError):
            center_ranges(10, 0)

    @pytest.mark.parametrize("arm", ARMS)
    @EQUIV
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(12, 48),
        k=st.integers(2, 4),
        edges=st.integers(1, 4),
        shards=st.integers(1, 4),
    )
    def test_a_shard_table_is_the_single_servers_rows_in_its_range(
        self, arm, seed, n, k, edges, shards
    ):
        """Before and after a delta: every shard's star table is the
        single server's, restricted to centers at its positions, and the
        gathered answer is the single server's."""
        with vec.override(arm):
            system, graph, qo = _published(seed, n, k, edges)
            reference = system.cloud
            cloud = ShardedCloud(
                reference.graph.copy(),
                reference.avt,
                reference.center_vertices,
                shards=shards,
            )
            with reference, cloud:
                for step in ("before", "after"):
                    if step == "after":
                        delta = _one_edge_delta(system, graph)
                        reference.apply_delta(delta)
                        cloud.apply_delta(delta)
                    stars = decompose_query(qo, reference.estimator).stars
                    single = reference._match_stars(
                        qo, stars, reference.obs, NULL_SPAN
                    )
                    position = reference.index.position
                    for centers in cloud.shards:
                        tables = match_range(
                            qo, stars, cloud.index, cloud.graph, centers, None
                        )
                        for star in stars:
                            assert tables[star.center].schema == single[star.center].schema
                            assert tables[star.center].rows == [
                                row
                                for row in single[star.center].rows
                                if position[row[0]] in centers
                            ]
                    assert_answers_identical(reference.answer(qo), cloud.answer(qo))


class TestBudgetParity:
    @EQUIV
    @given(**PARAMS)
    def test_budget_trips_exactly_when_single_server_trips(
        self, seed, n, k, edges
    ):
        dep = deployment(seed, n, k, edges)
        budget = 5
        reference = single_server(dep, max_intermediate_results=budget)
        cloud = sharded(dep, 2, max_intermediate_results=budget)
        try:
            expected = reference.answer(dep.query)
        except ResultBudgetExceeded:
            with pytest.raises(ResultBudgetExceeded):
                cloud.answer(dep.query)
        else:
            assert_answers_identical(expected, cloud.answer(dep.query))


class TestCacheAndTelemetry:
    def test_cache_counters_aggregate_across_shards(self):
        dep = deployment(23, 36, 2, 3)
        cloud = sharded(dep, 3, star_cache_size=64)
        first = cloud.answer(dep.query)
        hits_after_first, misses_after_first = cloud.star_cache.counters()
        assert misses_after_first > 0
        second = cloud.answer(dep.query)
        hits_after_second, misses_after_second = cloud.star_cache.counters()
        # the repeat resolves entirely from the coordinator's cache
        assert misses_after_second == misses_after_first
        assert hits_after_second > hits_after_first
        assert_answers_identical(first, second)
        assert len(cloud.star_cache) > 0
        assert 0.0 < cloud.star_cache.hit_rate <= 1.0
        cloud.star_cache.clear()
        assert len(cloud.star_cache) == 0

    def test_cached_answers_stay_identical_to_single_server(self):
        dep = deployment(29, 32, 2, 3)
        reference = single_server(dep).answer(dep.query)
        cloud = sharded(dep, 2, star_cache_size=64)
        assert_answers_identical(reference, cloud.answer(dep.query))
        assert_answers_identical(reference, cloud.answer(dep.query))

    def test_one_cache_surface_for_every_topology(self):
        """Counters and EXPLAIN's cache line read alike at shards 1,
        2-serial and 2-process; a repeated query hits every star and
        scatters nothing."""
        dataset = load_dataset("DBpedia", scale=0.25, seed=3)
        workload = generate_workload(dataset.graph, 4, 6, seed=5)
        counters = []
        for shards, backend in ((1, "serial"), (2, "serial"), (2, "process")):
            system = PrivacyPreservingSystem.setup(
                dataset.graph,
                dataset.schema,
                SystemConfig(
                    k=3, star_cache_size=64, shards=shards, shard_backend=backend
                ),
                obs=Observability(),
            )
            with system.cloud as cloud:
                if shards > 1:
                    cloud.max_workers = 2  # a one-core host would loop
                for repeat in range(3):
                    for query in workload:
                        report = system.query(
                            query, options=QueryOptions(explain=True)
                        ).explain
                        assert report.cache_hits + report.cache_misses == report.stars
                        if repeat:
                            assert report.cache_hits == report.stars
                            assert report.per_shard == [] and report.shards == 0
                        elif report.cache_misses and shards > 1:
                            assert report.shards == len(cloud.shards)
                counters.append(cloud.star_cache.counters())
                if backend == "process" and fork_available():
                    assert cloud._scatter_pool is not None
        assert counters[0][0] > 0
        assert counters == [counters[0]] * 3


class TestSystemPlumbing:
    def test_system_setup_deploys_sharded_cloud(self):
        schema = make_schema(2, 1, 4)
        graph = random_attributed_graph(schema, 36, edges_per_vertex=2, seed=3)
        queries = [random_walk_query(graph, 2, seed=s) for s in (10, 11)]
        base = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        shard = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2, shards=3)
        )
        assert isinstance(shard.cloud, ShardedCloud)
        for query in queries:
            expected = base.query(query)
            got = shard.query(query)
            key = lambda matches: sorted(
                tuple(sorted(m.items())) for m in matches
            )
            assert key(got.matches) == key(expected.matches)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(shards=0)
        with pytest.raises(ConfigError):
            SystemConfig(shards=True)
        with pytest.raises(ConfigError):
            SystemConfig(shard_backend="gpu")
        with pytest.raises(ConfigError, match="'serial' or 'process'"):
            SystemConfig(shard_backend="thread")
        assert SystemConfig(shards=4, shard_backend="process").shards == 4

    def test_config_backends_stay_in_sync_with_parallel(self):
        from repro.cloud.parallel import BACKENDS, map_batch

        # config validates against a literal tuple to avoid importing
        # the cloud package; this pin keeps the two lists in lockstep.
        for backend in BACKENDS:
            assert SystemConfig(shard_backend=backend)


class TestDeltaParity:
    def test_apply_delta_rebuilds_shards(self):
        from repro.anonymize import (
            anonymize_query,
            build_lct,
            cost_based_grouping,
        )
        from repro.graph import compute_statistics, example_social_network
        from repro.kauto.dynamic import DynamicRelease

        graph, schema = example_social_network()
        lct = build_lct(
            schema,
            2,
            cost_based_grouping,
            graph_stats=compute_statistics(graph),
            seed=2,
        )
        transform = build_k_automorphic_graph(
            lct.apply_to_graph(graph), 2, seed=1
        )
        release = DynamicRelease(graph.copy(), transform, lct)
        outsourced = release.refresh_outsourced()
        reference = CloudServer(
            outsourced.graph.copy(),
            release.avt,
            list(outsourced.block_vertices),
        )
        cloud = ShardedCloud(
            outsourced.graph.copy(),
            release.avt,
            list(outsourced.block_vertices),
            shards=2,
        )
        delta = release.go_delta(release.insert_edge(0, 5))
        reference.apply_delta(delta)
        cloud.apply_delta(delta)
        query = random_walk_query(graph, 2, seed=5)
        anonymized = anonymize_query(query, release.lct)
        assert_answers_identical(
            reference.answer(anonymized), cloud.answer(anonymized)
        )


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
class TestPersistentScatterPool:
    """The process backend's warm fork pool: reuse, staleness, teardown."""

    def test_pool_forked_once_and_reused(self):
        dep = deployment(7, 40, 2, 3)
        reference = single_server(dep).answer(dep.query)
        with sharded(dep, 4, backend="process") as cloud:
            assert cloud._scatter_pool is None  # forked lazily
            assert_answers_identical(reference, cloud.answer(dep.query))
            pool = cloud._scatter_pool
            assert pool is not None and not pool.closed
            assert_answers_identical(reference, cloud.answer(dep.query))
            assert cloud._scatter_pool is pool
        assert pool.closed

    def test_serial_backend_never_forks(self):
        dep = deployment(7, 32, 2, 2)
        with sharded(dep, 2, backend="serial") as cloud:
            cloud.answer(dep.query)
            assert cloud._scatter_pool is None

    def test_killed_child_is_survived_and_replaced(self):
        """A dead fork child must not brick the deployment."""
        dep = deployment(7, 40, 2, 3)
        reference = single_server(dep).answer(dep.query)
        cloud = sharded(dep, 4, backend="process")
        try:
            assert_answers_identical(reference, cloud.answer(dep.query))
            broken = cloud._scatter_pool
            children = list(broken._pool._processes.values())
            os.kill(children[0].pid, signal.SIGKILL)
            children[0].join(timeout=10)
            # the answer that meets the broken pool is still served —
            # through the serial scatter — and the pool is dropped
            assert_answers_identical(reference, cloud.answer(dep.query))
            assert broken.closed
            assert cloud._scatter_pool is None
            # the next one forks a fresh pool and runs on it
            assert_answers_identical(reference, cloud.answer(dep.query))
            fresh = cloud._scatter_pool
            assert fresh is not None and not fresh.closed
            children += list(fresh._pool._processes.values())
        finally:
            cloud.close()
        assert not any(child.is_alive() for child in children)

    @pytest.mark.parametrize("arm", ARMS)
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_process_scatter_before_and_after_a_delta(self, arm, shards):
        with vec.override(arm):
            system, graph, qo = _published(11, 40, 2, 3)
            reference = system.cloud
            cloud = ShardedCloud(
                reference.graph.copy(),
                reference.avt,
                reference.center_vertices,
                shards=shards,
                backend="process",
                max_workers=2,  # fork even on a one-core host
            )
            with reference, cloud:
                assert_answers_identical(reference.answer(qo), cloud.answer(qo))
                assert cloud._scatter_pool is not None
                delta = _one_edge_delta(system, graph)
                reference.apply_delta(delta)
                cloud.apply_delta(delta)
                assert_answers_identical(reference.answer(qo), cloud.answer(qo))

    def test_apply_delta_replaces_stale_pool(self):
        from repro.anonymize import (
            anonymize_query,
            build_lct,
            cost_based_grouping,
        )
        from repro.graph import compute_statistics, example_social_network
        from repro.kauto.dynamic import DynamicRelease

        graph, schema = example_social_network()
        lct = build_lct(
            schema,
            2,
            cost_based_grouping,
            graph_stats=compute_statistics(graph),
            seed=2,
        )
        transform = build_k_automorphic_graph(
            lct.apply_to_graph(graph), 2, seed=1
        )
        release = DynamicRelease(graph.copy(), transform, lct)
        outsourced = release.refresh_outsourced()
        reference = CloudServer(
            outsourced.graph.copy(),
            release.avt,
            list(outsourced.block_vertices),
        )
        query = anonymize_query(
            random_walk_query(graph, 2, seed=5), release.lct
        )
        with ShardedCloud(
            outsourced.graph.copy(),
            release.avt,
            list(outsourced.block_vertices),
            shards=2,
            backend="process",
        ) as cloud:
            assert_answers_identical(
                reference.answer(query), cloud.answer(query)
            )
            stale = cloud._scatter_pool
            delta = release.go_delta(release.insert_edge(0, 5))
            reference.apply_delta(delta)
            cloud.apply_delta(delta)
            # the pre-delta children hold the old graph copy-on-write;
            # the pool must be drained and re-forked on the next answer
            assert stale is None or stale.closed
            assert cloud._scatter_pool is None
            assert_answers_identical(
                reference.answer(query), cloud.answer(query)
            )
