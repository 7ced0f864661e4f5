"""Equivalence suite: a sharded cloud is bit-identical to one server.

``CloudServer(shards=N)`` splits the positions of its one VBV/LBV index
into N contiguous ranges of candidate centers and scatters the stars
its one star cache lacks over them through a warm fork pool.  These
tests pin its core contract — for every shard count, on the fork path
and on its fallbacks, a sharded answer is exactly the single server's:
same table schema, same rows, same row order, same per-star result
sizes, same budget trips.  The range invariants (exact, ascending,
non-empty cover; a shard's table is the single server's rows in its
range) and the cache/telemetry surfaces are covered alongside.

No hypothesis example forks: the properties run the scatter inline
(:func:`gathered`, :func:`scattered_inline`) — ``match_range`` over
each range, concatenated by the server's own gather, which is what the
fork children compute.  The fork path itself has the fixed examples of
:class:`TestPersistentScatterPool` and ``TestBitIdentity``.
"""

from __future__ import annotations

import os
import signal
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud import (
    CloudServer,
    center_ranges,
    decompose_query,
    fork_available,
    parallel,
)
from repro.cloud.parallel import map_batch
from repro.cloud.sharding import match_range
from repro.cloud.star_matching import match_plan
from repro.core.config import SystemConfig
from repro.core.system import PrivacyPreservingSystem
from repro.exceptions import ConfigError, QueryError, ResultBudgetExceeded
from repro.graph import make_schema, random_attributed_graph
from repro.kauto import build_k_automorphic_graph
from repro.kauto.dynamic import DynamicRelease
from repro.matching import vec
from repro.obs import NULL_SPAN, NULL_TRACER, Observability
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


def sharded(dep: SimpleNamespace, shards: int, **kwargs) -> CloudServer:
    return single_server(dep, shards=shards, **kwargs)


def gathered(cloud: CloudServer, query, stars, shards: int):
    """What a ``shards``-way scatter over ``cloud`` gathers, run inline.

    :func:`match_range` over each of :func:`center_ranges`, as the fork
    children compute it, concatenated by the server's own gather.
    """
    budget = cloud.max_intermediate_results
    per_shard = [
        match_range(query, stars, cloud.index, cloud.graph, centers, budget)
        for centers in center_ranges(len(cloud.index.indexed_vertices), shards)
    ]
    return cloud._gather(stars, per_shard, Observability.disabled())


def scattered_inline(cloud: CloudServer, shards: int) -> CloudServer:
    """``cloud`` with its star stage replaced by :func:`gathered`: whole
    answers of a ``shards``-way scatter, without forking."""
    cloud._match_stars = lambda query, stars, obs, span: gathered(
        cloud, query, stars, shards
    )
    return cloud


def assert_ranges_are_the_single_server(cloud: CloudServer, query, stars) -> None:
    """At 1–4 shards, the ranges' tables concatenate to the single
    server's, rows and order."""
    single = match_plan(query, stars, cloud.index, cloud.graph, None, NULL_TRACER)
    expected = [(single[s.center].schema, single[s.center].rows) for s in stars]
    for shards in range(1, 5):
        tables = gathered(cloud, query, stars, shards)
        assert [(tables[s.center].schema, tables[s.center].rows) for s in stars] == expected


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
        cloud = scattered_inline(single_server(dep), shards)
        assert_answers_identical(reference, cloud.answer(dep.query))

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_every_backend_identical(self, backend, monkeypatch):
        """The fork scatter ("process") and its fallback on a platform
        without fork ("serial") answer alike."""
        if backend == "serial":
            monkeypatch.setattr(parallel, "fork_available", lambda: False)
        elif not fork_available():
            pytest.skip("fork start method required")
        dep = deployment(7, 40, 2, 3)
        reference = single_server(dep).answer(dep.query)
        with sharded(dep, 4) as cloud:
            assert_answers_identical(reference, cloud.answer(dep.query))
            assert (cloud._scatter_pool is not None) == (backend == "process")

    def test_query_batch_matches_serial_answers(self):
        """A forked batch over a sharded cloud: each batch worker answers
        through the single-server loop (only the process that built the
        cloud scatters), bit-identically."""
        dep = deployment(5, 32, 2, 2)
        queries = [dep.query] * 3
        with sharded(dep, 2) as cloud:
            serial = [cloud.answer(query) for query in queries]
            for workers in (None, 2):
                batched = map_batch(cloud.answer, queries, workers)
                for one, other in zip(serial, batched):
                    assert_answers_identical(one, other)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_telemetry_fields_equal_single_server(self, shards):
        """A sharded answer reports what the single server does."""
        dep = deployment(7, 40, 2, 3)
        reference = single_server(dep).answer(dep.query)
        with sharded(dep, shards) as cloud:
            answer = cloud.answer(dep.query)
        assert answer.rs_size == reference.rs_size
        assert answer.expanded == reference.expanded
        assert answer.decomposition == reference.decomposition
        assert answer.join_stats == reference.join_stats


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
        with CloudServer(dep.outsourced.graph, dep.avt, few, shards=4) as cloud:
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
        ranges at 1–4 shards concatenate to the single server's."""
        with vec.override(arm):
            system, graph, qo = _published(seed, n, k, edges)
            cloud = system.cloud
            for step in ("before", "after"):
                if step == "after":
                    cloud.apply_delta(_one_edge_delta(system, graph))
                stars = decompose_query(qo, cloud.estimator).stars
                single = cloud._match_stars(qo, stars, cloud.obs, NULL_SPAN)
                position = cloud.index.position
                for centers in center_ranges(len(cloud.index.indexed_vertices), shards):
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
                assert_ranges_are_the_single_server(cloud, qo, stars)


class TestBudgetParity:
    @EQUIV
    @given(**PARAMS)
    def test_budget_trips_exactly_when_single_server_trips(
        self, seed, n, k, edges
    ):
        dep = deployment(seed, n, k, edges)
        budget = 5
        reference = single_server(dep, max_intermediate_results=budget)
        cloud = scattered_inline(
            single_server(dep, max_intermediate_results=budget), 2
        )
        try:
            expected = reference.answer(dep.query)
        except ResultBudgetExceeded:
            with pytest.raises(ResultBudgetExceeded):
                cloud.answer(dep.query)
        else:
            assert_answers_identical(expected, cloud.answer(dep.query))


class TestWarmPoolAndTelemetry:
    def test_a_repeat_at_three_shards_is_the_first_answer(self):
        dep = deployment(23, 36, 2, 3)
        with sharded(dep, 3) as cloud:
            first = cloud.answer(dep.query)  # a cold pool
            second = cloud.answer(dep.query)  # the warm one
        assert_answers_identical(first, second)

    def test_repeats_stay_identical_to_single_server(self):
        dep = deployment(29, 32, 2, 3)
        reference = single_server(dep).answer(dep.query)
        with sharded(dep, 2) as cloud:
            for _ in range(2):  # a cold pool, then the warm one
                assert_answers_identical(reference, cloud.answer(dep.query))

    def test_one_telemetry_surface_for_every_topology(self):
        """EXPLAIN reads alike at shards 1 and 2 but for the shard
        lanes, and every answer of a sharded cloud scatters through one
        warm pool."""
        dataset = load_dataset("DBpedia", scale=0.25, seed=3)
        workload = generate_workload(dataset.graph, 4, 6, seed=5)
        results = []
        for shards in (1, 2):
            system = PrivacyPreservingSystem.setup(
                dataset.graph,
                dataset.schema,
                SystemConfig(k=3, shards=shards),
                obs=Observability(),
            )
            scatters = shards > 1 and fork_available()
            with system.cloud as cloud:
                seen = []
                for _ in range(2):
                    for query in workload:
                        outcome = system.query(query)
                        report = outcome.metrics
                        assert report.shards == (len(cloud.shards) if scatters else 0)
                        assert len(report.per_shard) == report.shards
                        seen.append((report.stars, report.rs_size, outcome.matches))
                if scatters:
                    assert cloud._scatter_pool is not None
            results.append(seen)
        assert results[0] == results[1]


class TestSystemPlumbing:
    def test_system_setup_deploys_sharded_cloud(self):
        schema = make_schema(2, 1, 4)
        graph = random_attributed_graph(schema, 36, edges_per_vertex=2, seed=3)
        queries = [random_walk_query(graph, 2, seed=s) for s in (10, 11)]
        base = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        shard = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2, shards=3)
        )
        assert type(shard.cloud) is CloudServer
        assert len(shard.cloud.shards) == 3
        with shard.cloud:
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
        # the scatter backend is gone: shards >= 2 always forks
        with pytest.raises(TypeError):
            SystemConfig(shard_backend="process")
        assert SystemConfig(shards=4).shards == 4


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
        cloud = CloudServer(
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
        with cloud:
            assert_answers_identical(
                reference.answer(anonymized), cloud.answer(anonymized)
            )


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
class TestPersistentScatterPool:
    """The warm scatter pool: reuse, staleness, teardown."""

    def test_pool_forked_once_and_reused(self):
        dep = deployment(7, 40, 2, 3)
        reference = single_server(dep).answer(dep.query)
        with sharded(dep, 4) as cloud:
            assert cloud._scatter_pool is None  # forked lazily
            assert_answers_identical(reference, cloud.answer(dep.query))
            pool = cloud._scatter_pool
            assert pool is not None and not pool.closed
            assert_answers_identical(reference, cloud.answer(dep.query))
            assert cloud._scatter_pool is pool
        assert pool.closed

    def test_killed_child_is_survived_and_replaced(self):
        """A dead fork child must not brick the deployment."""
        dep = deployment(7, 40, 2, 3)
        reference = single_server(dep).answer(dep.query)
        cloud = sharded(dep, 4)
        try:
            assert_answers_identical(reference, cloud.answer(dep.query))
            broken = cloud._scatter_pool
            children = list(broken._pool._processes.values())
            os.kill(children[0].pid, signal.SIGKILL)
            children[0].join(timeout=10)
            # the answer that meets the broken pool is still served —
            # through the single-server loop — and the pool is dropped
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
            cloud = CloudServer(
                reference.graph.copy(),
                reference.avt,
                reference.center_vertices,
                shards=shards,
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
        with CloudServer(
            outsourced.graph.copy(),
            release.avt,
            list(outsourced.block_vertices),
            shards=2,
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
