"""Nothing a deployment owns sits in a reference cycle.

``PrivacyPreservingSystem.setup`` runs with the cyclic collector paused
(``tests/test_setup_collector_window.py``); that costs no memory only
while a *discarded* system dies by reference counting.  One pull
callback closing over its subject's owner — a server that reaches the
registry that holds the callback — is enough to keep ``Go``, the index
and the CSR of a dropped deployment alive until a full collection.

Each case drops its only reference to an object with the collector off
and ``DEBUG_SAVEALL`` on, then collects: whatever lands in
``gc.garbage`` was unreachable yet not freed, i.e. part of a cycle (or
hanging off one).  No ``repro.*`` instance may be among it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cloud import CloudServer, fork_available
from repro.cloud import parallel
from repro.core.config import SystemConfig
from repro.core.options import QueryOptions
from repro.core.storage import save_published
from repro.core.system import PrivacyPreservingSystem
from repro.kauto.dynamic import DynamicRelease
from repro.obs import Observability
from repro.obs.audit import register_live_false_positive_ratio
from repro.obs.registry import MetricsRegistry
from repro.workloads import generate_workload, load_dataset


def cyclic_leftovers(holder: list) -> list[str]:
    """Type names of the ``repro.*`` objects only a collector would free.

    ``holder`` carries the sole reference to the object under test (a
    list, so that the caller's frame keeps none); it is emptied here.
    """
    gc.collect()  # earlier tests' garbage is not this object's
    was_enabled, flags, kept = gc.isenabled(), gc.get_debug(), gc.garbage[:]
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        holder.clear()
        gc.collect()
        return sorted(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage[len(kept):]
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = kept
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def dataset():
    data = load_dataset("DBpedia", scale=0.2, seed=3)
    return data, generate_workload(data.graph, 4, 3, seed=31)


def stand_up(dataset, shards: int) -> PrivacyPreservingSystem:
    data, _ = dataset
    config = SystemConfig(k=3, theta=2, seed=3, shards=shards)
    return PrivacyPreservingSystem.setup(data.graph, data.schema, config)


def reloaded(dataset, shards: int, directory) -> PrivacyPreservingSystem:
    """The same deployment, saved and stood up again by ``load``."""
    save_published(stand_up(dataset, shards).published, directory)
    return PrivacyPreservingSystem.load(
        directory, dataset[0].graph, shards=shards
    )


def an_absent_edge(release: DynamicRelease) -> tuple[int, int]:
    """Two vertices of ``G`` not adjacent in ``Gk``: a non-empty delta."""
    ids = sorted(release.original.vertex_ids())
    return next(
        (u, v) for u in ids for v in ids if u < v and not release.gk.has_edge(u, v)
    )


@pytest.mark.parametrize("shards", [1, 4])
class TestDroppedSystem:
    def test_fresh(self, dataset, shards):
        assert cyclic_leftovers([stand_up(dataset, shards)]) == []

    def test_after_traced_and_untraced_submits(self, dataset, shards):
        system = stand_up(dataset, shards)
        queries = dataset[1]
        traced = system.submit(queries[:1])
        assert traced.outcomes[0].trace is not None
        system.submit(queries[1:2], options=QueryOptions(trace=False))
        system.submit(queries)  # the batch path, with its own span
        system.obs.metrics.snapshot()  # every pull gauge evaluated once
        holder = [system]
        del system, traced
        assert cyclic_leftovers(holder) == []

    def test_loaded_fresh_and_after_submits(self, dataset, shards, tmp_path):
        assert cyclic_leftovers([reloaded(dataset, shards, tmp_path)]) == []
        system = reloaded(dataset, shards, tmp_path)
        system.submit(dataset[1][:1])
        system.submit(dataset[1], options=QueryOptions(trace=False))
        system.obs.metrics.snapshot()
        holder = [system]
        del system
        assert cyclic_leftovers(holder) == []

    def test_after_a_delta(self, dataset, shards):
        system = stand_up(dataset, shards)
        published = system.published
        release = DynamicRelease(
            dataset[0].graph.copy(), published.transform, published.lct
        )
        delta = release.go_delta(release.insert_edge(*an_absent_edge(release)))
        assert not delta.is_empty
        system.cloud.apply_delta(delta)
        system.submit(dataset[1][:1])
        holder = [system]
        del system, published, release, delta
        assert cyclic_leftovers(holder) == []


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
def test_a_dropped_sharded_system_frees_its_index(dataset):
    """The scatter pool's fork-registry entry captures the index and
    ``Go``; dropping the system must release both without ``close()``."""
    system = stand_up(dataset, 2)
    system.submit(dataset[1][:1])
    token = system.cloud._scatter_pool._token
    assert token in parallel._FORK_REGISTRY
    index = weakref.ref(system.cloud.index)
    holder = [system]
    del system
    assert cyclic_leftovers(holder) == []
    assert token not in parallel._FORK_REGISTRY
    assert index() is None


def test_the_probe_sees_a_cycle():
    """The helper is not vacuous: a registry closing over itself shows."""

    def looped() -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.register_callback("loop", lambda: float(len(registry.names())))
        return registry

    assert cyclic_leftovers([looped()]) == ["repro.obs.registry.MetricsRegistry"]


def test_a_registry_with_the_live_ratio_gauge():
    registry = MetricsRegistry()
    register_live_false_positive_ratio(registry)
    assert [name for name, _, _ in registry.callbacks()] == [
        "privacy_audit_false_positive_ratio_live"
    ]
    holder = [registry]
    del registry
    assert cyclic_leftovers(holder) == []


def test_a_bare_cloud_server(figure1_pipeline):
    """A server reporting into a recording registry leaves no cycle."""
    pipeline = figure1_pipeline
    server = CloudServer(
        pipeline.outsourced.graph.copy(),
        pipeline.transform.avt,
        list(pipeline.outsourced.block_vertices),
        obs=Observability(),
    )
    server.obs.metrics.snapshot()
    holder = [server]
    del server
    assert cyclic_leftovers(holder) == []
