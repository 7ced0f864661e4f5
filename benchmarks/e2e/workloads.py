"""Workload generators: every input is a function of ``--seed``.

A workload is a list of *deployments* (graph + schema + config, i.e.
something to publish, and the queries to ask it) plus a quarter-size
twin of the first deployment (the second point of the publish scaling
exponents).  Every workload draws several graphs from the seed (six for
selective, four for gateway, eight for dense, three for publish) and
combines what it measures over them: one graph's hubs and label draw
swing a timing by 10-20 % between seeds, several average that out.  The program under test only
ever receives these generated graphs, configs and queries.

Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.graph import AttributedGraph, GraphSchema, make_schema, random_attributed_graph
from repro.workloads import generate_workload, load_dataset, random_walk_query

#: Per-query cloud quota; no query of any workload comes near it (a
#: trip would count as a failed operation).
BUDGET = 500_000


@dataclass
class Deployment:
    graph: AttributedGraph
    schema: GraphSchema
    config: SystemConfig
    queries: list[AttributedGraph] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    deployments: list[Deployment]
    quarter: Deployment
    #: open-loop request rate used against this workload's queries
    open_rate: float = 150.0
    #: a gateway request slower than this counts as failed: a hang, not
    #: a tail (the rare 0.2 s selective query must still pass)
    latency_limit_s: float = 2.0


def _config(seed: int, k: int) -> SystemConfig:
    return SystemConfig(
        k=k, theta=2, method="EFF", seed=seed, max_intermediate_results=BUDGET
    )


def _mixed_queries(
    graph: AttributedGraph, seed: int, per_size: int
) -> list[AttributedGraph]:
    """Fully-labelled random-walk queries, ``per_size`` each at 4/6/8 edges."""
    queries: list[AttributedGraph] = []
    for edges in (4, 6, 8):
        queries += generate_workload(graph, edges, per_size, seed=seed * 10 + edges)
    return queries


def _dataset_deployment(name: str, scale: float, seed: int, k: int, config_seed: int):
    data = load_dataset(name, scale=scale, seed=seed)
    return Deployment(data.graph, data.schema, _config(config_seed, k))


def selective(
    seed: int, smoke: bool = False, name: str = "selective", graphs: int = 6
) -> Workload:
    scale = 0.25 if smoke else 2.0
    deployments = []
    for i in range(2 if smoke else graphs):
        deployment = _dataset_deployment("DBpedia", scale, seed * 1000 + i, 3, seed)
        deployment.queries = _mixed_queries(
            deployment.graph, seed * 1000 + i, 3 if smoke else 20
        )
        deployments.append(deployment)
    return Workload(
        name=name,
        deployments=deployments,
        quarter=_dataset_deployment("DBpedia", scale / 4, seed * 1000, 3, seed),
    )


def gateway(seed: int, smoke: bool = False) -> Workload:
    """``selective``'s first four deployments; only the measured path differs.

    Four, because each costs two seconds of saving, starting and
    stopping a server that the measurement does not get.
    """
    return selective(seed, smoke, name="gateway", graphs=4)


def pattern_class(query: AttributedGraph) -> tuple | None:
    """Shape + vertex types of a 3-edge tree query (``None`` otherwise).

    With two labels per attribute and theta=2 the anonymized query
    keeps types only, so queries of one class cost the cloud the same.
    """
    if query.vertex_count != 4:
        return None
    types = {v: query.vertex(v).vertex_type for v in query.vertex_ids()}
    degrees = sorted(query.degree(v) for v in query.vertex_ids())
    if degrees == [1, 1, 1, 3]:
        center = next(v for v in query.vertex_ids() if query.degree(v) == 3)
        leaves = sorted(types[v] for v in query.vertex_ids() if v != center)
        return ("star", types[center], *leaves)
    path = [next(v for v in sorted(query.vertex_ids()) if query.degree(v) == 1)]
    while len(path) < 4:
        path.append(next(w for w in query.neighbors(path[-1]) if w not in path))
    along = tuple(types[v] for v in path)
    return ("path", *min(along, along[::-1]))


def _pattern_queries(
    graph: AttributedGraph, seed: int, draws: int
) -> list[AttributedGraph]:
    """One random-walk query per 3-edge pattern class, in class order.

    Drawing a fixed number of random queries makes the class mix, and
    with it a sweep's cost, swing +-25 % from seed to seed; one query
    per class (10 paths + 8 stars over two types) holds the work to
    the graph's own statistics while locations and labels still vary.
    """
    found: dict[tuple, AttributedGraph] = {}
    for i in range(draws):
        query = random_walk_query(graph, 3, seed=seed * 10_000 + i)
        key = pattern_class(query)
        if key is not None and key not in found:
            found[key] = query
            if len(found) == 18:
                break
    return [found[key] for key in sorted(found)]


def dense(seed: int, smoke: bool = False) -> Workload:
    n = 60 if smoke else 150
    schema = make_schema(2, 1, 2)
    deployments = []
    for i in range(3 if smoke else 8):
        graph = random_attributed_graph(schema, n, edges_per_vertex=3, seed=seed * 1000 + i)
        queries = _pattern_queries(graph, seed * 1000 + i, 300 if smoke else 4000)
        deployments.append(Deployment(graph, schema, _config(seed, 3), queries))
    small = random_attributed_graph(schema, n // 4, edges_per_vertex=3, seed=seed * 1000)
    return Workload(
        name="dense",
        deployments=deployments,
        quarter=Deployment(small, schema, _config(seed, 3)),
        open_rate=4.0,
        latency_limit_s=10.0,
    )


def publish(seed: int, smoke: bool = False) -> Workload:
    """Three graphs x k in {2,4,6}, in Latin-square order.

    Any prefix whose length is a multiple of three is balanced in both
    graph and k, so the timed loop may stop at any such boundary.  The
    first deployment carries a few probe queries for the per-layer run.
    """
    scale = 0.4 if smoke else 2.0
    datasets = [
        load_dataset("UK-2002", scale=scale, seed=seed * 1000 + i) for i in range(3)
    ]
    ks = (2, 4, 6)
    deployments = [
        Deployment(
            datasets[(i + r) % 3].graph, datasets[(i + r) % 3].schema, _config(seed, ks[i])
        )
        for r in range(3)
        for i in range(3)
    ]
    deployments[0].queries = _mixed_queries(
        deployments[0].graph, seed * 1000, 5 if smoke else 20
    )
    return Workload(
        name="publish",
        deployments=deployments,
        quarter=_dataset_deployment("UK-2002", scale / 4, seed * 1000, ks[0], seed),
        open_rate=100.0,
    )


WORKLOADS = {
    "selective": selective,
    "dense": dense,
    "publish": publish,
    "gateway": gateway,
}
