"""Columnar pipeline A/B: tuple-row vs vector kernels.

Not a paper figure — this measures the layout choice inside the
``MatchTable`` pipeline (``repro.matching.vec``).  The timed segment
is the whole per-query pipeline downstream of decomposition, broken
into the four phases the vectorization targets:

* ``match``  — Algorithm 1 star matching over Go (CSR adjacency +
  sorted-candidate intersection on the vector arm);
* ``join``   — Algorithm 2 (positional hash join; packed-key argsort
  join on the vector arm);
* ``expand`` — the client AVT expansion (dense LUT gathers on the
  vector arm);
* ``filter`` — Algorithm 3 (bulk CSR membership tests on the vector
  arm).

Two arms, asserted bit-identical — the two layouts production selects
between:

* ``tuple``  — the table pipeline pinned to tuple rows via
  ``vec.override("rows")``;
* ``vector`` — the table pipeline in serving (``auto``) mode: flat
  columns + numpy kernels where profitable, the tuple kernels below
  ``MIN_VECTOR_ROWS`` or without numpy.

Two cells, one on each side of that selection:

* ``workload`` — the parallel-engine benchmark workload (DBpedia, EFF,
  k=3, |E(Q)|=6).  Label selectivity keeps candidate sets tiny there,
  so ``auto`` stays on the tuple kernels; the gate is the regression
  bound "vector is never slower than 0.9x tuple".
* ``dense``    — a fixed-seed low-selectivity deployment where the
  join materializes tens of thousands of intermediate rows, i.e. the
  regime the vector kernels target.  Gate: >= 2.5x with numpy (>= 0.9x
  without it, where ``auto`` is the tuple arm itself).

The report cell writes both measurements — including the per-phase
breakdown of both arms and the host they were taken on — to
``BENCH_columnar.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median

from conftest import bench_host, bench_queries

from repro.anonymize import estimator_from_outsourced
from repro.bench import format_table, ms, print_report
from repro.client.expansion import expand_rin_table
from repro.client.filtering import ClientFilter
from repro.cloud import CloudIndex, decompose_query, join_star_tables
from repro.cloud.star_matching import match_star_table
from repro.graph import make_schema, random_attributed_graph
from repro.kauto import build_k_automorphic_graph
from repro.matching import vec
from repro.outsource import build_outsourced_graph
from repro.workloads import random_walk_query

DATASET = "DBpedia"
METHOD = "EFF"
K = 3
EDGES = 6
REPEATS = 5
#: The workload segment is ~1-2ms per pass, so its best-of needs far
#: more passes than the dense cell (0.5s a pass) for a stable ratio.
WORKLOAD_REPEATS = 25
DENSE = dict(seed=7, n=200, edges_per_vertex=3, k=3, query_edges=3, labels=2)
DENSE_BUDGET = 2_000_000
PHASES = ("match", "join", "expand", "filter")
#: Dense-cell gate: the vector kernels must clear 2.5x over the tuple
#: rows (3.9x when this gate was set); without numpy both arms are the
#: tuple arm, so the bar is "no regression".
DENSE_GATE = 2.5 if vec.HAVE_NUMPY else 0.9
WORKLOAD_GATE = 0.9
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_columnar.json"


def _workload_cells(sweep):
    """Per-query segment inputs from the parallel-engine workload.

    Each cell carries everything the timed segment needs: the
    anonymized query and cloud index/graph for star matching, the AVTs
    for the join and the client expansion, and the client graph +
    original query for Algorithm 3.
    """
    system = sweep.system(DATASET, METHOD, K)
    cloud = system.cloud
    count = max(8, bench_queries())
    queries = sweep.context(DATASET).workload(EDGES, count)
    cells = []
    for query in queries:
        anonymized = system.client.prepare_query(query)
        decomposition = decompose_query(anonymized, cloud.estimator)
        cells.append(
            dict(
                query=query,
                anonymized=anonymized,
                index=cloud.index,
                data=cloud.graph,
                graph=system.client.graph,
                avt=cloud.avt,
                client_avt=system.client.avt,
                budget=cloud.max_intermediate_results,
                stars=decomposition.stars,
            )
        )
    return cells


def _dense_cells():
    """One fixed-seed low-selectivity deployment (dense candidates)."""
    schema = make_schema(2, 1, DENSE["labels"])
    graph = random_attributed_graph(
        schema,
        DENSE["n"],
        edges_per_vertex=DENSE["edges_per_vertex"],
        seed=DENSE["seed"],
    )
    query = random_walk_query(graph, DENSE["query_edges"], seed=DENSE["seed"] + 1)
    transform = build_k_automorphic_graph(graph, DENSE["k"], seed=DENSE["seed"])
    outsourced = build_outsourced_graph(transform.gk, transform.avt)
    index = CloudIndex.build(outsourced.graph, outsourced.block_vertices)
    estimator = estimator_from_outsourced(
        outsourced.block_vertices, outsourced.graph, DENSE["k"]
    )
    decomposition = decompose_query(query, estimator)
    return [
        dict(
            query=query,
            anonymized=query,
            index=index,
            data=outsourced.graph,
            graph=graph,
            avt=transform.avt,
            client_avt=transform.avt,
            budget=DENSE_BUDGET,
            stars=decomposition.stars,
        )
    ]


def _run_tables(cells):
    """The table pipeline under the *active* vec mode, timed per phase.

    The closing ``to_matches`` adapter (the system boundary's dict
    form, used here to compare the arms) runs outside the timed phases.
    """
    phases = dict.fromkeys(PHASES, 0.0)
    tables = []
    clock = time.perf_counter
    for cell in cells:
        t0 = clock()
        star_tables = {
            star.center: match_star_table(
                cell["anonymized"],
                star,
                cell["index"],
                cell["data"],
                max_results=cell["budget"],
            )
            for star in cell["stars"]
        }
        t1 = clock()
        rin, _ = join_star_tables(
            cell["stars"],
            star_tables,
            cell["avt"],
            max_intermediate=cell["budget"],
        )
        t2 = clock()
        candidates = expand_rin_table(rin, cell["client_avt"]).table
        t3 = clock()
        filtered = ClientFilter(cell["graph"], cell["query"]).filter_table(
            candidates
        )
        t4 = clock()
        phases["match"] += t1 - t0
        phases["join"] += t2 - t1
        phases["expand"] += t3 - t2
        phases["filter"] += t4 - t3
        tables.append(filtered.table)
    return phases, [table.to_matches() for table in tables]


def _run_tuple(cells):
    with vec.override("rows"):
        return _run_tables(cells)


def _ab(cells, repeats=REPEATS) -> dict:
    """Interleaved rounds; the speedup is the median of per-round ratios.

    The two arms run back-to-back within every round (not in two
    separate windows), so slow drift — thermal throttling, frequency
    scaling, cache state — biases them equally instead of penalizing
    whichever arm runs last.  The reported speedup is the **median**
    over rounds of the round's ``tuple/vector`` ratio: pairing the
    ratios per round cancels the drift, and the median is robust to a
    single noisy round in a way a ratio of two best-of minima is not.
    The per-phase breakdown comes from each arm's best round.
    """
    arms = (("tuple", _run_tuple), ("vector", _run_tables))
    best: dict = {}
    results: dict = {}
    totals: dict = {name: [] for name, _ in arms}
    for _ in range(repeats):
        for name, fn in arms:
            phases, pass_results = fn(cells)
            totals[name].append(sum(phases.values()))
            if name not in best or sum(phases.values()) < sum(
                best[name].values()
            ):
                best[name], results[name] = phases, pass_results
    assert results["vector"] == results["tuple"]
    return {
        "queries": len(cells),
        "tuple_seconds": sum(best["tuple"].values()),
        "vector_seconds": sum(best["vector"].values()),
        "speedup": round(
            median(
                tp / vc for tp, vc in zip(totals["tuple"], totals["vector"])
            ),
            3,
        ),
        "phases": {
            arm: {p: round(best[arm][p], 6) for p in PHASES}
            for arm in ("tuple", "vector")
        },
        "exact_matches": sum(len(r) for r in results["tuple"]),
        "bit_identical": True,
    }


def test_workload_bit_identical(sweep):
    """Both arms return exactly the same R(Q, G) for every query."""
    cells = _workload_cells(sweep)
    assert _run_tables(cells)[1] == _run_tuple(cells)[1]


def test_dense_bit_identical():
    cells = _dense_cells()
    assert _run_tables(cells)[1] == _run_tuple(cells)[1]


def test_columnar_join_cell(benchmark):
    """Timed cell: the vector-arm pipeline segment (dense)."""
    cells = _dense_cells()
    results = benchmark(lambda: _run_tables(cells)[1])
    assert results and results[0]


def test_report_tuple_vs_vector(sweep):
    """A/B report + ``BENCH_columnar.json``; the CI perf-smoke gate."""
    measured = {
        "workload": _ab(_workload_cells(sweep), repeats=WORKLOAD_REPEATS),
        "dense": _ab(_dense_cells()),
    }
    rows = []
    for name, cell in measured.items():
        rows.append(
            [
                name,
                cell["queries"],
                ms(cell["tuple_seconds"]),
                ms(cell["vector_seconds"]),
                f"{cell['speedup']:.2f}x",
                cell["exact_matches"],
            ]
        )
    print_report(
        format_table(
            ["cell", "queries", "tuple ms", "vector ms", "speedup", "exact"],
            rows,
            title=(
                "match+join+expansion+filter A/B — "
                f"workload: {DATASET}/{METHOD} k={K} |E(Q)|={EDGES}; "
                f"dense: n={DENSE['n']} k={DENSE['k']} seed={DENSE['seed']}; "
                f"best of {REPEATS}; backend={vec.backend()}"
            ),
        )
    )
    phase_rows = [
        [name, arm] + [ms(cell["phases"][arm][p]) for p in PHASES]
        for name, cell in measured.items()
        for arm in ("tuple", "vector")
    ]
    print_report(
        format_table(
            ["cell", "arm", *(f"{p} ms" for p in PHASES)],
            phase_rows,
            title="per-phase breakdown (best pass)",
        )
    )

    RESULT_PATH.write_text(
        json.dumps(
            {
                "segment": "match+join+expansion+filter",
                "repeats": REPEATS,
                "host": bench_host(),
                "backend": vec.backend(),
                "bit_identical": True,
                "speedup": measured["dense"]["speedup"],
                "gates": {
                    "workload_min": WORKLOAD_GATE,
                    "dense_min": DENSE_GATE,
                },
                "cells": {
                    "workload": {
                        "dataset": DATASET,
                        "method": METHOD,
                        "k": K,
                        "edge_count": EDGES,
                        **measured["workload"],
                    },
                    "dense": {**DENSE, **measured["dense"]},
                },
            },
            indent=2,
        )
        + "\n"
    )

    # CI perf-smoke gates: the regression bound on the selective
    # workload (auto never below 0.9x of the pinned tuple rows) and the
    # target in the dense-candidate regime the vector kernels exist for.
    assert measured["workload"]["speedup"] >= WORKLOAD_GATE, (
        f"vector arm regressed on the workload cell: {measured}"
    )
    assert measured["dense"]["speedup"] >= DENSE_GATE, (
        f"expected >= {DENSE_GATE}x on the dense cell, got {measured}"
    )
