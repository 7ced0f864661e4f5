#!/usr/bin/env python3
"""A living deployment: declarative queries over an evolving graph.

Shows two library extensions working together:

* the pattern DSL (`repro.query`) — queries written Cypher-style;
* incremental release maintenance (`repro.kauto.dynamic`) — the data
  owner inserts people and relationships after publication, and the
  k-automorphism invariant (and exactness) survives every update.

Run:  python examples/dynamic_social_graph.py
"""

from repro.anonymize import anonymize_query, build_lct, cost_based_grouping
from repro.client import ClientFilter, expand_rin_table
from repro.cloud import CloudServer
from repro.graph import compute_statistics, example_social_network
from repro.kauto import build_k_automorphic_graph, verify_k_automorphism
from repro.kauto.dynamic import DynamicRelease
from repro.matching import find_subgraph_matches
from repro.query import parse_pattern

ENGINEER_AT_INTERNET = """
(p:person {occupation=engineer})-(c:company {company_type=internet})
"""

COLLEAGUE_COUPLE = """
# two people at the same company, married to each other
(a:person)-(c:company)
(b:person)-(c)
(a)-(b)
"""


def answer(release, pattern_text):
    """Full pipeline on the release's current state."""
    parsed = parse_pattern(pattern_text)
    outsourced = release.refresh_outsourced()
    cloud = CloudServer(outsourced.graph, release.avt, outsourced.block_vertices)
    cloud_answer = cloud.answer(anonymize_query(parsed.graph, release.lct))
    candidates = expand_rin_table(cloud_answer.table, release.avt).table
    exact = ClientFilter(release.original, parsed.graph).filter_table(candidates)
    oracle = find_subgraph_matches(parsed.graph, release.original)
    assert len(exact.table) == len(oracle), "pipeline must stay exact"
    return exact.table.to_matches()


def main() -> None:
    graph, schema = example_social_network()
    lct = build_lct(
        schema, 2, cost_based_grouping, graph_stats=compute_statistics(graph), seed=1
    )
    transform = build_k_automorphic_graph(lct.apply_to_graph(graph), 2, seed=1)
    release = DynamicRelease(graph.copy(), transform, lct)

    print("day 0: initial release")
    print(f"  engineers at internet companies: {len(answer(release, ENGINEER_AT_INTERNET))}")
    print(f"  married colleagues:              {len(answer(release, COLLEAGUE_COUPLE))}")

    print("\nday 1: a new engineer (id 100) joins Google (c1), marries Lucy (p2)")
    release.insert_vertex(
        100, "person", {"gender": ["female"], "occupation": ["engineer"]}
    )
    release.insert_edge(100, 4)  # works at c1
    release.insert_edge(100, 1)  # spouse of p2 (Lucy)
    verify_k_automorphism(release.gk, release.avt)
    print(f"  engineers at internet companies: {len(answer(release, ENGINEER_AT_INTERNET))}")
    print(f"  married colleagues:              {len(answer(release, COLLEAGUE_COUPLE))}")

    print("\nday 2: Tom (p1) leaves Google — employment edge deleted")
    release.delete_edge(0, 4)
    verify_k_automorphism(release.gk, release.avt)
    print(f"  engineers at internet companies: {len(answer(release, ENGINEER_AT_INTERNET))}")
    print(
        f"  noise edges now carried by Gk:   {release.noise_edge_count()} "
        "(deletions degrade to noise when symmetry pins them)"
    )

    print("\nday 3: shipping updates incrementally instead of re-uploading")
    from repro.cloud import CloudServer

    outsourced = release.refresh_outsourced()
    cloud = CloudServer(
        outsourced.graph.copy(), release.avt, list(outsourced.block_vertices)
    )
    log = release.insert_edge(2, 1)  # David befriends Lucy
    delta = release.go_delta(log)
    cloud.apply_delta(delta)
    print(
        f"  update shipped as a {delta.payload_bytes()}-byte delta "
        "(the cloud re-indexed in place)"
    )
    parsed = parse_pattern(COLLEAGUE_COUPLE)
    rin = cloud.answer(anonymize_query(parsed.graph, release.lct)).table
    candidates = expand_rin_table(rin, release.avt).table
    exact = ClientFilter(release.original, parsed.graph).filter_table(candidates)
    oracle = find_subgraph_matches(parsed.graph, release.original)
    assert len(exact.table) == len(oracle)
    print(f"  married colleagues now:          {len(exact.table)}")

    print("\nevery answer above was verified exact against the private graph.")


if __name__ == "__main__":
    main()
