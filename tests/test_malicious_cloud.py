"""Robustness of the client against a misbehaving cloud.

The paper assumes an honest-but-curious cloud.  These tests check the
precise integrity property that assumption buys and what survives
without it:

* **soundness without trust** — whatever the cloud returns (bogus
  matches, tampered ids, duplicated rows), the client's filter never
  emits anything outside the true ``R(Q, G)``;
* **completeness needs honesty** — a cloud that *omits* results causes
  silent under-reporting; the client cannot detect omission (this is
  the documented limit of the threat model).

Tampered answers enter the client the way a real one does — encoded as
a table frame and decoded by :func:`decode_answer_table` — so a frame
that is not a table of integers over the query's vertices is a typed
error before the filter ever sees it.
"""

import json
import random
import struct

import pytest

from repro import PrivacyPreservingSystem, SystemConfig
from repro.core.protocol import decode_answer_table, encode_answer_table
from repro.exceptions import ProtocolError
from repro.graph import example_query, example_social_network
from repro.matching import MatchTable, find_subgraph_matches, match_key, vec
from tests.oracle import join_frame, split_frame


@pytest.fixture(scope="module")
def deployment():
    graph, schema = example_social_network()
    system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
    query = example_query()
    oracle = {match_key(m) for m in find_subgraph_matches(query, graph)}
    answer = system.cloud.answer(system.client.prepare_query(query))
    return graph, system, query, oracle, answer


def received(query, matches):
    """``matches`` as the client decodes them off the wire."""
    order = sorted(query.vertex_ids())
    table, _ = decode_answer_table(
        encode_answer_table(MatchTable.from_matches(matches, order), order, False)
    )
    return table


def tampered_frame(query, matches, cells: list[int]) -> bytes:
    """An honest answer frame whose tail cells were rewritten in flight.

    ``cells`` overwrite the last cells of the (column-major) tail; the
    tail is re-packed as 8-byte cells so any id fits, and ``n``/``w``
    are kept consistent — the frame is well-formed, only its content
    lies.
    """
    order = sorted(query.vertex_ids())
    header, tail = split_frame(
        encode_answer_table(MatchTable.from_matches(matches, order), order, False)
    )
    rows = header["rows"]
    code = {1: "b", 2: "h", 4: "i", 8: "q"}[rows["w"]]
    block = list(struct.unpack(f"<{len(tail) // rows['w']}{code}", tail))
    block[len(block) - len(cells) :] = cells
    rows["w"] = 8
    return join_frame(header, struct.pack(f"<{len(block)}q", *block))


def client_output(system, query, matches, expanded=False):
    outcome = system.client.process_answer(
        query, received(query, matches), expanded
    )
    return {match_key(m) for m in outcome.matches}


class TestSoundnessAgainstTampering:
    def test_injected_garbage_matches_filtered(self, deployment):
        graph, system, query, oracle, answer = deployment
        rng = random.Random(0)
        bogus = []
        ids = sorted(system.cloud.graph.vertex_ids())
        for _ in range(50):
            bogus.append({q: rng.choice(ids) for q in query.vertex_ids()})
        tampered = answer.matches + bogus
        assert client_output(system, query, tampered) == oracle

    def test_swapped_assignments_filtered(self, deployment):
        graph, system, query, oracle, answer = deployment
        tampered = []
        for match in answer.matches:
            twisted = dict(match)
            keys = sorted(twisted)
            twisted[keys[0]], twisted[keys[1]] = twisted[keys[1]], twisted[keys[0]]
            tampered.append(twisted)
        # swapping roles breaks type/edge constraints -> nothing extra
        assert client_output(system, query, answer.matches + tampered) == oracle

    def test_duplicated_rows_do_not_duplicate_results(self, deployment):
        graph, system, query, oracle, answer = deployment
        honest = system.client.process_answer(
            query, received(query, answer.matches), already_expanded=False
        )
        # the single pass dedupes Rin itself, before any F_m image is
        # taken: neither the results nor the candidate count may grow,
        # on the tuple loop or (forced onto this small table) the cascade
        for arm in ("rows",) + (("numpy",) if vec.HAVE_NUMPY else ()):
            with vec.override(arm):
                outcome = system.client.process_answer(
                    query, received(query, answer.matches * 3), already_expanded=False
                )
            assert outcome.matches == honest.matches
            assert outcome.candidate_count == honest.candidate_count
        assert {match_key(m) for m in honest.matches} == oracle
        assert len(honest.matches) == len(oracle)

    def test_out_of_range_ids_filtered(self, deployment):
        graph, system, query, oracle, answer = deployment
        bogus = [{q: 10_000 + q for q in query.vertex_ids()}]
        assert client_output(system, query, answer.matches + bogus) == oracle

    def test_fully_adversarial_answer_yields_subset(self, deployment):
        """Even a completely fabricated answer can only shrink results."""
        graph, system, query, oracle, _ = deployment
        rng = random.Random(7)
        fabricated = [
            {q: rng.randrange(0, 20) for q in query.vertex_ids()} for _ in range(200)
        ]
        assert client_output(system, query, fabricated) <= oracle

    @pytest.mark.parametrize(
        "cells",
        [
            pytest.param([10_000, 10_001], id="outside-the-avt"),
            pytest.param([-1, -7], id="negative"),
            pytest.param([2**31, 2**31 + 5], id="beyond-packed-id-limit"),
            pytest.param([2**63 - 1, -(2**63)], id="int64-extremes"),
        ],
    )
    @pytest.mark.parametrize("copies", [1, 200])
    def test_tampered_column_bytes_are_dropped(self, deployment, cells, copies):
        """Out-of-AVT, negative and huge ids written into the column
        bytes are dropped — never crashed on, never returned.  ``copies``
        = 200 pushes the table onto the vector decode/expand/filter arm."""
        graph, system, query, oracle, answer = deployment
        payload = tampered_frame(query, answer.matches * copies, cells)
        table, expanded = decode_answer_table(payload)
        assert len(table) == len(answer.matches) * copies
        outcome = system.client.process_answer(query, table, expanded)
        assert {match_key(m) for m in outcome.matches} <= oracle
        for match in outcome.matches:
            assert not set(match.values()) & set(cells)

    @pytest.mark.parametrize(
        "order",
        [
            pytest.param(["a", "b", "c", "d", "e"], id="strings"),
            pytest.param([1.5, True, 2, 3, 4], id="float-and-bool"),
            pytest.param([0, 1, 2, 3, 3], id="duplicate"),
        ],
    )
    def test_a_schema_that_is_not_distinct_ints_is_a_typed_error(
        self, deployment, order
    ):
        graph, system, query, oracle, answer = deployment
        honest = sorted(query.vertex_ids())
        frame, tail = split_frame(encode_answer_table(answer.table, honest, False))
        assert len(order) == len(honest)
        frame["order"] = order
        with pytest.raises(ProtocolError, match="malformed answer message"):
            decode_answer_table(join_frame(frame, tail))

    def test_a_schema_that_is_not_the_querys_vertex_set_is_a_typed_error(
        self, deployment
    ):
        """A well-formed table over the wrong vertices used to die in the
        filter with a raw KeyError."""
        graph, system, query, oracle, answer = deployment
        order = sorted(query.vertex_ids())
        for wrong in (order[:-1], [q + 100 for q in order], order + [99]):
            rows = [tuple(range(len(wrong)))]
            table, _ = decode_answer_table(
                encode_answer_table(MatchTable(wrong, rows), wrong, False)
            )
            for expanded in (False, True):
                with pytest.raises(ProtocolError, match="query's vertex set"):
                    system.client.process_answer(query, table, expanded)

    @pytest.mark.parametrize("cell", [[1], True, 1.5, "a", None])
    def test_non_integer_cells_are_a_typed_error(self, deployment, cell):
        """A cell that is not exactly an int never reaches the filter."""
        graph, system, query, oracle, answer = deployment
        order = sorted(query.vertex_ids())
        rows = [[m[q] for q in order] for m in answer.matches]
        rows.append([cell] + rows[0][1:])
        with pytest.raises(ValueError, match="is not an integer vertex id"):
            MatchTable.from_rows(order, rows)
        frame = json.dumps({"order": order, "rows": rows, "expanded": False})
        with pytest.raises(ProtocolError, match="malformed answer message"):
            decode_answer_table(frame.encode("utf-8"))


class TestCompletenessNeedsHonesty:
    def test_omission_is_undetectable(self, deployment):
        graph, system, query, oracle, answer = deployment
        partial = answer.matches[:-1] if answer.matches else []
        result = client_output(system, query, partial)
        # the client returns a subset without error — the documented
        # limit of honest-but-curious
        assert result <= oracle
        if answer.matches:
            assert len(result) <= len(oracle)
