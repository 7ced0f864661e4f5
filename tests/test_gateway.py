"""The serving gateway: auth token, admission, coalescing, bit-identity.

The contract under test: a query answered through the TCP gateway is
*byte-identical* (at the ``encode_answer_table`` wire layer) to the
same query answered in-process, for every engine topology; overload
degrades by shedding typed rejects, never by collapsing; and
identical requests read before their leader computes share one cloud
computation.
"""

from __future__ import annotations

import asyncio
import gc
import json
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.cloud import CloudServer, fork_available, parallel
from repro.core import protocol
from repro.core.protocol import (
    FRAME_HEADER,
    decode_frame_header,
    decode_gateway_answer,
    decode_gateway_reject,
    encode_answer_table,
    encode_frame,
    encode_gateway_answer,
    encode_gateway_hello,
    encode_gateway_request,
)
from repro.exceptions import GatewayError, GatewayRejected
from repro.gateway import (
    AdmissionController,
    GatewayClient,
    QueryCoalescer,
    QueryGateway,
    SHED_CODES,
    SyncGatewayClient,
    coalesce_key,
    query_signature,
)
from repro.gateway.admission import MIN_WINDOW_COUNT
from repro.graph import make_schema, random_attributed_graph
from repro.kauto import build_k_automorphic_graph
from repro.obs import Observability, TraceRing, names
from repro.outsource import build_outsourced_graph
from repro.workloads import random_walk_query


# ----------------------------------------------------------------------
# shared deployment
# ----------------------------------------------------------------------
def deployment(seed: int = 7, n: int = 30, k: int = 2, edges: int = 3):
    schema = make_schema(2, 1, 4)
    graph = random_attributed_graph(schema, n, edges_per_vertex=2, seed=seed)
    query = random_walk_query(graph, edges, seed=seed + 1)
    transform = build_k_automorphic_graph(graph, k, seed=seed)
    outsourced = build_outsourced_graph(transform.gk, transform.avt)
    return SimpleNamespace(
        query=query, avt=transform.avt, outsourced=outsourced
    )


@pytest.fixture(scope="module")
def dep():
    return deployment()


def make_cloud(dep, shards: int = 1):
    return CloudServer(
        dep.outsourced.graph,
        dep.avt,
        dep.outsourced.block_vertices,
        shards=shards,
    )


def wire_bytes(table, order, expanded) -> bytes:
    return encode_answer_table(table, order, expanded)


def reference_bytes(cloud, query) -> bytes:
    answer = cloud.answer(query)
    return wire_bytes(answer.table, sorted(query.vertex_ids()), answer.expanded)


# ----------------------------------------------------------------------
# raw connections: several request frames in one write
# ----------------------------------------------------------------------
async def read_frame(reader):
    header = await reader.readexactly(FRAME_HEADER.size)
    kind, length = decode_frame_header(header)
    payload = await reader.readexactly(length) if length else b""
    return kind, payload


async def open_raw(port, client_id="raw"):
    """A connected, handshaken ``(reader, writer)`` pair."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_frame("hello", encode_gateway_hello(client_id)))
    await writer.drain()
    await read_frame(reader)  # hello ack
    return reader, writer


async def close_raw(writer):
    writer.write(encode_frame("bye", b""))
    await writer.drain()
    writer.close()
    await writer.wait_closed()


def request_frames(*requests) -> bytes:
    """``(request_id, query)`` pairs as back-to-back request frames."""
    return b"".join(
        encode_frame("request", encode_gateway_request(request_id, [query]))
        for request_id, query in requests
    )


async def read_replies(reader, count):
    """``{request_id: ("answer", (table, expanded)) | ("reject", code)}``."""
    replies = {}
    for _ in range(count):
        kind, payload = await read_frame(reader)
        if kind == "answer":
            request_id, answers, _ = decode_gateway_answer(payload)
            replies[request_id] = ("answer", answers[0])
        else:
            request_id, code, _ = decode_gateway_reject(payload)
            replies[request_id] = ("reject", code)
    return replies


def exchange(gateway, *requests):
    """Send ``requests`` in one write on a fresh connection; the replies."""

    async def main():
        reader, writer = await open_raw(gateway.port)
        writer.write(request_frames(*requests))
        await writer.drain()
        replies = await read_replies(reader, len(requests))
        await close_raw(writer)
        return replies

    return asyncio.run(main())


# ----------------------------------------------------------------------
# the shared token
# ----------------------------------------------------------------------
class TestStockMiddlewares:
    """The gateway's one auth path: ``QueryGateway(token=)``."""

    def test_auth_shared_token(self, dep):
        def codes(gateway, tokens):
            out = []
            for token in tokens:
                with SyncGatewayClient(
                    gateway.host, gateway.port, client_id="c", token=token
                ) as client:
                    try:
                        client.query(dep.query)
                        out.append("ok")
                    except GatewayRejected as exc:
                        out.append(exc.code)
            return out

        cloud = make_cloud(dep)
        with QueryGateway(cloud) as gateway:  # no token: any hello passes
            assert codes(gateway, ["", "anything"]) == ["ok", "ok"]
        with QueryGateway(cloud, token="s3cret") as gateway:
            assert codes(gateway, ["s3cret", "wrong", ""]) == [
                "ok", "unauthorized", "unauthorized"
            ]


# ----------------------------------------------------------------------
# admission + coalescing units
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_policy_validation(self, dep):
        with pytest.raises(GatewayError, match="max_inflight"):
            AdmissionController(max_inflight=0)
        cloud = make_cloud(dep)
        obs = Observability()
        with pytest.raises(GatewayError, match="max_inflight"):
            QueryGateway(cloud, max_inflight=0, obs=obs)
        assert obs.metrics.callbacks() == []  # nothing registered
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(GatewayError, match="slo_seconds"):
                QueryGateway(cloud, slo_seconds=bad)

    def test_global_cap_sheds_overloaded(self):
        control = AdmissionController(max_inflight=2)
        control.admit()
        control.admit()
        with pytest.raises(GatewayRejected, match="overloaded"):
            control.admit()
        control.release()
        control.admit()

    def test_shed_probe_refuses_before_caps(self):
        shedding: list[bool] = []
        control = AdmissionController(
            max_inflight=1, shed_probe=lambda: bool(shedding)
        )
        control.admit("r-0")
        shedding.append(True)
        with pytest.raises(GatewayRejected) as info:
            control.admit("r-1")  # the cap is full too: the probe answers first
        assert info.value.code == "overloaded"
        assert "tail latency" in info.value.reason
        assert info.value.request_id == "r-1"
        assert SHED_CODES == ("overloaded",)
        assert control.inflight() == 1

    def test_idle_controller_admits_whatever_the_probe_says(self):
        control = AdmissionController(max_inflight=2, shed_probe=lambda: True)
        control.admit("r-1")  # nothing pending: the probe is not consulted
        with pytest.raises(GatewayRejected, match="tail latency"):
            control.admit("r-2")
        control.release()
        control.admit("r-3")
        assert control.inflight() == 1

    def test_inflight_accounting(self):
        control = AdmissionController()
        for _ in range(3):
            control.admit()
        assert control.inflight() == 3
        control.release()
        assert control.inflight() == 2


class TestCoalescer:
    def test_signature_is_structural(self, dep):
        other = deployment()  # fresh, structurally identical objects
        assert query_signature(dep.query) == query_signature(other.query)
        different = deployment(seed=99)
        assert query_signature(dep.query) != query_signature(different.query)

    def test_lease_and_complete(self, dep):
        async def main():  # the coalescer lives on the gateway's loop
            coalescer = QueryCoalescer()
            key = coalesce_key([dep.query])
            leader, future = coalescer.lease(key)
            assert leader
            follower, shared = coalescer.lease(key)
            assert not follower
            assert shared is future
            future.set_result(["answer"])
            coalescer.complete(key)
            assert coalescer.inflight_count() == 0
            leader, _ = coalescer.lease(key)  # key reusable after completion
            assert leader

        asyncio.run(main())


# ----------------------------------------------------------------------
# the gateway over real sockets
# ----------------------------------------------------------------------
#: (how the shards are answered, shard count): "serial" is the
#: single-server loop — one shard, or the fallback of a sharded cloud
#: on a platform without fork — and "process" the fork scatter.
_FORKS = pytest.mark.skipif(not fork_available(), reason="fork start method required")
TOPOLOGIES = [
    ("serial", 1),
    ("serial", 4),
    pytest.param("process", 2, marks=_FORKS),
    pytest.param("process", 4, marks=_FORKS),
]


class CountingCloud:
    """Wraps an engine; counts and slows ``answer`` calls."""

    def __init__(self, inner, delay: float = 0.0):
        self._inner = inner
        self._delay = delay
        self._lock = threading.Lock()
        self.calls = 0

    def answer(self, query, obs=None, **kwargs):
        with self._lock:
            self.calls += 1
        if self._delay:
            time.sleep(self._delay)
        return self._inner.answer(query, obs=obs, **kwargs)


class TestGatewayRoundTrip:
    @pytest.mark.parametrize("backend,shards", TOPOLOGIES)
    def test_bit_identity_across_topologies(self, dep, backend, shards, monkeypatch):
        """Gateway answers are the in-process single server's bytes."""
        if backend == "serial":
            monkeypatch.setattr(parallel, "fork_available", lambda: False)
        expected = reference_bytes(make_cloud(dep), dep.query)
        with make_cloud(dep, shards=shards) as cloud:
            assert reference_bytes(cloud, dep.query) == expected
            with QueryGateway(cloud) as gateway:
                with SyncGatewayClient(
                    gateway.host, gateway.port, client_id="matrix"
                ) as client:
                    table, expanded = client.query(dep.query)
            assert (cloud._scatter_pool is not None) == (backend == "process")
        order = sorted(dep.query.vertex_ids())
        assert wire_bytes(table, order, expanded) == expected

    def test_many_concurrent_queries_zero_drops(self, dep):
        cloud = make_cloud(dep)
        expected = reference_bytes(cloud, dep.query)
        order = sorted(dep.query.vertex_ids())
        async def main():
            async with GatewayClient(
                "127.0.0.1", gateway.port, client_id="herd"
            ) as client:
                return await asyncio.gather(
                    *(client.query(dep.query) for _ in range(20))
                )

        with QueryGateway(cloud, max_inflight=64) as gateway:
            answers = asyncio.run(main())
        assert len(answers) == 20
        for table, expanded in answers:
            assert wire_bytes(table, order, expanded) == expected

    def test_coalescing_shares_one_computation(self, dep):
        """Two identical frames in one write are read before the first
        computes, so the second shares its computation."""
        counting = CountingCloud(make_cloud(dep))
        obs = Observability()
        with QueryGateway(counting, obs=obs) as gateway:
            replies = exchange(gateway, ("a", dep.query), ("b", dep.query))
        (kind1, (t1, e1)), (kind2, (t2, e2)) = replies["a"], replies["b"]
        assert kind1 == kind2 == "answer"
        order = sorted(dep.query.vertex_ids())
        assert wire_bytes(t1, order, e1) == wire_bytes(t2, order, e2)
        assert counting.calls == 1
        coalesced = obs.metrics.counter(names.M_GATEWAY_COALESCED)
        assert coalesced.total == 1

    def test_herd_queued_behind_a_slow_request_shares_one_computation(self, dep):
        """While a slow request holds the loop, two identical requests
        arrive in separate writes; they are read together afterwards
        and compute once."""
        other = deployment(seed=99)
        counting = CountingCloud(make_cloud(dep), delay=0.3)

        async def main():
            reader, writer = await open_raw(gateway.port, "herd")
            writer.write(request_frames(("slow", other.query)))
            await writer.drain()
            while counting.calls == 0:  # the slow request is computing
                await asyncio.sleep(0.005)
            for request_id in ("d1", "d2"):
                writer.write(request_frames((request_id, dep.query)))
                await writer.drain()
            replies = await read_replies(reader, 3)
            await close_raw(writer)
            return replies

        obs = Observability()
        with QueryGateway(counting, obs=obs) as gateway:
            replies = asyncio.run(main())
        assert {kind for kind, _ in replies.values()} == {"answer"}
        order = sorted(dep.query.vertex_ids())
        (t1, e1), (t2, e2) = replies["d1"][1], replies["d2"][1]
        assert wire_bytes(t1, order, e1) == wire_bytes(t2, order, e2)
        assert counting.calls == 2
        assert obs.metrics.counter(names.M_GATEWAY_COALESCED).total == 1

    def test_distinct_queries_do_not_coalesce(self, dep):
        other = deployment(seed=99)
        counting = CountingCloud(make_cloud(dep), delay=0.2)

        async def main():
            async with GatewayClient(
                "127.0.0.1", gateway.port, client_id="mix"
            ) as client:
                return await asyncio.gather(
                    client.query(dep.query), client.query(other.query)
                )

        with QueryGateway(counting) as gateway:
            answers = asyncio.run(main())
        assert len(answers) == 2
        assert counting.calls == 2


class TestDistributedTracing:
    """Context propagation over the wire and cross-process stitching."""

    def test_traced_and_untraced_answers_are_identical(self, dep):
        cloud = make_cloud(dep)
        order = sorted(dep.query.vertex_ids())
        with QueryGateway(cloud, obs=Observability()) as gateway:
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="pair"
            ) as client:
                plain = client.submit([dep.query])
                traced = client.submit_traced([dep.query])
        plain_table, plain_expanded = plain[0]
        traced_table, traced_expanded = traced.answers[0]
        assert wire_bytes(plain_table, order, plain_expanded) == wire_bytes(
            traced_table, order, traced_expanded
        )

    def test_contextless_request_gets_pre_trace_answer_bytes(self, dep):
        """An old client (no ctx field) receives the exact answer frame
        bytes a pre-context gateway produced — the trace key is only
        ever added for requests that asked for it."""
        cloud = make_cloud(dep)
        reference = cloud.answer(dep.query)
        order = sorted(dep.query.vertex_ids())
        expected = encode_gateway_answer(
            "old-1", [(reference.table, order, reference.expanded)]
        )

        async def main():
            reader, writer = await open_raw(gateway.port, "old")
            writer.write(request_frames(("old-1", dep.query)))
            await writer.drain()
            kind, payload = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return kind, payload

        # tracing is fully enabled server-side; the answer must still
        # be byte-identical because no context was propagated.
        with QueryGateway(cloud, obs=Observability()) as gateway:
            kind, payload = asyncio.run(main())
        assert kind == "answer"
        assert payload == expected
        assert b'"trace"' not in payload

    @pytest.mark.skipif(
        not fork_available(), reason="fork start method required"
    )
    def test_stitched_trace_chains_every_span_to_client_root(self, dep):
        """The acceptance walk: gateway, dispatch, cloud, per-shard and
        fork-child spans all resolve parent links up to the client's
        ``client.submit`` root span, with unique span ids and spans
        from more than one OS process."""
        cloud = make_cloud(dep, shards=2)
        obs = Observability()
        with QueryGateway(cloud, obs=obs) as gateway:
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="walker"
            ) as client:
                traced = client.submit_traced([dep.query])
        cloud.close()

        trace = traced.trace
        assert trace is not None and len(trace) > 0
        by_id = {span.span_id: span for span in trace}
        assert len(by_id) == len(trace)  # no span-id collisions
        root = trace.first(names.CLIENT_SUBMIT)
        assert root is not None and root.parent_id is None
        for span in trace:
            hops, current = 0, span
            while current.parent_id is not None:
                assert current.parent_id in by_id, (
                    f"{current.name} has unresolvable parent "
                    f"{current.parent_id}"
                )
                current = by_id[current.parent_id]
                hops += 1
                assert hops <= len(trace)  # cycle guard
            assert current.span_id == root.span_id, (
                f"{span.name} does not chain to the client root"
            )
        # every serving layer contributed spans
        assert trace.first(names.GATEWAY_REQUEST) is not None
        assert trace.first(names.GATEWAY_DISPATCH) is not None
        assert trace.first(names.CLOUD_ANSWER) is not None
        shard_spans = trace.named(names.CLOUD_SHARD_MATCH)
        assert len(shard_spans) == 2
        assert {s.attributes.get("shard") for s in shard_spans} == {0, 1}
        # fork children really ran elsewhere: more than one pid
        assert len({span.pid for span in trace if span.pid}) >= 2
        # one query id stamps the whole tree (client, gateway, shards)
        stamped = {span.query_id for span in trace if span.query_id}
        assert stamped == {traced.query_id}

    def test_traced_request_accounts_trace_bytes(self, dep):
        cloud = make_cloud(dep)
        obs = Observability()
        with QueryGateway(cloud, obs=obs) as gateway:
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="acct"
            ) as client:
                traced = client.submit_traced([dep.query])
        assert traced.trace is not None
        counter = obs.metrics.counter(names.M_TRACE_BYTES)
        assert counter.value(direction="gateway_answer") > 0

    def test_gateway_retains_trace_in_ring_by_query_id(self, dep):
        cloud = make_cloud(dep)
        ring = TraceRing()
        with QueryGateway(
            cloud, obs=Observability(), traces=ring
        ) as gateway:
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="ring"
            ) as client:
                traced = client.submit_traced([dep.query])
            # the push happens just after the answer frame is sent
            deadline = time.monotonic() + 5.0
            while (
                ring.find(traced.query_id) is None
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        entry = ring.find(traced.query_id)
        assert entry is not None
        assert entry["query_id"] == traced.query_id
        assert entry["spans"]
        assert ring.find("no-such-query") is None


class TestGatewayShedding:
    def test_saturated_window_sheds_with_typed_reject(self, dep):
        """With the window over the SLO, a request read while another
        is pending is shed; the pending one is answered."""
        cloud = make_cloud(dep)
        obs = Observability()
        with QueryGateway(cloud, slo_seconds=0.01, obs=obs) as gateway:
            for _ in range(MIN_WINDOW_COUNT):
                gateway.window.observe(1.0)  # tail far over the SLO
            replies = exchange(gateway, ("a", dep.query), ("b", dep.query))
        assert replies["a"][0] == "answer"
        assert replies["b"] == ("reject", "overloaded")
        assert "overloaded" in SHED_CODES
        shed = obs.metrics.counter(names.M_GATEWAY_SHED)
        assert shed.value(reason="overloaded") == 1
        requests = obs.metrics.counter(names.M_GATEWAY_REQUESTS)
        assert requests.value(status="overloaded") == 1
        assert requests.value(status="ok") == 1

    def test_slo_with_a_disabled_scope_is_refused(self, dep):
        """The window observes request spans; a disabled scope opens
        none, so it would stay empty and never shed."""
        with pytest.raises(GatewayError, match="slo_seconds"):
            QueryGateway(
                make_cloud(dep), slo_seconds=1e-9, obs=Observability.disabled()
            )

    def test_connection_survives_a_shed(self, dep):
        cloud = make_cloud(dep)
        expected = reference_bytes(cloud, dep.query)
        order = sorted(dep.query.vertex_ids())

        async def main():
            reader, writer = await open_raw(gateway.port, "retry")
            writer.write(request_frames(("a", dep.query), ("b", dep.query)))
            await writer.drain()
            shed = await read_replies(reader, 2)
            # the gateway is idle again: the same connection serves the retry
            writer.write(request_frames(("retry", dep.query)))
            await writer.drain()
            retry = await read_replies(reader, 1)
            await close_raw(writer)
            return shed, retry

        with QueryGateway(cloud, slo_seconds=10.0) as gateway:
            for _ in range(MIN_WINDOW_COUNT):
                gateway.window.observe(100.0)
            shed, retry = asyncio.run(main())
        assert shed["b"] == ("reject", "overloaded")
        kind, (table, expanded) = retry["retry"]
        assert kind == "answer"
        assert wire_bytes(table, order, expanded) == expected

    def test_a_breached_window_refreshes_through_idle_admissions(self, dep):
        """Only admitted requests feed the window, so a gateway that
        shed while idle would shed forever: an idle gateway answers,
        and a window of fast answers lets it admit under load again."""
        cloud = make_cloud(dep)
        expected = reference_bytes(cloud, dep.query)
        order = sorted(dep.query.vertex_ids())
        with QueryGateway(cloud, slo_seconds=10.0) as gateway:
            for _ in range(MIN_WINDOW_COUNT):
                gateway.window.observe(100.0)
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="idle"
            ) as client:
                table, expanded = client.query(dep.query)
                assert wire_bytes(table, order, expanded) == expected
                for _ in range(gateway.window.capacity):
                    client.query(dep.query)
            assert gateway.window.quantile(0.99) < 10.0
            replies = exchange(gateway, ("a", dep.query), ("b", dep.query))
        assert {kind for kind, _ in replies.values()} == {"answer"}


class TestGatewayPolicyOverWire:
    def test_auth_token_enforced_per_request(self, dep):
        cloud = make_cloud(dep)
        with QueryGateway(cloud, token="letmein") as gateway:
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="ok", token="letmein"
            ) as client:
                table, _ = client.query(dep.query)
                assert len(table.schema) > 0
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="bad", token="nope"
            ) as client:
                with pytest.raises(GatewayRejected) as info:
                    client.query(dep.query)
        assert info.value.code == "unauthorized"

    def test_accepted_and_refused_requests_each_log_their_status(
        self, dep, tmp_path
    ):
        # the trace document is the gateway's one record of a request:
        # a logging ring writes it, whatever became of the request
        path = tmp_path / "traces.jsonl"
        ring = TraceRing(log=path)
        with QueryGateway(make_cloud(dep), token="letmein", traces=ring) as gateway:
            for client_id, token in (("ok", "letmein"), ("bad", "nope")):
                with SyncGatewayClient(
                    gateway.host, gateway.port, client_id=client_id, token=token
                ) as client:
                    try:
                        client.query(dep.query)
                    except GatewayRejected:
                        pass
            # the push happens just after the answer/reject frame
            deadline = time.monotonic() + 5.0
            while ring.pushed < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        ring.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert sorted((doc["client_id"], doc["status"]) for doc in lines) == [
            ("bad", "unauthorized"),
            ("ok", "ok"),
        ]
        for doc in lines:
            assert doc == ring.find(doc["query_id"])
            (root,) = [s for s in doc["spans"] if s["name"] == names.GATEWAY_REQUEST]
            assert root["attributes"]["status"] == doc["status"]
            assert root["attributes"]["queries"] == 1

    def test_an_unkeyable_request_is_an_internal_reject(self, dep):
        """A frame that decodes but whose labels no canonical order
        sorts is refused as ``internal`` at read time; its admission
        slot is given back and the connection stays usable."""
        doc = json.loads(encode_gateway_request("bad", [dep.query]))
        vertex = doc["queries"][0]["vertices"][0]
        vertex["labels"] = {"mixed": ["x", 1]}
        cloud = make_cloud(dep)
        expected = reference_bytes(cloud, dep.query)
        order = sorted(dep.query.vertex_ids())

        async def main():
            reader, writer = await open_raw(gateway.port)
            writer.write(
                encode_frame("request", json.dumps(doc).encode("utf-8"))
                + request_frames(("good", dep.query))
            )
            await writer.drain()
            replies = await read_replies(reader, 2)
            await close_raw(writer)
            return replies

        with QueryGateway(cloud, max_inflight=1) as gateway:
            replies = asyncio.run(main())
            assert gateway.admission.inflight() == 0
        assert replies["bad"] == ("reject", "internal")
        kind, (table, expanded) = replies["good"]
        assert kind == "answer"
        assert wire_bytes(table, order, expanded) == expected

    def test_an_answer_past_the_frame_cap_is_an_internal_reject(
        self, dep, monkeypatch
    ):
        """An answer too big for one frame is refused as ``internal``
        (the reason is the exception's type name) instead of leaving the
        client waiting; it is counted under that status, its bytes are
        never counted as sent, and the connection stays usable."""
        cloud = make_cloud(dep)
        reference = cloud.answer(dep.query)
        order = sorted(dep.query.vertex_ids())
        entry = [(reference.table, order, reference.expanded)]
        request = len(encode_gateway_request("big", [dep.query]))
        answer = len(encode_gateway_answer("big", entry))
        assert request < answer
        obs = Observability()

        async def main():
            reader, writer = await open_raw(gateway.port)
            monkeypatch.setattr(protocol, "MAX_FRAME_PAYLOAD", (request + answer) // 2)
            writer.write(request_frames(("big", dep.query)))
            await writer.drain()
            refused = await asyncio.wait_for(read_frame(reader), 5.0)
            monkeypatch.undo()
            writer.write(request_frames(("next", dep.query)))
            await writer.drain()
            replies = await asyncio.wait_for(read_replies(reader, 1), 5.0)
            await close_raw(writer)
            return refused, replies

        with QueryGateway(cloud, obs=obs) as gateway:
            (kind, payload), replies = asyncio.run(main())
            sent = gateway.channel.total_bytes("gateway_answer")
        assert kind == "reject"
        assert decode_gateway_reject(payload) == ("big", "internal", "ProtocolError")
        kind, (table, expanded) = replies["next"]
        assert kind == "answer"
        assert wire_bytes(table, order, expanded) == reference_bytes(cloud, dep.query)
        assert sent == len(encode_gateway_answer("next", entry))
        requests = obs.metrics.counter(names.M_GATEWAY_REQUESTS)
        assert requests.value(status="internal") == 1
        assert requests.value(status="ok") == 1

    def test_garbage_frames_get_bad_request(self, dep):
        cloud = make_cloud(dep)

        async def main():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            writer.write(b"\x00" * 32)
            await writer.drain()
            data = await reader.read(4096)
            writer.close()
            await writer.wait_closed()
            return data

        with QueryGateway(cloud) as gateway:
            data = asyncio.run(main())
        assert b"bad_request" in data

    def test_channel_totals_are_live_while_connected(self, dep):
        cloud = make_cloud(dep)
        with QueryGateway(cloud) as gateway:
            assert gateway.channel.total_bytes() == 0
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="acct"
            ) as client:
                client.query(dep.query)
                # counted before the answer frame is sent, so already
                # visible while the connection stays open
                queried = gateway.channel.total_bytes("gateway_query")
                answered = gateway.channel.total_bytes("gateway_answer")
                assert queried > 0
                assert answered > 0
            assert gateway.channel.total_bytes() == queried + answered

    def test_connect_to_dead_port_raises_gateway_error(self):
        async def main():
            client = GatewayClient("127.0.0.1", 1)  # nothing listens here
            await client.connect()

        with pytest.raises(GatewayError, match="cannot reach gateway"):
            asyncio.run(main())


class TestBoundedServingState:
    def test_one_connection_retains_nothing_per_request(self, dep):
        """Requests 200..600 on one connection leave ``src/repro`` flat."""
        package = str(Path(repro.__file__).parent)
        with QueryGateway(make_cloud(dep), obs=Observability.disabled()) as gateway:
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="soak"
            ) as client:
                for _ in range(200):
                    client.query(dep.query)
                gc.collect()
                tracemalloc.start()
                try:
                    before = tracemalloc.take_snapshot()
                    for _ in range(400):
                        client.query(dep.query)
                    gc.collect()
                    after = tracemalloc.take_snapshot()
                finally:
                    tracemalloc.stop()
        grown = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if stat.traceback[0].filename.startswith(package)
        )
        assert grown < 32 * 1024
