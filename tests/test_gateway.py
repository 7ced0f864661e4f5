"""The serving gateway: middleware, admission, coalescing, bit-identity.

The contract under test: a query answered through the TCP gateway is
*byte-identical* (at the ``encode_answer_table`` wire layer) to the
same query answered in-process, for every engine topology; overload
degrades by shedding typed rejects, never by collapsing; and two
identical concurrent requests share one cloud computation.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro.cloud import build_cloud, fork_available
from repro.core.protocol import (
    FRAME_HEADER,
    decode_frame_header,
    encode_answer_table,
    encode_frame,
    encode_gateway_answer,
    encode_gateway_hello,
    encode_gateway_request,
)
from repro.exceptions import GatewayError, GatewayRejected
from repro.gateway import (
    AdmissionController,
    AdmissionPolicy,
    AuditLogMiddleware,
    AuthTokenMiddleware,
    GatewayClient,
    GatewayRequest,
    GatewayResponse,
    Middleware,
    MiddlewareChain,
    PrivacyBudgetMiddleware,
    QueryCoalescer,
    QueryGateway,
    RateLimitMiddleware,
    SHED_CODES,
    SyncGatewayClient,
    coalesce_key,
    query_signature,
)
from repro.graph import make_schema, random_attributed_graph
from repro.kauto import build_k_automorphic_graph
from repro.obs import EventLog, Observability, TraceRing, names
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


def make_cloud(dep, shards: int = 1, backend: str = "serial"):
    return build_cloud(
        dep.outsourced.graph,
        dep.avt,
        dep.outsourced.block_vertices,
        shards=shards,
        shard_backend=backend,
    )


def wire_bytes(table, order, expanded) -> bytes:
    return encode_answer_table(table, order, expanded)


def reference_bytes(cloud, query) -> bytes:
    answer = cloud.answer(query)
    return wire_bytes(answer.table, sorted(query.vertex_ids()), answer.expanded)


def request(client="alice", rid="alice-1", queries=(), token="") -> GatewayRequest:
    return GatewayRequest(
        client_id=client, request_id=rid, queries=list(queries), token=token
    )


# ----------------------------------------------------------------------
# middleware chain
# ----------------------------------------------------------------------
class Recorder(Middleware):
    def __init__(self, name: str, log: list, reject: str | None = None):
        self.name = name
        self.log = log
        self.reject = reject

    def on_request(self, req: GatewayRequest) -> None:
        if self.reject is not None:
            raise GatewayRejected(self.reject, "refused", req.request_id)
        self.log.append(("request", self.name))

    def on_response(self, req: GatewayRequest, resp: GatewayResponse) -> None:
        self.log.append(("response", self.name, resp.status))


class TestMiddlewareChain:
    def test_hooks_run_in_order_then_reversed(self):
        log: list = []
        chain = MiddlewareChain(
            [Recorder("a", log), Recorder("b", log), Recorder("c", log)]
        )
        response = chain.process(request(), lambda req: GatewayResponse.ok(1))
        assert response.status == "ok"
        assert log == [
            ("request", "a"),
            ("request", "b"),
            ("request", "c"),
            ("response", "c", "ok"),
            ("response", "b", "ok"),
            ("response", "a", "ok"),
        ]

    def test_rejection_short_circuits_later_middlewares(self):
        log: list = []
        chain = MiddlewareChain(
            [
                Recorder("a", log),
                Recorder("b", log, reject="unauthorized"),
                Recorder("c", log),
            ]
        )
        entered, rejection = chain.before(request())
        assert rejection is not None and rejection.code == "unauthorized"
        assert [m.name for m in entered] == ["a"]
        assert log == [("request", "a")]

    def test_process_reraise_still_audits_entered(self):
        log: list = []
        chain = MiddlewareChain(
            [Recorder("a", log), Recorder("b", log, reject="rate_limited")]
        )
        with pytest.raises(GatewayRejected, match="rate_limited"):
            chain.process(request(), lambda req: GatewayResponse.ok(0))
        assert log == [("request", "a"), ("response", "a", "rate_limited")]

    def test_handler_rejection_reaches_hooks(self):
        log: list = []
        chain = MiddlewareChain([Recorder("a", log)])

        def handler(req):
            raise GatewayRejected("overloaded", "busy", req.request_id)

        with pytest.raises(GatewayRejected, match="overloaded"):
            chain.process(request(), handler)
        assert log == [("request", "a"), ("response", "a", "overloaded")]


class TestStockMiddlewares:
    def test_auth_shared_token(self):
        auth = AuthTokenMiddleware(token="s3cret")
        auth.on_request(request(token="s3cret"))
        with pytest.raises(GatewayRejected, match="unauthorized"):
            auth.on_request(request(token="wrong"))

    def test_auth_per_client_roster(self):
        auth = AuthTokenMiddleware(tokens={"alice": "a", "bob": "b"})
        auth.on_request(request(client="alice", token="a"))
        with pytest.raises(GatewayRejected, match="unauthorized"):
            auth.on_request(request(client="alice", token="b"))
        with pytest.raises(GatewayRejected, match="unauthorized"):
            auth.on_request(request(client="mallory", token="a"))

    def test_auth_requires_exactly_one_config(self):
        with pytest.raises(ValueError):
            AuthTokenMiddleware()
        with pytest.raises(ValueError):
            AuthTokenMiddleware(token="x", tokens={"a": "y"})

    def test_rate_limit_token_bucket(self):
        clock = SimpleNamespace(now=0.0)
        limiter = RateLimitMiddleware(
            rate=1.0, burst=2, clock=lambda: clock.now
        )
        limiter.on_request(request(client="alice"))
        limiter.on_request(request(client="alice"))
        with pytest.raises(GatewayRejected, match="rate_limited"):
            limiter.on_request(request(client="alice"))
        # other clients have their own bucket
        limiter.on_request(request(client="bob"))
        # refill after a second of simulated time
        clock.now = 1.0
        limiter.on_request(request(client="alice"))

    def test_privacy_budget_counts_queries(self, figure1_query):
        budget = PrivacyBudgetMiddleware(budget=3)
        budget.on_request(request(queries=[figure1_query] * 2))
        assert budget.remaining("alice") == 1
        with pytest.raises(GatewayRejected, match="budget_exhausted"):
            budget.on_request(request(queries=[figure1_query] * 2))
        budget.on_request(request(queries=[figure1_query]))
        assert budget.remaining("alice") == 0

    def test_audit_log_emits_jsonl(self, tmp_path, figure1_query):
        path = tmp_path / "audit.jsonl"
        events = EventLog(path)
        chain = MiddlewareChain([AuditLogMiddleware(events)])
        chain.process(
            request(queries=[figure1_query]),
            lambda req: GatewayResponse.ok(1),
        )
        with pytest.raises(GatewayRejected):
            chain.process(
                request(rid="alice-2"),
                lambda req: (_ for _ in ()).throw(
                    GatewayRejected("overloaded", "busy")
                ),
            )
        events.close()
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        assert [r["event"] for r in records] == [names.GATEWAY_REQUEST] * 2
        assert records[0]["status"] == "ok"
        assert records[0]["client_id"] == "alice"
        assert records[1]["status"] == "overloaded"


# ----------------------------------------------------------------------
# admission + coalescing units
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(slo_seconds=-1.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(slo_quantile=1.5)

    def test_global_cap_sheds_overloaded(self):
        control = AdmissionController(AdmissionPolicy(max_inflight=2))
        control.admit("a")
        control.admit("b")
        with pytest.raises(GatewayRejected, match="overloaded"):
            control.admit("c")
        control.release("a")
        control.admit("c")

    def test_per_client_cap_sheds_queue_full(self):
        control = AdmissionController(
            AdmissionPolicy(max_inflight=10, max_client_inflight=1)
        )
        control.admit("alice")
        with pytest.raises(GatewayRejected, match="queue_full"):
            control.admit("alice")
        control.admit("bob")  # other clients unaffected
        control.release("alice")
        control.admit("alice")

    def test_shed_probe_refuses_before_caps(self):
        control = AdmissionController(
            AdmissionPolicy(max_inflight=10), shed_probe=lambda: True
        )
        with pytest.raises(GatewayRejected) as info:
            control.admit("alice")
        assert info.value.code == "overloaded"
        assert info.value.code in SHED_CODES

    def test_inflight_accounting(self):
        control = AdmissionController()
        control.admit("alice")
        control.admit("alice")
        control.admit("bob")
        assert control.inflight() == 3
        assert control.inflight("alice") == 2
        control.release("alice")
        assert control.inflight("alice") == 1


class TestCoalescer:
    def test_signature_is_structural(self, dep):
        other = deployment()  # fresh, structurally identical objects
        assert query_signature(dep.query) == query_signature(other.query)
        different = deployment(seed=99)
        assert query_signature(dep.query) != query_signature(different.query)

    def test_lease_and_complete(self, dep):
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


# ----------------------------------------------------------------------
# the gateway over real sockets
# ----------------------------------------------------------------------
TOPOLOGIES = [
    ("serial", 1),
    ("serial", 4),
    pytest.param(
        "process",
        4,
        marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method required"
        ),
    ),
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

    @property
    def avt(self):
        return self._inner.avt


class TestGatewayRoundTrip:
    @pytest.mark.parametrize("backend,shards", TOPOLOGIES)
    def test_bit_identity_across_topologies(self, dep, backend, shards):
        cloud = make_cloud(dep, shards=shards, backend=backend)
        expected = reference_bytes(cloud, dep.query)
        with QueryGateway(cloud) as gateway:
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="matrix"
            ) as client:
                table, expanded = client.query(dep.query)
        order = sorted(dep.query.vertex_ids())
        assert wire_bytes(table, order, expanded) == expected
        if hasattr(cloud, "close"):
            cloud.close()

    def test_many_concurrent_queries_zero_drops(self, dep):
        cloud = make_cloud(dep)
        expected = reference_bytes(cloud, dep.query)
        order = sorted(dep.query.vertex_ids())
        policy = AdmissionPolicy(max_inflight=64, max_client_inflight=64)

        async def main():
            async with GatewayClient(
                "127.0.0.1", gateway.port, client_id="herd"
            ) as client:
                return await asyncio.gather(
                    *(client.query(dep.query) for _ in range(20))
                )

        with QueryGateway(cloud, policy=policy) as gateway:
            answers = asyncio.run(main())
        assert len(answers) == 20
        for table, expanded in answers:
            assert wire_bytes(table, order, expanded) == expected

    def test_coalescing_shares_one_computation(self, dep):
        counting = CountingCloud(make_cloud(dep), delay=0.3)

        async def main():
            async with GatewayClient(
                "127.0.0.1", gateway.port, client_id="dup"
            ) as client:
                return await asyncio.gather(
                    client.query(dep.query), client.query(dep.query)
                )

        obs = Observability()
        with QueryGateway(counting, obs=obs) as gateway:
            (t1, e1), (t2, e2) = asyncio.run(main())
        order = sorted(dep.query.vertex_ids())
        assert wire_bytes(t1, order, e1) == wire_bytes(t2, order, e2)
        assert counting.calls == 1
        coalesced = obs.metrics.counter(names.M_GATEWAY_COALESCED)
        assert coalesced.total == 1

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
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )

            async def read_frame():
                header = await reader.readexactly(FRAME_HEADER.size)
                kind, length = decode_frame_header(header)
                payload = await reader.readexactly(length) if length else b""
                return kind, payload

            writer.write(encode_frame("hello", encode_gateway_hello("old")))
            await writer.drain()
            await read_frame()  # hello ack
            writer.write(
                encode_frame(
                    "request", encode_gateway_request("old-1", [dep.query])
                )
            )
            await writer.drain()
            kind, payload = await read_frame()
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
        cloud = make_cloud(dep, shards=2, backend="process")
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
        cloud = make_cloud(dep)
        obs = Observability()
        policy = AdmissionPolicy(
            slo_seconds=0.01, slo_quantile=0.5, min_window_count=1
        )
        with QueryGateway(cloud, policy=policy, obs=obs) as gateway:
            for _ in range(8):
                gateway.window.observe(1.0)  # tail far over the SLO
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="shed"
            ) as client:
                with pytest.raises(GatewayRejected) as info:
                    client.query(dep.query)
        assert info.value.code == "overloaded"
        assert info.value.code in SHED_CODES
        shed = obs.metrics.counter(names.M_GATEWAY_SHED)
        assert shed.value(reason="overloaded") == 1
        requests = obs.metrics.counter(names.M_GATEWAY_REQUESTS)
        assert requests.value(status="overloaded") == 1

    def test_connection_survives_a_shed(self, dep):
        cloud = make_cloud(dep)
        expected = reference_bytes(cloud, dep.query)
        order = sorted(dep.query.vertex_ids())
        policy = AdmissionPolicy(
            slo_seconds=10.0, slo_quantile=0.5, min_window_count=1
        )
        with QueryGateway(cloud, policy=policy) as gateway:
            gateway.window.observe(100.0)
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="retry"
            ) as client:
                with pytest.raises(GatewayRejected):
                    client.query(dep.query)
                # load drains: the same connection serves the retry
                gateway.window.observe(0.001)
                for _ in range(40):
                    gateway.window.observe(0.001)
                table, expanded = client.query(dep.query)
        assert wire_bytes(table, order, expanded) == expected


class TestGatewayPolicyOverWire:
    def test_auth_token_enforced_per_request(self, dep):
        cloud = make_cloud(dep)
        middlewares = [AuthTokenMiddleware(token="letmein")]
        with QueryGateway(cloud, middlewares=middlewares) as gateway:
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

    def test_privacy_budget_exhausts_over_wire(self, dep):
        cloud = make_cloud(dep)
        middlewares = [PrivacyBudgetMiddleware(budget=2)]
        with QueryGateway(cloud, middlewares=middlewares) as gateway:
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="spender"
            ) as client:
                client.query(dep.query)
                client.query(dep.query)
                with pytest.raises(GatewayRejected) as info:
                    client.query(dep.query)
        assert info.value.code == "budget_exhausted"

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

    def test_channel_totals_roll_up_on_disconnect(self, dep):
        cloud = make_cloud(dep)
        with QueryGateway(cloud) as gateway:
            assert gateway.channel.total_bytes() == 0
            with SyncGatewayClient(
                gateway.host, gateway.port, client_id="acct"
            ) as client:
                client.query(dep.query)
            deadline = time.monotonic() + 5.0
            while (
                gateway.channel.total_bytes() == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        queried = gateway.channel.total_bytes("gateway_query")
        answered = gateway.channel.total_bytes("gateway_answer")
        assert queried > 0
        assert answered > 0

    def test_connect_to_dead_port_raises_gateway_error(self):
        async def main():
            client = GatewayClient("127.0.0.1", 1)  # nothing listens here
            await client.connect()

        with pytest.raises(GatewayError, match="cannot reach gateway"):
            asyncio.run(main())
