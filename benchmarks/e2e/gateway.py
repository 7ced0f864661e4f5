"""The serving path: a ``repro serve`` subprocess and its load generator.

The cloud half runs in its own process (``python -m repro serve <dep>
<graph> --gateway-port 0 ...``, default workers and admission policy,
star cache off like every other workload); this process plays the
trusted client: ``prepare_query`` -> ``GatewayClient.query`` ->
``process_answer``.  One event loop drives at most two connections —
the host has two cores and the server needs one.

* open loop: requests are *due* on a fixed schedule and each is timed
  from its due time, so a stall is charged to every request it delays;
  how late the generator itself fired is reported next to it.
* closed loop: each connection sends its next request when the
  previous answer is in, which shows what server CPU per request allows.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Coroutine

from harness import Tally

from repro.core.query_client import QueryClient
from repro.core.storage import save_published
from repro.core.system import PrivacyPreservingSystem
from repro.exceptions import GatewayError, GatewayRejected, ReproError
from repro.gateway import SHED_CODES, GatewayClient
from repro.graph import AttributedGraph, save_graph
from repro.obs import Observability

SRC = Path(__file__).resolve().parents[2] / "src"
START_TIMEOUT_S = 120.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
NO_OBS = Observability.disabled()


class Server:
    """Handle on one ``repro serve`` subprocess."""

    def __init__(self, process: subprocess.Popen, port: int, telemetry_port: int, log: Path):
        self.process = process
        self.port = port
        self.telemetry_port = telemetry_port
        self.log = log
        self.returncode: int | None = None

    def cpu_seconds(self) -> float:
        """User + system CPU the server has used so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def wire_bytes(self) -> int:
        """Gateway frame bytes, both directions, from the server's /metrics.

        Per-connection accounting merges on disconnect, so read it
        after the load generator's connections are closed.
        """
        url = f"http://127.0.0.1:{self.telemetry_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode("utf-8")
        total = 0.0
        for line in text.splitlines():
            if "network_bytes_total{direction=\"gateway_" in line:
                total += float(line.rsplit(" ", 1)[1])
        return int(total)

    def stop(self) -> None:
        """Close stdin (serve drains and exits), then wait; kill if stuck."""
        if self.returncode is not None:
            return
        process = self.process
        try:
            if process.stdin is not None:
                process.stdin.close()
            self.returncode = process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            self.returncode = process.wait()


def _read_port(path: Path) -> int | None:
    try:
        return int(path.read_text())
    except (OSError, ValueError):
        return None


def serve(system: PrivacyPreservingSystem, graph: AttributedGraph, directory: str) -> Server:
    """Save the deployment and start serving it; returns once it listens."""
    root = Path(directory)
    save_published(system.published, root)
    graph_path = root / "graph.json"
    save_graph(graph, graph_path)
    port_file, telemetry_file = root / "gateway.port", root / "telemetry.port"
    for stale in (port_file, telemetry_file):
        stale.unlink(missing_ok=True)
    log = root / "serve.log"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as log_handle:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(root), str(graph_path),
                "--gateway-port", "0", "--gateway-port-file", str(port_file),
                "--port", "0", "--port-file", str(telemetry_file),
                "--star-cache", "0",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=log_handle,
            env=env,
        )
    server = Server(process, 0, 0, log)
    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        port, telemetry = _read_port(port_file), _read_port(telemetry_file)
        if port is not None and telemetry is not None:
            server.port, server.telemetry_port = port, telemetry
            return server
        if process.poll() is not None or time.monotonic() > deadline:
            server.stop()
            raise RuntimeError(
                f"repro serve did not come up: {log.read_text(errors='replace')[-2000:]}"
            )
        time.sleep(0.01)


@dataclass
class Arm:
    """What one load-generator arm observed."""

    latencies: list[float] = field(default_factory=list)  # begin/due -> filtered
    roundtrips: list[tuple[int, float]] = field(default_factory=list)  # (query, s)
    late: list[float] = field(default_factory=list)  # open loop: fired - due
    wall_seconds: float = 0.0
    server_cpu_seconds: float = 0.0
    shed: int = 0
    errors: int = 0

    @property
    def completed(self) -> int:
        return len(self.latencies)


class LoadGenerator:
    def __init__(
        self,
        server: Server,
        client: QueryClient,
        queries: list[AttributedGraph],
        answers: list[list[dict[int, int]]],
        tally: Tally,
        latency_limit_s: float,
    ) -> None:
        self.server = server
        self.client = client
        self.queries = queries
        self.answers = answers
        self.tally = tally
        self.latency_limit_s = latency_limit_s

    async def _request(self, conn: GatewayClient, index: int, begin: float, arm: Arm) -> None:
        clock = time.perf_counter
        query = self.queries[index]
        try:
            anonymized = self.client.prepare_query(query, obs=NO_OBS)
            sent = clock()
            # the client has no timeout of its own: a server that never
            # answers must become a failed request, not a hung benchmark
            table, expanded = await asyncio.wait_for(
                conn.query(anonymized), timeout=2 * self.latency_limit_s
            )
            received = clock()
            outcome = self.client.process_answer(query, table, expanded, obs=NO_OBS)
        except GatewayRejected as exc:
            if exc.code in SHED_CODES:
                arm.shed += 1
            else:
                arm.errors += 1
            self.tally.fail(f"gateway rejected query {index}: {exc.code}")
            return
        except (ReproError, asyncio.TimeoutError) as exc:
            arm.errors += 1
            self.tally.fail(f"gateway query {index}: {type(exc).__name__}: {exc}")
            return
        seconds = clock() - begin
        arm.latencies.append(seconds)
        arm.roundtrips.append((index, received - sent))
        if outcome.matches != self.answers[index]:
            self.tally.fail(f"gateway answer {index} != in-process answer")
        elif seconds > self.latency_limit_s:
            self.tally.fail(f"gateway query {index} took {seconds:.3f}s")
        else:
            self.tally.ok()

    def _connect(self, name: str) -> GatewayClient:
        return GatewayClient("127.0.0.1", self.server.port, client_id=name)

    async def _closed(self, connections: int, seconds: float, min_ops: int, arm: Arm) -> None:
        count = len(self.queries)
        deadline = time.perf_counter() + seconds

        async def one_connection(number: int) -> None:
            cursor = number * count // connections
            done = 0
            async with self._connect(f"closed-{number}") as conn:
                while done < min_ops or time.perf_counter() < deadline:
                    await self._request(conn, cursor % count, time.perf_counter(), arm)
                    cursor += 1
                    done += 1

        await asyncio.gather(*(one_connection(n) for n in range(connections)))

    async def _open(self, rate: float, seconds: float, arm: Arm) -> None:
        clock = time.perf_counter
        count = len(self.queries)
        async with self._connect("open") as conn:
            tasks = []
            start = clock()
            for i in range(max(1, int(rate * seconds))):
                due = start + i / rate
                # the loop's timers round up to a millisecond: sleep
                # short of the due time, then yield until it arrives
                if due - clock() > 0.002:
                    await asyncio.sleep(due - clock() - 0.002)
                while clock() < due:
                    await asyncio.sleep(0)
                arm.late.append(max(0.0, clock() - due))
                tasks.append(asyncio.create_task(self._request(conn, i % count, due, arm)))
            await asyncio.gather(*tasks)

    def _run(self, coroutine_for: Callable[[Arm], Coroutine]) -> Arm:
        arm = Arm()
        cpu = self.server.cpu_seconds()
        started = time.perf_counter()
        try:
            asyncio.run(coroutine_for(arm))
        except GatewayError as exc:  # connect / handshake failure
            arm.errors += 1
            self.tally.fail(f"gateway connection: {exc}")
        arm.wall_seconds = time.perf_counter() - started
        arm.server_cpu_seconds = self.server.cpu_seconds() - cpu
        return arm

    def closed_loop(self, connections: int, seconds: float, min_ops: int = 0) -> Arm:
        return self._run(lambda arm: self._closed(connections, seconds, min_ops, arm))

    def open_loop(self, rate: float, seconds: float) -> Arm:
        return self._run(lambda arm: self._open(rate, seconds, arm))
