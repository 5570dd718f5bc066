"""The load generator: one process, at most ``nproc`` connections.

The open loop sends on a seeded schedule at a fixed rate and times
each upload from when it was *due*, so a stall is charged to every
upload it delays.  The closed loop keeps every connection busy and
counts terminal acks per second.  Both retry explicit backpressure
(``status: retry``) under the same upload id, as a fleet client must.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.fleet.loadsim import ServiceClient
from repro.fleet.wire import FrameError

from fleetbench.common import BenchError, percentile
from fleetbench.traffic import arrival_gaps

MAX_ATTEMPTS = 200
RETRY_PAUSE = 0.02
#: The open loop fails the run when its send lateness p99 exceeds this:
#: the offered load was then not the configured one.
MAX_LATE_P99_S = 0.5


@dataclass
class OpenResult:
    latencies: "list[float]" = field(default_factory=list)   # s from due
    late: "list[float]" = field(default_factory=list)        # send - due

    @property
    def late_p99(self) -> float:
        return percentile(self.late, 0.99)

    def merge(self, other: "OpenResult") -> None:
        self.latencies += other.latencies
        self.late += other.late


async def upload(client: ServiceClient, item):
    """Send one upload until it reaches a terminal outcome; ``None``
    when it never does."""
    for _attempt in range(MAX_ATTEMPTS):
        try:
            response = await client.upload(item.label, item.blob,
                                           item.upload_id)
        except (ConnectionError, OSError, FrameError):
            await client.close()
            await asyncio.sleep(RETRY_PAUSE)
            continue
        if response.get("status") == "retry":
            await asyncio.sleep(RETRY_PAUSE)
            continue
        return response
    return None


class Generator:
    """Connections to one or more endpoints, used round-robin."""

    def __init__(self, ports: "list[int]", ledger, tracer,
                 connections: int) -> None:
        self.ports = ports
        self.ledger = ledger
        self.tracer = tracer
        # One connection per endpoint slot, endpoints taken in turn.
        self.clients = [ServiceClient("127.0.0.1", ports[i % len(ports)])
                        for i in range(connections)]
        self._sent = 0

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    def _route(self) -> int:
        """Round-robin over endpoints, as a load balancer would."""
        slot = self._sent % len(self.ports)
        self._sent += 1
        return slot

    async def _send(self, client, item, due: float) -> "tuple[float, dict]":
        sent = time.perf_counter()
        response = await upload(client, item)
        done = time.perf_counter()
        self.tracer.add("loadgen.upload", sent, done, item.upload_id)
        self.ledger.settle(item, response)
        return done, response

    async def closed(self, stream, uploads: int) -> "tuple[int, float]":
        """Send exactly *uploads* uploads, every connection back to back.

        Returns the terminal acks and the time from the first send to
        the last ack.  The server stays busy over that whole span, so
        their ratio is its capacity.  A fixed count, rather than a
        fixed time, drives every run through the same sequence of
        server states (cache and store sizes)."""
        start = time.perf_counter()
        remaining = uploads
        completed = 0
        last = start

        async def worker(client):
            nonlocal remaining, completed, last
            while remaining > 0:
                remaining -= 1
                done, response = await self._send(
                    client, stream.next(), time.perf_counter())
                if response is not None:
                    completed += 1
                    last = max(last, done)

        await asyncio.gather(*(worker(client) for client in self.clients))
        if not completed:
            raise BenchError("no closed-loop upload reached a terminal ack")
        return completed, last - start

    async def open(self, stream, rate: float, seconds: float) -> OpenResult:
        """Send on a seeded schedule at *rate* uploads/s for *seconds*."""
        result = OpenResult()
        idle = [asyncio.Queue() for _ in self.ports]
        for index, client in enumerate(self.clients):
            idle[index % len(self.ports)].put_nowait(client)
        gaps = arrival_gaps(stream.rng, rate)
        tasks = []

        async def fire(item, due, slot):
            client = await idle[slot].get()
            try:
                result.late.append(time.perf_counter() - due)
                done, _response = await self._send(client, item, due)
                result.latencies.append(done - due)
            finally:
                idle[slot].put_nowait(client)

        start = time.perf_counter() + 0.05
        due = start
        while due < start + seconds:
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(
                fire(stream.next(), due, self._route())))
            due += next(gaps)
        await asyncio.gather(*tasks)
        if result.late_p99 > MAX_LATE_P99_S:
            raise BenchError(
                f"load generator fell behind: send lateness p99 "
                f"{result.late_p99 * 1e3:.0f} ms at {rate} uploads/s")
        return result


async def wait_ready(port: int, started: float, timeout: float = 120.0,
                     alive=lambda: True) -> float:
    """Seconds from *started* until the endpoint answers a ping."""
    while True:
        client = ServiceClient("127.0.0.1", port)
        try:
            if await client.ping():
                return time.perf_counter() - started
        finally:
            await client.close()
        if not alive():
            raise BenchError(f"server on port {port} exited during start-up")
        if time.perf_counter() - started > timeout:
            raise BenchError(f"server on port {port} never answered")
        await asyncio.sleep(0.005)
