"""The serving workloads, st-warm and cluster-r2, and the dedup pass.

Each drives real ``bugnet serve`` processes with default settings from
this one load-generating process.  A run sets the servers up several
times (``setup_s`` is the median), warms them, runs the open loop at
the workload's fixed rate, then the closed loop, drains, and checks
every verdict and every stored upload against the oracle.  The dedup
pass, made only by the traced run of ``st-warm``, sends the mt-dup
traffic to a cold node for the ``mt-dup.`` per-layer metrics.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.fleet.cluster.harness import free_ports
from repro.fleet.cluster.topology import ClusterSpec, NodeSpec
from repro.fleet.loadsim import ServiceClient, fetch_metrics

from fleetbench import layers
from fleetbench.common import (
    BenchError,
    connections,
    percentile,
    process_tree,
    server_env,
    tail,
    vm_hwm_mb,
)
from fleetbench.gate import Ledger, store_uploads
from fleetbench.loadgen import Generator, OpenResult, wait_ready
from fleetbench.recording import recorder_layers
from fleetbench.traffic import Stream

#: Server set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: The measured time alternates open- and closed-loop slices, so both
#: loops sample the whole run rather than one half of it each.
SLICES = 8


@dataclass(frozen=True)
class Serving:
    """One serving workload."""

    name: str
    nodes: int
    #: Open-loop rate, uploads/s: a constant, never derived from a
    #: run's own measurement, so both sides of an A/B see the same
    #: offered load (README.md gives each rate's share of capacity).
    rate: float
    #: Closed-loop capacity on the reference host, uploads/s.  It only
    #: sizes the closed loop's fixed upload count.
    capacity: float
    warmup: int
    #: Share of the measured time spent in the open loop (the rest is
    #: the closed loop); larger where acks are slow, for tail samples.
    open_share: float = 0.5
    warm_template: bool = False
    #: Whether the traced run also makes the dedup pass and measures
    #: the recorder and diagnosis layers (:mod:`fleetbench.recording`),
    #: after the servers stop.
    extra_passes: bool = False
    corrupt_every: int = 0

    def stream(self, pool, seed: int) -> Stream:
        return Stream(self.name, seed, pool.st, pool.st_bases,
                      corrupt=pool.corrupt if self.corrupt_every else (),
                      corrupt_every=self.corrupt_every)


WORKLOADS = {
    "st-warm": Serving("st-warm", nodes=1, rate=2.0, capacity=6.5,
                       warmup=8, open_share=0.7, warm_template=True,
                       extra_passes=True, corrupt_every=25),
    "cluster-r2": Serving("cluster-r2", nodes=3, rate=6.0, capacity=50.0,
                          warmup=40, open_share=0.7),
}


#: The dedup pass: racy MT uploads, this share of them byte-identical
#: re-uploads under fresh upload ids, sent closed-loop to a cold node
#: after a warm-up.  It is a pass rather than a workload because its
#: timings spread too widely for a bound (README.md).
DEDUP_SHARE = 0.8
DEDUP_WARMUP = 50
DEDUP_UPLOADS = 600

#: Replication factor of the cluster workload.  Three nodes hold two
#: copies each, so a node is off a third of the preference lists and
#: forwards those uploads to an owner.
REPLICATION = 2


class Servers:
    """The ``bugnet serve`` processes of one run."""

    def __init__(self, run_dir: Path, nodes: int) -> None:
        self.run_dir = run_dir
        self.nodes = nodes
        self.procs: "list[subprocess.Popen]" = []
        self.ports: "list[int]" = []
        self.stores = [run_dir / f"node-n{index}" for index in range(nodes)]
        self._logs = []

    def _commands(self) -> "list[list[str]]":
        base = [sys.executable, "-m", "repro.cli", "serve"]
        if self.nodes == 1:
            return [base + ["--store", str(self.stores[0]),
                            "--port", str(self.ports[0])]]
        spec = ClusterSpec(
            nodes=tuple(NodeSpec(node_id=f"n{index}", host="127.0.0.1",
                                 port=port)
                        for index, port in enumerate(self.ports)),
            replication=REPLICATION,
        )
        spec_path = self.run_dir / "cluster.json"
        spec.dump(spec_path)
        return [base + ["--store", str(store), "--cluster", str(spec_path),
                        "--node-id", f"n{index}"]
                for index, store in enumerate(self.stores)]

    async def start(self) -> float:
        """Spawn every node; seconds until all answer their first
        request."""
        self.ports = free_ports(self.nodes)
        env = server_env()
        started = time.perf_counter()
        for index, command in enumerate(self._commands()):
            log = open(self.run_dir / f"serve-n{index}.log", "ab")
            self._logs.append(log)
            self.procs.append(subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=self.run_dir, start_new_session=True))
        waits = [
            wait_ready(port, started,
                       alive=lambda proc=proc: proc.poll() is None)
            for port, proc in zip(self.ports, self.procs)
        ]
        return max(await asyncio.gather(*waits))

    async def converge_membership(self, timeout: float = 30.0) -> None:
        """Wait until every node sees every node alive (cluster only)."""
        if self.nodes == 1:
            return
        deadline = time.perf_counter() + timeout
        want = {f"n{index}" for index in range(self.nodes)}
        while True:
            views = await self.stats()
            if all(set(view["cluster"]["alive"]) == want for view in views):
                return
            if time.perf_counter() > deadline:
                raise BenchError("cluster membership never converged")
            await asyncio.sleep(0.05)

    @property
    def copies(self) -> int:
        """How many node stores must hold each acked report."""
        return 1 if self.nodes == 1 else REPLICATION

    @property
    def entry_ports(self) -> "list[int]":
        """The nodes the load generator sends to, one per connection,
        as a load balancer fronting them would; a cluster's other
        nodes receive uploads only by forwarding and replication."""
        return self.ports[:connections()]

    async def converge_stores(self, acked: int,
                              timeout: float = 30.0) -> None:
        """Wait until the nodes together hold :attr:`copies` of each of
        the *acked* reports: every replica has caught up (anti-entropy
        repairs a missed push)."""
        deadline = time.perf_counter() + timeout
        while self.nodes > 1:
            counts = [view["store"]["reports"] for view in await self.stats()]
            if sum(counts) >= self.copies * acked:
                return
            if time.perf_counter() > deadline:
                raise BenchError(f"replicas never converged: {counts} "
                                 f"reports, {acked} acked")
            await asyncio.sleep(0.1)

    async def stats(self) -> "list[dict]":
        views = []
        for port in self.ports:
            client = ServiceClient("127.0.0.1", port)
            try:
                views.append(await client.stats())
            finally:
                await client.close()
        return views

    async def metrics(self) -> "list[dict]":
        return [await fetch_metrics("127.0.0.1", port) for port in self.ports]

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for proc in self.procs
                   for pid in process_tree(proc.pid))

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (a drained stop), then wait; SIGKILL the process
        group of any node that outlives *timeout*."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
        self.procs = []
        for log in self._logs:
            log.close()
        self._logs = []


async def run_serving(spec: Serving, pool, seed: int, seconds: int,
                      tracer, run_dir: Path) -> dict:
    servers = Servers(run_dir, spec.nodes)
    if spec.warm_template:
        shutil.copytree(pool.template, servers.stores[0])
    ledger = Ledger()
    stream = spec.stream(pool, seed)
    try:
        setups = []
        for attempt in range(SETUPS):
            setups.append(await servers.start())
            if attempt < SETUPS - 1:
                servers.stop()
        await servers.converge_membership()
        generator = Generator(servers.entry_ports, ledger, tracer,
                              connections())
        try:
            await generator.closed(stream, spec.warmup)
            before = await servers.metrics() if tracer.enabled else None
            opened = OpenResult()
            completed, busy = 0, 0.0
            open_s = seconds * spec.open_share / SLICES
            closed_uploads = max(connections(), round(
                spec.capacity * seconds * (1 - spec.open_share) / SLICES))
            slices = []
            for _ in range(SLICES):
                part = await generator.open(stream, spec.rate, open_s)
                opened.merge(part)
                acks, span = await generator.closed(stream, closed_uploads)
                completed, busy = completed + acks, busy + span
                slices.append([len(part.latencies),
                               round(percentile(part.latencies, 0.5) * 1e3, 3),
                               round(acks / span, 3)])
            after = await servers.metrics() if tracer.enabled else None
        finally:
            await generator.close()
        await servers.converge_stores(len(ledger.acked))
        rss = servers.peak_rss_mb()
    finally:
        servers.stop()
    ledger.enforce()
    ledger.check_stored([store_uploads(store) for store in servers.stores],
                        servers.copies)
    ledger.enforce()

    tail_fraction, tail_value = tail(opened.latencies)
    result = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "e2e": {
            "setup_s": (statistics.median(setups), "s"),
            "ack_p50_ms": (percentile(opened.latencies, 0.5) * 1e3, "ms"),
            "ack_tail_ms": (tail_value * 1e3, "ms"),
            "capacity_rps": (completed / busy, "1/s"),
            "peak_rss_mb": (rss, "MiB"),
        },
        "notes": {
            "open_samples": len(opened.latencies),
            "tail_percentile": round(tail_fraction * 100, 2),
            "setups_s": setups,
            "closed_acks": completed,
            "slices": slices,
        },
    }
    if tracer.enabled:
        result["layers"] = layers.serving_layers(
            before, after, servers, stream, generator, opened, tracer,
            run_dir)
        if spec.extra_passes:
            values, attempted = await dedup_pass(pool, seed, tracer,
                                                 run_dir / "mt-dup")
            result["layers"].update(values)
            result["attempted"] += attempted
            result["layers"].update(
                recorder_layers(pool, seed, tracer, run_dir))
    return result


async def dedup_pass(pool, seed: int, tracer,
                     pass_dir: Path) -> "tuple[dict, int]":
    """The mt-dup traffic on one cold node, closed-loop, gated like a
    run.  Returns its ``mt-dup.`` layer metrics and the uploads sent."""
    pass_dir.mkdir()
    servers = Servers(pass_dir, 1)
    ledger = Ledger()
    stream = Stream("mt-dup", seed, pool.mt, pool.mt_bases,
                    duplicate_share=DEDUP_SHARE)
    try:
        await servers.start()
        generator = Generator(servers.entry_ports, ledger, tracer,
                              connections())
        try:
            await generator.closed(stream, DEDUP_WARMUP)
            before = await servers.metrics()
            acks, busy = await generator.closed(stream, DEDUP_UPLOADS)
            after = await servers.metrics()
        finally:
            await generator.close()
    finally:
        servers.stop()
    ledger.enforce()
    ledger.check_stored([store_uploads(servers.stores[0])])
    ledger.enforce()
    return (layers.dedup_layers(before, after, acks / busy,
                                servers.stores[0], stream, tracer, pass_dir),
            ledger.attempted)
