"""Per-layer metrics of the traced run.

They come from three sources, none of them instrumentation inside
``src/``: deltas of the servers' own ``/metrics`` counters and
histograms across the measured phases, the benchmark's spans around
its calls into each module's public functions (on a copy of the state
a run left behind, after the servers stopped), and the load
generator's own timings.  The recorder and diagnosis layers come from
the pass in :mod:`fleetbench.recording`, and the ``mt-dup.`` metrics
from the dedup pass in :mod:`fleetbench.serving`; only the traced run
of ``st-warm`` makes these passes.  A layer a workload does not
exercise reads 0: it did no work there.
"""

from __future__ import annotations

import shutil
import statistics
import time

from fleetbench.common import percentile

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("service.server_ack_p50_ms", "ms"),
    ("service.client_overhead_ms", "ms"),
    ("service.retry_share", "ratio"),
    ("service.commit_batch_mean", "count"),
    ("service.unaccounted_ms", "ms"),
    ("validate.ms_per_report", "ms"),
    ("validate.decode_ms", "ms"),
    ("validate.fault-probe_ms", "ms"),
    ("validate.signature_ms", "ms"),
    ("replay.ips", "1/s"),
    ("admitcache.flush_ms", "ms"),
    ("admitcache.load_ms", "ms"),
    ("admitcache.probe_ms", "ms"),
    ("store.add_many_ms_per_report", "ms"),
    ("store.flock_wait_ms", "ms"),
    ("store.open_ms", "ms"),
    ("cluster.forwarded_share", "ratio"),
    ("cluster.replicated_per_accept", "count"),
    ("record.ips", "1/s"),
    ("record.native_ips", "1/s"),
    ("record.overhead_ratio", "ratio"),
    ("record.peak_rss_mb", "MiB"),
    ("record.sockets_opened", "count"),
    ("tracing.log_bytes_per_kinstr", "B/kinstr"),
    ("tracing.fll_bytes_per_kinstr", "B/kinstr"),
    ("tracing.mrl_bytes_per_kinstr", "B/kinstr"),
    ("triage.build_buckets_ms", "ms"),
    ("forensics.autopsy_ms_per_bucket", "ms"),
    ("forensics.autopsy_ips", "1/s"),
    ("forensics.diagnose_s", "s"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.connections", "count"),
)

#: (name, unit) of the mt-dup pass's metrics, which the traced run of
#: ``st-warm`` reports prefixed with ``mt-dup.`` (README.md).
MT_DUP = (
    ("capacity_rps", "1/s"),
    ("service.server_ack_p50_ms", "ms"),
    ("validate.ms_per_report", "ms"),
    ("validate.chain-replay_ms", "ms"),
    ("validate.mrl-merge_ms", "ms"),
    ("validate.race-inference_ms", "ms"),
    ("replay.ips", "1/s"),
    ("admitcache.probe_ms", "ms"),
    ("admitcache.hit_ratio", "ratio"),
    ("admitcache.reverify_share", "ratio"),
    ("admitcache.flush_ms", "ms"),
)
PER_LAYER += tuple((f"mt-dup.{name}", unit) for name, unit in MT_DUP)

#: Top-level validation stages (``replay`` contains chain-replay,
#: mrl-merge and race-inference).
_TOP_STAGES = ("decode", "resolve", "replay", "fault-probe", "signature")
_STAGE_METRICS = ("decode", "chain-replay", "mrl-merge", "race-inference",
                  "fault-probe", "signature")


def complete(values: dict) -> dict:
    """Every per-layer metric, zero where the workload did no work."""
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER}


def _total(scrapes, name: str, **labels) -> float:
    """Sum of one sample over every node's scrape."""
    from repro.obs.prom import sample

    return sum(sample(scrape, name, **labels) for scrape in scrapes)


def _delta(before, after, name: str, **labels) -> float:
    return _total(after, name, **labels) - _total(before, name, **labels)


def _label_values(scrapes, name: str, label: str) -> set:
    found = set()
    for scrape in scrapes:
        for labels in scrape.get(name, {}):
            found.update(value for key, value in labels if key == label)
    return found


def histogram_quantile(before, after, name: str, fraction: float) -> float:
    """Quantile of a histogram's delta, linear within its bucket."""
    bounds = sorted(_label_values(after, name + "_bucket", "le"),
                    key=float)
    counts = [_delta(before, after, name + "_bucket", le=le) for le in bounds]
    total = counts[-1] if counts else 0.0
    if total <= 0:
        return 0.0
    target = fraction * total
    lower, below = 0.0, 0.0
    for le, cumulative in zip(bounds, counts):
        bound = float(le)
        if cumulative >= target:
            if bound == float("inf"):
                return lower
            inside = cumulative - below
            share = (target - below) / inside if inside else 1.0
            return lower + (bound - lower) * share
        lower, below = bound, cumulative
    return lower


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _timed_ms(call, repeat: int = 3) -> float:
    """Median wall time of *call*, in milliseconds."""
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        call()
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def offline_layers(store_root, scratch, blobs, tracer) -> dict:
    """Spans around public store and admit-cache calls, on a copy of a
    node's final store (the servers have stopped)."""
    from repro.fleet.admitcache import AdmitCache
    from repro.fleet.store import ReportStore

    copy = scratch / "offline-copy"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(store_root, copy)
    values = {}
    with tracer.span("store.open"):
        values["store.open_ms"] = _timed_ms(lambda: ReportStore(copy))
    cache_path = copy / "admit-cache.json"
    with tracer.span("admitcache.load"):
        values["admitcache.load_ms"] = _timed_ms(
            lambda: AdmitCache(cache_path))
    cache = AdmitCache(cache_path)
    with tracer.span("admitcache.flush"):
        values["admitcache.flush_ms"] = _timed_ms(cache.flush)
    sample = blobs[-200:]
    with tracer.span("admitcache.probe"):
        started = time.perf_counter()
        for blob in sample:
            cache.probe(blob)
        values["admitcache.probe_ms"] = _ratio(
            (time.perf_counter() - started) * 1e3, len(sample))
    shutil.rmtree(copy, ignore_errors=True)
    return values


def server_layers(before, after) -> dict:
    """The layer metrics in the servers' own ``/metrics`` deltas."""
    values: dict = {}

    def d(name: str, **labels) -> float:
        return _delta(before, after, name, **labels)

    values["service.server_ack_p50_ms"] = histogram_quantile(
        before, after, "bugnet_ack_latency_seconds", 0.5) * 1e3
    received = d("bugnet_service_received_total")
    accepted = d("bugnet_admission_total", outcome="accepted")
    settled = d("bugnet_ack_latency_seconds_count")
    values["service.retry_share"] = _ratio(
        d("bugnet_admission_total", outcome="retry"), received)
    values["service.commit_batch_mean"] = _ratio(
        accepted, d("bugnet_service_commit_batches_total"))

    validations = sum(
        d("bugnet_validate_outcomes_total", outcome=outcome)
        for outcome in ("accepted", "rejected"))
    stage = {
        name: d("bugnet_validate_stage_seconds_sum", stage=name)
        for name in set(_TOP_STAGES) | set(_STAGE_METRICS)
    }
    values["validate.ms_per_report"] = _ratio(
        sum(stage[name] for name in _TOP_STAGES) * 1e3, validations)
    for name in _STAGE_METRICS:
        values[f"validate.{name}_ms"] = _ratio(stage[name] * 1e3, validations)
    values["replay.ips"] = _ratio(
        d("bugnet_replay_instructions_total"), stage["replay"])

    probes = {result: d("bugnet_admit_cache_total", result=result)
              for result in ("hit", "miss", "quarantined", "integrity-drop")}
    values["admitcache.hit_ratio"] = _ratio(probes["hit"],
                                            sum(probes.values()))
    values["admitcache.reverify_share"] = _ratio(
        sum(d("bugnet_admit_reverify_total", result=result)
            for result in ("match", "mismatch")), probes["hit"])

    commit_s = d("bugnet_store_commit_batch_seconds_sum")
    values["store.add_many_ms_per_report"] = _ratio(
        commit_s * 1e3, d("bugnet_store_commit_reports_total"))
    values["store.flock_wait_ms"] = _ratio(
        d("bugnet_store_flock_wait_seconds_sum") * 1e3,
        d("bugnet_store_flock_wait_seconds_count"))
    ack_mean_ms = _ratio(d("bugnet_ack_latency_seconds_sum") * 1e3, settled)
    values["service.unaccounted_ms"] = ack_mean_ms - _ratio(
        (sum(stage[name] for name in _TOP_STAGES) + commit_s) * 1e3, settled)

    values["cluster.forwarded_share"] = _ratio(
        d("bugnet_cluster_forwarded_total"), received)
    values["cluster.replicated_per_accept"] = _ratio(
        d("bugnet_cluster_replicated_total", direction="out"), accepted)
    return values


def serving_layers(before, after, servers, stream, generator, opened,
                   tracer, run_dir) -> dict:
    """Per-layer metrics of one traced serving run (see README.md)."""
    values = server_layers(before, after)
    client = tracer.durations_ms("loadgen.upload")
    values["service.client_overhead_ms"] = (
        percentile(client, 0.5) - values["service.server_ack_p50_ms"]
        if client else 0.0)
    values.update(offline_layers(
        servers.stores[0], run_dir, [item.blob for item in stream.sent],
        tracer))
    values["loadgen.late_p99_ms"] = opened.late_p99 * 1e3
    values["loadgen.connections"] = len(generator.clients)
    return values


def dedup_layers(before, after, capacity: float, store_root, stream,
                 tracer, run_dir) -> dict:
    """The ``mt-dup.`` metrics of the dedup pass (see README.md)."""
    values = server_layers(before, after)
    values.update(offline_layers(
        store_root, run_dir, [item.blob for item in stream.sent], tracer))
    values["capacity_rps"] = capacity
    return {f"mt-dup.{name}": values[name] for name, _unit in MT_DUP}
