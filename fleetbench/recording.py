"""The recorder and diagnosis layers, measured in a traced run.

One worker process records every Table-1 program to its crash with
BugNet on, and again with it off for the native rate.  It commits each
report to a fresh store through the batch ingest path, then runs triage
plus an autopsy of every bucket.  It opens no sockets.  The parent
checks every report against the oracle's recording, and every verdict
against ``expected_verdicts.json``, then turns the worker's timings
into per-layer metrics.

This pass was an end-to-end workload of its own (``record-diagnose``),
but its timings spread by 25-38% over ten runs on the reference host,
beyond any usable bound (README.md).  It now runs only inside the
traced run of ``st-warm``, where per-layer metrics carry no bound.

Run as ``python3 -m fleetbench.recording`` it is the worker itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from fleetbench.common import ROOT, BenchError, server_env, vm_hwm_mb
from fleetbench.gate import autopsy_mismatches, enforce


def recorder_layers(pool, seed: int, tracer, run_dir: Path) -> dict:
    """Run the worker once; per-layer metrics of recording and
    diagnosis, after the gate has checked every report and verdict."""
    env = server_env()
    env["PYTHONPATH"] = str(ROOT) + ":" + env["PYTHONPATH"]
    proc = subprocess.run(
        [sys.executable, "-m", "fleetbench.recording", "--seed", str(seed),
         "--store", str(run_dir / "recorder-store")],
        capture_output=True, env=env, cwd=ROOT, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"recording worker failed:\n{proc.stderr}")
    outcome = json.loads(proc.stdout.strip().splitlines()[-1])
    enforce(autopsy_mismatches(pool.record, outcome))

    for span in outcome["spans"]:
        tracer.add(span["name"], span["start"], span["end"],
                   span["upload_id"])
    record_s = sum(outcome["record_s"])
    native_s = sum(outcome["native_s"])
    autopsy_s = sum(outcome["bucket_ms"]) / 1e3
    kinstr = outcome["log_instructions"] / 1000
    return {
        "record.ips": outcome["steps"] / record_s,
        "record.native_ips": outcome["steps"] / native_s,
        "record.overhead_ratio": record_s / native_s,
        "record.peak_rss_mb": outcome["rss_mb"],
        "record.sockets_opened": outcome["sockets"],
        "tracing.fll_bytes_per_kinstr": outcome["fll_bytes"] / kinstr,
        "tracing.mrl_bytes_per_kinstr": outcome["mrl_bytes"] / kinstr,
        "tracing.log_bytes_per_kinstr":
            (outcome["fll_bytes"] + outcome["mrl_bytes"]) / kinstr,
        "triage.build_buckets_ms": outcome["build_ms"],
        "forensics.autopsy_ms_per_bucket":
            statistics.median(outcome["bucket_ms"]),
        "forensics.autopsy_ips":
            outcome["autopsy_instructions"] / autopsy_s,
        "forensics.diagnose_s": outcome["pass_s"],
    }


# -- the worker ----------------------------------------------------------------


def worker(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(prog="fleetbench.recording")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--store", required=True)
    args = parser.parse_args(argv)

    # Probe: count every socket this process creates (expected 0).
    import socket

    sockets = [0]
    original = socket.socket.__init__

    def counting_init(self, *a, **k):
        sockets[0] += 1
        original(self, *a, **k)

    socket.socket.__init__ = counting_init

    from repro.common.config import BugNetConfig
    from repro.fleet.ingest import IngestPipeline
    from repro.fleet.store import ReportStore
    from repro.fleet.triage import build_buckets
    from repro.forensics.autopsy import bug_suite_resolver, perform_autopsy
    from repro.tracing.serialize import dump_crash_report
    from repro.workloads.bugs import BUG_SUITE, run_bug

    from fleetbench.common import Tracer
    from fleetbench.pools import RECORD_INTERVAL

    tracer = Tracer(True)
    config = BugNetConfig(checkpoint_interval=RECORD_INTERVAL)
    resolver = bug_suite_resolver()
    store = ReportStore(args.store)
    pipeline = IngestPipeline(store, resolver)
    bugs = list(BUG_SUITE)
    random.Random(f"recorder/{args.seed}").shuffle(bugs)
    out: dict = {"reports": [], "record_s": [], "native_s": [], "steps": 0,
                 "fll_bytes": 0, "mrl_bytes": 0, "log_instructions": 0,
                 "diagnoses": [], "bucket_ms": [],
                 "autopsy_instructions": 0}

    for bug in bugs:
        started = time.perf_counter()
        with tracer.span("record.run", bug.name):
            run = run_bug(bug, bugnet=config)
        out["record_s"].append(time.perf_counter() - started)
        with tracer.span("tracing.dump", bug.name):
            blob = dump_crash_report(run.result.crash, config)
        with tracer.span("store.ingest", bug.name):
            pipeline.ingest_many([(bug.name, blob, None)])
        out["steps"] += run.result.global_steps
        out["reports"].append([bug.name, hashlib.sha256(blob).hexdigest()])
        crash = run.result.crash
        for checkpoints in crash.checkpoints.values():
            for checkpoint in checkpoints:
                out["fll_bytes"] += checkpoint.fll.byte_size(config)
                out["mrl_bytes"] += checkpoint.mrl.byte_size(config)
        out["log_instructions"] += sum(crash.total_instructions.values())
        started = time.perf_counter()
        with tracer.span("record.native", bug.name):
            run_bug(bug, bugnet=config, record=False)
        out["native_s"].append(time.perf_counter() - started)

    started = time.perf_counter()
    with tracer.span("triage.build_buckets"):
        buckets = build_buckets(store)
    out["build_ms"] = (time.perf_counter() - started) * 1e3
    for bucket in buckets:
        began = time.perf_counter()
        with tracer.span("forensics.autopsy", bucket.program_name):
            report, loaded = store.load(bucket.representative)
            autopsy = perform_autopsy(report, loaded,
                                      resolver(report.program_name))
        out["bucket_ms"].append((time.perf_counter() - began) * 1e3)
        out["diagnoses"].append({"program": bucket.program_name,
                                 "verdict": autopsy.verdict,
                                 "culprit_line": autopsy.culprit_line})
        out["autopsy_instructions"] += bucket.representative.replay_window
    out["pass_s"] = time.perf_counter() - started
    out["rss_mb"] = vm_hwm_mb("self")
    out["sockets"] = sockets[0]
    out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(worker(sys.argv[1:]))
