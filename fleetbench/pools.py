"""Seeded input pools, generated once per source tree and cached.

Every blob the workloads upload is generated here, outside all timing,
and validated once in-process with ``validate_report``: that verdict
(the bucket digest, or a rejection) is the oracle each server verdict
must match.  The pool is a pure function of the source tree, so the
directory it is cached in is keyed on a hash of ``src/`` and of this
file.  ``--seed`` only picks upload ids, order and arrival times from
it (see :mod:`fleetbench.traffic`).

Byte-distinct reports of one bug come from re-serializing a recorded
crash under another process id: the pid is part of the report and of
nothing validation checks, so each variant costs a full validation
(its fingerprint is new to every cache) yet validates to the same
bucket as its base.  Pid ranges keep the classes apart: the warm
template, ST traffic, MT traffic and corrupt blobs can never share a
byte string.
"""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from fleetbench.common import SRC, WORK

POOL_VERSION = 1

#: The single-thread half of ``loadsim.DEFAULT_BUGS``: the fleet ST
#: corpus, each validated in a few milliseconds.
ST_BUGS = ("bc-1.06", "tar-1.13.25", "gnuplot-3.7.1-1",
           "tidy-34132-2", "tidy-34132-3")
ST_VARIANTS = 80                 # per (bug, interval) base: 1600 blobs
MT_INTERLEAVES = (7919, 15838)   # two schedules of each racy bug
MT_INTERVAL = 25_000
MT_VARIANTS = 60                 # per base: 600 blobs
CORRUPT = 24
#: Checkpoint interval of the recording pass (fleetbench.recording).
RECORD_INTERVAL = 10_000

TEMPLATE_PID = 10_000
ST_PID = 1_000_000
MT_PID = 2_000_000
CORRUPT_PID = 3_000_000


@dataclass(frozen=True)
class PoolBlob:
    """One upload body and its oracle verdict."""

    blob: bytes
    digest: "str | None"         # oracle bucket digest; None = reject


@dataclass
class Pool:
    root: Path
    st: "list[PoolBlob]"
    mt: "list[PoolBlob]"
    corrupt: "list[PoolBlob]"
    st_bases: int
    mt_bases: int
    #: Recording-pass oracle, one dict per Table-1 bug.
    record: "list[dict]"

    @property
    def template(self) -> Path:
        """Store root holding the warm store and full admit cache."""
        return self.root / "template"


def source_key() -> str:
    """Hash of every file under ``src/`` plus this generator."""
    hasher = hashlib.sha256(f"pool-v{POOL_VERSION}\0".encode())
    hasher.update(Path(__file__).read_bytes())
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            hasher.update(str(path.relative_to(SRC)).encode() + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


def variant(report, config, pid: int) -> bytes:
    """*report* serialized under process id *pid*."""
    from repro.tracing.serialize import dump_crash_report

    return dump_crash_report(dataclasses.replace(report, pid=pid), config)


def load_pool(log=print) -> Pool:
    """The pool for this source tree, built first if it is missing."""
    key = source_key()
    root = WORK / f"pool-{key[:20]}"
    if not (root / "manifest.json").exists():
        WORK.mkdir(parents=True, exist_ok=True)
        with open(WORK / "pool.lock", "w", encoding="ascii") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if not (root / "manifest.json").exists():
                started = time.perf_counter()
                log("[fleetbench] building input pools for this source tree")
                build_pool(root)
                log(f"[fleetbench] pools built in "
                    f"{time.perf_counter() - started:.1f} s")
    return read_pool(root)


def read_pool(root: Path) -> Pool:
    manifest = json.loads((root / "manifest.json").read_text())
    data = (root / "blobs.bin").read_bytes()

    def blobs(name):
        return [PoolBlob(data[offset: offset + length], digest)
                for offset, length, digest in manifest[name]]

    return Pool(root=root, st=blobs("st"), mt=blobs("mt"),
                corrupt=blobs("corrupt"), st_bases=manifest["st_bases"],
                mt_bases=manifest["mt_bases"], record=manifest["record"])


def build_pool(root: Path, st_variants: int = ST_VARIANTS,
               mt_variants: int = MT_VARIANTS,
               template_entries: "int | None" = None,
               st_bugs=ST_BUGS, mt_bugs=None, record_bugs=None) -> None:
    """Record, vary, validate and write every pool into *root*.

    The keyword arguments shrink the pool for the benchmark's own
    tests; the benchmark always uses the defaults.
    """
    from repro.common.config import BugNetConfig
    from repro.fleet.admitcache import AdmitCache, blob_fingerprint
    from repro.fleet.loadsim import DEFAULT_INTERVALS, MT_BUGS
    from repro.fleet.service import ServiceConfig
    from repro.fleet.store import ReportStore
    from repro.fleet.validate import ValidatedReport, validate_report
    from repro.forensics.autopsy import bug_suite_resolver
    from repro.workloads.bugs import BUG_SUITE, BUGS_BY_NAME

    resolver = bug_suite_resolver()
    if template_entries is None:
        template_entries = ServiceConfig().admit_capacity
    mt_bugs = MT_BUGS if mt_bugs is None else mt_bugs
    record_bugs = ([bug.name for bug in BUG_SUITE]
                   if record_bugs is None else record_bugs)

    def verdict(blob: bytes):
        outcome = validate_report("pool", blob, None, resolver)
        return outcome if isinstance(outcome, ValidatedReport) else None

    def record(name, interval, interleave=0):
        from repro.workloads.bugs import run_bug

        config = BugNetConfig(checkpoint_interval=interval)
        run = run_bug(BUGS_BY_NAME[name], bugnet=config,
                      interleave_seed=interleave)
        if not run.crashed:
            raise RuntimeError(f"{name} did not crash while recording")
        return run, config

    st_bases = []
    for name in st_bugs:
        for interval in DEFAULT_INTERVALS:
            run, config = record(name, interval)
            st_bases.append((run.result.crash, config))
    mt_bases = []
    for name in mt_bugs:
        for interleave in MT_INTERLEAVES:
            run, config = record(name, MT_INTERVAL, interleave)
            mt_bases.append((run.result.crash, config))

    tmp = root.with_name(root.name + f".{os.getpid()}.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    chunks: "list[bytes]" = []
    offset = 0
    manifest: dict = {"st_bases": len(st_bases), "mt_bases": len(mt_bases)}

    def add(blob: bytes, outcome) -> list:
        nonlocal offset
        chunks.append(blob)
        entry = [offset, len(blob),
                 outcome.signature.digest if outcome else None]
        offset += len(blob)
        return entry

    # Warm template: a store plus an admit cache filled to capacity with
    # distinct, validated ST reports the traffic never repeats.
    store = ReportStore(tmp / "template")
    cache = AdmitCache(tmp / "template" / "admit-cache.json",
                       capacity=template_entries)
    batch = []
    for index in range(template_entries):
        base = index % len(st_bases)
        blob = variant(*st_bases[base], TEMPLATE_PID + index)
        outcome = verdict(blob)
        if outcome is None:
            raise RuntimeError("a template report failed validation")
        cache.record(blob_fingerprint(blob), outcome)
        batch.append({
            "digest": outcome.signature.digest, "blob": blob,
            "replay_window": outcome.instructions,
            "fault_kind": outcome.fault_kind,
            "program_name": outcome.program_name,
            "upload_id": f"template-{index:05d}",
            "race_pcs": outcome.signature.race_pcs,
            "route_key": outcome.route_key,
        })
        if len(batch) == 256:
            store.add_many(batch)
            batch = []
    store.add_many(batch)
    cache.flush()

    manifest["st"] = []
    for base, (report, config) in enumerate(st_bases):
        for index in range(st_variants):
            blob = variant(report, config,
                           ST_PID + base * st_variants + index)
            outcome = verdict(blob)
            if outcome is None:
                raise RuntimeError("an ST traffic report failed validation")
            manifest["st"].append(add(blob, outcome))
    manifest["mt"] = []
    for base, (report, config) in enumerate(mt_bases):
        for index in range(mt_variants):
            blob = variant(report, config,
                           MT_PID + base * mt_variants + index)
            outcome = verdict(blob)
            if outcome is None:
                raise RuntimeError("an MT traffic report failed validation")
            manifest["mt"].append(add(blob, outcome))
    # Corrupt uploads: one flipped byte mid-blob.  Only flips the oracle
    # rejects are kept, so "every corrupt blob is rejected" is exact.
    manifest["corrupt"] = []
    for index in range(CORRUPT * 4):
        if len(manifest["corrupt"]) == CORRUPT:
            break
        base = index % len(st_bases)
        damaged = bytearray(variant(*st_bases[base], CORRUPT_PID + index))
        damaged[len(damaged) // 2 + index % 7] ^= 0xFF
        if verdict(bytes(damaged)) is None:
            manifest["corrupt"].append(add(bytes(damaged), None))

    manifest["record"] = [record_oracle(name, verdict)
                          for name in record_bugs]
    (tmp / "blobs.bin").write_bytes(b"".join(chunks))
    (tmp / "manifest.json").write_text(json.dumps(manifest))
    shutil.rmtree(root, ignore_errors=True)
    os.replace(tmp, root)


def record_oracle(name: str, verdict) -> dict:
    """What recording *name* must produce: the report's hash and its
    bucket.  The autopsy verdict it must reach is not derived here, from
    the code under test, but read from ``expected_verdicts.json``."""
    from repro.common.config import BugNetConfig
    from repro.tracing.serialize import dump_crash_report
    from repro.workloads.bugs import BUGS_BY_NAME, run_bug

    config = BugNetConfig(checkpoint_interval=RECORD_INTERVAL)
    run = run_bug(BUGS_BY_NAME[name], bugnet=config)
    blob = dump_crash_report(run.result.crash, config)
    outcome = verdict(blob)
    return {
        "name": name,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "digest": outcome.signature.digest if outcome else None,
    }
