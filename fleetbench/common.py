"""Shared pieces: checkout paths, order statistics and the span tracer."""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

#: Root of the checkout under test (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes: input pools, run scratch, traces.
WORK = ROOT / ".fleetbench"

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


class GateError(Exception):
    """An output of the program under test disagrees with the oracle."""


class BenchError(Exception):
    """The benchmark could not measure (set-up failed, generator behind)."""


def connections() -> int:
    """Load-generator connections: two, and never more than the cores."""
    return max(1, min(2, os.cpu_count() or 1))


def server_env() -> dict:
    """Environment for processes that run the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The servers' own metrics feed the per-layer numbers.
    env.pop("BUGNET_OBS_DISABLED", None)
    return env


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (the rank ``ceil(fraction * n)``)."""
    ordered = sorted(values)
    rank = max(math.ceil(fraction * len(ordered)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def tail(values) -> "tuple[float, float]":
    """``(fraction, value)`` of the highest percentile that still has
    :data:`TAIL_BEYOND` samples above it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        raise BenchError(
            f"{len(ordered)} latency samples: a tail needs more than "
            f"{TAIL_BEYOND}")
    index = len(ordered) - TAIL_BEYOND - 1
    return (index + 1) / len(ordered), ordered[index]


class Tracer:
    """In-memory spans: name, start, end, parent and upload id.

    Disabled tracers hand out a no-op context, so the untraced pass
    runs the same code with no bookkeeping.  Spans are written as JSON
    lines by :meth:`write` when the run ends.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: "list[dict]" = []
        self._stack: "list[int]" = []

    def span(self, name: str, upload_id: str = ""):
        return _Span(self, name, upload_id) if self.enabled else _NULL

    def add(self, name: str, start: float, end: float,
            upload_id: str = "") -> None:
        """Record a top-level span measured elsewhere (e.g. by an
        asyncio task, whose spans do not nest on this tracer's stack)."""
        if self.enabled:
            self.spans.append({"id": len(self.spans), "name": name,
                               "start": start, "end": end,
                               "parent": None, "upload_id": upload_id})

    def self_ms(self) -> "dict[str, float]":
        """Total self time per span name, in milliseconds: each span's
        duration minus the part its children cover."""
        children: "dict[int, list[dict]]" = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: "dict[str, float]" = {}
        for span in self.spans:
            covered = _union_length(
                [(c["start"], c["end"]) for c in children.get(span["id"], ())])
            own = span["end"] - span["start"] - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own * 1e3
        return totals

    def durations_ms(self, name: str) -> "list[float]":
        return [(s["end"] - s["start"]) * 1e3
                for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "upload_id", "start", "index")

    def __init__(self, tracer: Tracer, name: str, upload_id: str) -> None:
        self.tracer = tracer
        self.name = name
        self.upload_id = upload_id

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else None
        tracer.spans.append({"id": self.index, "name": self.name,
                             "start": time.perf_counter(), "end": None,
                             "parent": parent, "upload_id": self.upload_id})
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index]["end"] = time.perf_counter()
        self.tracer._stack.pop()


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


def _union_length(intervals) -> float:
    total = 0.0
    end = -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def vm_hwm_mb(pid: "int | str") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def process_tree(pid: int) -> "list[int]":
    """*pid* and its live descendants."""
    found = [pid]
    for current in found:
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children",
                          encoding="ascii") as handle:
                    found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found
