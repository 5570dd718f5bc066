"""How steady is the benchmark?  Repeated runs of one workload.

    python3 fleetbench/steadiness.py --workload st-warm --runs 10
    python3 fleetbench/steadiness.py --workload st-warm --runs 10 --sets 2
    python3 fleetbench/steadiness.py --workload st-warm --runs 3 --overhead

Each run gets its own seed.  For every end-to-end metric the tool
prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread: the interquartile distance as a share of the median.  With
``--sets 2`` (the A/A check) it runs two sets of the same code, their
runs interleaved so that a drift of the host's speed reaches both
alike, and prints how far the second median moved from the first in
either direction, beside the bound BENCHMARK.json allows.  With
``--overhead`` it runs each seed untraced and traced and prints how
much tracing moved each end-to-end metric.  Every run lasts
BENCHMARK.json's ``run_seconds``, as the benchmark's own runs do.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "fleetbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("traced-e2e "):
            result["traced_e2e"] = json.loads(line.split(" ", 1)[1])
    return result


def summary(values: "list[float]") -> "tuple[float, float, float, float]":
    """(median, q1, q3, spread)."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    if args.overhead:
        for offset in range(args.runs):
            seed = args.first_seed + offset
            plain = run_once(args.workload, seed, seconds, 0)["metrics"]
            traced = run_once(args.workload, seed, seconds, 1)["traced_e2e"]
            moved = {name: round(traced[name] / plain[name]["value"] - 1, 4)
                     for name in metrics}
            print(f"seed {seed}: traced/untraced - 1 = {json.dumps(moved)}")
        return 0

    sets = [{name: [] for name in metrics} for _ in range(args.sets)]
    for offset in range(args.runs):
        for index, values in enumerate(sets):
            seed = args.first_seed + index * args.runs + offset
            result = run_once(args.workload, seed, seconds, 0)
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            print(f"set {index + 1} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.4g}" for name in metrics),
                flush=True)

    print(f"\n{args.workload}: {args.runs} runs per set, "
          f"{seconds} s each")
    for name, meta in metrics.items():
        medians = []
        for index, values in enumerate(sets):
            mid, q1, q3, spread = summary(values[name])
            medians.append(mid)
            print(f"  {name:14s} set {index + 1}: median {mid:10.4g}  "
                  f"q1 {q1:10.4g}  q3 {q3:10.4g}  spread {spread:6.2%}"
                  f"  (bound {meta['bound']:.0%})")
        if len(sets) == 2:
            # Two-sided: the sets are the same code, so a move either
            # way is noise that a later A/B would read as a change.
            moved = medians[1] / medians[0] - 1
            verdict = "within" if abs(moved) <= meta["bound"] else "OUTSIDE"
            print(f"  {name:14s} second median moved {moved:+.2%} "
                  f"({verdict} bound {meta['bound']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
