"""One run of the fleet benchmark.

    python3 fleetbench/run.py --workload st-warm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The first run in a checkout builds
the input pools (cached under ``.fleetbench/``, keyed on ``src/``).
The run sets up the workload, measures it, checks every output
against the in-process oracle, and prints one JSON object as the last
line of standard output: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  An output that disagrees
with the oracle exits with status 1 and prints no metrics; a run that
could not measure exits with status 2.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("st-warm", "cluster-r2")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, tracer, run_dir: Path) -> dict:
    from fleetbench.pools import load_pool
    from fleetbench.serving import WORKLOADS as SERVING, run_serving

    pool = load_pool(log=lambda text: print(text, file=sys.stderr))
    return asyncio.run(run_serving(SERVING[args.workload], pool, args.seed,
                                   args.seconds, tracer, run_dir))


def report(result: dict, traced: bool) -> dict:
    """The last line: end-to-end metrics, or every per-layer metric."""
    from fleetbench.layers import complete

    metrics = complete(result["layers"]) if traced else result["e2e"]
    return {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"fleetbench: no program under test at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from fleetbench.common import WORK, BenchError, GateError, Tracer

    tracer = Tracer(bool(args.trace))
    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = measure(args, tracer, run_dir)
    except GateError as error:
        print(f"fleetbench: INCORRECT OUTPUT: {error}", file=sys.stderr)
        return 1
    except BenchError as error:
        print(f"fleetbench: could not measure: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        # What tracing cost: the traced run's own end-to-end figures,
        # to set against an untraced run of the same seed.
        print("traced-e2e " + json.dumps(
            {name: value for name, (value, _unit) in result["e2e"].items()}))
        print("self-ms " + json.dumps(tracer.self_ms()))
    print("notes " + json.dumps(result["notes"]))
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
