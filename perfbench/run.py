"""Run the benchmark from the repository root.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload run prints human-readable
lines (fingerprint, inputs, failure accounting, every metric with its unit
and sample count, the calibration loop) and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` installs the layer wrappers
and reports the per-layer metrics instead.  ``--workload all`` runs every
workload in its own process, one after the other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


def _parse(argv):
    from perfbench.workloads import DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in a fresh interpreter, so peak memory and wrappers stay apart."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", f"{args.seconds:g}",
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, payload in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = payload
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)

    from multiprocessing import resource_tracker

    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    try:
        outcome = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    finally:
        # Shared-memory rings start multiprocessing's resource tracker, which
        # otherwise outlives the service until the interpreter exits.
        resource_tracker._resource_tracker._stop()
    print(json.dumps(outcome.result()))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
