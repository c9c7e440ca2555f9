"""Warm restart — kill ``repro serve`` mid-replay, resume byte-identically.

Exercises the PR's persistence claim end to end, through the real CLI in
real subprocesses:

1. an **uninterrupted** ``repro serve`` replay writes the reference report;
2. a second replay runs with ``--snapshot-dir``: the service checkpoints
   its full state (detector windows, alarm logs, cache contents) after
   every round, and the process is **SIGKILL**-ed mid-replay — no cleanup,
   no goodbye, exactly what a crashed host looks like;
3. a third invocation with the same ``--snapshot-dir`` warm-restarts from
   the last checkpoint, skips the observations the snapshot already
   accounts for, and finishes the replay.

Two claims are checked, both hard-enforced:

* **parity** — the killed-and-restarted run's canonical report is
  byte-identical to the uninterrupted one: not an observation re-detected
  or lost, not an alarm dropped or duplicated, across a process death;
* **resumption** — the restart genuinely resumed (the CLI reports a warm
  restart from the snapshot; when the kill landed mid-replay, strictly
  fewer observations were served after it than the whole replay holds).

The snapshot *overhead* is also measured: replay wall-clock with
checkpointing every round vs. without.  In-process snapshot/restore parity
(both executors) is additionally asserted library-side, including
``--executor process`` where detector state crosses the wire twice.

Run it directly (the CI warm-restart smoke job does)::

    PYTHONPATH=src python benchmarks/bench_warm_restart.py --quick

Results are printed and written to
``benchmarks/results/BENCH_warm_restart.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.service import ExplanationService, StreamConfig
from repro.service.results import canonical_report_dict
from repro.service.snapshot import SNAPSHOT_FILENAME

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.conftest import save_bench_json  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_warm_restart.json"

FULL = {"streams": 8, "segments": 6, "segment": 400, "window": 150, "chunk": 120}
QUICK = {"streams": 3, "segments": 4, "segment": 300, "window": 100, "chunk": 60}


def build_fleet(streams: int, segments: int, segment: int) -> dict[str, np.ndarray]:
    """``streams`` unique regime-switching feeds."""
    fleet: dict[str, np.ndarray] = {}
    for index in range(streams):
        rng = np.random.default_rng(index)
        parts = [
            rng.normal(3.0 if part % 2 else 0.0, 1.0, size=segment)
            for part in range(segments)
        ]
        fleet[f"stream-{index:02d}"] = np.concatenate(parts)
    return fleet


def write_fleet(fleet: dict[str, np.ndarray], directory: Path) -> list[str]:
    paths = []
    for stream_id, values in fleet.items():
        path = directory / f"{stream_id}.csv"
        path.write_text("\n".join(str(v) for v in values) + "\n")
        paths.append(str(path))
    return paths


def cli_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def serve_args(paths: list[str], window: int, chunk: int, executor: str) -> list[str]:
    args = [
        sys.executable, "-m", "repro.cli", "serve", *paths,
        "--window", str(window), "--chunk", str(chunk), "--summary-only",
        "--executor", executor,
    ]
    if executor == "process":
        args += ["--shards", "2"]
    return args


def kill_and_restart(
    paths: list[str],
    window: int,
    chunk: int,
    executor: str,
    workdir: Path,
    total_observations: int,
) -> dict:
    """The CLI scenario: reference run, killed snapshot run, warm restart.

    The kill must land *mid-replay* for the scenario to test anything —
    a replay that finishes before the SIGKILL leaves a completed snapshot
    and the restart is a vacuous no-op.  The resumed-observation count the
    restart prints is therefore asserted to be strictly below the total;
    if a fast machine outruns the signal, the scenario retries with a
    smaller chunk (more rounds, earlier first checkpoint) until it lands.
    Chunk size does not affect the canonical report (each stream's
    detector sees the same observation sequence regardless of slicing),
    so the reference run needs no re-run.
    """
    env = cli_env()
    reference_path = workdir / f"reference-{executor}.json"
    started = time.perf_counter()
    subprocess.run(
        serve_args(paths, window, chunk, executor)
        + ["--output", str(reference_path)],
        env=env, check=True, capture_output=True,
    )
    plain_seconds = time.perf_counter() - started

    for attempt, divisor in enumerate((1, 4, 16)):
        snapshot_dir = workdir / f"snapshots-{executor}-{attempt}"
        resumed_path = workdir / f"resumed-{executor}-{attempt}.json"
        snapshot_args = serve_args(
            paths, window, max(1, chunk // divisor), executor
        ) + ["--snapshot-dir", str(snapshot_dir), "--output", str(resumed_path)]
        started = time.perf_counter()
        process = subprocess.Popen(
            snapshot_args, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        snapshot_file = snapshot_dir / SNAPSHOT_FILENAME
        deadline = time.time() + 120
        while time.time() < deadline and not snapshot_file.exists():
            time.sleep(0.01)
        assert snapshot_file.exists(), "no snapshot was ever written"
        process.send_signal(signal.SIGKILL)
        process.wait()
        killed_after = time.perf_counter() - started

        completed = subprocess.run(
            snapshot_args, env=env, check=True, capture_output=True, text=True,
        )
        assert "warm restart" in completed.stdout, "restart did not resume a snapshot"
        resumed_line = next(
            line for line in completed.stdout.splitlines() if "warm restart" in line
        )
        match = re.search(r"\((\d+) observations already served\)", resumed_line)
        assert match, f"unparseable warm-restart line: {resumed_line!r}"
        resumed_observations = int(match.group(1))
        if resumed_observations < total_observations:
            break  # the kill landed mid-replay: the scenario is real
    else:
        raise AssertionError(
            f"{executor}: SIGKILL never landed mid-replay, even at the "
            "smallest chunk; nothing about crash recovery was tested"
        )

    # The claim of the whole PR: kill + warm restart == uninterrupted run.
    reference = canonical_report_dict(json.loads(reference_path.read_text()))
    resumed = canonical_report_dict(json.loads(resumed_path.read_text()))
    assert reference == resumed, f"{executor}: canonical reports diverged"
    alarms = sum(len(stream["alarms"]) for stream in reference["streams"])
    assert alarms > 0, f"{executor}: the replay raised no alarms"

    # Snapshot overhead: a full checkpointing replay (uninterrupted) vs plain.
    overhead_dir = workdir / f"overhead-{executor}"
    started = time.perf_counter()
    subprocess.run(
        serve_args(paths, window, chunk, executor)
        + ["--snapshot-dir", str(overhead_dir)],
        env=env, check=True, capture_output=True,
    )
    checkpointed_seconds = time.perf_counter() - started

    return {
        "executor": executor,
        "alarms": alarms,
        "parity": "byte-identical",
        "killed_after_seconds": round(killed_after, 3),
        "resumed_observations": resumed_observations,
        "total_observations": total_observations,
        "resumed": resumed_line.strip(),
        "plain_seconds": round(plain_seconds, 3),
        "checkpointed_seconds": round(checkpointed_seconds, 3),
        "checkpoint_overhead": round(
            checkpointed_seconds / plain_seconds, 3
        ) if plain_seconds else None,
    }


def library_round_trip(fleet: dict[str, np.ndarray], window: int, chunk: int) -> dict:
    """In-process snapshot/restore parity across every executor backend."""

    def replay(executor: str, split: int | None, **kwargs):
        service = ExplanationService(
            executor=executor,
            default_config=StreamConfig(window_size=window),
            **kwargs,
        )
        for stream_id in sorted(fleet):
            service.register(stream_id)
        longest = max(values.size for values in fleet.values())
        for round_index, start in enumerate(range(0, longest, chunk)):
            for stream_id in sorted(fleet):
                values = fleet[stream_id][start:start + chunk]
                if values.size:
                    service.submit(stream_id, values)
            if split is not None and round_index == split:
                snapshot = service.snapshot()
                service.close()
                service = ExplanationService(
                    executor=executor,
                    default_config=StreamConfig(window_size=window),
                    **kwargs,
                )
                service.restore(snapshot)
        report = service.report()
        service.close()
        return canonical_report_dict(report.to_dict())

    results = {}
    for executor, kwargs in (
        ("inline", {}),
        ("process", {"shards": 2}),
    ):
        base = replay(executor, None, **kwargs)
        resumed = replay(executor, 3, **kwargs)
        assert base == resumed, f"{executor}: in-process round trip diverged"
        results[executor] = "byte-identical"
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload for the CI smoke job")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    params = QUICK if args.quick else FULL

    fleet = build_fleet(params["streams"], params["segments"], params["segment"])
    executors = ["inline"] if args.quick else ["inline", "process"]
    results = {
        "params": params,
        "library_round_trip": library_round_trip(
            fleet, params["window"], params["chunk"]
        ),
        "cli": [],
    }
    with tempfile.TemporaryDirectory(prefix="repro-warm-") as tmp:
        workdir = Path(tmp)
        paths = write_fleet(fleet, workdir)
        total_observations = sum(values.size for values in fleet.values())
        for executor in executors:
            outcome = kill_and_restart(
                paths, params["window"], params["chunk"], executor, workdir,
                total_observations,
            )
            results["cli"].append(outcome)
            print(
                f"[{executor}] killed after {outcome['killed_after_seconds']}s "
                f"({outcome['resumed_observations']}/{outcome['total_observations']} "
                f"obs served), restarted, {outcome['alarms']} alarms, "
                f"parity {outcome['parity']} "
                f"(checkpoint overhead {outcome['checkpoint_overhead']}x)"
            )
    print("library round trip:", results["library_round_trip"])

    save_bench_json("warm_restart", results, args.output)
    print(f"results written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
