"""Elastic rebalancing — migration pause time and resize transparency.

Replays a fleet of regime-switching streams through the process-shard
executor twice: once at a fixed shard count, and once with live
``resize()`` calls mid-replay (2 -> 3 -> 2 by default, detector state
migrating both directions).  Three claims are checked, all hard-enforced:

* **transparency** — the elastic run's canonical report is byte-identical
  to the fixed-shard run's (and to an inline reference): a resize may move
  detector state between processes but must not lose, duplicate or perturb
  a single observation, alarm or explanation;
* **no state loss** — every migration completes over the wire
  (``state_lost == []``, ``lost_chunks == 0``);
* **visible worker caches** — the merged ``ServiceReport.cache_stats``
  reports non-zero worker-side hits (the per-shard caches used to be
  invisible, so process runs read as stone-cold).

Two latencies are reported.  ``max_pause_seconds`` is the wall-clock
duration of the slowest ``resize()`` call: the window in which the
*parent* is driving the migration pipeline (extract, install, replay).
The per-stream ``quiesce`` percentiles (from the ``migration_quiesce``
stage histogram) measure what each migrating stream actually experiences:
the gap between entering the migrating set and its install on the new
owner.  Both should sit in the tens of milliseconds — the MigrateOut
rides a priority lane that overtakes the source's ingest backlog, and
queued chunks bounce to the new owner instead of gating the extraction.
A warmup barrier (one drained round) precedes the replay in every run,
and another drain follows each resize, so the pause numbers measure
migration rather than worker-process cold start — a grow spawns fresh
interpreters whose boot would otherwise bleed into the next timed event.

``--enforce-pause`` turns the latency budgets into a hard gate (exit
code 4): max pause <= 0.25 s and per-stream quiesce p95 <= 50 ms.  CI
applies it on runners with at least 4 cores, where the workload's
compute does not serialise against the pipeline itself.

Run it directly (the CI rebalance smoke job does)::

    PYTHONPATH=src python benchmarks/bench_rebalance.py --quick

Results are printed and written to ``benchmarks/results/BENCH_rebalance.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.service import ExplanationService, StreamConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.conftest import save_bench_json  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_rebalance.json"

FULL = {"streams": 24, "segments": 5, "segment": 400, "window": 150, "chunk": 200}
QUICK = {"streams": 8, "segments": 3, "segment": 250, "window": 100, "chunk": 125}

#: Latency budgets enforced by ``--enforce-pause``.
PAUSE_BUDGET_SECONDS = 0.25
QUIESCE_P95_BUDGET_SECONDS = 0.05


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


def run_replay(
    fleet: dict[str, np.ndarray],
    window: int,
    chunk: int,
    executor: str,
    shards: int | None = None,
    resize_plan: dict[int, int] | None = None,
):
    """One replay; returns (report, resize_events)."""
    kwargs = {"shards": shards} if shards is not None else {}
    resizes: list[dict] = []
    with ExplanationService(
        executor=executor,
        queue_capacity=512,
        default_config=StreamConfig(window_size=window),
        metrics=True,
        **kwargs,
    ) as service:
        for stream_id in fleet:
            service.register(stream_id)
        longest = max(values.size for values in fleet.values())
        for index, start in enumerate(range(0, longest, chunk)):
            if index == 1:
                # Warmup barrier, identical in every run (a barrier changes
                # no results): the worker processes finish booting behind
                # round 0, so a resize in round 2 measures the migration
                # pipeline rather than a cold interpreter's startup.
                service.wait_ready()
                service.drain()
            if resize_plan and index in resize_plan:
                target = resize_plan[index]
                before = service.stats().get("shards")
                started = time.perf_counter()
                reached = service.resize(target)
                pause = time.perf_counter() - started
                resizes.append({
                    "at_round": index,
                    "from_shards": before,
                    "to_shards": reached,
                    "pause_seconds": round(pause, 4),
                })
                # Same barrier as the warmup, for the same reason: a grow
                # spawns fresh worker processes, and on a small box their
                # interpreter boot would otherwise bleed into the *next*
                # timed resize (the shrink extracts from a still-booting
                # victim).  Untimed, and a pure barrier, so neither the
                # pause metric nor the results are affected.
                service.wait_ready()
                service.drain()
            for stream_id, values in fleet.items():
                piece = values[start:start + chunk]
                if piece.size:
                    service.submit(stream_id, piece)
        report = service.report()
        return report, resizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--shards", type=int, default=2,
                        help="baseline shard count (default 2)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the machine-readable JSON")
    parser.add_argument("--enforce-pause", action="store_true",
                        help="exit 4 unless max pause <= "
                             f"{PAUSE_BUDGET_SECONDS}s and quiesce p95 <= "
                             f"{QUIESCE_P95_BUDGET_SECONDS}s")
    args = parser.parse_args(argv)

    scale = QUICK if args.quick else FULL
    fleet = build_fleet(scale["streams"], scale["segments"], scale["segment"])
    observations = sum(values.size for values in fleet.values())
    rounds = max(values.size for values in fleet.values()) // scale["chunk"]
    # Grow mid-replay, shrink again later: state migrates both directions.
    resize_plan = {max(1, rounds // 3): args.shards + 1,
                   max(2, 2 * rounds // 3): args.shards}

    inline_report, _ = run_replay(fleet, scale["window"], scale["chunk"], "inline")
    fixed_report, _ = run_replay(
        fleet, scale["window"], scale["chunk"], "process", shards=args.shards
    )
    elastic_report, resizes = run_replay(
        fleet, scale["window"], scale["chunk"], "process", shards=args.shards,
        resize_plan=resize_plan,
    )

    canonical = {
        "inline": json.dumps(inline_report.canonical_dict(), sort_keys=True),
        "fixed": json.dumps(fixed_report.canonical_dict(), sort_keys=True),
        "elastic": json.dumps(elastic_report.canonical_dict(), sort_keys=True),
    }
    parity_ok = canonical["elastic"] == canonical["fixed"] == canonical["inline"]

    stats = elastic_report.executor_stats
    clean_migration = (
        elastic_report.state_lost == []
        and stats.get("lost_chunks", 0) == 0
        and stats.get("migrated_streams", 0) >= 1
    )
    # One merged figure: every shard-side cache of the elastic run, summed.
    # (This used to be reported twice — once per replay — under two keys.)
    worker_hits = sum(
        payload.get("hits", 0) for payload in elastic_report.cache_stats.values()
    )
    max_pause = max((event["pause_seconds"] for event in resizes), default=0.0)
    quiesce = elastic_report.latency.get("migration_quiesce") or {}

    for event in resizes:
        print(f"resize {event['from_shards']} -> {event['to_shards']} at round "
              f"{event['at_round']}: pause {event['pause_seconds'] * 1000:.0f} ms")
    print(f"alarms: inline {inline_report.alarms_raised}, "
          f"fixed {fixed_report.alarms_raised}, "
          f"elastic {elastic_report.alarms_raised}")
    print(f"parity: {'ok' if parity_ok else 'FAILED'}   "
          f"migrated streams: {stats.get('migrated_streams')}   "
          f"state lost: {elastic_report.state_lost}")
    if quiesce:
        print(f"per-stream quiesce: n={quiesce.get('count')} "
              f"p50 {quiesce.get('p50', 0.0) * 1000:.0f} ms, "
              f"p95 {quiesce.get('p95', 0.0) * 1000:.0f} ms")
    print(f"worker cache hits: {worker_hits}   "
          f"pooled hit rate: {elastic_report.cache_hit_rate:.1%}")

    payload = {
        "quick": args.quick,
        "streams": scale["streams"],
        "observations": observations,
        "window": scale["window"],
        "baseline_shards": args.shards,
        "resizes": resizes,
        "max_pause_seconds": max_pause,
        "alarms": elastic_report.alarms_raised,
        "migrated_streams": stats.get("migrated_streams"),
        "state_lost": elastic_report.state_lost,
        "lost_chunks": stats.get("lost_chunks"),
        "parity_ok": parity_ok,
        "worker_cache_hits": worker_hits,
        "quiesce_count": quiesce.get("count", 0),
        "quiesce_p50_seconds": round(quiesce.get("p50", 0.0), 4),
        "quiesce_p95_seconds": round(quiesce.get("p95", 0.0), 4),
    }
    save_bench_json("rebalance", payload, args.output)
    print(f"written to {args.output}")

    if not parity_ok:
        print("FAIL: elastic replay diverged from the fixed-shard run",
              file=sys.stderr)
        return 1
    if not clean_migration:
        print("FAIL: migration lost detector state or chunks", file=sys.stderr)
        return 2
    if worker_hits <= 0:
        print("FAIL: worker-side cache hits missing from the report",
              file=sys.stderr)
        return 3
    if args.enforce_pause:
        over_pause = max_pause > PAUSE_BUDGET_SECONDS
        over_quiesce = quiesce.get("p95", 0.0) > QUIESCE_P95_BUDGET_SECONDS
        if over_pause or over_quiesce:
            print(f"FAIL: pause budget exceeded (max pause {max_pause:.3f}s / "
                  f"budget {PAUSE_BUDGET_SECONDS}s, quiesce p95 "
                  f"{quiesce.get('p95', 0.0):.3f}s / budget "
                  f"{QUIESCE_P95_BUDGET_SECONDS}s)", file=sys.stderr)
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
