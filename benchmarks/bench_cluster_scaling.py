"""Cluster scaling — process-shard speedup and executor parity.

Replays a fleet of regime-switching streams through the explanation
service under every executor backend (inline and process
shards at increasing shard counts) and measures replay throughput.  Two
claims are checked:

* **parity** — every backend produces byte-identical canonical reports
  (same alarms, same explanations) on the same seeded replay; always
  enforced;
* **scaling** — process shards actually *win*: ``>= 2.5x`` throughput at 4
  shards vs the inline (single-process, zero-IPC) baseline; enforced only
  when the machine actually has >= 4 usable cores (the shards cannot beat
  physics on a 1-core container — the JSON records the core count so the
  reader can judge).  The vs-1-shard speedups are recorded too;
* **tail latency** — every replay runs with stage telemetry on and its
  per-stage p50/p95/p99 goes into the JSON; under the same conditions the
  speedup gate applies, the largest process pool's ``explain`` p95 must
  stay under :data:`TAIL_P95_LIMIT` (throughput bought by letting
  individual explanations crawl is not a win).

Timing covers the replay (submit + drain) only; process spawn and stream
registration happen before the clock starts.

Run it directly (the CI smoke job does)::

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py --quick

Results are printed as a table and written machine-readably to
``benchmarks/results/BENCH_cluster.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.service import ExplanationService, StreamConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.conftest import save_bench_json  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_cluster.json"
SPEEDUP_THRESHOLD = 2.5
#: Upper bound on the largest process pool's explain-stage p95 (seconds);
#: enforced together with the speedup gate.  One MOCHE explanation on a
#: 150-point window takes low tens of milliseconds, so half a second of
#: p95 means queueing pathology, not noise.
TAIL_P95_LIMIT = 0.5

FULL = {"streams": 40, "segments": 5, "segment": 400, "window": 150, "chunk": 200}
QUICK = {"streams": 8, "segments": 3, "segment": 250, "window": 100, "chunk": 125}


def build_fleet(streams: int, segments: int, segment: int) -> dict[str, np.ndarray]:
    """``streams`` unique regime-switching feeds (no replicas: all CPU work)."""
    fleet: dict[str, np.ndarray] = {}
    for index in range(streams):
        rng = np.random.default_rng(index)
        parts = [
            rng.normal(3.0 if part % 2 else 0.0, 1.0, size=segment)
            for part in range(segments)
        ]
        fleet[f"stream-{index:02d}"] = np.concatenate(parts)
    return fleet


def run_backend(
    fleet: dict[str, np.ndarray],
    window: int,
    chunk: int,
    executor: str,
    shards: int | None = None,
):
    """One replay; returns (replay_seconds, report, executor_stats)."""
    kwargs = {"shards": shards, "queue_capacity": 512}
    with ExplanationService(
        executor=executor,
        metrics=True,
        default_config=StreamConfig(window_size=window),
        **({} if executor == "inline" else kwargs),
    ) as service:
        for stream_id in fleet:
            service.register(stream_id)
        longest = max(values.size for values in fleet.values())
        started = time.perf_counter()
        for start in range(0, longest, chunk):
            for stream_id, values in fleet.items():
                piece = values[start:start + chunk]
                if piece.size:
                    service.submit(stream_id, piece)
        service.drain()
        seconds = time.perf_counter() - started
        return seconds, service.report(), service.executor.stats()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4],
                        help="process shard counts to sweep (default: 1 2 4)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the machine-readable JSON")
    args = parser.parse_args(argv)

    scale = QUICK if args.quick else FULL
    fleet = build_fleet(scale["streams"], scale["segments"], scale["segment"])
    observations = sum(values.size for values in fleet.values())
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1

    plans: list[tuple[str, str, int | None]] = [("inline", "inline", None)]
    plans.extend((f"process-{n}", "process", n) for n in sorted(set(args.shards)))

    runs, canonicals = [], {}
    for label, executor, shards in plans:
        seconds, report, xstats = run_backend(
            fleet, scale["window"], scale["chunk"], executor, shards
        )
        canonicals[label] = json.dumps(report.canonical_dict(), sort_keys=True)
        run = {
            "label": label,
            "executor": executor,
            "shards": shards,
            "replay_seconds": round(seconds, 4),
            "obs_per_second": round(observations / seconds, 1),
            "alarms": report.alarms_raised,
            "explained": report.explained,
            "latency": report.latency,
        }
        wire = ""
        if executor == "process":
            # What the wire carried: frames, and the payload bytes each
            # chunk adds to its frame's pickle.
            frames = xstats.get("frames_sent", 0)
            inline_bytes = xstats.get("payload_bytes_inline", 0)
            ingests = xstats.get("ingests", 0) or 1
            run.update({
                "frames_sent": frames,
                "payload_bytes_inline": inline_bytes,
                "bytes_pickled_per_chunk": round(inline_bytes / ingests, 1),
            })
            wire = (f"   [{frames} frames, "
                    f"{inline_bytes / ingests:.0f} B pickled/chunk]")
        runs.append(run)
        explain_p95 = (report.latency.get("explain") or {}).get("p95")
        tail = f"explain p95 {1000 * explain_p95:.1f} ms" if explain_p95 else "no tail"
        print(f"{label:<12} {seconds:8.3f} s   {observations / seconds:>10,.0f} obs/s   "
              f"{report.alarms_raised} alarms   {tail}{wire}")

    parity_ok = all(canon == canonicals["inline"] for canon in canonicals.values())

    by_shards = {run["shards"]: run for run in runs if run["executor"] == "process"}
    inline_seconds = next(
        run["replay_seconds"] for run in runs if run["executor"] == "inline"
    )
    speedups_vs_1 = {
        str(n): round(by_shards[1]["replay_seconds"] / by_shards[n]["replay_seconds"], 2)
        for n in by_shards
        if 1 in by_shards
    }
    # The headline gate compares against *inline*: beating a 1-shard process
    # pool only proves the IPC overhead scales, not that sharding is ever
    # worth turning on.
    speedups_vs_inline = {
        str(n): round(inline_seconds / by_shards[n]["replay_seconds"], 2)
        for n in by_shards
    }
    max_shards = max(by_shards) if by_shards else 0
    headline = speedups_vs_inline.get(str(max_shards))
    enforce = (not args.quick) and cores >= max_shards >= 4 and headline is not None
    tail_p95 = None
    if max_shards:
        tail_p95 = (by_shards[max_shards]["latency"].get("explain") or {}).get("p95")

    payload = {
        "quick": args.quick,
        "cores_available": cores,
        "streams": scale["streams"],
        "observations": observations,
        "window": scale["window"],
        "runs": runs,
        "parity_ok": parity_ok,
        "process_speedups_vs_inline": speedups_vs_inline,
        "process_speedups_vs_1_shard": speedups_vs_1,
        "speedup_threshold": SPEEDUP_THRESHOLD,
        "speedup_enforced": enforce,
        "tail_p95_seconds": tail_p95,
        "tail_p95_limit": TAIL_P95_LIMIT,
    }
    save_bench_json("cluster_scaling", payload, args.output)
    print(f"\nparity: {'ok' if parity_ok else 'FAILED'}   "
          f"process speedups vs inline: {speedups_vs_inline}   "
          f"(vs 1 shard: {speedups_vs_1})   "
          f"[{cores} core(s); threshold {SPEEDUP_THRESHOLD}x "
          f"{'enforced' if enforce else 'not enforced'}]")
    print(f"written to {args.output}")

    if not parity_ok:
        print("FAIL: executors disagreed on alarms/explanations", file=sys.stderr)
        return 1
    if enforce and headline < SPEEDUP_THRESHOLD:
        print(f"FAIL: {max_shards}-shard speedup {headline}x vs inline < "
              f"{SPEEDUP_THRESHOLD}x", file=sys.stderr)
        return 2
    if enforce and tail_p95 is not None and tail_p95 > TAIL_P95_LIMIT:
        print(f"FAIL: {max_shards}-shard explain p95 {tail_p95:.3f} s > "
              f"{TAIL_P95_LIMIT} s", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
