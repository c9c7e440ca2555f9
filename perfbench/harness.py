"""One run of one workload: set-up, the timed closed-loop replay, checks and metrics."""

from __future__ import annotations

import json
import multiprocessing
import operator
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.service import ExplanationService, ServiceReport

from perfbench import checks, layers, machine, stats
from perfbench.workloads import Workload, inputs_digest

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
READY_TIMEOUT = 120.0

class ChunkTimer:
    """``on_complete`` callback timing one chunk from ``submit()`` to resolution."""

    __slots__ = ("sent", "latency", "alarms", "lost")

    def __init__(self) -> None:
        self.latency = None
        self.alarms = 0
        self.lost = False
        self.sent = time.perf_counter()

    def __call__(self, result) -> None:
        self.latency = time.perf_counter() - self.sent
        self.alarms = len(result.alarms)
        self.lost = result.lost


def replay(
    service: ExplanationService,
    streams: list[tuple[str, np.ndarray]],
    start: int,
    stop: int,
    chunk: int,
    timers: list | None = None,
) -> None:
    """Submit observations ``[start, stop)`` of every stream, round-robin in chunks."""
    position = start
    while position < stop:
        end = min(position + chunk, stop)
        for stream_id, values in streams:
            if position < len(values):
                if timers is None:
                    service.submit(stream_id, values[position:end])
                else:
                    timer = ChunkTimer()
                    timers.append(timer)
                    service.submit(stream_id, values[position:end], on_complete=timer)
        position = end


def set_up(workload: Workload, streams) -> tuple[ExplanationService, float]:
    """Build, register, wait for the workers, and replay each stream's first 2w.

    The warm-up runs one test per stream (explaining any alarm it raises),
    so caches are filled and lazy set-up is done before timing starts.
    """
    started = time.perf_counter()
    service = workload.service()
    try:
        for stream_id, _ in streams:
            service.register(stream_id)
        if not service.wait_ready(timeout=READY_TIMEOUT):
            raise RuntimeError("the service's workers did not become ready")
        replay(service, streams, 0, 2 * workload.window, workload.chunk)
        service.drain()
    except BaseException:
        service.close(drain=False)
        raise
    return service, time.perf_counter() - started


@dataclass
class Pass:
    """What one timed replay measured."""

    report: ServiceReport
    warm: ServiceReport
    timers: list
    wall: float
    stats_before: dict
    stats_after: dict
    cpu: dict = field(default_factory=dict)
    rss_kb: dict = field(default_factory=dict)

    @property
    def observations(self) -> int:
        return self.report.observations - self.warm.observations

    @property
    def obs_per_s(self) -> float:
        return self.observations / self.wall


def timed_pass(workload: Workload, streams, service: ExplanationService, recorder=None) -> Pass:
    """Replay everything after the warm-up and drain, timing the whole phase."""
    warm = service.report()
    stats_before = service.stats()
    children = multiprocessing.active_children()
    cpu_before = _cpu(children)
    timers: list[ChunkTimer] = []
    longest = max(len(values) for _, values in streams)
    if recorder is not None:
        recorder.active = True
    started = time.perf_counter()
    replay(service, streams, 2 * workload.window, longest, workload.chunk, timers)
    service.drain()
    wall = time.perf_counter() - started
    if recorder is not None:
        recorder.active = False
    cpu_after = _cpu(children)
    rss = {"benchmark": machine.peak_rss_kb()}
    for index, child in enumerate(children):
        rss[f"shard-{index}"] = machine.peak_rss_kb(child.pid)
    return Pass(
        report=service.report(),
        warm=warm,
        timers=timers,
        wall=wall,
        stats_before=stats_before,
        stats_after=service.stats(),
        cpu={key: cpu_after[key] - cpu_before[key] for key in cpu_before},
        rss_kb=rss,
    )


def _cpu(children) -> dict:
    readings = {"parent": machine.cpu_seconds()}
    for index, child in enumerate(children):
        readings[f"shard-{index}"] = machine.cpu_seconds(child.pid)
    return readings


def inline_reference(workload: Workload, streams) -> ServiceReport:
    """The same inputs replayed on the inline executor, one submit per stream."""
    service = ExplanationService(executor="inline", default_config=workload.config())
    with service:
        for stream_id, values in streams:
            service.register(stream_id)
            service.submit(stream_id, values)
        return service.report()


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Run:
    seed: int
    seconds: float
    problems: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))

    def result(self) -> dict:
        return {
            "correct": not self.problems,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": self.metrics,
        }


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> Run:
    """Measure one workload once; the end-to-end view, or the traced layer view."""
    outcome = Run(seed, seconds)
    print(f"perfbench {workload.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("fingerprint " + json.dumps(machine.fingerprint(root, seed), sort_keys=True))
    calibration_before = machine.calibration_ms()
    streams = workload.inputs(seed, seconds)
    digest = inputs_digest(streams)
    print(
        f"inputs {len(streams)} streams, {sum(len(v) for _, v in streams)} observations, "
        f"chunks of {workload.chunk}, window {workload.window}, digest {digest}"
    )
    if trace:
        measured = _traced(workload, streams, outcome, root)
    else:
        measured = _untraced(workload, streams, outcome)
    _account(measured, outcome)
    _check(workload, streams, measured, digest, outcome)
    calibration_after = machine.calibration_ms()
    print(
        f"calibration_ms before={calibration_before:.2f} after={calibration_after:.2f}"
        " (a fixed loop; a slow phase of the machine shows as a high value)"
    )
    for problem in outcome.problems:
        print(f"FAILED CHECK {problem}")
    return outcome


def _untraced(workload: Workload, streams, outcome: Run) -> Pass:
    setups = []
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        service, elapsed = set_up(workload, streams)
        setups.append(elapsed)
    try:
        measured = timed_pass(workload, streams, service)
    finally:
        service.close()
    _end_to_end(measured, setups, outcome)
    return measured


def _traced(workload: Workload, streams, outcome: Run, root: Path) -> Pass:
    service, _ = set_up(workload, streams)
    try:
        untraced = timed_pass(workload, streams, service)
    finally:
        service.close()
    recorder = layers.SpanRecorder()
    with layers.installed(recorder):
        service, _ = set_up(workload, streams)
        try:
            measured = timed_pass(workload, streams, service, recorder)
        finally:
            service.close()
    table = layers.by_name(recorder.threads())
    for name in workload.layers:
        if name not in table:
            outcome.problems.append(f"layer span {name} recorded nothing in the timed phase")
    _per_layer(workload, measured, table, untraced.obs_per_s, outcome)
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"spans-{workload.name}-seed{outcome.seed}.json"
    path.write_text(json.dumps(recorder.to_json()))
    print(f"spans written to {path.relative_to(root)}")
    return measured


def _account(measured: Pass, outcome: Run) -> None:
    """Failure accounting over the timed phase: lost chunks and failed alarms."""
    timers = measured.timers
    chunks = len(timers)
    lost = sum(1 for timer in timers if timer.lost)
    alarms = sum(timer.alarms for timer in timers)
    errors = sum(s.errors for s in measured.report.streams) - sum(
        s.errors for s in measured.warm.streams
    )
    dropped = sum(s.dropped for s in measured.report.streams) - sum(
        s.dropped for s in measured.warm.streams
    )
    outcome.attempted = chunks + alarms
    outcome.failed = lost + errors + dropped
    line = (
        f"failed_frac = {outcome.failed / outcome.attempted:.6g} 1  "
        f"({outcome.failed} of {outcome.attempted}: chunks submitted {chunks}, lost {lost}; "
        f"alarms raised {alarms}, with an error {errors}, dropped {dropped}"
    )
    after = measured.stats_after
    if "lost_chunks" in after:
        line += (
            f"; executor lost_chunks {after['lost_chunks']}, restarts {after['restarts']}, "
            f"bounced_chunks {after['bounced_chunks']}"
        )
    print(line + ")")
    unresolved = sum(1 for timer in timers if timer.latency is None)
    if unresolved:
        outcome.problems.append(f"{unresolved} chunks never resolved")


def _check(workload: Workload, streams, measured: Pass, digest: str, outcome: Run) -> None:
    outcome.problems.extend(
        checks.check_report(
            workload.name,
            streams,
            measured.report,
            outcome.seed,
            outcome.seconds,
            digest,
            workload.replicas,
        )
    )
    if workload.executor != "inline":
        reference = inline_reference(workload, streams)
        parity = checks.parity_problems(measured.report, reference)
        outcome.problems.extend(parity)
        print(f"parity with an inline replay: {'ok' if not parity else 'MISMATCH'}")
    print(f"report digest {checks.report_digest(measured.report)}")


def _end_to_end(measured: Pass, setups: list[float], outcome: Run) -> None:
    latencies = [1000.0 * t.latency for t in measured.timers if t.latency is not None]
    alarmed = [
        1000.0 * t.latency for t in measured.timers if t.latency is not None and t.alarms
    ]
    count = len(latencies)
    outcome.metric(
        "obs_per_s",
        measured.obs_per_s,
        "1/s",
        f"{measured.observations} observations in {measured.wall:.3f} s, {count} chunks",
    )
    outcome.metric("chunk_p50_ms", stats.median(latencies), "ms", f"n={count}")
    tail = stats.tail(latencies)
    outcome.metric(
        "chunk_tail_ms", tail.value, "ms", f"{tail.label}, n={tail.count}, {tail.beyond} beyond"
    )
    outcome.metric(
        "alarm_p50_ms",
        stats.median(alarmed) if alarmed else 0.0,
        "ms",
        f"n={len(alarmed)} chunks that raised an alarm",
    )
    outcome.metric(
        "setup_s",
        statistics.median(setups),
        "s",
        f"median of {len(setups)}: " + ", ".join(f"{value:.4f}" for value in setups),
    )
    rss = measured.rss_kb
    outcome.metric(
        "peak_rss_mb",
        sum(rss.values()) / 1024.0,
        "MB",
        ", ".join(f"{key} {value / 1024.0:.1f}" for key, value in rss.items()),
    )
    if not alarmed:
        outcome.problems.append("no chunk raised an alarm in the timed phase")


# ----------------------------------------------------------------------
# Per-layer view
# ----------------------------------------------------------------------
PER_LAYER_UNITS = {
    "drift.self_share": "1",
    "drift.us_per_obs": "us/obs",
    "drift.tests": "count",
    "drift.alarms": "count",
    "core.ks_test.us_p50": "us",
    "core.ks_test.calls": "count",
    "preference.self_share": "1",
    "preference.us_p50": "us",
    "core.problem.us_p50": "us",
    "core.size_search.us_p50": "us",
    "core.sizes_checked_per_alarm": "count/alarm",
    "core.construction.us_p50": "us",
    "core.construction.us_tail": "us",
    "core.verify.us_p50": "us",
    "core.self_share": "1",
    "cache.explanations.hit_ratio": "1",
    "cache.preferences.hit_ratio": "1",
    "cache.sorted_references.hit_ratio": "1",
    "service.self_share": "1",
    "service.submit.self_us_p50": "us",
    "service.explain.self_us_p50": "us",
    "cluster.parent_busy": "1",
    "cluster.worker_busy": "1",
    "cluster.submit_blocked_share": "1",
    "wire.encode_us_per_chunk": "us/chunk",
    "wire.chunks_per_frame": "chunks/frame",
    "wire.shm_bytes_per_chunk": "B/chunk",
    "wire.inline_bytes_per_chunk": "B/chunk",
    "cluster.lost_chunks": "count",
    "cluster.restarts": "count",
    "multidim.self_share": "1",
    "multidim.ks2d_test.us_p50": "us",
    "multidim.explain.ms_p50": "ms",
    "multidim.candidates_per_alarm": "count/alarm",
    "multidim.removals_per_alarm": "count/alarm",
    "trace.overhead": "1",
}


_RELATIONS = {"<": operator.lt, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _computed_explanations(measured: Pass) -> list:
    """Explanations the timed phase computed rather than took from a cache."""
    before = {stream.stream_id: len(stream.alarms) for stream in measured.warm.streams}
    return [
        alarm.explanation
        for stream in measured.report.streams
        for alarm in stream.alarms[before.get(stream.stream_id, 0):]
        if alarm.explanation is not None and not alarm.from_cache
    ]


def _per_layer(
    workload: Workload, measured: Pass, table: dict, untraced_obs_per_s: float, outcome: Run
) -> None:
    wall = measured.wall
    own = layers.layer_self_seconds(table)

    def durations(*names: str) -> list[float]:
        return [value for name in names for value in table.get(name, {}).get("duration", [])]

    def p50_us(*names: str) -> float:
        values = durations(*names)
        return 1e6 * stats.median(values) if values else 0.0

    def self_p50_us(name: str) -> float:
        values = table.get(name, {}).get("self", [])
        return 1e6 * stats.median(values) if values else 0.0

    def share(layer: str) -> float:
        return own.get(layer, 0.0) / wall

    report, warm = measured.report, measured.warm
    before, after = measured.stats_before, measured.stats_after
    explanations = _computed_explanations(measured)
    sizes_checked = [
        e.sizes_checked for e in explanations if getattr(e, "sizes_checked", None) is not None
    ]
    removals = [e.size for e in explanations if hasattr(e, "points")]
    construction = durations("core.construction")
    frames = after.get("frames_sent", 0) - before.get("frames_sent", 0)
    framed = after.get("framed_chunks", 0) - before.get("framed_chunks", 0)
    submits = table.get("service.submit", {"duration": [], "cpu": []})
    blocked = sum(d - c for d, c in zip(submits["duration"], submits["cpu"]))
    multidim_explains = len(durations("multidim.explain"))
    cpu = measured.cpu
    worker_cpu = sum(value for key, value in cpu.items() if key != "parent")

    def hit_ratio(cache: str) -> float:
        now = report.cache_stats.get(cache, {})
        then = warm.cache_stats.get(cache, {})
        hits = now.get("hits", 0) - then.get("hits", 0)
        misses = now.get("misses", 0) - then.get("misses", 0)
        return _ratio(hits, hits + misses)

    values = {
        "drift.self_share": share("drift"),
        "drift.us_per_obs": 1e6 * _ratio(own.get("drift", 0.0), measured.observations),
        "drift.tests": sum(s.tests_run for s in report.streams)
        - sum(s.tests_run for s in warm.streams),
        "drift.alarms": report.alarms_raised - warm.alarms_raised,
        "core.ks_test.us_p50": p50_us("core.ks_test"),
        "core.ks_test.calls": len(durations("core.ks_test")),
        "preference.self_share": share("preference"),
        "preference.us_p50": p50_us("preference.build"),
        "core.problem.us_p50": p50_us("core.problem"),
        "core.size_search.us_p50": p50_us("core.size_search"),
        "core.sizes_checked_per_alarm": _ratio(sum(sizes_checked), len(sizes_checked)),
        "core.construction.us_p50": p50_us("core.construction"),
        "core.construction.us_tail": 1e6 * stats.tail(construction).value if construction else 0.0,
        "core.verify.us_p50": p50_us("core.verify"),
        "core.self_share": share("core"),
        "cache.explanations.hit_ratio": hit_ratio("explanations"),
        "cache.preferences.hit_ratio": hit_ratio("preferences"),
        "cache.sorted_references.hit_ratio": hit_ratio("sorted_references"),
        "service.self_share": share("service"),
        "service.submit.self_us_p50": self_p50_us("service.submit"),
        "service.explain.self_us_p50": self_p50_us("service.explain"),
        "cluster.parent_busy": cpu["parent"] / wall,
        "cluster.worker_busy": worker_cpu / wall,
        "cluster.submit_blocked_share": blocked / wall,
        "wire.encode_us_per_chunk": 1e6 * _ratio(sum(durations("wire.encode")), framed),
        "wire.chunks_per_frame": _ratio(framed, frames),
        "wire.shm_bytes_per_chunk": _ratio(
            after.get("payload_bytes_shm", 0) - before.get("payload_bytes_shm", 0), framed
        ),
        "wire.inline_bytes_per_chunk": _ratio(
            after.get("payload_bytes_inline", 0) - before.get("payload_bytes_inline", 0), framed
        ),
        "cluster.lost_chunks": after.get("lost_chunks", 0),
        "cluster.restarts": after.get("restarts", 0),
        "multidim.self_share": share("multidim"),
        "multidim.ks2d_test.us_p50": p50_us("multidim.detect_test", "multidim.explain_test"),
        "multidim.explain.ms_p50": p50_us("multidim.explain") / 1000.0,
        "multidim.candidates_per_alarm": _ratio(
            len(durations("multidim.explain_test")) - 2 * multidim_explains, multidim_explains
        ),
        "multidim.removals_per_alarm": _ratio(sum(removals), len(removals)),
        "trace.overhead": _ratio(untraced_obs_per_s, measured.obs_per_s) - 1.0,
    }
    counts = {name: len(entry["duration"]) for name, entry in table.items()}
    print("span counts " + json.dumps(counts, sort_keys=True))
    print(
        f"timed phase {measured.wall:.3f} s, {measured.obs_per_s:.1f} obs/s traced, "
        f"{untraced_obs_per_s:.1f} obs/s untraced in the same run"
    )
    for name, unit in PER_LAYER_UNITS.items():
        outcome.metric(name, values[name], unit)
    for name, relation, bound in workload.design:
        holds = _RELATIONS[relation](values[name], bound)
        print(
            f"design {name} {relation} {bound:g}: "
            + ("holds" if holds else f"DOES NOT HOLD ({values[name]:.4g})")
        )
