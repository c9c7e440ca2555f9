"""Structured results of a service run: alarm logs and service reports.

The service's unit of output is the :class:`ServiceAlarm` — one drift alarm
together with how it was resolved (an explanation or an error).
:class:`StreamReport` aggregates one stream's alarms and counters;
:class:`ServiceReport` aggregates the whole run, including cache and
executor statistics and throughput.  Everything serialises to
plain dictionaries so the reports plug into :mod:`repro.io.export`
(:func:`repro.io.export.save_service_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.explanation import Explanation
from repro.core.ks import KSTestResult
from repro.io.export import explanation_report, explanation_to_dict, ks_result_to_dict


@dataclass
class ServiceAlarm:
    """One drift alarm and its resolution.

    Attributes
    ----------
    stream_id, position:
        Which stream alarmed and at which stream index.
    result:
        The failed KS test that raised the alarm.
    explanation:
        The counterfactual explanation, when one was produced.
    error:
        Error message when the explainer failed for this alarm.
    dropped:
        Always False: no executor drops alarms (both block under
        backpressure).  The field stays in :meth:`to_dict` so serialised
        and canonical reports keep their shape.
    from_cache:
        True when the explanation was served from the explanation cache
        (the service's shared one, or the owning shard's).
    """

    stream_id: str
    position: int
    result: KSTestResult
    explanation: Optional[Explanation] = None
    error: Optional[str] = None
    dropped: bool = False
    from_cache: bool = False

    @property
    def explained(self) -> bool:
        return self.explanation is not None

    def to_dict(self) -> dict:
        return {
            "stream_id": self.stream_id,
            "position": self.position,
            "result": ks_result_to_dict(self.result),
            "explanation": (
                explanation_to_dict(self.explanation) if self.explanation else None
            ),
            "error": self.error,
            "dropped": self.dropped,
            "from_cache": self.from_cache,
        }

    def render(self) -> str:
        """Human-readable block for one alarm, monitoring-alert style."""
        header = f"[{self.stream_id}] drift alarm at observation {self.position}"
        if self.dropped:
            return f"{header}\n  (explanation dropped under backpressure)"
        if self.error is not None:
            return f"{header}\n  (explanation failed: {self.error})"
        if self.explanation is None:
            return f"{header}\n  (explanation pending)"
        suffix = "  [cached]" if self.from_cache else ""
        return f"{header}{suffix}\n{explanation_report(self.explanation)}"


@dataclass
class StreamReport:
    """Final per-stream accounting of one service run."""

    stream_id: str
    observations: int
    tests_run: int
    alarms_raised: int
    explained: int
    errors: int
    dropped: int
    cache_hits: int
    alarms: list[ServiceAlarm] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "stream_id": self.stream_id,
            "observations": self.observations,
            "tests_run": self.tests_run,
            "alarms_raised": self.alarms_raised,
            "explained": self.explained,
            "errors": self.errors,
            "dropped": self.dropped,
            "cache_hits": self.cache_hits,
            "alarms": [alarm.to_dict() for alarm in self.alarms],
        }


def canonical_report_dict(payload: dict) -> dict:
    """Canonicalise a ``ServiceReport.to_dict()``-shaped payload.

    Module-level (rather than a method) so parity checks can compare
    reports that only exist as JSON on disk — e.g. the warm-restart smoke
    comparing a killed-and-restarted ``repro serve --output`` file against
    an uninterrupted one — without reconstructing report objects.  Strips
    wall-clock times, cache bookkeeping and executor statistics; see
    :meth:`ServiceReport.canonical_dict`.
    """
    streams = []
    for stream in payload.get("streams", []):
        stream = dict(stream)
        stream.pop("cache_hits", None)
        alarms = [dict(alarm) for alarm in stream.get("alarms", [])]
        for alarm in alarms:
            alarm.pop("from_cache", None)
            if alarm.get("explanation"):
                alarm["explanation"] = dict(alarm["explanation"])
                alarm["explanation"].pop("runtime_seconds", None)
        # A canonical view must not depend on how the report was built.
        alarms.sort(key=lambda alarm: alarm["position"])
        stream["alarms"] = alarms
        streams.append(stream)
    return {"streams": streams}


@dataclass
class ServiceReport:
    """Aggregate result of a service run across all registered streams.

    ``cache_stats`` pools the parent-process caches with the per-shard
    worker caches when the run used the process executor, so hit rates
    reflect where the lookups actually happened.  ``restarts`` and
    ``state_lost`` make shard-fault data loss visible: a respawned (or
    retired) shard rebuilds its streams with *fresh* detector state, and
    the affected stream ids are listed instead of silently reading as a
    clean run.  ``latency`` (present when the service ran with metrics
    enabled) maps each pipeline stage to its merged latency summary —
    ``{count, sum, mean, p50, p95, p99}`` — with per-shard histograms
    already folded in; when tracing is also on, each stage carries the
    ``repro_*`` trace ids of its slowest chunks under ``exemplars``.
    """

    streams: list[StreamReport]
    cache_stats: dict[str, dict]
    executor_stats: dict
    elapsed_seconds: float
    cache_hit_rate: float
    restarts: int = 0
    state_lost: list[str] = field(default_factory=list)
    latency: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def observations(self) -> int:
        return sum(stream.observations for stream in self.streams)

    @property
    def alarms_raised(self) -> int:
        return sum(stream.alarms_raised for stream in self.streams)

    @property
    def explained(self) -> int:
        return sum(stream.explained for stream in self.streams)

    @property
    def throughput(self) -> float:
        """Observations ingested per second over the service's lifetime."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.observations / self.elapsed_seconds

    def canonical_dict(self) -> dict:
        """An executor-independent view of the run, for parity comparison.

        The executor backends (inline / process) must produce
        identical alarms and explanations on the same replay, but they
        differ legitimately in timing, cache topology (process shards hold
        per-shard caches) and batching counters.  This view keeps exactly
        the semantic content — streams, counters, alarm positions, test
        results and explanations — and strips wall-clock times, cache-hit
        bookkeeping and executor statistics, so two runs compare equal iff
        they explained the same drifts the same way.
        """
        return canonical_report_dict(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "streams": [stream.to_dict() for stream in self.streams],
            "totals": {
                "streams": len(self.streams),
                "observations": self.observations,
                "alarms_raised": self.alarms_raised,
                "explained": self.explained,
                "throughput_obs_per_second": self.throughput,
                "elapsed_seconds": self.elapsed_seconds,
                "cache_hit_rate": self.cache_hit_rate,
            },
            "faults": {
                "restarts": self.restarts,
                "state_lost": list(self.state_lost),
            },
            "caches": self.cache_stats,
            "executor": self.executor_stats,
            "latency": self.latency,
        }

    def render(self, alarms: bool = True) -> str:
        """Human-readable run summary (optionally with every alarm block)."""
        lines = [
            "Explanation service report",
            "=" * 48,
            f"streams            : {len(self.streams)}",
            f"observations       : {self.observations}",
            f"alarms raised      : {self.alarms_raised}",
            f"alarms explained   : {self.explained}",
            f"elapsed            : {self.elapsed_seconds:.3f} s "
            f"({self.throughput:,.0f} obs/s)",
            f"cache hit rate     : {100 * self.cache_hit_rate:.1f}%",
        ]
        stats = dict(self.executor_stats or {})
        name = stats.pop("executor", "inline")
        stats.pop("state_lost_streams", None)  # rendered on its own line below
        detail = ", ".join(f"{key} {value}" for key, value in stats.items())
        lines.append(f"executor           : {name}" + (f" ({detail})" if detail else ""))
        if self.restarts or self.state_lost:
            lost = ", ".join(self.state_lost) if self.state_lost else "none"
            lines.append(
                f"shard faults       : {self.restarts} restart(s); "
                f"detector state lost on: {lost}"
            )
        # The latency section appears only when some stage actually has
        # samples: with metrics disabled (or a run that observed nothing)
        # a block of "stage: no samples" rows read as a telemetry bug, not
        # as the configuration it was.
        sampled_stages = {
            stage: summary
            for stage, summary in (self.latency or {}).items()
            if summary.get("count", 0)
        }
        if sampled_stages:
            lines.append("stage latency      :")
        for stage, summary in sampled_stages.items():
            count = summary["count"]
            quantiles = " / ".join(
                f"{1000 * summary[q]:.2f}" if summary.get(q) is not None else "-"
                for q in ("p50", "p95", "p99")
            )
            exemplars = summary.get("exemplars") or []
            suffix = f"; slowest: {', '.join(exemplars)}" if exemplars else ""
            lines.append(
                f"  {stage}: p50/p95/p99 {quantiles} ms ({count} samples{suffix})"
            )
        for stream in self.streams:
            lines.append(
                f"  {stream.stream_id}: {stream.observations} obs, "
                f"{stream.tests_run} tests, {stream.alarms_raised} alarms, "
                f"{stream.explained} explained"
                + (f", {stream.dropped} dropped" if stream.dropped else "")
            )
        if alarms:
            for stream in self.streams:
                for alarm in stream.alarms:
                    lines.append("")
                    lines.append(alarm.render())
        return "\n".join(lines)
