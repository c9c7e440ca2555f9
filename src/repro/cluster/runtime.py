"""The serving runtime shared by the in-process engine and shard workers.

One question the whole service keeps answering is "given this stream's
config and these two windows, produce the explanation (consulting the
caches)".  PR 1 answered it inside ``ExplanationService``; with process
sharding the same logic must also run inside worker processes, so it lives
here, once:

* :func:`coerce_observations` / :func:`run_detection` — normalise a
  submitted chunk for the stream's backend (scalars or 2-D points) and feed
  it through a detector;
* :func:`build_preference_cached` / :func:`explain_alarm` — the
  cache-aware preference construction and explanation path;
* :class:`ShardRuntime` — the per-process bundle: a stream table of
  detectors and explainers plus a private
  :class:`~repro.service.cache.SharedCaches`, driven by the wire protocol.

A :class:`ShardRuntime` has no threads and no queues; the worker main loop
(:mod:`repro.cluster.worker`) and the tests drive it directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry, stage_histogram
from repro.obs.trace import span_dict
from repro.service.cache import SharedCaches, array_digest
from repro.service.registry import StreamConfig, attribute_stream
from repro.cluster.wire import AlarmRecord, IngestReply


# ----------------------------------------------------------------------
# Backend-aware ingestion helpers (thin wrappers over the stream's plugin)
# ----------------------------------------------------------------------
def coerce_observations(observations, config: StreamConfig) -> np.ndarray:
    """Normalise a submitted chunk for the stream's backend plugin."""
    return config.plugin.coerce_observations(observations)


def observation_count(values: np.ndarray, config: StreamConfig) -> int:
    """Number of observations in a coerced chunk (the backend's unit)."""
    return config.plugin.observation_count(values)


def run_detection(detector, config: StreamConfig, values: np.ndarray) -> list:
    """Feed a coerced chunk into a detector, returning the alarms it raised."""
    return config.plugin.run_detection(detector, values)


# ----------------------------------------------------------------------
# Cache-aware explanation (shared with the in-process engine)
# ----------------------------------------------------------------------
def explanation_cache_key(
    config: StreamConfig, reference_digest: bytes, test_digest: bytes
) -> Hashable:
    """Content key under which this alarm's explanation may be shared.

    Derived by the stream's backend plugin (the backend name is part of
    the key because two backends' windows can serialise to identical
    bytes).
    """
    return config.plugin.explanation_cache_key(config, reference_digest, test_digest)


def build_preference_cached(
    config: StreamConfig,
    caches: SharedCaches,
    reference: np.ndarray,
    test: np.ndarray,
    reference_digest: Optional[bytes] = None,
    test_digest: Optional[bytes] = None,
):
    """Build the alarm's preference list, consulting the shared cache.

    Only *named* builders participate in the cache; custom callables are
    invoked directly (they have no stable identity to key by).
    """
    if not isinstance(config.preference, str):
        return config.preference(reference, test)
    key = config.plugin.preference_cache_key(
        config,
        reference_digest or array_digest(reference),
        test_digest or array_digest(test),
    )
    return caches.preferences.get_or_compute(
        key, lambda: config.build_preference(reference, test)
    )


def explain_alarm(
    config: StreamConfig,
    explainer,
    caches: SharedCaches,
    reference: np.ndarray,
    test: np.ndarray,
    reference_digest: Optional[bytes] = None,
    test_digest: Optional[bytes] = None,
):
    """Explain one alarm, consulting the explanation cache.

    Returns ``(explanation, from_cache)``.  This is the single explanation
    path of the whole system: the service's inline path and every shard
    worker call it.
    """
    key = None
    if config.cacheable:
        reference_digest = reference_digest or array_digest(reference)
        test_digest = test_digest or array_digest(test)
        key = explanation_cache_key(config, reference_digest, test_digest)
        cached = caches.explanations.get(key)
        if cached is not None:
            return cached, True
    preference = build_preference_cached(
        config, caches, reference, test, reference_digest, test_digest
    )
    explanation = explainer.explain(reference, test, preference)
    if key is not None:
        caches.explanations.put(key, explanation)
    return explanation, False


# ----------------------------------------------------------------------
# The per-process stream table
# ----------------------------------------------------------------------
@dataclass
class _ShardStream:
    """Runtime state of one stream owned by this shard."""

    config: StreamConfig
    detector: object
    explainer: object


class ShardRuntime:
    """Detectors, explainers and caches for the streams one shard owns.

    This is the part of the service that moves *into* the worker process:
    detection and explanation both run here, so a fleet sharded over N
    processes uses N cores end to end instead of serialising the pure-Python
    MOCHE hot path behind one GIL.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) makes the
    runtime observe its ``detect`` and ``explain`` stage latencies;
    ``metric_labels`` (e.g. ``{"shard": "shard-0"}``) tags the series so
    per-shard histograms stay distinguishable after the parent merges them.
    """

    def __init__(
        self,
        caches: Optional[SharedCaches] = None,
        metrics: Optional[MetricsRegistry] = None,
        metric_labels: Optional[dict] = None,
    ):
        self.caches = caches or SharedCaches()
        self.metrics = metrics
        labels = metric_labels or {}
        self._m_detect = stage_histogram(metrics, "detect", **labels)
        self._m_explain = stage_histogram(metrics, "explain", **labels)
        self._streams: dict[str, _ShardStream] = {}

    # ------------------------------------------------------------------
    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._streams

    def __len__(self) -> int:
        return len(self._streams)

    def stream_ids(self) -> list[str]:
        return sorted(self._streams)

    # ------------------------------------------------------------------
    def register(self, stream_id: str, config) -> None:
        """Add a stream; ``config`` is a StreamConfig or a ``to_dict`` snapshot.

        Registration is idempotent for an identical config (a shard respawn
        replays the registry snapshot, which may race with an explicit
        registration of a brand-new stream); re-registering with a
        *different* config is an error.
        """
        if isinstance(config, dict):
            with attribute_stream(stream_id):
                config = StreamConfig.from_dict(config)
        existing = self._streams.get(stream_id)
        if existing is not None:
            if existing.config == config:
                return
            raise ValidationError(
                f"stream {stream_id!r} is already registered with a different config"
            )
        self._streams[stream_id] = _ShardStream(
            config=config,
            detector=config.build_detector(ks_runner=self.caches.ks_test),
            explainer=config.build_explainer(),
        )

    def remove(self, stream_id: str) -> None:
        if stream_id not in self._streams:
            raise ValidationError(f"unknown stream {stream_id!r}")
        del self._streams[stream_id]

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------
    def export_stream(self, stream_id: str) -> Optional[dict]:
        """Extract one stream for migration: its config + detector state.

        The stream is removed from the table (its last chunk was already
        processed — command-queue FIFO guarantees it).  ``None`` when this
        runtime does not hold the stream: a respawned shard legitimately
        no longer knows streams the ring moved away first.
        """
        stream = self._streams.pop(stream_id, None)
        if stream is None:
            return None
        return {
            "config": stream.config.to_dict(),
            "state": stream.config.plugin.detector_state(stream.detector),
        }

    def export_streams(self, stream_ids) -> dict:
        """Extract streams for migration: config + detector state snapshots.

        Batch form of :meth:`export_stream`; ids this runtime does not
        hold are skipped, not errors.
        """
        exported: dict[str, dict] = {}
        for stream_id in stream_ids:
            payload = self.export_stream(stream_id)
            if payload is not None:
                exported[stream_id] = payload
        return exported

    def capture_streams(self) -> dict:
        """Non-destructive state capture of every stream this shard holds.

        Same payload shape as :meth:`export_streams`
        (``stream_id -> {"config", "state"}``) but the streams stay
        registered and keep serving — this is what a service snapshot
        collects over the wire while the fleet is quiescent (drained).
        """
        return {
            stream_id: {
                "config": stream.config.to_dict(),
                "state": stream.config.plugin.detector_state(stream.detector),
            }
            for stream_id, stream in sorted(self._streams.items())
        }

    def import_streams(self, streams: dict) -> None:
        """Install migrated streams, restoring detector state.

        ``streams`` maps ``stream_id -> {"config": dict, "state": dict | None}``.
        Registration is idempotent (a racing snapshot replay may have
        registered the stream fresh already); a non-``None`` state then
        overwrites the detector's windows and counters, so the stream
        resumes exactly where its previous shard left off.
        """
        for stream_id, payload in streams.items():
            self.register(stream_id, payload["config"])
            state = payload.get("state")
            if state is not None:
                stream = self._streams[stream_id]
                stream.config.plugin.restore_detector(stream.detector, state)

    # ------------------------------------------------------------------
    def ingest(
        self, stream_id: str, values, seq: int = 0, trace=None, shard_id: Optional[str] = None
    ) -> IngestReply:
        """Run one chunk through detection + explanation, returning the reply.

        When ``trace`` (a :class:`~repro.obs.trace.TraceContext`) is given,
        ``detect`` and per-alarm ``explain`` span dicts ride back on the
        reply — :func:`time.monotonic` stamps, comparable with the parent's
        own spans — so the chunk's timeline survives the process boundary.
        """
        try:
            stream = self._streams[stream_id]
        except KeyError:
            raise ValidationError(f"unknown stream {stream_id!r}") from None
        chunk = coerce_observations(values, stream.config)
        tests_before = getattr(stream.detector, "tests_run", 0)
        spans: Optional[list] = [] if trace is not None else None
        trace_attrs = {"shard": shard_id} if shard_id is not None else None
        if self._m_detect is not None or spans is not None:
            detect_mono = time.monotonic()
            detect_started = time.perf_counter()
            alarms = run_detection(stream.detector, stream.config, chunk)
            detect_elapsed = time.perf_counter() - detect_started
            if self._m_detect is not None:
                self._m_detect.observe(detect_elapsed)
            if spans is not None:
                spans.append(
                    span_dict("detect", detect_mono, detect_elapsed, attrs=trace_attrs)
                )
        else:
            alarms = run_detection(stream.detector, stream.config, chunk)
        records = [self._explain(stream, stream_id, alarm, spans, trace_attrs) for alarm in alarms]
        return IngestReply(
            seq=seq,
            stream_id=stream_id,
            alarms=records,
            observations=observation_count(chunk, stream.config),
            tests_run_delta=getattr(stream.detector, "tests_run", 0) - tests_before,
            alarms_raised_delta=len(records),
            spans=spans or [],
        )

    def _explain(
        self,
        stream: _ShardStream,
        stream_id: str,
        alarm,
        spans: Optional[list] = None,
        trace_attrs: Optional[dict] = None,
    ) -> AlarmRecord:
        """Resolve one alarm into a record, capturing explainer errors per alarm."""
        timed = self._m_explain is not None or spans is not None
        explain_mono = time.monotonic() if timed else None
        explain_started = time.perf_counter() if timed else None
        try:
            explanation, from_cache = explain_alarm(
                stream.config,
                stream.explainer,
                self.caches,
                alarm.reference,
                alarm.test,
            )
            if explain_started is not None:
                explain_elapsed = time.perf_counter() - explain_started
                if self._m_explain is not None:
                    self._m_explain.observe(explain_elapsed)
                if spans is not None:
                    spans.append(
                        span_dict(
                            "explain", explain_mono, explain_elapsed, attrs=trace_attrs
                        )
                    )
        except Exception as exc:
            if spans is not None:
                spans.append(
                    span_dict(
                        "explain",
                        explain_mono,
                        time.perf_counter() - explain_started,
                        status="error",
                        attrs=trace_attrs,
                    )
                )
            return AlarmRecord(
                stream_id=stream_id,
                position=alarm.position,
                result=alarm.result,
                error=str(exc),
            )
        return AlarmRecord(
            stream_id=stream_id,
            position=alarm.position,
            result=alarm.result,
            explanation=explanation,
            from_cache=from_cache,
        )
