"""Multi-stream explanation serving: the scaling layer over the pipeline.

The paper's motivating scenario is continuous monitoring at scale — many
concurrent data streams raising drift alarms that need comprehensible
explanations immediately.  This package turns the one-shot pipeline of
:mod:`repro.drift` into a high-throughput in-process service:

* :class:`ExplanationService` (:mod:`~repro.service.engine`) — accepts
  ``submit(stream_id, observations)`` calls, multiplexes per-stream sliding
  windows over the drift detectors and runs detection and explanation
  through a pluggable :mod:`repro.cluster` executor (inline on the
  submitting thread, or process shards);
* :class:`SharedCaches` (:mod:`~repro.service.cache`) — keyed LRU caches
  for sorted reference windows, critical values, preference lists and
  finished explanations, shared across streams (replicated feeds get
  their repeat explanations from the cache);
* :class:`StreamConfig` / :class:`StreamRegistry`
  (:mod:`~repro.service.registry`) — per-stream detection and explanation
  configuration;
* :class:`ServiceReport` (:mod:`~repro.service.results`) — the structured
  alarm-log result model that plugs into :mod:`repro.io.export`.
"""

from repro.service.cache import CacheStats, LRUCache, SharedCaches, array_digest
from repro.service.engine import ChunkResult, ExplanationService
from repro.backends import backend_names
from repro.service.registry import (
    EXPLAINERS,
    EXPLAINERS_2D,
    PREFERENCE_BUILDERS,
    StreamConfig,
    StreamRegistry,
    StreamState,
    build_preference_list,
)
from repro.service.results import ServiceAlarm, ServiceReport, StreamReport
from repro.service.snapshot import ServiceSnapshot

__all__ = [
    "CacheStats",
    "ChunkResult",
    "EXPLAINERS",
    "EXPLAINERS_2D",
    "ExplanationService",
    "LRUCache",
    "PREFERENCE_BUILDERS",
    "ServiceAlarm",
    "ServiceReport",
    "ServiceSnapshot",
    "SharedCaches",
    "StreamConfig",
    "StreamRegistry",
    "StreamReport",
    "StreamState",
    "array_digest",
    "backend_names",
    "build_preference_list",
]
