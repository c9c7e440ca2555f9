"""The executor seam: *where* the service's work runs is pluggable.

Two interchangeable backends implement it:

* ``"inline"`` (:class:`~repro.cluster.executors.InlineExecutor`, the
  default) — the service detects and explains every chunk synchronously
  on the submitting thread, against its shared caches.  No queues and no
  concurrency: ``submit()`` returns with the chunk's alarms explained.
* ``"process"`` (:class:`~repro.cluster.sharding.ProcessShardExecutor`) —
  streams are consistent-hashed onto N worker processes that own detection,
  explanation, caches and detector state; the pure-Python MOCHE hot path
  runs on N cores instead of behind one GIL.

Executors are constructed with their options, then bound to a service via
:meth:`Executor.bind`, which hands them the service-side hooks
(record_reply, snapshot, telemetry).  Resources (threads, processes) are
allocated at bind time, so an unbound executor is cheap and picklable-free.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.exceptions import ValidationError

#: Names accepted by :func:`make_executor` and ``repro serve --executor``.
EXECUTOR_NAMES = ("inline", "process")


@dataclass
class ExecutorHooks:
    """Service-side callbacks an executor needs.

    Attributes
    ----------
    record_reply:
        ``record_reply(IngestReply)``; folds one shard reply (alarms plus
        counter deltas) into the service report.
    snapshot:
        ``snapshot() -> {stream_id: config_dict}``; the registry snapshot a
        respawned shard re-registers its streams from.
    metrics:
        The service's :class:`~repro.obs.metrics.MetricsRegistry`, or
        ``None`` when telemetry is disabled.  Executors use it to observe
        their own stages (wire round-trip, migration quiesce) and to decide
        whether shard workers should run instrumented.
    tracer:
        The service's :class:`~repro.obs.trace.Tracer`, or ``None`` when
        tracing is disabled.  Stream-owning executors finish each chunk's
        trace when its reply lands (re-parenting worker spans) and close
        traces of abandoned chunks with a ``lost`` status.
    recorder:
        The service's :class:`~repro.obs.recorder.FlightRecorder`, or
        ``None``.  Executors feed it per-shard lifecycle events and dump
        it on shard crash or retirement.
    """

    record_reply: Callable
    snapshot: Callable[[], dict]
    metrics: Optional[object] = None
    tracer: Optional[object] = None
    recorder: Optional[object] = None


class Executor(abc.ABC):
    """Where the service's detection and explanation work runs.

    Two shapes of executor exist, distinguished by ``owns_detection``:

    * detection-local (``owns_detection = False``): the engine detects and
      explains every chunk itself, on the submitting thread;
    * stream-owning (``owns_detection = True``): the engine routes raw
      chunks to :meth:`ingest` and the executor runs detection *and*
      explanation wherever it likes, reporting back through
      ``hooks.record_reply``.
    """

    name: str = "?"
    owns_detection: bool = False

    def __init__(self) -> None:
        self.hooks: Optional[ExecutorHooks] = None

    # ------------------------------------------------------------------
    def bind(self, hooks: ExecutorHooks) -> "Executor":
        """Attach the service hooks and allocate runtime resources."""
        if self.hooks is not None:
            raise ValidationError(f"executor {self.name!r} is already bound")
        self.hooks = hooks
        self._start()
        return self

    def _start(self) -> None:
        """Allocate threads/processes; called once from :meth:`bind`."""

    # ------------------------------------------------------------------
    # Stream lifecycle (stream-owning executors override these)
    # ------------------------------------------------------------------
    def register(self, state) -> None:
        """A stream was registered (``state`` is the service's StreamState)."""

    def remove(self, stream_id: str) -> None:
        """A stream was deregistered."""

    # ------------------------------------------------------------------
    # Work
    # ------------------------------------------------------------------
    def ingest(self, state, values: np.ndarray, completion=None, trace=None) -> None:
        """Route one coerced chunk (stream-owning executors).

        ``trace``, when given, is the chunk's
        :class:`~repro.obs.trace.ChunkTrace`: the executor opens a
        ``wire_roundtrip`` span, ships its context on the wire message and
        finishes the trace when the reply (or a loss) resolves the chunk.

        ``completion``, when given, is ``completion(reply, lost)`` — invoked
        exactly once per chunk, on an internal thread, after the chunk's
        :class:`~repro.cluster.wire.IngestReply` has been folded into the
        service report (``lost=False``) or after the chunk was abandoned
        because its shard died or the executor closed (``reply=None``,
        ``lost=True``).  Completion callbacks must not call back into the
        service or executor synchronously; hand off to your own thread or
        event loop (:mod:`repro.aio` bridges them onto asyncio futures).
        """
        raise NotImplementedError(f"executor {self.name!r} does not ingest chunks")

    def has_capacity(self) -> bool:
        """Non-blocking probe: would submitting one more chunk block?

        ``True`` means the backpressure bound currently has room (advisory —
        a concurrent producer may take the last slot; a stream that is
        mid-migration can still block briefly).  The asyncio front-end
        awaits on this signal so a slow backend suspends the producing
        coroutine instead of parking an event-loop thread inside a blocking
        ``submit()``.  Executors without a backpressure bound return True.
        """
        return True

    # ------------------------------------------------------------------
    # Elastic operation
    # ------------------------------------------------------------------
    def resize(self, shards: int) -> int:
        """Elastically change the worker shard count; returns the new count.

        The process backend quiesces only the streams whose ring owner
        changes, migrates their detector state to the new owners and
        resumes.  The inline executor has no shard pool: this base
        implementation validates the request and reports the single logical
        shard it runs as, so ``resize()`` is report-parity-neutral across
        every backend.
        """
        if shards < 1:
            raise ValidationError("shards must be at least 1")
        return 1

    def cache_stats(self) -> Optional[dict]:
        """Worker-side cache statistics, merged across workers.

        ``None`` means the parent process's caches see every lookup (the
        inline executor), so the service report needs no merge.  The
        process backend returns the summed per-shard
        :meth:`~repro.service.cache.SharedCaches.stats_dict` counters.
        """
        return None

    def metrics_state(self) -> Optional[dict]:
        """Worker-side metrics, as a mergeable registry ``state_dict``.

        ``None`` means every stage was observed in the parent registry (the
        inline executor).  The process backend returns the merged
        per-shard payloads it collected alongside :meth:`cache_stats`.
        """
        return None

    # ------------------------------------------------------------------
    # Persistence (service snapshots / warm restarts)
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """Collect detector states + cache contents from a stream-owning backend.

        Returns ``{"streams": {stream_id: {"config", "state"}}, "caches":
        contents}``.  Only meaningful when ``owns_detection`` — the engine
        captures parent-local detectors directly otherwise.
        """
        raise NotImplementedError(
            f"executor {self.name!r} does not own detector state"
        )

    def load_states(self, states: dict) -> None:
        """Install restored detector states on a stream-owning backend.

        ``states`` maps ``stream_id -> {"config": dict, "state": dict | None}``
        (the same payload shape the live-migration path installs); streams
        must already be registered.
        """
        raise NotImplementedError(
            f"executor {self.name!r} does not own detector state"
        )

    def seed_caches(self, contents: dict) -> None:
        """Warm worker-side caches from restored snapshot contents.

        No-op by default: the inline executor shares the service's own
        cache bundle, which the engine restores directly.
        """

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for all in-flight work; re-raise deferred backend errors."""

    @abc.abstractmethod
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Release threads/processes; re-raise deferred backend errors."""

    def stats(self) -> dict:
        """Executor counters for the service report."""
        return {"executor": self.name}


def make_executor(name: str, **options) -> Executor:
    """Build an (unbound) executor by name.

    ``options`` are forwarded to the executor's constructor (``"inline"``
    takes none; ``"process"`` takes ``shards``/``mp_context``/...).
    """
    from repro.cluster.executors import InlineExecutor
    from repro.cluster.sharding import ProcessShardExecutor

    factories = {
        "inline": InlineExecutor,
        "process": ProcessShardExecutor,
    }
    if name not in factories:
        raise ValidationError(
            f"unknown executor {name!r} (have {sorted(factories)})"
        )
    return factories[name](**options)
