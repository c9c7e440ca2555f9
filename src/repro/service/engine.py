"""The multi-stream explanation service.

:class:`ExplanationService` is the serving layer over the one-shot
pipeline: it multiplexes any number of named streams over per-stream drift
detectors and routes the work through a pluggable *executor*
(:mod:`repro.cluster`) that decides where detection and explanation run:

* ``executor="inline"`` (default) — detection and explanation run
  synchronously on the submitting thread, against the service's shared
  caches;
* ``executor="process"`` — streams consistent-hashed onto ``shards`` worker
  processes that own detector state, explainers and per-shard caches, for
  multi-core serving of the GIL-bound MOCHE hot path.  Chunks cross to the
  shards in frames of up to 32, arrays inline (:mod:`repro.cluster.wire`).

Both backends produce identical alarms and explanations on the same input
(see :meth:`~repro.service.results.ServiceReport.canonical_dict`).

Typical use::

    with ExplanationService() as service:
        for sensor_id in sensors:
            service.register(sensor_id, StreamConfig(window_size=200))
        for sensor_id, chunk in feed:
            service.submit(sensor_id, chunk)
        report = service.report()
    print(report.render())
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.cluster.base import Executor, ExecutorHooks, make_executor
from repro.cluster.runtime import (
    coerce_observations,
    explain_alarm,
    observation_count,
    run_detection,
)
from repro.cluster.wire import IngestReply
from repro.exceptions import ServiceBackendError, ValidationError
from repro.obs.metrics import (
    MetricsRegistry,
    latency_summary,
    register_stage_histograms,
    stage_histogram,
)
from repro.obs.prometheus import render_registry
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TRACE_SCHEMA, ChunkTrace, Tracer
from repro.service.cache import (
    SharedCaches,
    merge_cache_contents,
    merge_stats_dicts,
    pooled_hit_rate,
)
from repro.service.registry import (
    StreamConfig,
    StreamRegistry,
    StreamState,
    attribute_stream,
)
from repro.service.results import ServiceAlarm, ServiceReport, StreamReport
from repro.service.snapshot import ServiceSnapshot
from repro.utils.deferred import DeferredErrors


@dataclass
class ChunkResult:
    """Resolution of one submitted chunk: what the service did with it.

    Delivered through ``submit(..., on_complete=...)`` exactly once per
    chunk, after every alarm the chunk raised has been explained or failed
    — and after all of them are visible in the service report.

    Attributes
    ----------
    stream_id:
        The stream the chunk was submitted to.
    observations:
        Observations the service accounted for this chunk (0 when lost).
    alarms:
        Snapshots of the resolved alarms this chunk raised, in the order
        they were recorded.
    lost:
        True when the chunk was abandoned before being served — its shard
        crashed, or the service closed with the chunk still in flight.
    """

    stream_id: str
    observations: int = 0
    alarms: list[ServiceAlarm] = field(default_factory=list)
    lost: bool = False


class ExplanationService:
    """An in-process, multi-stream drift-explanation engine.

    Parameters
    ----------
    queue_capacity:
        Backpressure bound on the in-flight chunk count (``process``
        executor only; ``submit`` blocks once it is reached).  ``inline``
        ignores it: nothing is ever in flight there.
    default_config:
        Config used by :meth:`register` when none is given.
    caches:
        Shared cache bundle; a fresh default-sized one when omitted.  Used
        by the ``inline`` executor; process shards hold their own.
    max_alarms_per_stream:
        Bound on each stream's retained alarm log (oldest entries are
        discarded once exceeded) so a long-running service does not grow
        without limit; the per-stream counters still cover the full
        lifetime.  ``None`` disables the bound.
    executor:
        ``"inline"`` (default), ``"process"``, or a pre-built (unbound)
        :class:`~repro.cluster.base.Executor` instance.
    shards:
        Worker processes (``process`` executor only).
    mp_context:
        Multiprocessing start method for the ``process`` executor
        (default ``"spawn"``).  The CLI cross-validates these flag/executor
        combinations; the library constructor simply ignores options the
        chosen backend does not take.
    metrics:
        Enable stage-latency telemetry: a
        :class:`~repro.obs.metrics.MetricsRegistry` instruments the five
        pipeline stages (ingest enqueue, shard queue wait, detection,
        explanation, wire round-trip), shard workers run instrumented and
        their histograms merge into :meth:`report` /
        :meth:`scrape_metrics`.  Off by default; disabled, the hot path
        pays one ``None`` check per stage.
    cache_ttl:
        Optional time-to-live (seconds) for the shared caches (and the
        per-shard worker caches under the process executor).
    cache_max_entry_bytes:
        Optional size-aware admission bound (bytes) for the array-valued
        shared caches.  Both knobs are ignored when an explicit ``caches``
        bundle is passed — the bundle carries its own lifecycle settings.
    tracing:
        Enable per-chunk distributed tracing: every submitted chunk gets a
        :class:`~repro.obs.trace.ChunkTrace` (span tree over the five
        pipeline stages, completed across the process boundary under the
        ``process`` executor).  Pass ``True`` for a default
        :class:`~repro.obs.trace.Tracer` (``trace_sample``/``trace_seed``
        configure its head-based sampler) or a pre-built ``Tracer``.
        Implied by ``trace_dir``.  Off by default; disabled, the hot path
        pays one ``None`` check.
    trace_sample:
        Head-based sampling rate in ``[0, 1]`` for retaining finished
        traces (slow exemplars are kept regardless).  Default 0.1.
    trace_seed:
        Seed of the sampler, making keep/drop decisions deterministic for
        a given submission order.
    trace_dir:
        Directory for trace exports and flight-recorder crash dumps
        (``repro serve --trace-dir``).  Implies ``tracing``; the service's
        :class:`~repro.obs.recorder.FlightRecorder` dumps there on shard
        crash, retirement, SIGUSR2 (CLI) or :meth:`dump_flight_recorder`.
    """

    def __init__(
        self,
        queue_capacity: int = 128,
        default_config: Optional[StreamConfig] = None,
        caches: Optional[SharedCaches] = None,
        max_alarms_per_stream: Optional[int] = 10_000,
        executor: Union[str, Executor] = "inline",
        shards: int = 2,
        mp_context: Optional[str] = None,
        metrics: bool = False,
        cache_ttl: Optional[float] = None,
        cache_max_entry_bytes: Optional[int] = None,
        tracing: Union[bool, Tracer] = False,
        trace_sample: float = 0.1,
        trace_seed: int = 0,
        trace_dir: Optional[Union[str, Path]] = None,
    ):
        self.default_config = default_config or StreamConfig()
        self.max_alarms_per_stream = max_alarms_per_stream
        self._cache_lifecycle = {
            key: value
            for key, value in (
                ("ttl", cache_ttl),
                ("max_entry_bytes", cache_max_entry_bytes),
            )
            if value is not None
        }
        self.caches = caches or SharedCaches(**self._cache_lifecycle)
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry(enabled=True) if metrics else None
        )
        register_stage_histograms(self.metrics)
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        if isinstance(tracing, Tracer):
            self.tracer: Optional[Tracer] = tracing
        elif tracing or self.trace_dir is not None:
            self.tracer = Tracer(trace_sample, seed=trace_seed)
        else:
            self.tracer = None
        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder(dump_dir=self.trace_dir) if self.tracer is not None else None
        )
        self._m_ingest = stage_histogram(self.metrics, "ingest_enqueue")
        self._m_detect = stage_histogram(self.metrics, "detect")
        self._m_explain = stage_histogram(self.metrics, "explain")
        self._registry = StreamRegistry()
        self._results_lock = threading.Lock()
        self._listener_lock = threading.Lock()
        self._alarm_listeners: list[Callable[[ServiceAlarm], None]] = []
        self._deferred = DeferredErrors()
        self._started = time.perf_counter()
        self._closed = False
        if isinstance(executor, str):
            executor = make_executor(
                executor,
                **self._executor_options(
                    executor,
                    queue_capacity,
                    shards,
                    mp_context,
                    self._cache_lifecycle,
                ),
            )
        self._executor = executor.bind(
            ExecutorHooks(
                record_reply=self._record_reply,
                snapshot=self._registry.snapshot,
                metrics=self.metrics,
                tracer=self.tracer,
                recorder=self.recorder,
            )
        )

    @staticmethod
    def _executor_options(
        name: str, capacity, shards, mp_context, cache_lifecycle=None
    ) -> dict:
        """The constructor options each named executor understands."""
        if name == "process":
            options = {
                "shards": shards,
                "mp_context": mp_context,
                "capacity": capacity,
            }
            if cache_lifecycle:
                # Each shard's private cache bundle inherits the parent's
                # TTL / admission settings.
                options["cache_config"] = dict(cache_lifecycle)
            return options
        return {}

    @property
    def executor(self) -> Executor:
        """The executor backend this service runs on."""
        return self._executor

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def register(
        self,
        stream_id: str,
        config: Optional[StreamConfig] = None,
        **overrides,
    ) -> StreamState:
        """Register a stream, optionally overriding config fields inline.

        Config problems — unknown backend, method or preference names,
        invalid overrides — surface as
        :class:`~repro.exceptions.ValidationError` naming the stream, so
        a misconfigured member of a large fleet is attributable.
        """
        config = config or self.default_config
        if overrides:
            with attribute_stream(stream_id):
                config = config.with_overrides(**overrides)
        state = self._registry.register(
            stream_id,
            config,
            ks_runner=self.caches.ks_test,
            max_alarms=self.max_alarms_per_stream,
            # Stream-owning executors run detection and explanation in their
            # own runtime; the parent state then only does accounting.
            build_runtime=not self._executor.owns_detection,
        )
        try:
            self._executor.register(state)
        except Exception:
            # Keep the registry and the executor consistent: a stream the
            # executor refused (e.g. a custom callable config handed to the
            # process backend) must not linger half-registered.
            self._registry.remove(stream_id)
            raise
        return state

    def remove(self, stream_id: str) -> StreamState:
        """Deregister a stream, returning its final state."""
        state = self._registry.remove(stream_id)
        self._executor.remove(stream_id)
        return state

    def stream_ids(self) -> list[str]:
        return self._registry.ids()

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._registry

    def config_snapshot(self) -> dict[str, dict]:
        """Serializable registry snapshot (``stream_id -> config dict``)."""
        return self._registry.snapshot()

    # ------------------------------------------------------------------
    # Persistence: snapshot / warm restart
    # ------------------------------------------------------------------
    def snapshot(self) -> ServiceSnapshot:
        """Capture the full service state for a warm restart.

        Drains first, so the capture is quiescent and consistent: stream
        configs, per-stream detector ``state_dict`` snapshots (collected
        over the wire from the shard workers under the process executor),
        the per-stream counters *and alarm logs*, and the shared-cache
        contents (parent caches pooled with the worker caches).  The
        returned :class:`~repro.service.snapshot.ServiceSnapshot` pickles;
        feeding it to :meth:`restore` on a fresh service resumes the run
        byte-identically (see ``repro serve --snapshot-dir``).
        """
        if self._closed:
            raise ValidationError("cannot snapshot a closed service")
        self.drain()
        configs = self._registry.snapshot()
        caches = self.caches.snapshot_contents()
        detector_states: dict[str, dict] = {}
        if self._executor.owns_detection:
            captured = self._executor.capture_state()
            detector_states = {
                stream_id: payload["state"]
                for stream_id, payload in captured["streams"].items()
            }
            missing = sorted(set(configs) - set(detector_states))
            if missing:
                # A shard died (or timed out) mid-capture.  A snapshot
                # written without its streams' detector state would restore
                # them fresh while still skipping their served
                # observations — silent divergence.  Fail loudly instead;
                # the caller retries once the fleet is healthy again.
                raise ServiceBackendError(
                    f"state capture is missing streams {missing}; "
                    "refusing to build a partial snapshot"
                )
            caches = merge_cache_contents(caches, captured["caches"])
        else:
            for state in self._registry.states():
                with state.lock:
                    detector_states[state.stream_id] = state.config.plugin.detector_state(
                        state.detector
                    )
        accounting: dict[str, dict] = {}
        with self._results_lock:
            for state in self._registry.states():
                accounting[state.stream_id] = {
                    "observations": int(state.observations),
                    "tests_run": int(state.tests_run),
                    "alarms_raised": int(state.alarms_raised),
                    "explained": int(state.explained),
                    "errors": int(state.errors),
                    "dropped": int(state.dropped),
                    "cache_hits": int(state.cache_hits),
                    "alarms": sorted(state.alarms, key=lambda a: a.position),
                }
        return ServiceSnapshot(
            configs=configs,
            detector_states=detector_states,
            accounting=accounting,
            caches=caches,
        )

    def restore(self, snapshot: ServiceSnapshot) -> list[str]:
        """Rebuild this (empty) service from a :meth:`snapshot`.

        Streams are re-registered from the snapshot's configs, detector
        state is installed through each stream's backend plugin (rides the
        idempotent ``MigrateIn`` install path on the process executor),
        the shared caches are re-warmed and the per-stream accounting —
        including the retained alarm logs — is folded back in, so the
        report of a restored run covers the whole replay, not just the
        post-restart tail.  Returns the restored stream ids.
        """
        if self._closed:
            raise ValidationError("cannot restore into a closed service")
        if len(self._registry):
            raise ValidationError(
                "restore() requires a service with no registered streams"
            )
        self.caches.restore_contents(snapshot.caches)
        for stream_id in snapshot.stream_ids():
            with attribute_stream(stream_id):
                config = StreamConfig.from_dict(snapshot.configs[stream_id])
            self.register(stream_id, config)
        if self._executor.owns_detection:
            self._executor.seed_caches(snapshot.caches)
            self._executor.load_states(
                {
                    stream_id: {
                        "config": snapshot.configs[stream_id],
                        "state": snapshot.detector_states.get(stream_id),
                    }
                    for stream_id in snapshot.stream_ids()
                }
            )
        else:
            for state in self._registry.states():
                payload = snapshot.detector_states.get(state.stream_id)
                if payload is not None:
                    with state.lock:
                        state.config.plugin.restore_detector(state.detector, payload)
        with self._results_lock:
            for state in self._registry.states():
                acct = snapshot.accounting.get(state.stream_id)
                if not acct:
                    continue
                state.observations = int(acct["observations"])
                state.alarms_raised = int(acct["alarms_raised"])
                state.explained = int(acct["explained"])
                state.errors = int(acct["errors"])
                state.dropped = int(acct["dropped"])
                state.cache_hits = int(acct["cache_hits"])
                state.alarms.extend(acct["alarms"])
                if self._executor.owns_detection:
                    state.remote_tests_run = int(acct["tests_run"])
        # The restored run's clock starts now: counting the wall-clock that
        # passed before the restart (service construction, snapshot loading)
        # against this run deflated every restored report's throughput.
        self._started = time.perf_counter()
        return snapshot.stream_ids()

    def resize(self, shards: int) -> int:
        """Elastically change the executor's shard count; returns the new one.

        On the process backend this is a *live* rebalance: only the streams
        whose ring owner changes are quiesced while their detector state
        migrates, and the run's alarms/explanations are byte-identical to a
        fixed-shard replay.  The ``inline`` executor has no shard pool, so
        the call validates and reports its single logical shard.
        """
        return self._executor.resize(shards)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def submit(
        self,
        stream_id: str,
        observations: Iterable,
        on_complete: Optional[Callable[[ChunkResult], None]] = None,
    ) -> int:
        """Feed observations into a stream, explaining alarms as they fire.

        Under the ``inline`` executor the chunk is detected and every alarm
        it raises is explained on the calling thread, so the call returns
        with the alarms already in the report; it returns how many were
        raised.  With the ``process`` executor the chunk is routed to the
        owning shard and ``0`` is returned — alarms surface in
        :meth:`report` after the shard acknowledges the chunk.

        ``on_complete``, when given, is invoked with a :class:`ChunkResult`
        exactly once — after every alarm this chunk raised has been
        resolved (explained or failed) and folded into the report, or
        after the chunk was lost to a shard fault or shutdown.  It may run
        on an internal thread and must not call back into the service
        synchronously; exceptions it raises are re-raised by the next
        :meth:`drain`/:meth:`close`.  This is the completion hook the
        asyncio front-end (:mod:`repro.aio`) bridges onto awaitable
        futures.

        A chunk the stream's backend rejects — ``None``, NaN or inf
        included — raises :class:`~repro.exceptions.ValidationError` naming
        the stream, before any detector sees it.
        """
        if self._closed:
            # One uniform check for every backend: a closed service must
            # not advance detector state or counters.
            raise ValidationError("cannot submit to a closed service")
        state = self._registry.get(stream_id)
        try:
            values = coerce_observations(observations, state.config)
        except ValidationError:
            # Attributed only on the way out, so an accepted chunk pays
            # nothing for the context manager.
            with attribute_stream(stream_id):
                raise
        trace = self.tracer.start_chunk(stream_id) if self.tracer is not None else None
        if self._executor.owns_detection:
            # Observation counts come back with the shard acknowledgement
            # (_record_reply), so a chunk the executor rejects — or loses to
            # a crash — never inflates the report.
            completion = None
            if on_complete is not None:
                completion = self._make_chunk_completion(stream_id, on_complete)
            enqueue_span = trace.start_span("ingest_enqueue") if trace is not None else None
            if self._m_ingest is not None:
                # Enqueue latency includes any backpressure wait: that is
                # exactly the signal a producer (and the autoscaler) feels.
                enqueue_started = time.perf_counter()
                self._executor.ingest(state, values, completion, trace=trace)
                self._m_ingest.observe(time.perf_counter() - enqueue_started)
            else:
                self._executor.ingest(state, values, completion, trace=trace)
            if enqueue_span is not None:
                # The executor finishes the trace when the shard reply (or
                # a loss) resolves the chunk; only the enqueue span is ours.
                enqueue_span.finish()
            return 0
        with state.lock:
            detect_span = trace.start_span("detect") if trace is not None else None
            if self._m_detect is not None:
                detect_started = time.perf_counter()
                alarms = run_detection(state.detector, state.config, values)
                self._m_detect.observe(time.perf_counter() - detect_started)
            else:
                alarms = run_detection(state.detector, state.config, values)
            if detect_span is not None:
                detect_span.finish()
            state.alarms_raised += len(alarms)
            count = observation_count(values, state.config)
            # Nothing is queued under inline: the "enqueue" stage times
            # explaining the chunk's alarms in place.
            enqueue_started = (
                time.perf_counter() if self._m_ingest is not None else None
            )
            enqueue_span = trace.start_span("ingest_enqueue") if trace is not None else None
            resolved = [self._explain(state, alarm, trace) for alarm in alarms]
            if enqueue_started is not None:
                self._m_ingest.observe(time.perf_counter() - enqueue_started)
            if enqueue_span is not None:
                enqueue_span.finish()
            state.observations += count
        if trace is not None:
            self.tracer.finish_chunk(trace)
        if on_complete is not None:
            try:
                on_complete(ChunkResult(stream_id, observations=count, alarms=resolved))
            except Exception as exc:
                self._deferred.add(exc)
        return len(alarms)

    def _make_chunk_completion(
        self, stream_id: str, on_complete: Callable[[ChunkResult], None]
    ) -> Callable:
        """Adapt ``on_complete`` to the executor's ``(reply, lost)`` contract."""

        def completion(reply, lost: bool) -> None:
            if lost or reply is None:
                result = ChunkResult(stream_id=stream_id, lost=True)
            else:
                result = ChunkResult(
                    stream_id=stream_id,
                    observations=reply.observations,
                    alarms=[self._alarm_from_record(record) for record in reply.alarms],
                )
            on_complete(result)

        return completion

    def _explain(
        self, state: StreamState, alarm, trace: Optional[ChunkTrace]
    ) -> ServiceAlarm:
        """Explain one alarm against the shared caches and fold it in."""
        resolved = ServiceAlarm(
            stream_id=state.stream_id, position=alarm.position, result=alarm.result
        )
        explain_span = trace.start_span("explain") if trace is not None else None
        explain_started = time.perf_counter() if self._m_explain is not None else None
        try:
            resolved.explanation, resolved.from_cache = explain_alarm(
                state.config, state.explainer, self.caches, alarm.reference, alarm.test
            )
        except Exception as exc:  # recorded on the alarm, like a shard does
            resolved.error = str(exc)
            if explain_span is not None:
                explain_span.finish("error")
        else:
            if explain_started is not None:
                self._m_explain.observe(time.perf_counter() - explain_started)
            if explain_span is not None:
                explain_span.finish()
        with self._results_lock:
            self._fold_alarm(state, resolved)
        self._notify_alarm(resolved)
        return resolved

    @staticmethod
    def _fold_alarm(state: StreamState, alarm: ServiceAlarm) -> None:
        """Fold one resolved alarm into a stream's accounting.

        Single classification point for every executor backend (the caller
        holds the results lock), so inline and process runs cannot diverge.
        """
        if alarm.error is not None:
            state.errors += 1
        else:
            state.explained += 1
            if alarm.from_cache:
                state.cache_hits += 1
        state.alarms.append(alarm)

    @staticmethod
    def _alarm_from_record(record) -> ServiceAlarm:
        """A shard-reply alarm record as a service alarm."""
        return ServiceAlarm(
            stream_id=record.stream_id,
            position=record.position,
            result=record.result,
            explanation=record.explanation,
            error=record.error,
            from_cache=record.from_cache,
        )

    def _record_reply(self, reply: IngestReply) -> None:
        """Fold one shard acknowledgement into the per-stream accounting."""
        try:
            state = self._registry.get(reply.stream_id)
        except ValidationError:
            # The stream was removed while this chunk was in flight; its
            # accounting went with it.
            return
        alarms = [self._alarm_from_record(record) for record in reply.alarms]
        with self._results_lock:
            state.observations += reply.observations
            state.remote_tests_run = (state.remote_tests_run or 0) + reply.tests_run_delta
            state.alarms_raised += reply.alarms_raised_delta
            for alarm in alarms:
                self._fold_alarm(state, alarm)
        for alarm in alarms:
            self._notify_alarm(alarm)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def add_alarm_listener(self, listener: Callable[[ServiceAlarm], None]) -> None:
        """Call ``listener(alarm)`` for every alarm as it is resolved.

        Listeners run on the submitting thread (``inline``) or the shard
        reply collector (``process``), after the alarm has been folded into
        the report, and must not call back into the service synchronously.
        Exceptions they raise are recorded and re-raised by the next
        :meth:`drain`/:meth:`close` instead of killing the delivering
        thread.  This is the feed :mod:`repro.aio` turns into async-iterable
        alarm streams.
        """
        with self._listener_lock:
            self._alarm_listeners.append(listener)

    def remove_alarm_listener(self, listener: Callable[[ServiceAlarm], None]) -> None:
        """Detach a listener added with :meth:`add_alarm_listener`."""
        with self._listener_lock:
            try:
                self._alarm_listeners.remove(listener)
            except ValueError:
                pass

    def _notify_alarm(self, alarm: ServiceAlarm) -> None:
        with self._listener_lock:
            listeners = list(self._alarm_listeners)
        for listener in listeners:
            try:
                listener(alarm)
            except Exception as exc:
                # A broken listener must not kill the reply collector or
                # starve a chunk completion queued behind it.
                self._deferred.add(exc)

    # ------------------------------------------------------------------
    # Lifecycle and results
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called.

        Submissions to a closed service raise; pollers (like the asyncio
        front-end's backpressure await, whose capacity probe reads False
        forever after a close) check this instead of spinning.
        """
        return self._closed

    def has_capacity(self) -> bool:
        """Non-blocking probe of the executor's backpressure bound.

        ``True`` when a :meth:`submit` right now would not block waiting
        for queue space (advisory; see
        :meth:`repro.cluster.base.Executor.has_capacity`).
        """
        return self._executor.has_capacity()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every submitted chunk and queued alarm is resolved.

        Raises :class:`~repro.exceptions.ServiceBackendError` if the backend
        recorded a deferred failure (a raising outcome callback or alarm
        listener, a shard worker protocol error) since the last drain/close.
        """
        drained = self._executor.drain(timeout=timeout)
        self._deferred.raise_first("service callback failed")
        return drained

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until every executor worker has finished booting.

        Process-shard workers spend their first moments importing the
        runtime; this barrier lets callers separate that one-time boot
        from steady-state serving (benchmark warmup, operator pre-warm
        before cutover).  The ``inline`` executor is always ready.  Returns
        ``False`` on timeout.
        """
        waiter = getattr(self._executor, "wait_ready", None)
        if waiter is None:
            return True
        return waiter(timeout=timeout)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Drain (by default) and stop the executor backend.

        Like :meth:`drain`, re-raises deferred backend failures — after the
        backend's threads/processes have been shut down.
        """
        if not self._closed:
            self._closed = True
            self._executor.close(drain=drain, timeout=timeout)
            self._deferred.raise_first("service callback failed")

    def __enter__(self) -> "ExplanationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def alarms(self, stream_id: Optional[str] = None) -> list[ServiceAlarm]:
        """Alarm log of one stream (or all streams), ordered per stream.

        Each stream's log is sorted by stream position when snapshotted.
        """
        states = (
            [self._registry.get(stream_id)]
            if stream_id is not None
            else self._registry.states()
        )
        with self._results_lock:
            return [
                alarm
                for state in states
                for alarm in sorted(state.alarms, key=lambda a: a.position)
            ]

    def report(self) -> ServiceReport:
        """A structured snapshot of the whole run (drains pending work first).

        With the process executor the per-shard worker caches are collected
        over the wire and pooled with the parent's (which only the
        ``inline`` executor exercises), so cache hit rates describe
        the run instead of reading as misleading zeros.
        """
        if not self._closed:
            self.drain()
        elapsed = time.perf_counter() - self._started
        with self._results_lock:
            streams = [
                StreamReport(
                    stream_id=state.stream_id,
                    observations=state.observations,
                    tests_run=state.tests_run,
                    alarms_raised=state.alarms_raised,
                    explained=state.explained,
                    errors=state.errors,
                    dropped=state.dropped,
                    cache_hits=state.cache_hits,
                    alarms=sorted(state.alarms, key=lambda a: a.position),
                )
                for state in self._registry.states()
            ]
        cache_stats = self.caches.stats_dict()
        hit_rate = self.caches.overall_hit_rate()
        worker_stats = self._executor.cache_stats()
        if worker_stats:
            cache_stats = merge_stats_dicts(cache_stats, worker_stats)
            hit_rate = pooled_hit_rate(cache_stats)
        stats = self.stats()
        return ServiceReport(
            streams=streams,
            cache_stats=cache_stats,
            executor_stats=stats,
            elapsed_seconds=elapsed,
            cache_hit_rate=hit_rate,
            restarts=int(stats.get("restarts", 0)),
            state_lost=list(stats.get("state_lost_streams", [])),
            # cache_stats() above already refreshed the worker metrics
            # snapshots (they ride the same CollectStats round trip).
            latency=self.latency_summary(refresh_workers=False),
        )

    def stats(self) -> dict:
        """Executor counters as a plain dictionary."""
        return self._executor.stats()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _merged_metrics(self, refresh_workers: bool = True) -> Optional[MetricsRegistry]:
        """Parent registry merged with the latest worker metrics, or None.

        ``refresh_workers`` triggers a live ``CollectStats`` round trip on
        a stream-owning executor (skipped when the caller just did one);
        the merge itself always uses whatever snapshots the parent holds.
        """
        if self.metrics is None:
            return None
        if refresh_workers and self._executor.owns_detection and not self._closed:
            try:
                self._executor.cache_stats()
            except Exception:
                pass  # telemetry is best-effort; stale beats raising
        return self.metrics.merged(self._executor.metrics_state() or {})

    def latency_summary(self, refresh_workers: bool = True) -> dict:
        """Per-stage latency quantiles, worker histograms merged in.

        ``{stage: {count, sum, mean, p50, p95, p99}}`` for the five
        pipeline stages; empty when the service runs without metrics.
        With tracing enabled each stage additionally carries
        ``"exemplars"``: the ``repro_*`` trace ids of the slowest finished
        chunks for that stage, so a tail quantile links straight to the
        full timeline that produced it (``repro trace`` / the ``trace``
        wire op export them).
        """
        merged = self._merged_metrics(refresh_workers)
        summary = latency_summary(merged) if merged is not None else {}
        if self.tracer is not None and summary:
            for stage, ids in self.tracer.exemplar_ids().items():
                if stage in summary:
                    summary[stage]["exemplars"] = ids
        return summary

    def health(self) -> dict:
        """Liveness payload for the ``/healthz`` endpoint."""
        stats = self.stats()
        return {
            "status": "closed" if self._closed else "ok",
            "uptime_seconds": round(time.perf_counter() - self._started, 3),
            "streams": len(self._registry),
            "shards": int(stats.get("shards", 1)),
            "executor": stats.get("executor"),
        }

    def trace_export(self) -> dict:
        """Retained traces as a Chrome trace-event / Perfetto JSON payload.

        Valid (if empty) even when tracing is disabled, so the ``trace``
        wire op and ``repro serve --trace-dir`` never have to special-case
        an untraced service.
        """
        if self.tracer is None:
            return {
                "displayTimeUnit": "ms",
                "otherData": {"schema": TRACE_SCHEMA, "traces": 0},
                "traceEvents": [],
            }
        return self.tracer.chrome_trace()

    def dump_flight_recorder(self, reason: str = "manual") -> Optional[Path]:
        """Dump the flight recorder's ring buffers; returns the file path.

        ``None`` when tracing is disabled or the recorder has no
        ``trace_dir`` to write to (events remain inspectable through
        ``service.recorder.events()``).
        """
        if self.recorder is None:
            return None
        return self.recorder.dump(reason)

    def scrape_metrics(self) -> str:
        """The service's metrics in Prometheus text exposition format.

        Non-draining — this is the live ``/metrics`` scrape path, so it
        must never block on in-flight work.  Stage histograms (per-shard
        series included), cache counters, stream totals and executor
        gauges are all rendered from one merged registry.
        """
        if self.metrics is None:
            return "# metrics are disabled on this service\n"
        cache_stats = self.caches.stats_dict()
        worker_stats = None
        if not self._closed:
            try:
                # One CollectStats round trip refreshes both the worker
                # cache counters and the worker metrics snapshots.
                worker_stats = self._executor.cache_stats()
            except Exception:
                worker_stats = None
        if worker_stats:
            cache_stats = merge_stats_dicts(cache_stats, worker_stats)
        merged = self._merged_metrics(refresh_workers=False)
        derived = MetricsRegistry(enabled=True)
        with self._results_lock:
            observations = sum(s.observations for s in self._registry.states())
            alarms_raised = sum(s.alarms_raised for s in self._registry.states())
            explained = sum(s.explained for s in self._registry.states())
            stream_count = len(self._registry)
        derived.counter(
            "repro_observations_total", help="Observations ingested."
        ).inc(observations)
        derived.counter(
            "repro_alarms_raised_total", help="Drift alarms raised."
        ).inc(alarms_raised)
        derived.counter(
            "repro_alarms_explained_total", help="Alarms explained."
        ).inc(explained)
        derived.gauge("repro_streams", help="Registered streams.").set(stream_count)
        for cache_name, payload in sorted(cache_stats.items()):
            labels = {"cache": cache_name}
            for counter in ("hits", "misses", "evictions", "expired", "rejected"):
                derived.counter(
                    f"repro_cache_{counter}_total",
                    labels,
                    help=f"Cache {counter} by cache name.",
                ).inc(int(payload.get(counter, 0)))
        stats = self.stats()
        for key in ("shards", "outstanding", "capacity", "restarts"):
            if key in stats:
                derived.gauge(
                    f"repro_executor_{key}", help=f"Executor {key}."
                ).set(float(stats[key]))
        for shard_id, count in sorted(stats.get("shard_ingests", {}).items()):
            derived.counter(
                "repro_shard_ingests_total",
                {"shard": shard_id},
                help="Chunks routed to each shard.",
            ).inc(count)
        merged.merge_state(derived.state_dict())
        return render_registry(merged)

    def autoscale_signals(self) -> dict:
        """Latency + skew signals for a latency-driven autoscaler policy.

        ``p95_latency``/``p99_latency`` come from the ``explain`` stage
        histogram when it has samples, falling back to ``wire_roundtrip``
        (the producer-visible latency under the process executor).
        ``shard_skew`` is ``max/mean`` of per-shard routed-chunk counts
        (1.0 = perfectly balanced; 0.0 when unknown).
        """
        summary = self.latency_summary()
        stage, stage_summary = None, None
        for candidate in ("explain", "wire_roundtrip"):
            payload = summary.get(candidate)
            if payload and payload.get("count"):
                stage, stage_summary = candidate, payload
                break
        skew = 0.0
        shard_ingests = self.stats().get("shard_ingests", {})
        if shard_ingests:
            counts = list(shard_ingests.values())
            mean = sum(counts) / len(counts)
            skew = (max(counts) / mean) if mean > 0 else 0.0
        return {
            "latency_stage": stage,
            "latency_samples": int(stage_summary["count"]) if stage_summary else 0,
            "p95_latency": stage_summary.get("p95") if stage_summary else None,
            "p99_latency": stage_summary.get("p99") if stage_summary else None,
            "shard_skew": skew,
        }
