"""The awaitable wrapper over :class:`~repro.service.engine.ExplanationService`.

:class:`AsyncExplanationService` turns the thread-based service into an
asyncio citizen:

* ``future = await aio.submit(stream_id, chunk)`` — submission suspends on
  backpressure instead of blocking the loop, and the returned future
  resolves to a :class:`~repro.service.engine.ChunkResult` once every
  alarm the chunk raised has been explained (bridged from the service's
  ``on_complete`` hook via ``loop.call_soon_threadsafe``);
* ``async for alarm in aio.alarms()`` — a live, async-iterable alarm feed;
* ``await aio.drain()`` / ``await aio.report()`` / ``await aio.close()`` —
  the blocking lifecycle calls, off-loop;
* a periodic snapshot task (:meth:`start_snapshot_task`) that checkpoints
  the full service state with bounded staleness, so a warm restart does
  not depend on the ingest driver checkpointing.

All blocking service calls run on one dedicated ingest thread.  That
single thread is a feature, not a limitation: submissions retain their
arrival order (per-stream chunk order is what detection parity depends
on), and a periodic snapshot — which drains first — naturally serialises
with the submissions instead of racing them.  The detection work itself is
already behind the service's executor seam: inline on that thread, or
spread over process shards, where one feeder thread keeps every core
busy.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.aio.bridge import AsyncAlarmStream, resolve_future_threadsafe
from repro.exceptions import ValidationError
from repro.service.engine import ChunkResult, ExplanationService
from repro.service.registry import StreamConfig, StreamState
from repro.service.results import ServiceReport
from repro.service.snapshot import ServiceSnapshot

#: Backpressure poll bounds: the await starts snappy and backs off so a
#: long stall costs microamounts of CPU, not a busy loop.
_CAPACITY_POLL_MIN = 0.001
_CAPACITY_POLL_MAX = 0.05


class AsyncExplanationService:
    """Asyncio ingestion front-end over an :class:`ExplanationService`.

    Parameters
    ----------
    service:
        A pre-built service to wrap; when omitted one is constructed from
        ``**service_kwargs`` (which are rejected if ``service`` is given).
    snapshot_path, snapshot_interval:
        When both are set, ``async with`` starts the periodic snapshot
        task automatically (see :meth:`start_snapshot_task`).

    Use as an async context manager::

        async with AsyncExplanationService() as aio:
            await aio.register("sensor-1", StreamConfig(window_size=200))
            future = await aio.submit("sensor-1", chunk)
            result = await future          # ChunkResult: this chunk's alarms
            print(await aio.report())

    The wrapper is bound to the first event loop that uses it; sharing one
    instance across loops is refused rather than corrupting state.
    """

    def __init__(
        self,
        service: Optional[ExplanationService] = None,
        *,
        snapshot_path: Optional[Union[str, Path]] = None,
        snapshot_interval: Optional[float] = None,
        **service_kwargs,
    ) -> None:
        if service is not None and service_kwargs:
            raise ValidationError("pass either a pre-built service or constructor kwargs, not both")
        if (snapshot_path is None) != (snapshot_interval is None):
            raise ValidationError("snapshot_path and snapshot_interval must be given together")
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise ValidationError("snapshot_interval must be positive")
        self._service = service if service is not None else ExplanationService(**service_kwargs)
        self._snapshot_path = Path(snapshot_path) if snapshot_path is not None else None
        self._snapshot_interval = snapshot_interval
        self._snapshot_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-aio-ingest")
        self._streams: set[AsyncAlarmStream] = set()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def service(self) -> ExplanationService:
        """The wrapped synchronous service (thread-safe API)."""
        return self._service

    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise ValidationError("AsyncExplanationService is bound to a different event loop")
        return loop

    async def _call(self, fn, *args, **kwargs):
        """Run one blocking service call on the dedicated ingest thread."""
        loop = self._bind_loop()
        return await loop.run_in_executor(self._pool, partial(fn, *args, **kwargs))

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    async def register(
        self,
        stream_id: str,
        config: Optional[StreamConfig] = None,
        **overrides,
    ) -> StreamState:
        """Register a stream (see :meth:`ExplanationService.register`)."""
        return await self._call(self._service.register, stream_id, config, **overrides)

    async def remove(self, stream_id: str) -> StreamState:
        """Deregister a stream, returning its final state."""
        return await self._call(self._service.remove, stream_id)

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._service

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    async def submit(self, stream_id: str, observations: Iterable) -> "asyncio.Future[ChunkResult]":
        """Feed one chunk; returns a future resolving to its ChunkResult.

        Backpressure maps onto awaiting: while the executor's bound is
        full, this coroutine suspends (polling the non-blocking
        :meth:`ExplanationService.has_capacity` signal with backoff) — a
        slow shard slows the producing coroutine down without wedging the
        event loop or any other producer.  The returned future resolves
        once every alarm this chunk raised has been resolved and folded
        into the report; a chunk lost to a shard fault resolves with
        ``ChunkResult.lost=True`` rather than hanging forever.
        """
        loop = self._bind_loop()
        delay = _CAPACITY_POLL_MIN
        while True:
            # The wrapped service may be closed out-of-band (it is exposed
            # as `.service` and may be shared); its capacity probe then
            # reads False forever, so closure must end the wait with the
            # same error the blocking submit path raises — not a spin.
            if self._closed or self._service.closed:
                raise ValidationError("cannot submit to a closed service")
            if self._service.has_capacity():
                break
            await asyncio.sleep(delay)
            delay = min(delay * 2, _CAPACITY_POLL_MAX)
        future: asyncio.Future = loop.create_future()
        on_complete = partial(resolve_future_threadsafe, loop, future)
        await loop.run_in_executor(
            self._pool,
            partial(self._service.submit, stream_id, observations, on_complete=on_complete),
        )
        return future

    async def explain(self, stream_id: str, observations: Iterable) -> ChunkResult:
        """Submit one chunk and await its resolution in one call."""
        future = await self.submit(stream_id, observations)
        return await future

    def alarms(self) -> AsyncAlarmStream:
        """A live async-iterable feed of every alarm the service resolves.

        Each call returns an independent stream that sees alarms resolved
        from this point on; close it with ``aclose()`` (or just close the
        service) to end the iteration::

            async for alarm in aio.alarms():
                page_oncall(alarm.render())
        """
        loop = self._bind_loop()
        stream = AsyncAlarmStream(loop)
        stream._detach = self._detach_stream
        self._streams.add(stream)
        self._service.add_alarm_listener(stream.push)
        return stream

    def _detach_stream(self, stream: AsyncAlarmStream) -> None:
        self._streams.discard(stream)
        self._service.remove_alarm_listener(stream.push)

    # ------------------------------------------------------------------
    # Lifecycle and results
    # ------------------------------------------------------------------
    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Await the resolution of everything submitted so far."""
        return await self._call(self._service.drain, timeout=timeout)

    async def report(self) -> ServiceReport:
        """Drain and build the service report, off-loop."""
        return await self._call(self._service.report)

    async def metrics_text(self) -> str:
        """Render the Prometheus exposition of the service's metrics.

        Non-draining (see :meth:`ExplanationService.scrape_metrics`): a
        scrape observes the pipeline, it never stalls it.
        """
        return await self._call(self._service.scrape_metrics)

    async def stats(self) -> dict:
        """Executor stats merged with the latency autoscale signals."""
        def collect() -> dict:
            stats = dict(self._service.stats())
            stats.update(self._service.autoscale_signals())
            return stats

        return await self._call(collect)

    async def health(self) -> dict:
        """Liveness summary (see :meth:`ExplanationService.health`)."""
        return await self._call(self._service.health)

    async def trace_json(self) -> dict:
        """The Chrome trace-event export of the retained chunk traces.

        Non-draining, like the metrics scrape: a trace pull observes the
        pipeline without stalling it.  Valid-but-empty when tracing is off.
        """
        return await self._call(self._service.trace_export)

    async def snapshot_now(self) -> ServiceSnapshot:
        """Capture one service snapshot (drains first), off-loop.

        Saves to the configured ``snapshot_path`` when one was given.
        """
        snapshot = await self._call(self._service.snapshot)
        if self._snapshot_path is not None:
            await self._call(snapshot.save, self._snapshot_path)
        return snapshot

    async def restore(self, snapshot: ServiceSnapshot) -> list[str]:
        """Warm-restart the (empty) wrapped service from a snapshot."""
        return await self._call(self._service.restore, snapshot)

    def start_snapshot_task(
        self,
        path: Optional[Union[str, Path]] = None,
        interval: Optional[float] = None,
    ) -> asyncio.Task:
        """Start the in-service periodic snapshot task.

        Every ``interval`` seconds the full service state (detector
        windows, alarm logs, cache contents) is captured and atomically
        written to ``path`` — the bounded-staleness checkpoint a warm
        restart resumes from, owned by the service itself instead of the
        ingest driver.  Because the capture drains first and shares the
        single ingest thread, it serialises cleanly with submissions; the
        staleness bound is ``interval`` plus one capture.  The task is
        cancelled by :meth:`close`.
        """
        self._bind_loop()
        if path is not None:
            self._snapshot_path = Path(path)
        if interval is not None:
            self._snapshot_interval = float(interval)
        if self._snapshot_path is None or self._snapshot_interval is None:
            raise ValidationError("snapshot task needs a path and an interval")
        if self._snapshot_task is not None and not self._snapshot_task.done():
            raise ValidationError("snapshot task is already running")
        self._snapshot_task = asyncio.get_running_loop().create_task(
            self._snapshot_loop(), name="repro-aio-snapshots"
        )
        return self._snapshot_task

    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self._snapshot_interval)
            await self.snapshot_now()

    async def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the snapshot task, close the service and end alarm streams."""
        if self._closed:
            return
        self._closed = True
        snapshot_error: Optional[BaseException] = None
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            try:
                await self._snapshot_task
            except asyncio.CancelledError:
                pass
            except Exception as exc:
                # The periodic task died earlier (a failed capture, an
                # unwritable path): close the service first, then surface
                # it — a checkpointing failure must not read as a clean
                # shutdown.
                snapshot_error = exc
            self._snapshot_task = None
        try:
            await self._call(self._service.close, drain=drain, timeout=timeout)
        finally:
            for stream in list(self._streams):
                stream.close()
            self._pool.shutdown(wait=False)
        if snapshot_error is not None:
            raise snapshot_error

    async def __aenter__(self) -> "AsyncExplanationService":
        self._bind_loop()
        if self._snapshot_path is not None and self._snapshot_interval is not None:
            self.start_snapshot_task()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
