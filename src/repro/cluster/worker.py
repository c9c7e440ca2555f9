"""The shard worker process: one command loop around a :class:`ShardRuntime`.

``shard_worker_main`` is the target of every shard process.  It is a plain
module-level function (required by the ``spawn`` start method) that owns a
private :class:`~repro.cluster.runtime.ShardRuntime` — its own detectors,
explainers and caches — and speaks the :mod:`repro.cluster.wire` protocol:
commands in, one reply per ingest and per collection out.  Installs and
registrations go unacknowledged: the command queue's FIFO already orders
them before the stream's next chunk.

The ingest unit is an :class:`~repro.cluster.wire.IngestFrame` whose
chunks carry their arrays inline: the worker serves them in frame order
and answers with a single :class:`~repro.cluster.wire.ReplyFrame` — one
deserialisation and one serialisation pass per batch instead of per
chunk.

A :class:`~repro.cluster.wire.MigrateOut` arrives on a dedicated
*priority control lane* the worker polls ahead of its command queue —
and between the chunks of the frame it is currently serving — so an
extraction starts within one chunk's latency instead of behind the whole
ingest backlog.  The handler sweeps the queued commands into a local
backlog, answers every swept chunk of a migrating stream with a
:class:`~repro.cluster.wire.ChunkBounce` (the parent replays them, in seq
order, on the stream's new owner), then extracts each named stream and
ships its own :class:`~repro.cluster.wire.MigrateStreamDone` the moment
its state is snapshotted — the stream's only reply.  The backlog —
non-migrating ingest and any control commands — is then served strictly
in arrival order, and a straggler chunk that reaches this worker after
its stream was exported bounces too, so the FIFO contract's *observable*
effects survive: every chunk is served exactly once, on exactly one side
of the migration.

Error discipline mirrors the inline path's: an explainer failing on one
alarm is captured *per alarm* inside the reply; a chunk that fails to
process becomes a per-chunk
:class:`~repro.cluster.wire.WorkerFailure` *inside* the reply frame (its
siblings still get served); anything else that goes wrong processing a
command becomes a frame-less ``WorkerFailure`` reply and the worker keeps
serving.  Only ``Shutdown`` (clean) and ``CrashShard`` (test hook) end the
process.
"""

from __future__ import annotations

import os
import time
from collections import deque
from queue import Empty

from repro.cluster.runtime import ShardRuntime
from repro.obs.metrics import MetricsRegistry, stage_histogram
from repro.obs.trace import span_dict
from repro.cluster.wire import (
    CaptureState,
    ChunkBounce,
    CollectStats,
    CrashShard,
    IngestChunk,
    IngestFrame,
    IngestReply,
    MigrateIn,
    MigrateOut,
    MigrateStreamDone,
    RegisterStream,
    RemoveStream,
    ReplyFrame,
    SeedCaches,
    ShardStatsReply,
    Shutdown,
    StateCaptureReply,
    WorkerFailure,
    WorkerReady,
)
from repro.service.cache import SharedCaches


def _serve_chunk(
    runtime: ShardRuntime, shard_id: str, batch_wait, command: IngestChunk
) -> IngestReply:
    """Run one logical chunk through the runtime, returning its reply.

    Shared by framed chunks and the bare chunks of a swept migration
    backlog, so batching cannot change what a chunk computes — only how
    it travels.
    """
    trace_spans = None
    if command.enqueued_at is not None:
        # Monotonic clocks are system-wide on Linux, so the parent's
        # enqueue stamp is comparable here.  Under framing the wait
        # includes the frame's linger — that *is* queue residency as the
        # producer experiences it.
        waited = max(0.0, time.monotonic() - command.enqueued_at)
        if batch_wait is not None:
            batch_wait.observe(waited)
        if command.trace is not None:
            trace_spans = [
                span_dict(
                    "batch_wait",
                    command.enqueued_at,
                    waited,
                    attrs={"shard": shard_id},
                )
            ]
    elif command.trace is not None:
        trace_spans = []
    if command.stream_id not in runtime:
        # The stream was removed while this chunk was in flight;
        # acknowledge it empty (the parent tolerates the same race on its
        # side) rather than failing.
        return IngestReply(
            seq=command.seq,
            stream_id=command.stream_id,
            spans=trace_spans or [],
        )
    reply = runtime.ingest(
        command.stream_id,
        command.values,
        seq=command.seq,
        trace=command.trace,
        shard_id=shard_id,
    )
    if trace_spans:
        reply.spans[:0] = trace_spans
    return reply


def shard_worker_main(
    shard_id: str,
    commands,
    replies,
    control,
    cache_config=None,
    metrics_enabled: bool = False,
) -> None:
    """Serve one shard until told to shut down.

    Parameters
    ----------
    shard_id:
        This shard's identifier (used to attribute failures).
    commands:
        Multiprocessing queue of wire commands, parent -> this worker.
    replies:
        Write end of this worker's private reply pipe
        (:class:`multiprocessing.connection.Connection`), worker -> parent.
        One writer per pipe: a worker dying mid-``send`` can corrupt only
        its own pipe, never a lock shared with its siblings.
    control:
        Priority control lane (a second multiprocessing queue) carrying
        only :class:`~repro.cluster.wire.MigrateOut` commands.  Polled
        non-blocking ahead of ``commands`` and between the chunks of the
        frame currently being served, so a migration's extraction starts
        within one chunk's latency even under a deep ingest backlog.
    cache_config:
        Optional keyword arguments for this shard's private
        :class:`~repro.service.cache.SharedCaches`.
    metrics_enabled:
        When True the worker keeps a private
        :class:`~repro.obs.metrics.MetricsRegistry` (stage histograms
        labelled with this shard's id) and ships its ``state_dict`` inside
        every :class:`~repro.cluster.wire.ShardStatsReply`, where the
        parent merges it into the service-wide registry.
    """
    try:
        # Third-party backends must exist on *this* side of the wire too:
        # a RegisterStream carrying backend="their-name" resolves against
        # this process's registry.  Anything advertised in the
        # ``repro.backends`` entry-point group registers here, same as in
        # the parent.  A broken plugin must not brick a worker that only
        # serves built-ins, so the failure is reported, not fatal — its
        # own streams will fail attributably at registration.
        from repro.backends import load_entry_point_backends

        load_entry_point_backends()
    except Exception as exc:
        replies.send(
            WorkerFailure(shard_id, f"backend entry-point loading failed: {exc!r}")
        )
    metrics = MetricsRegistry(enabled=True) if metrics_enabled else None
    batch_wait = stage_histogram(metrics, "batch_wait", shard=shard_id)
    runtime = ShardRuntime(
        caches=SharedCaches(**(cache_config or {})),
        metrics=metrics,
        metric_labels={"shard": shard_id},
    )
    # Interpreter boot is over; everything after this is per-command work.
    replies.send(WorkerReady(shard_id=shard_id))

    # Commands swept out of the queue by a MigrateOut; always served, in
    # arrival order, before the queue is read again.
    backlog: deque = deque()
    # Streams this worker extracted via MigrateOut: a chunk that reaches
    # us for one of them after the export (a sweep straggler) bounces back
    # to the parent instead of being silently acknowledged empty.
    exported: set = set()

    def _bounce(chunk: IngestChunk) -> ChunkBounce:
        return ChunkBounce(
            shard_id=shard_id,
            seq=chunk.seq,
            stream_id=chunk.stream_id,
            values=chunk.values,
        )

    def _migrate_out(command: MigrateOut) -> None:
        """Extract streams now, bouncing their queued chunks to the parent.

        Sweeps the command queue into the local backlog first: chunks for
        migrating streams answer with a ChunkBounce (the parent replays
        them on the new owner, in seq order, ahead of its parked ones) so
        the extraction — and the stream's install on the other side —
        never waits for this shard to chew through its ingest backlog.
        """
        migrating = set(command.stream_ids)
        try:
            queued = commands.qsize()
        except NotImplementedError:  # platforms without sem_getvalue
            queued = 0
        for _ in range(queued):
            try:
                # A put() bumps qsize before the feeder thread has
                # serialised the item, so give each expected item a
                # breath; a straggler that still slips past bounces when
                # the backlog reaches it.
                item = commands.get(timeout=0.01)
            except Empty:
                break
            if isinstance(item, IngestFrame):
                backlog.extend(item.chunks)
            else:
                backlog.append(item)
        # One pass over the backlog, in arrival order: chunks of migrating
        # streams bounce, and control commands that *concern* a migrating
        # stream apply now — the export below must observe them, exactly
        # as the queue's FIFO would have ordered it (a RegisterStream the
        # MigrateOut overtook would otherwise export as "not held" and be
        # wrongly recorded as state loss).  Everything else defers.
        kept: deque = deque()
        for item in backlog:
            try:
                if isinstance(item, IngestChunk) and item.stream_id in migrating:
                    replies.send(_bounce(item))
                elif (
                    isinstance(item, RegisterStream)
                    and item.stream_id in migrating
                ):
                    runtime.register(item.stream_id, item.config)
                elif (
                    isinstance(item, RemoveStream) and item.stream_id in migrating
                ):
                    runtime.remove(item.stream_id)
                elif isinstance(item, MigrateIn) and set(item.streams) <= migrating:
                    runtime.import_streams(item.streams)
                else:
                    kept.append(item)
            except Exception as exc:
                replies.send(
                    WorkerFailure(
                        shard_id,
                        f"{type(item).__name__} failed: {exc!r}",
                        seq=getattr(item, "seq", None),
                        command=type(item).__name__,
                    )
                )
        backlog.clear()
        backlog.extend(kept)
        for stream_id in command.stream_ids:
            try:
                payload = runtime.export_stream(stream_id)
            except Exception:
                # An unexportable stream must not stall its epoch: report
                # it unavailable (the parent records it as state_lost) and
                # keep extracting the rest.
                payload = None
            exported.add(stream_id)
            replies.send(
                MigrateStreamDone(
                    shard_id=shard_id,
                    epoch=command.epoch,
                    stream_id=stream_id,
                    state=payload,
                )
            )

    def _poll_control() -> None:
        try:
            priority = control.get_nowait()
        except Empty:
            return
        if isinstance(priority, MigrateOut):
            _migrate_out(priority)
        else:  # defensive: the lane only ever carries MigrateOut
            backlog.append(priority)

    def _serve_ingest(command) -> None:
        """Serve one ingest command (a frame, or a bare chunk from the swept
        migration backlog), reply included.

        One reply frame per ingest frame, entries in frame order; a chunk
        that fails to serve degrades to its own WorkerFailure entry
        instead of poisoning its siblings.  The control lane is polled
        between chunks, so a MigrateOut interrupts a long frame after the
        current chunk — the rest of the frame's migrating chunks then
        bounce (inside the same reply frame) instead of being served
        against state that already left.
        """
        try:
            if isinstance(command, IngestFrame):
                frame_replies = []
                for item in command.chunks:
                    _poll_control()
                    if item.stream_id in exported and item.stream_id not in runtime:
                        frame_replies.append(_bounce(item))
                        continue
                    try:
                        frame_replies.append(
                            _serve_chunk(runtime, shard_id, batch_wait, item)
                        )
                    except Exception as exc:
                        frame_replies.append(
                            WorkerFailure(
                                shard_id,
                                f"IngestChunk failed: {exc!r}",
                                seq=item.seq,
                                command="IngestChunk",
                            )
                        )
                replies.send(ReplyFrame(replies=frame_replies))
            elif command.stream_id in exported and command.stream_id not in runtime:
                replies.send(_bounce(command))
            else:
                replies.send(_serve_chunk(runtime, shard_id, batch_wait, command))
        except Exception as exc:
            replies.send(
                WorkerFailure(
                    shard_id,
                    f"{type(command).__name__} failed: {exc!r}",
                    seq=getattr(command, "seq", None),
                    command=type(command).__name__,
                )
            )

    while True:
        _poll_control()
        if backlog:
            command = backlog.popleft()
        else:
            try:
                command = commands.get(timeout=0.05)
            except Empty:
                continue
        try:
            if isinstance(command, Shutdown):
                return
            if isinstance(command, CrashShard):
                # Simulated hard crash: no cleanup, no goodbye message.
                os._exit(command.exit_code)
            if isinstance(command, (IngestFrame, IngestChunk)):
                _serve_ingest(command)
            elif isinstance(command, RegisterStream):
                runtime.register(command.stream_id, command.config)
            elif isinstance(command, RemoveStream):
                runtime.remove(command.stream_id)
            elif isinstance(command, MigrateIn):
                runtime.import_streams(command.streams)
                exported.difference_update(command.streams)
            elif isinstance(command, CollectStats):
                replies.send(
                    ShardStatsReply(
                        shard_id=shard_id,
                        epoch=command.epoch,
                        cache_stats=runtime.caches.stats_dict(),
                        metrics=metrics.state_dict() if metrics is not None else {},
                    )
                )
            elif isinstance(command, CaptureState):
                replies.send(
                    StateCaptureReply(
                        shard_id=shard_id,
                        epoch=command.epoch,
                        streams=runtime.capture_streams(),
                        cache_contents=runtime.caches.snapshot_contents(),
                    )
                )
            elif isinstance(command, SeedCaches):
                runtime.caches.restore_contents(command.contents)
            else:
                replies.send(
                    WorkerFailure(shard_id, f"unknown command {command!r}")
                )
        except Exception as exc:
            replies.send(
                WorkerFailure(
                    shard_id,
                    f"{type(command).__name__} failed: {exc!r}",
                    seq=getattr(command, "seq", None),
                    command=type(command).__name__,
                )
            )
