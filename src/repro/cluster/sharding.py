"""Process-sharded execution: streams consistent-hashed onto worker processes.

The GIL serialises the pure-Python parts of MOCHE, so a thread pool cannot
use more than one core for them.  :class:`ProcessShardExecutor` removes
that ceiling: stream ids are consistent-hashed onto N shard processes
(:class:`~repro.cluster.partition.HashRing`), and each shard owns the full
serving runtime for its streams — detector state, explainers and a private
cache bundle (:class:`~repro.cluster.runtime.ShardRuntime`).  Chunks flow
to shards over per-shard command queues; alarms (already explained) and
counter deltas flow back over per-shard reply *pipes* — one writer each,
so a worker dying mid-crash can never poison a lock other workers share —
multiplexed by one parent collector thread that folds them into the
service report.

Chunks cross in frames: each shard buffers its pending chunks and ships
them as one :class:`~repro.cluster.wire.IngestFrame` — arrays inline,
one pickle pass for the batch — once :data:`FRAME_CHUNKS` have gathered,
once the oldest has waited :data:`FRAME_LINGER_SECONDS` (a background
flusher), on ``drain()``, and ahead of every control command, so the
command queue's FIFO order holds for control commands too.  The worker
answers each frame with one :class:`~repro.cluster.wire.ReplyFrame`.

Every chunk from admission to resolution, and every stream moving between
shards, is one record of an
:class:`~repro.cluster.inflight.InFlightLedger`, which this executor calls
under its condition lock.  It resolves each seq exactly once — served,
failed by its worker, or lost — and decides when a moving stream may
install; a reply, bounce or failure that arrives for a seq already
resolved is dropped.  What is left here is the IO: processes, lanes,
frames, liveness and deadlines.

Fault handling is shard-level: a worker process that dies — crash, OOM
kill, the :class:`~repro.cluster.wire.CrashShard` test hook — is detected
on the next ingest or drain, respawned with a fresh command queue, and its
streams are re-registered from the service registry's snapshot (detector
state restarts empty; the affected stream ids are recorded in
``state_lost_streams`` so the data loss is visible in the service report).
Its in-flight chunks are written off as lost, not silently re-run, so no
alarm is ever double-reported: a reply the dead worker had already sent
counts only if the collector claimed it before the write-off, and is
dropped otherwise.  A shard that keeps dying past ``max_restarts`` is
*retired*: it is removed from the ring and its streams are redistributed
to the surviving shards through the same migration path a
:meth:`ProcessShardExecutor.resize` uses (fresh state — the crashes
destroyed it — and recorded as lost).  Only when no survivor exists does
the failure surface as a :class:`~repro.exceptions.ServiceBackendError`.

Elastic operation is built on the same wire protocol:
:meth:`ProcessShardExecutor.resize` quiesces only the streams whose ring
owner changes, and migrates them *pipelined per stream*.  The
``MigrateOut`` travels on a per-shard priority control lane the worker
polls between chunks, so the extraction starts within one chunk's latency
instead of behind the source's queued ingest backlog; the worker sweeps
that backlog aside, bounces every queued chunk of a migrating stream back
to the parent (:class:`~repro.cluster.wire.ChunkBounce`), and streams one
:class:`~repro.cluster.wire.MigrateStreamDone` per extracted stream.  The
parent installs each stream on its new owner (``MigrateIn``) the moment
its state arrives and its in-flight chunks have resolved — so a stream is
frozen only for its own extract→install hop, not for the whole epoch or
the backlog's drain.  Chunks submitted to a migrating stream park in the
parent (at most :data:`MIGRATION_BUFFER` of them); bounced and parked
chunks replay on the new owner in seq order strictly behind the install,
so a replay that spans a resize produces the exact alarms and
explanations of a fixed-shard run.  No install is acknowledged: the
per-shard command FIFO already orders each ``MigrateIn`` before the
stream's next chunk, so a grow never stalls on a freshly spawned worker's
cold start.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Optional

import numpy as np

from repro.cluster.base import Executor
from repro.cluster.inflight import InFlightLedger
from repro.cluster.partition import HashRing
from repro.cluster.wire import (
    CaptureState,
    ChunkBounce,
    CollectStats,
    CrashShard,
    IngestChunk,
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
    encode_frame,
)
from repro.cluster.worker import shard_worker_main
from repro.exceptions import ServiceBackendError, ValidationError
from repro.obs.metrics import merge_metric_states, stage_histogram
from repro.service.cache import merge_cache_contents, merge_stats_dicts
from repro.utils.deferred import DeferredErrors


def _shard_index(shard_id: str) -> tuple[int, str]:
    """Sort key ordering ``shard-2`` before ``shard-10`` (then lexically)."""
    _, _, suffix = shard_id.rpartition("-")
    return (int(suffix) if suffix.isdigit() else 1 << 30, shard_id)


#: Chunks per :class:`~repro.cluster.wire.IngestFrame` before an eager flush.
FRAME_CHUNKS = 32

#: How long a partially-filled frame may wait for company before the
#: background flusher ships it anyway, so an awaited single chunk is never
#: held hostage by a frame that will not fill.
FRAME_LINGER_SECONDS = 0.002

#: How many chunks submitted to migrating streams may park in the parent
#: while their detector state travels during a resize.  Parked chunks replay
#: FIFO behind the stream's install on its new owner; once this many (or the
#: executor's ``capacity``) are in, producers block as for backpressure.
MIGRATION_BUFFER = 64

#: Virtual nodes per shard on the consistent-hash ring.
RING_REPLICAS = 64


@dataclass
class _Shard:
    """Parent-side handle of one worker process."""

    shard_id: str
    process: Optional[multiprocessing.process.BaseProcess] = None
    commands: Optional[object] = None
    control: Optional[object] = None  # priority lane: MigrateOut only
    reply_reader: Optional[object] = None
    restarts: int = 0
    failed: bool = False
    # Chunks accumulated for the next frame.
    pending: list = field(default_factory=list)
    pending_since: Optional[float] = None


class ProcessShardExecutor(Executor):
    """Shard streams across worker processes for multi-core serving.

    Parameters
    ----------
    shards:
        Number of worker processes.
    mp_context:
        Multiprocessing start method (``"spawn"`` by default: slower to
        start but immune to fork-while-threaded hazards; pass ``"fork"`` on
        POSIX for faster startup when you know it is safe).
    cache_config:
        Keyword arguments for each shard's private
        :class:`~repro.service.cache.SharedCaches`.
    max_restarts:
        Restart budget per shard before it is marked failed.
    capacity:
        Backpressure bound on in-flight (un-acknowledged) chunks across all
        shards, parked ones included; ``ingest`` blocks once it is reached,
        so a producer that outruns the shards slows down instead of growing
        the command queues without limit.
    """

    name = "process"
    owns_detection = True

    def __init__(
        self,
        shards: int = 2,
        mp_context: Optional[str] = None,
        cache_config: Optional[dict] = None,
        max_restarts: int = 3,
        capacity: int = 128,
    ) -> None:
        super().__init__()
        if shards < 1:
            raise ValidationError("shards must be at least 1")
        if capacity < 1:
            raise ValidationError("capacity must be at least 1")
        self.shard_count = int(shards)
        self.capacity = int(capacity)
        self.max_restarts = int(max_restarts)
        self._cache_config = dict(cache_config or {})
        self._ctx = multiprocessing.get_context(mp_context or "spawn")
        shard_ids = [f"shard-{index}" for index in range(self.shard_count)]
        self._ring = HashRing(shard_ids, replicas=RING_REPLICAS)
        self._shards = {shard_id: _Shard(shard_id) for shard_id in shard_ids}
        # Guards the ledger and the collection rendezvous below.
        self._cv = threading.Condition()
        self._ledger = InFlightLedger(self.capacity, MIGRATION_BUFFER)
        self._deferred = DeferredErrors()
        self._restarts = 0
        self._closed = False
        self._lifecycle = threading.RLock()
        self._bound = False
        self._reply_lock = threading.Lock()
        self._reply_readers: list = []
        self._collector: Optional[threading.Thread] = None
        self._collector_stop = threading.Event()
        # Elastic rebalancing / fault bookkeeping.  ``_stats_collections``
        # are the per-epoch rendezvous records the collector thread fills in.
        self._resize_lock = threading.Lock()
        # Shards whose worker has sent WorkerReady for its *current*
        # process generation; cleared on (re)spawn, so wait_ready() is a
        # deterministic warm-fleet barrier.
        self._ready: set[str] = set()
        self._m_quiesce = None  # parent-side migration_quiesce histogram
        self._c_migrations = None  # repro_migrations_total counter
        self._c_migrated = None  # repro_migrated_streams_total counter
        self._stats_collections: dict[int, dict] = {}
        self._epoch = 0
        self._resizes = 0
        self._migrated_streams = 0
        self._retired = 0
        self._state_lost: set[str] = set()
        self._worker_cache_stats: dict[str, dict] = {}
        # Telemetry: per-shard metrics snapshots are cumulative, so the
        # parent keeps the *latest* payload per shard id (latest-wins; a
        # respawned shard restarts its counts) and merges them on demand.
        self._metrics_on = False
        self._m_wire = None  # parent-side wire_roundtrip histogram
        self._tracer = None  # parent-side Tracer (hooks.tracer), or None
        self._recorder = None  # parent-side FlightRecorder, or None
        self._worker_metrics: dict[str, dict] = {}
        # Frames: the background flusher that ships lingering partial
        # frames, and the wire counters ``stats()`` reports.
        self._flusher: Optional[threading.Thread] = None
        self._flusher_stop = threading.Event()
        self._frames_sent = 0
        self._framed_chunks = 0
        self._payload_bytes_inline = 0

    # ------------------------------------------------------------------
    # Startup / shutdown
    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._bound = True
        registry = self.hooks.metrics if self.hooks is not None else None
        self._metrics_on = registry is not None and getattr(registry, "enabled", False)
        if self._metrics_on:
            self._m_wire = stage_histogram(registry, "wire_roundtrip")
            self._m_quiesce = stage_histogram(registry, "migration_quiesce")
            self._c_migrations = registry.counter(
                "repro_migrations_total",
                help="Live migration epochs (resizes and retirements) started.",
            )
            self._c_migrated = registry.counter(
                "repro_migrated_streams_total",
                help="Streams whose detector state moved shards live.",
            )
        self._tracer = getattr(self.hooks, "tracer", None) if self.hooks else None
        self._recorder = getattr(self.hooks, "recorder", None) if self.hooks else None
        for shard in self._shards.values():
            self._spawn(shard)
        self._collector = threading.Thread(
            target=self._collector_loop, name="repro-shard-collector", daemon=True
        )
        self._collector.start()
        self._flusher = threading.Thread(
            target=self._flusher_loop, name="repro-frame-flusher", daemon=True
        )
        self._flusher.start()

    def _spawn(self, shard: _Shard, respawn: bool = False) -> None:
        """(Re)start one shard process and re-register its streams.

        On a *respawn* the replayed streams restart with fresh detector
        state — the crash destroyed the old one — so their ids are recorded
        in ``state_lost_streams``; silent mid-window data loss was exactly
        the reporting bug this marker fixes.
        """
        # The previous process generation's lanes, and any frame still
        # buffered for it, die with it: its chunks were already written off
        # as lost.
        self._close_lanes(shard)
        shard.pending.clear()
        shard.pending_since = None
        shard.commands = self._ctx.Queue()
        shard.control = self._ctx.Queue()
        # Replies travel over a dedicated pipe with exactly one writer (this
        # worker): unlike a shared queue, there is no cross-process write
        # lock a crashing worker could die holding — and the pipe's EOF is a
        # free, unambiguous death notification for the collector.
        reader, writer = self._ctx.Pipe(duplex=False)
        shard.process = self._ctx.Process(
            target=shard_worker_main,
            args=(
                shard.shard_id,
                shard.commands,
                writer,
                shard.control,
                self._cache_config,
                self._metrics_on,
            ),
            daemon=True,
        )
        with self._cv:
            self._ready.discard(shard.shard_id)
        shard.process.start()
        writer.close()  # the child holds the only surviving write end
        shard.reply_reader = reader
        with self._reply_lock:
            self._reply_readers.append(reader)
        # Re-register this shard's streams from the registry snapshot
        # (empty on first spawn).  Worker-side registration is idempotent
        # for identical configs, so racing with an in-progress explicit
        # registration is harmless.
        snapshot = self.hooks.snapshot() if self.hooks is not None else {}
        owned = [
            stream_id
            for stream_id in snapshot
            if self._ring.shard_for(stream_id) == shard.shard_id
        ]
        if respawn and owned:
            with self._cv:
                self._state_lost.update(owned)
        for stream_id in owned:
            shard.commands.put(RegisterStream(stream_id, snapshot[stream_id]))
        if self._recorder is not None:
            self._recorder.record(
                shard.shard_id,
                "respawn" if respawn else "spawn",
                pid=shard.process.pid,
                restarts=shard.restarts,
                streams=len(owned),
            )

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def _buffer(self, shard: _Shard, chunk: IngestChunk) -> None:
        """Add one in-flight chunk to the shard's next frame, shipping the
        frame once it is full (caller holds the lifecycle lock)."""
        shard.pending.append(chunk)
        if shard.pending_since is None:
            shard.pending_since = time.monotonic()
        if len(shard.pending) >= FRAME_CHUNKS:
            self._flush_shard(shard)

    def _flush_shard(self, shard: _Shard) -> None:
        """Ship a shard's buffered chunks as one frame (caller holds the
        lifecycle lock).  No-op when nothing is pending.

        ``encode_frame`` is looked up as this module's global on purpose:
        perfbench's ``wire.encode`` layer times the frame packing by
        wrapping that name.
        """
        if not shard.pending:
            shard.pending_since = None
            return
        chunks = shard.pending
        shard.pending = []
        shard.pending_since = None
        frame = encode_frame(chunks)
        with self._cv:
            self._payload_bytes_inline += sum(
                int(chunk.values.nbytes) for chunk in frame.chunks
            )
            self._frames_sent += 1
            self._framed_chunks += len(frame.chunks)
        shard.commands.put(frame)

    def _post(self, shard: _Shard, command) -> None:
        """Enqueue a control command strictly behind any buffered frame.

        Every non-ingest command relies on the command queue's FIFO order
        (a ``MigrateOut`` must run after the stream's already-ingested
        chunks; a ``CaptureState`` must see every acknowledged chunk
        applied).  Flushing first keeps that contract intact under
        framing.  Caller holds the lifecycle lock.
        """
        self._flush_shard(shard)
        shard.commands.put(command)

    def _post_priority(self, shard: _Shard, command) -> None:
        """Enqueue a command on the shard's priority control lane.

        Only ``MigrateOut`` travels here: the worker polls the lane ahead
        of (and between chunks of) its command queue, so the extraction
        starts within one chunk's latency instead of behind the ingest
        backlog.  Any buffered frame still flushes to the *main* queue
        first — chunks already accepted for this shard must reach it (the
        worker's sweep bounces the migrating ones straight back).  Caller
        holds the lifecycle lock.
        """
        self._flush_shard(shard)
        shard.control.put(command)

    def _flusher_loop(self) -> None:
        # Wakes at half the linger so a partial frame overshoots its
        # deadline by at most ~linger/2; the lifecycle lock serialises each
        # flush against ingest and crash handling.
        while not self._flusher_stop.wait(FRAME_LINGER_SECONDS / 2):
            now = time.monotonic()
            with self._lifecycle:
                if self._closed:
                    return
                for shard in self._shards.values():
                    if (
                        shard.pending
                        and shard.pending_since is not None
                        and now - shard.pending_since >= FRAME_LINGER_SECONDS
                    ):
                        self._flush_shard(shard)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        if not self._bound or self._closed:
            return
        pending_error: Optional[Exception] = None
        if drain:
            try:
                self.drain(timeout=timeout)
            except ServiceBackendError as exc:
                pending_error = exc
            try:
                # Final worker-cache snapshot while the workers still live,
                # so a report built after close() sees the merged counters.
                self.cache_stats(timeout=5.0)
            except Exception:
                pass  # best effort: a report can live without cache stats
        with self._lifecycle:
            self._closed = True
            if drain:
                # Graceful: queues were drained above, so Shutdown is the
                # next command every worker sees.
                for shard in self._shards.values():
                    if shard.process is not None and shard.process.is_alive():
                        self._post(shard, Shutdown())
                for shard in self._shards.values():
                    if shard.process is None:
                        continue
                    shard.process.join(timeout if timeout is not None else 10)
                    if shard.process.is_alive():
                        shard.process.terminate()
                        shard.process.join(1)
            else:
                # drain=False means "discard pending work": a Shutdown
                # command would queue FIFO behind the backlog and the
                # workers would serve it all first, so kill them instead.
                for shard in self._shards.values():
                    if shard.process is not None and shard.process.is_alive():
                        shard.process.terminate()
                for shard in self._shards.values():
                    if shard.process is not None:
                        shard.process.join(1)
            self._collector_stop.set()
            self._flusher_stop.set()
        if self._flusher is not None:
            self._flusher.join(timeout=5)
        if self._collector is not None:
            self._collector.join(timeout=10)
        with self._lifecycle:
            # Every worker is gone: release the command lanes (drain=False
            # simply discards whatever frames were still buffered — their
            # chunks resolve as lost below, like any in-flight chunk).
            for shard in self._shards.values():
                shard.pending.clear()
                self._close_lanes(shard)
            with self._cv:
                abandoned = self._ledger.close()
        # Chunks the shutdown discarded still resolve their futures.
        self._settle_lost(abandoned, "executor closed")
        if pending_error is not None:
            raise pending_error
        self._raise_deferred()

    @staticmethod
    def _close_lanes(shard: _Shard) -> None:
        """Close a stopped shard's command and control queues.

        Each ``mp.Queue`` holds named semaphores that are only unlinked
        when the queue is freed, and the service and its executor form a
        reference cycle that only the cyclic GC breaks; left to it, the
        semaphores outlive the service and the resource tracker reports
        them leaked.  The queue's feeder thread holds its write lock and
        semaphore until it has written everything put on the queue, so it
        must be joined — but a killed worker leaves an unread tail, and a
        feeder blocked on that full pipe would never finish.  The parent
        holds each lane's read end, so it reads the pipe dry (raw bytes,
        through its own descriptor: the feeder closes the queue's reader on
        its way out, and a killed worker may have left half a message)
        until the feeder has written its last item.
        """
        for lane in (shard.commands, shard.control):
            if lane is None:
                continue
            drain_fd = os.dup(lane._reader.fileno())
            try:
                lane.close()
                feeder = lane._thread
                while feeder is not None and feeder.is_alive():
                    if connection_wait([drain_fd], timeout=0.01) and not os.read(
                        drain_fd, 1 << 16
                    ):
                        break  # every write end is closed: nothing more comes
            finally:
                os.close(drain_fd)
            lane.join_thread()
        shard.commands = shard.control = None

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------
    def register(self, state) -> None:
        # to_dict() validates that the config is fully named (picklable).
        config = state.config.to_dict()
        stream_id = state.stream_id
        # The lifecycle lock orders this against crash-triggered respawns;
        # should a respawn's snapshot replay still race ahead of us, the
        # worker-side registration is idempotent for identical configs.
        with self._lifecycle:
            shard = self._shard_for_stream(stream_id)
            if state.remote_tests_run is None:
                state.remote_tests_run = 0
            self._post(shard, RegisterStream(stream_id, config))

    def remove(self, stream_id: str) -> None:
        with self._lifecycle:
            shard = self._shards[self._ring.shard_for(stream_id)]
            if shard.process is not None and shard.process.is_alive():
                self._post(shard, RemoveStream(stream_id))

    def shard_of(self, stream_id: str) -> str:
        """Which shard id owns a stream (exposed for tests and diagnostics)."""
        return self._ring.shard_for(stream_id)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, state, values: np.ndarray, completion=None, trace=None) -> None:
        # The lifecycle lock keeps the whole enqueue atomic with respect to
        # crash handling: without it, a concurrent respawn could write this
        # seq off as lost (and swap the command queue) between the ledger
        # entry and the put, leaving the chunk both processed and counted
        # as lost.  When the in-flight bound is hit we wait *outside* the
        # lifecycle lock, so crash handling (which frees capacity by
        # writing off a dead shard's chunks) can still run.  A chunk of a
        # stream mid-migration parks in the ledger and replays FIFO behind
        # the stream's install on its new owner; only a full migration
        # buffer (or full capacity) makes the producer wait.
        stream_id = state.stream_id
        while True:
            with self._lifecycle:
                if self._closed:
                    raise ValidationError("cannot submit to a closed executor")
                # The migrating set only changes under the lifecycle lock.
                parks = self._ledger.is_migrating(stream_id)
                shard = None if parks else self._shard_for_stream(stream_id)
                record = None
                with self._cv:
                    if self._ledger.has_room(stream_id):
                        # The wire span stays open until the reply (or a
                        # loss) resolves this seq — across a park too, as
                        # the producer really waits that long — and names
                        # the ring owner, a parked chunk's destination.
                        owner = self._ring.shard_for(stream_id) if parks else shard.shard_id
                        entry = None
                        if trace is not None:
                            entry = (trace, trace.start_span("wire_roundtrip", shard=owner))
                        stamp = (
                            time.monotonic()
                            if self._metrics_on or trace is not None
                            else None
                        )
                        record = self._ledger.admit(
                            stream_id, owner, values, completion, entry, stamp
                        )
                if record is not None:
                    if not parks:
                        self._buffer(shard, self._wire_chunk(record, values))
                    return
            # A dead shard (not necessarily this stream's) may be pinning
            # the capacity with chunks it will never acknowledge; reap all
            # shards so their write-off can free the slots, and fail fast
            # on a recorded backend failure, before re-waiting.
            self._reap_dead_shards()
            self._raise_deferred()
            with self._cv:
                if not self._ledger.has_room(stream_id):
                    self._cv.wait(0.05)

    @staticmethod
    def _wire_chunk(record, values) -> IngestChunk:
        """The ingest message for a routed chunk; its trace context makes
        the worker's spans children of the chunk's open wire span."""
        context = None
        if record.trace is not None:
            trace, wire_span = record.trace
            context = trace.wire_context(wire_span)
        return IngestChunk(record.seq, record.stream_id, values, record.started, context)

    def _shard_for_stream(self, stream_id: str) -> _Shard:
        """The live shard owning a stream, respawning it first if it died."""
        if self._closed:
            # Work handed to a closed executor must fail loudly, not sit
            # on a queue no worker will read.
            raise ValidationError("cannot submit to a closed executor")
        while True:
            shard = self._shards[self._ring.shard_for(stream_id)]
            self._ensure_alive(shard)
            if shard.failed:
                # Surface the deferred budget-exhaustion error here (once)
                # rather than raising a fresh copy now and the deferred one
                # again at the next drain()/close().
                self._raise_deferred()
                raise ServiceBackendError(
                    f"shard {shard.shard_id!r} exceeded its restart budget "
                    f"({self.max_restarts}); stream {stream_id!r} is unserved"
                )
            if self._shards.get(shard.shard_id) is shard:
                return shard
            # _ensure_alive retired the shard out from under us: the ring
            # now points at a survivor — resolve again (each retirement
            # shrinks the pool, so this terminates).  Returning the stale
            # handle would enqueue onto a queue no process will ever read.

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _ensure_alive(self, shard: _Shard) -> None:
        with self._lifecycle:
            if self._closed or shard.failed:
                return
            if shard.process is not None and shard.process.is_alive():
                return
            if shard.process is not None:
                # The shard died: reap it, write off its in-flight chunks
                # and charge its restart budget before respawning.
                shard.process.join(timeout=1)
                if self._recorder is not None:
                    self._recorder.record(
                        shard.shard_id,
                        "crash",
                        exitcode=shard.process.exitcode,
                        restarts=shard.restarts + 1,
                    )
                    # The recorder's whole purpose: persist the last events
                    # leading up to this crash while they are still buffered.
                    self._recorder.dump(f"crash-{shard.shard_id}")
                # The dead generation's unsent frame dies with it: a
                # respawn replays registrations, and flushing stale chunks
                # at it would double-serve observations written off here.
                shard.pending.clear()
                self._write_off(shard.shard_id)
                shard.restarts += 1
                with self._cv:
                    self._restarts += 1
                if shard.restarts > self.max_restarts:
                    if len(self._shards) > 1:
                        # Stop betting on a bad host: retire the shard and
                        # redistribute its streams to the survivors through
                        # the migration path (fresh state — the crashes
                        # destroyed it — and recorded as lost).
                        self._retire_shard(shard)
                    else:
                        shard.failed = True
                        self._defer(
                            ServiceBackendError(
                                f"shard {shard.shard_id!r} crashed "
                                f"{shard.restarts} times; giving up on it"
                            )
                        )
                    return
                self._spawn(shard, respawn=True)
                return
            self._spawn(shard)

    def _reap_dead_shards(self) -> None:
        # Over a copy: _ensure_alive may retire a shard, mutating the table.
        for shard in list(self._shards.values()):
            self._ensure_alive(shard)

    def _write_off(self, shard_id: str) -> None:
        """Resolve a dead shard's in-flight chunks as lost."""
        with self._cv:
            lost = self._ledger.write_off(shard_id)
            self._cv.notify_all()
        if lost and self._recorder is not None:
            self._recorder.record(shard_id, "chunks_lost", count=len(lost))
        self._settle_lost(lost, f"shard {shard_id} died")

    def _settle_lost(self, records, error: str) -> None:
        """Finish the traces and call the completions of lost chunks.

        Called outside the condition lock: the engine's completion wrapper
        resolves futures/callbacks and must not nest under ``_cv``.
        """
        for record in records:
            self._finish_trace(record.trace, "lost", error=error)
            self._safe_complete(record.completion, None, True)

    def _finish_trace(self, entry, status: str = "ok", error=None, spans=None) -> None:
        """Resolve one chunk's trace: close the wire span, graft worker spans.

        ``entry`` is the ``(ChunkTrace, wire span)`` pair stored at enqueue
        (``None``, an untraced chunk, is a no-op).  Lost chunks close with
        a non-``ok`` status instead of leaking an open span.
        """
        if entry is None or self._tracer is None:
            return
        trace, wire_span = entry
        wire_span.finish(status)
        if spans:
            trace.extend(spans, parent=wire_span)
        self._tracer.finish_chunk(trace, status, error)

    def _safe_complete(self, completion, reply, lost: bool) -> None:
        """Invoke one chunk-completion callback, deferring its errors."""
        if completion is None:
            return
        try:
            completion(reply, lost)
        except Exception as exc:
            self._defer(exc)

    def crash_shard(self, shard_id: str, wait_seconds: float = 30.0) -> None:
        """Test hook: hard-kill one shard process and wait for it to die."""
        with self._lifecycle:
            shard = self._shards[shard_id]
            process = shard.process
            if process is None or not process.is_alive():
                return
            self._post(shard, CrashShard())
        process.join(wait_seconds)

    def _retire_shard(self, shard: _Shard) -> None:
        """Redistribute a repeatedly-crashing shard's streams to survivors.

        Called under the lifecycle lock with the shard already dead.  Its
        detector state died with it, so the streams arrive at their new
        ring owners fresh (``MigrateIn`` with ``state=None`` — the same
        install path a resize uses) and are recorded as ``state_lost``.
        """
        if self._recorder is not None:
            self._recorder.record(
                shard.shard_id, "retired", restarts=shard.restarts
            )
            self._recorder.dump(f"retire-{shard.shard_id}")
        del self._shards[shard.shard_id]
        shard.pending.clear()
        self._close_lanes(shard)
        snapshot = self.hooks.snapshot() if self.hooks is not None else {}
        moved = sorted(
            stream_id
            for stream_id in snapshot
            if self._ring.shard_for(stream_id) == shard.shard_id
        )
        self._ring.remove(shard.shard_id)
        with self._cv:
            self.shard_count = len(self._shards)
            self._retired += 1
            self._state_lost.update(moved)
        for stream_id in moved:
            dest = self._shards[self._ring.shard_for(stream_id)]
            if dest.process is None or not dest.process.is_alive():
                continue  # its own respawn replays the snapshot under the new ring
            self._post(
                dest,
                MigrateIn(streams={stream_id: {"config": snapshot[stream_id], "state": None}}),
            )

    # ------------------------------------------------------------------
    # Elastic rebalancing
    # ------------------------------------------------------------------
    def resize(self, shards: int, timeout: Optional[float] = None) -> int:
        """Live-rebalance the pool to ``shards`` worker processes.

        Only the streams whose consistent-hash owner changes (~``1/N`` of
        the fleet, by the ring's guarantee) are quiesced, and each only
        for its *own* extract→install hop: the ``MigrateOut`` rides the
        source's priority control lane (overtaking its queued ingest), the
        source bounces the migrating streams' queued chunks back and
        streams one :class:`~repro.cluster.wire.MigrateStreamDone` per
        stream, and each stream is installed on its new owner and released
        the moment its state arrives and its in-flight chunks resolve —
        bounced and mid-hop parked chunks replay behind the install in seq
        order, and nothing is lost or re-detected.  All other streams keep
        ingesting throughout.  Returns the new shard count.

        ``timeout`` bounds the migration pipeline; on expiry (or on a
        source shard dying mid-extraction) the unmigrated streams are
        registered fresh on their new owners and recorded in
        ``state_lost_streams``, so a resize always leaves a consistent,
        serving topology.
        """
        if shards < 1:
            raise ValidationError("shards must be at least 1")
        with self._resize_lock:
            with self._lifecycle:
                if self._closed or not self._bound:
                    raise ValidationError("cannot resize a closed or unbound executor")
                current = len(self._shards)
                if shards == current:
                    return current
                with self._cv:
                    self._resizes += 1
            self._rebalance(shards, timeout)
            with self._cv:
                new_count = self.shard_count
            if self._recorder is not None:
                self._recorder.record(
                    None, "resize", requested=shards, shards=new_count
                )
            return new_count

    def _new_shard_ids(self, count: int) -> list[str]:
        """Fresh shard ids filling the lowest free indices (``shard-K``)."""
        ids: list[str] = []
        index = 0
        while len(ids) < count:
            candidate = f"shard-{index}"
            if candidate not in self._shards:
                ids.append(candidate)
            index += 1
        return ids

    def _rebalance(self, target: int, timeout: Optional[float]) -> None:
        """Move the pool to ``target`` shards and migrate the streams whose
        ring owner changes: one move each, one ``MigrateOut`` per live source.

        A grow spawns its newcomers before the ring knows them, so the
        snapshot replay inside :meth:`_spawn` registers nothing on them:
        they start empty and receive their streams, state intact, by
        ``MigrateIn``.  A shrink pops its victims (the highest indices) from
        the table at once, so crash handling cannot respawn one; local
        references keep their handles for the ``MigrateOut`` and the
        retirement once the pipeline is done.  A source that is already
        dead gets no ``MigrateOut``: the pipeline gives it up.
        """
        with self._lifecycle:
            ranked = sorted(self._shards, key=_shard_index)
            victims = {shard_id: self._shards.pop(shard_id) for shard_id in ranked[target:]}
            fresh = [_Shard(shard_id) for shard_id in self._new_shard_ids(target - len(ranked))]
            for shard in fresh:
                self._shards[shard.shard_id] = shard
                self._spawn(shard)
            snapshot = self.hooks.snapshot() if self.hooks is not None else {}
            before = {sid: self._ring.shard_for(sid) for sid in snapshot}
            for shard in fresh:
                self._ring.add(shard.shard_id)
            for shard_id in victims:
                self._ring.remove(shard_id)
            # The ring is consistent: a grow moves streams only onto the
            # newcomers, a shrink only off the victims.
            moved = [sid for sid in sorted(snapshot) if self._ring.shard_for(sid) != before[sid]]
            sources = {
                before[sid]: self._shards.get(before[sid]) or victims[before[sid]]
                for sid in moved
            }
            self._epoch += 1
            epoch = self._epoch
            now = time.monotonic()
            with self._cv:
                self.shard_count = len(self._shards)
                self._migrated_streams += len(moved)
                for sid in moved:
                    source = sources[before[sid]]
                    self._ledger.begin_move(
                        sid, epoch, snapshot[sid], source.shard_id, source.process, now
                    )
            self._note_migration_begin(epoch, len(moved), grow=bool(fresh))
            for source_id, source in sorted(sources.items()):
                if source.process.is_alive():
                    stream_ids = tuple(sid for sid in moved if before[sid] == source_id)
                    self._post_priority(source, MigrateOut(epoch=epoch, stream_ids=stream_ids))
        self._pipeline_epoch(epoch, timeout)
        # Retire the victims.  The Shutdown rides the main queue, behind
        # whatever swept backlog each victim is still serving (all of its
        # own chunks bounced, so that backlog is control commands and
        # other-stream stragglers); no new work can reach it — the ring
        # already forgot it.
        for victim in victims.values():
            if victim.process.is_alive():
                victim.commands.put(Shutdown())
        for victim in victims.values():
            victim.process.join(10)
            if victim.process.is_alive():
                victim.process.terminate()
                victim.process.join(1)
            victim.pending.clear()
            self._close_lanes(victim)
            if victim.process.exitcode != 0:
                # Killed, terminated or hung: nobody else reaps a victim,
                # so what is still routed to it is lost here.  A clean exit
                # left its replies in the pipe for the collector.
                self._write_off(victim.shard_id)

    def _note_migration_begin(self, epoch: int, moved: int, grow: bool) -> None:
        """Count + record the opening of one migration epoch."""
        if self._c_migrations is not None:
            self._c_migrations.inc()
        if self._c_migrated is not None and moved:
            self._c_migrated.inc(moved)
        if self._recorder is not None:
            self._recorder.record(
                None,
                "migration_begin",
                epoch=epoch,
                streams=moved,
                direction="grow" if grow else "shrink",
            )

    def _pipeline_epoch(self, epoch: int, timeout: Optional[float]) -> None:
        """Drive one migration epoch's per-stream pipeline to completion.

        The collector hands each extracted state to the ledger as it lands;
        this loop installs every move the ledger lists as installable
        (:meth:`_release_stream`), gives up the sources that can no longer
        deliver, expires the epoch once ``timeout`` passes or the executor
        closes, and returns once every move is released.  Runs outside the
        lifecycle lock so ingestion of unaffected streams (and crash
        handling) keeps flowing throughout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._cv:
                ready = [move.stream_id for move in self._ledger.installable(epoch)]
                if not ready and not self._ledger.moves(epoch):
                    return
            for stream_id in ready:
                self._release_stream(stream_id)
            if ready:
                continue
            self._reap_dead_shards()
            dead_victims: list[str] = []
            with self._lifecycle:
                with self._cv:
                    waiting = {
                        move.source: move.generation
                        for move in self._ledger.moves(epoch)
                        if move.pending
                    }
                    for source_id, process in waiting.items():
                        shard = self._shards.get(source_id)
                        if shard is None:
                            # A shrink victim, which nobody else reaps; a
                            # clean exit left its replies in the pipe.
                            if process.is_alive() or process.exitcode == 0:
                                continue
                            dead_victims.append(source_id)
                        elif shard.process is process and process.is_alive():
                            continue
                        # Dead or respawned, the state is gone (the reap
                        # above wrote off a dead generation's chunks).
                        self._ledger.give_up(source_id)
            for shard_id in dead_victims:
                self._write_off(shard_id)
            with self._cv:
                if self._ledger.installable(epoch):
                    continue  # installs became ready while we were reaping
                remaining = None if deadline is None else deadline - time.monotonic()
                if self._closed or (remaining is not None and remaining <= 0):
                    # Timed out — or close() raced us and the replies will
                    # never come.
                    self._ledger.expire(epoch)
                    continue
                self._cv.wait(0.05 if remaining is None else min(0.05, remaining))

    def _release_stream(self, stream_id: str) -> None:
        """Install one stream on its new owner and release it immediately.

        The lifecycle lock keeps producers out until the ``MigrateIn`` is
        posted ahead of the stream's parked chunks, so every chunk — parked
        or yet to come — queues strictly behind the install (FIFO).  A
        ``None`` payload (source died, timed out, or no longer held the
        stream) registers it fresh and records the loss; a dead
        destination is respawned by the ordinary fault path first.
        """
        with self._lifecycle:
            try:
                dest = self._shard_for_stream(stream_id)
            except (ValidationError, ServiceBackendError):
                dest = None  # closed, or the destination exhausted its budget
            stamp = (
                time.monotonic()
                if self._metrics_on or self._tracer is not None
                else None
            )
            with self._cv:
                move, released = self._ledger.release_stream(
                    stream_id, dest.shard_id if dest is not None else None, stamp
                )
                fresh = move is not None and (move.payload is None or dest is None)
                if fresh:
                    self._state_lost.add(stream_id)
                self._cv.notify_all()
            if move is None:
                return  # close() dropped the move first
            if dest is None:
                # Exactly like an in-flight chunk on a dead shard.
                self._settle_lost(
                    [record for record, _ in released],
                    "migration destination unavailable",
                )
            else:
                payload = move.payload
                if payload is None:
                    payload = {"config": move.config, "state": None}
                self._post(dest, MigrateIn(streams={stream_id: payload}))
                for record, values in released:
                    self._buffer(dest, self._wire_chunk(record, values))
        quiesced = (
            max(0.0, time.monotonic() - move.started) if move.started is not None else None
        )
        if quiesced is not None and self._m_quiesce is not None:
            self._m_quiesce.observe(quiesced)
        if self._recorder is not None:
            self._recorder.record(
                dest.shard_id if dest is not None else None,
                "migrate_stream",
                stream=stream_id,
                epoch=move.epoch,
                state="fresh" if fresh else "moved",
                parked=len(released),
                quiesce_ms=(
                    round(quiesced * 1000, 3) if quiesced is not None else None
                ),
            )

    # ------------------------------------------------------------------
    # Worker-side collections (cache statistics, state captures)
    # ------------------------------------------------------------------
    def _broadcast_collect(self, make_command, timeout: float) -> dict:
        """Send one command to every live shard and gather the replies.

        ``make_command`` maps an epoch to the wire command.  Returns the
        ``shard_id -> reply payload`` map; shards that die (or report a
        :class:`~repro.cluster.wire.WorkerFailure`) before answering are
        dropped from the rendezvous, and the deadline bounds the wait, so
        the caller always gets whatever the surviving fleet produced.
        Caller must hold neither lock and have checked ``_closed``.
        """
        with self._lifecycle:
            self._epoch += 1
            epoch = self._epoch
            collection = {"expected": {}, "replies": {}}
            with self._cv:
                self._stats_collections[epoch] = collection
            for shard in self._shards.values():
                if (
                    shard.failed
                    or shard.process is None
                    or not shard.process.is_alive()
                ):
                    continue
                with self._cv:
                    collection["expected"][shard.shard_id] = shard.process
                self._post(shard, make_command(epoch))
        deadline = time.monotonic() + timeout
        while True:
            with self._cv:
                if set(collection["expected"]) <= set(collection["replies"]):
                    break
            with self._lifecycle:
                with self._cv:
                    for shard_id, process in list(collection["expected"].items()):
                        shard = self._shards.get(shard_id)
                        if shard is None or shard.process is not process:
                            collection["expected"].pop(shard_id)  # died: reply lost
            with self._cv:
                if set(collection["expected"]) <= set(collection["replies"]):
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(min(0.05, remaining))
        with self._cv:
            self._stats_collections.pop(epoch, None)
            return dict(collection["replies"])

    def cache_stats(self, timeout: float = 10.0) -> Optional[dict]:
        """Cache counters summed across the live shard workers.

        Each worker owns a private :class:`~repro.service.cache.SharedCaches`
        the parent never sees; without this merge the service report showed
        misleadingly cold parent caches under ``--executor process``.  After
        a close the last collected snapshot (taken during the graceful
        shutdown) is returned.
        """
        with self._lifecycle:
            if self._closed or not self._bound:
                return dict(self._worker_cache_stats) or None
        replies = self._broadcast_collect(
            lambda epoch: CollectStats(epoch=epoch), timeout
        )
        with self._lifecycle:
            with self._cv:
                if not replies and self._closed:
                    # close() raced us between the check above and the
                    # broadcast: the workers are already gone and it took
                    # the final snapshot during shutdown — keep that one
                    # instead of clobbering it with an empty merge.
                    return dict(self._worker_cache_stats) or None
                merged = merge_stats_dicts(
                    *(reply.cache_stats for reply in replies.values())
                )
                self._worker_cache_stats = merged
                for shard_id, reply in replies.items():
                    metrics = getattr(reply, "metrics", None)
                    if metrics:
                        # Cumulative snapshots: latest per shard id wins.
                        self._worker_metrics[shard_id] = metrics
                return merged

    def metrics_state(self) -> Optional[dict]:
        """Latest per-shard metrics snapshots, merged into one payload.

        Refreshed by :meth:`cache_stats` (the ``CollectStats`` round trip
        carries both); returns ``None`` until a shard has reported.
        """
        with self._cv:
            snapshots = list(self._worker_metrics.values())
        if not snapshots:
            return None
        return merge_metric_states(snapshots).state_dict()

    # ------------------------------------------------------------------
    # Persistence (service snapshots / warm restarts)
    # ------------------------------------------------------------------
    def capture_state(self, timeout: float = 30.0) -> dict:
        """Collect every shard's streams (detector state) and cache contents.

        Non-destructive — the fleet keeps serving.  Call it on a drained
        executor: command-queue FIFO then guarantees each shard's capture
        reflects every chunk that was acknowledged before it.  The resize
        lock serialises the capture against live rebalances (the
        background autoscaler can fire one at any moment): a stream whose
        detector state is mid-flight between shards is registered on
        *neither* worker, and a capture in that window would silently
        omit it from the snapshot.
        """
        with self._lifecycle:
            if self._closed or not self._bound:
                raise ValidationError(
                    "cannot capture state from a closed or unbound executor"
                )
        with self._resize_lock:
            replies = self._broadcast_collect(
                lambda epoch: CaptureState(epoch=epoch), timeout
            )
        streams: dict[str, dict] = {}
        for shard_id in sorted(replies):
            streams.update(replies[shard_id].streams)
        caches = merge_cache_contents(
            *(replies[shard_id].cache_contents for shard_id in sorted(replies))
        )
        return {"streams": streams, "caches": caches}

    def load_states(self, states: dict) -> None:
        """Install restored detector states on their owning shards.

        Rides the same idempotent ``MigrateIn`` install path a live
        rebalance uses (streams must already be registered; per-shard FIFO
        orders the install strictly before any subsequently ingested
        chunk).  The resize lock keeps the ring stable while the installs are
        routed, so a concurrent rebalance cannot strand one on a shard
        that is no longer the stream's owner.
        """
        with self._resize_lock:
            with self._lifecycle:
                by_shard: dict[str, dict] = {}
                handles: dict[str, _Shard] = {}
                for stream_id, payload in sorted(states.items()):
                    shard = self._shard_for_stream(stream_id)
                    handles[shard.shard_id] = shard
                    by_shard.setdefault(shard.shard_id, {})[stream_id] = payload
                for shard_id in sorted(by_shard):
                    self._post(handles[shard_id], MigrateIn(streams=by_shard[shard_id]))

    def seed_caches(self, contents: dict) -> None:
        """Warm every live shard's private caches from snapshot contents.

        Every shard receives the full (content-keyed) bundle — entries are
        shared by digest, so over-seeding costs memory bounded by the cache
        capacities and never correctness.
        """
        if not contents:
            return
        with self._lifecycle:
            for shard_id in sorted(self._shards):
                shard = self._shards[shard_id]
                if shard.process is not None and shard.process.is_alive():
                    self._post(shard, SeedCaches(contents=contents))

    # ------------------------------------------------------------------
    # Reply collection
    # ------------------------------------------------------------------
    def _collector_loop(self) -> None:
        # One reader per shard generation, multiplexed with connection.wait.
        # Each pipe has exactly one writer (its worker), so a worker dying
        # mid-send — CrashShard, OOM kill, close(drain=False) — corrupts at
        # most its own pipe and can never wedge a lock the other workers
        # (or the parent) share; the earlier shared reply *queue* deadlocked
        # exactly that way when a crash landed inside the queue's feeder.
        # A closed pipe raises EOFError here, which doubles as a free death
        # notification.  The stop signal is a thread Event checked between
        # timed waits, never a sentinel message.
        while True:
            with self._reply_lock:
                readers = list(self._reply_readers)
            if not readers:
                if self._collector_stop.is_set():
                    return
                time.sleep(0.05)
                continue
            try:
                ready = connection_wait(readers, timeout=0.25)
            except OSError:
                ready = []
            if not ready:
                if self._collector_stop.is_set():
                    return
                continue
            for reader in ready:
                try:
                    reply = reader.recv()
                except EOFError:
                    # The worker died (or exited cleanly) and its buffered
                    # replies are fully drained: retire the reader.
                    self._drop_reader(reader)
                    continue
                except Exception as exc:
                    # A worker killed mid-send leaves a truncated pickle in
                    # its pipe; the collector must survive it (a dead
                    # collector means nothing is ever acknowledged again),
                    # drop the broken pipe and surface the failure on the
                    # next drain()/close().
                    self._defer(
                        ServiceBackendError(f"reply collection failed: {exc!r}")
                    )
                    self._drop_reader(reader)
                    continue
                self._handle_reply(reply)

    def _drop_reader(self, reader) -> None:
        with self._reply_lock:
            if reader in self._reply_readers:
                self._reply_readers.remove(reader)
        try:
            reader.close()
        except OSError:
            pass

    def _handle_reply(self, reply) -> None:
        if isinstance(reply, ReplyFrame):
            # One message, many acknowledgements: unwrap in frame order, so
            # each entry is handled exactly as a lone reply would be.
            for entry in reply.replies:
                self._handle_reply(entry)
            return
        if isinstance(reply, IngestReply):
            # The claim keeps the seq in flight while the reply is folded
            # (so drain() cannot return mid-fold and a write-off skips it);
            # a seq already resolved — written off when its shard died —
            # stays lost and its reply is dropped.  The completion runs
            # last, so an awaiting producer observes its own chunk's alarms.
            with self._cv:
                record = self._ledger.claim(reply.seq)
            if record is None:
                return
            try:
                self.hooks.record_reply(reply)
            except Exception as exc:
                self._defer(exc)
            finally:
                self._finish_trace(record.trace, spans=reply.spans)
                with self._cv:
                    served = self._ledger.serve(reply.seq) is not None
                    self._cv.notify_all()
                if served:
                    if record.started is not None and self._m_wire is not None:
                        # Enqueue-to-acknowledgement: queue residency +
                        # detection + explanation + the reply's trip back,
                        # i.e. what a producer actually waits for here.
                        self._m_wire.observe(
                            max(0.0, time.monotonic() - record.started)
                        )
                    self._safe_complete(record.completion, reply, False)
        elif isinstance(reply, ChunkBounce):
            # A source swept the chunk back mid-migration: it re-parks and
            # replays behind its stream's install, or — its migration
            # already resolved — could only replay out of order and is lost.
            with self._cv:
                lost = self._ledger.bounce(reply.seq, reply.values)
                self._cv.notify_all()
            if lost is not None:
                self._settle_lost([lost], "bounced chunk outlived its migration")
        elif isinstance(reply, WorkerReady):
            with self._cv:
                self._ready.add(reply.shard_id)
                self._cv.notify_all()
        elif isinstance(reply, MigrateStreamDone):
            # One stream's state just left its source: the ledger keeps it
            # for the resize thread, which installs it under the lifecycle
            # lock — never here, the collector must stay lock-light.
            with self._cv:
                if self._ledger.arrive(reply.epoch, reply.stream_id, reply.state):
                    self._cv.notify_all()
        elif isinstance(reply, (ShardStatsReply, StateCaptureReply)):
            with self._cv:
                collection = self._stats_collections.get(reply.epoch)
                if collection is not None:
                    collection["replies"][reply.shard_id] = reply
                    self._cv.notify_all()
        elif isinstance(reply, WorkerFailure):
            self._defer(
                ServiceBackendError(
                    f"shard {reply.shard_id!r} reported: {reply.message}"
                )
            )
            if self._recorder is not None:
                self._recorder.record(
                    reply.shard_id,
                    "worker_failure",
                    message=reply.message,
                    command=reply.command,
                    seq=reply.seq,
                )
            if reply.seq is not None:
                # The failure consumed the chunk without serving it.
                with self._cv:
                    failed = self._ledger.fail(reply.seq)
                    self._cv.notify_all()
                if failed is not None:
                    self._finish_trace(failed.trace, "error", error=reply.message)
                    self._safe_complete(failed.completion, None, True)
            if reply.command in ("MigrateOut", "CollectStats", "CaptureState"):
                # The failure replaced a reply some rendezvous is waiting
                # on: release it, or a resize()/cache_stats() caller with
                # no deadline would wait forever on a live-but-failing
                # worker.  Streams a failed source never delivered fall
                # back to fresh registration (recorded as lost).
                with self._cv:
                    if reply.command == "MigrateOut":
                        self._ledger.give_up(reply.shard_id)
                    for collection in self._stats_collections.values():
                        collection["expected"].pop(reply.shard_id, None)
                    self._cv.notify_all()

    def _defer(self, error: Exception) -> None:
        self._deferred.add(error)

    def _raise_deferred(self) -> None:
        self._deferred.raise_first("shard backend failure")

    def has_capacity(self) -> bool:
        with self._cv:
            if self._closed:
                return False
            return self._ledger.outstanding < self.capacity

    # ------------------------------------------------------------------
    # Drain / stats
    # ------------------------------------------------------------------
    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until every live shard's worker has finished booting.

        A freshly spawned worker spends its first moments importing the
        runtime; commands queued during that window simply wait.  This
        barrier lets callers (benchmarks, tests, pre-warming operators)
        separate interpreter boot from steady-state serving without
        sleeping.  Returns ``False`` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lifecycle:
                pending = [
                    shard.shard_id
                    for shard in self._shards.values()
                    if shard.process is not None and shard.process.is_alive()
                ]
            with self._cv:
                if all(shard_id in self._ready for shard_id in pending):
                    return True
            self._reap_dead_shards()
            self._raise_deferred()
            with self._cv:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cv.wait(0.05 if remaining is None else min(0.05, remaining))

    def drain(self, timeout: Optional[float] = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # Ship every partial frame now instead of waiting out the
            # linger: a drain means "no more company is coming".
            with self._lifecycle:
                if not self._closed:
                    for shard in self._shards.values():
                        self._flush_shard(shard)
            with self._cv:
                if not self._ledger.outstanding:
                    break
            self._reap_dead_shards()
            # Fail fast on a recorded backend failure rather than waiting
            # (possibly forever) for acknowledgements that may never come.
            self._raise_deferred()
            with self._cv:
                if not self._ledger.outstanding:
                    break
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self._raise_deferred()
                    return False
                self._cv.wait(0.05 if remaining is None else min(0.05, remaining))
        self._raise_deferred()
        return True

    def stats(self) -> dict:
        with self._cv:
            return {
                "executor": self.name,
                "shards": self.shard_count,
                "capacity": self.capacity,
                "frames_sent": self._frames_sent,
                "framed_chunks": self._framed_chunks,
                "payload_bytes_inline": self._payload_bytes_inline,
                **self._ledger.stats(),
                "restarts": self._restarts,
                "retired_shards": self._retired,
                "resizes": self._resizes,
                "migrated_streams": self._migrated_streams,
                "state_lost_streams": sorted(self._state_lost),
            }
