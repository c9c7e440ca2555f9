"""Picklable wire types spoken between the parent and its shard workers.

Everything that crosses the process boundary is defined here, as plain
dataclasses of primitives, NumPy arrays and the library's own picklable
result types (:class:`~repro.core.ks.KSTestResult`,
:class:`~repro.core.explanation.Explanation`, ...).  Commands flow parent →
worker over a per-shard command queue; replies flow worker → parent over a
per-shard reply pipe (one writer each, so a crashing worker cannot poison
a lock its siblings share).

The protocol is deliberately small:

* ``RegisterStream`` / ``RemoveStream`` — manage the shard's stream table
  (configs travel as :meth:`repro.service.registry.StreamConfig.to_dict`
  snapshots, never as live objects);
* ``IngestChunk`` → ``IngestReply`` — one chunk of observations in, the
  alarms it raised (with explanations attached) plus counter deltas out;
  every chunk is acknowledged exactly once, which is what ``drain()``
  counts; when tracing is on the chunk carries a
  :class:`~repro.obs.trace.TraceContext` and the reply ships the
  worker-side spans back for re-parenting;
* ``MigrateOut`` → ``MigrateStreamDone``\\ * — live rebalancing: the
  worker extracts the named streams *one at a time*, answering each with a
  ``MigrateStreamDone`` carrying that stream's ``state_dict()`` snapshot —
  a moved stream's only reply.  The parent installs each stream on its new
  ring owner the moment its state arrives, so a stream is only quiesced
  for its *own* extract→install hop, never for the whole epoch;
* ``MigrateIn`` — install migrated streams on their new shard, restoring
  detector state so no observation is re-detected or lost across a resize
  (unacknowledged: the command FIFO orders it before the stream's next
  chunk);
* ``CollectStats`` → ``ShardStatsReply`` — snapshot the worker's private
  cache statistics so the parent report can aggregate them;
* ``CaptureState`` → ``StateCaptureReply`` — *non-destructive* capture of
  every stream's detector state plus the shard's cache contents, for
  service snapshots (warm restarts);
* ``SeedCaches`` — warm a shard's private caches from restored snapshot
  contents (fire and forget);
* ``WorkerFailure`` — a worker-side error that is *not* tied to a single
  alarm (those ride inside ``AlarmRecord.error``);
* ``CrashShard`` — test hook: hard-kills the worker so fault handling can
  be exercised deterministically;
* ``Shutdown`` — clean exit.

Because each shard's command queue and reply pipe are FIFO, a
``MigrateOut`` enqueued after a stream's last chunk is processed strictly
after it — the migration machinery leans on that ordering instead of extra
round trips.

Frames
------
The per-chunk messages above are the *logical* protocol but not the
physical one: the parent packs up to
:data:`~repro.cluster.sharding.FRAME_CHUNKS` (32) pending
:class:`IngestChunk`\\ s into one :class:`IngestFrame` (a single pickle
pass for the whole batch, arrays included) and the worker answers each
frame with one :class:`ReplyFrame` carrying the corresponding
:class:`IngestReply`/:class:`WorkerFailure` entries.  Every non-ingest
command travels unframed, *after* the pending frame is flushed, so the
FIFO ordering contract above survives framing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


# ----------------------------------------------------------------------
# Commands: parent -> worker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegisterStream:
    """Add a stream to the shard's table (config as a ``to_dict`` snapshot)."""

    stream_id: str
    config: dict


@dataclass(frozen=True)
class RemoveStream:
    """Drop a stream (and its detector state) from the shard's table."""

    stream_id: str


@dataclass(frozen=True)
class IngestChunk:
    """One chunk of observations for one stream, tagged for acknowledgement.

    ``enqueued_at`` is a ``time.monotonic()`` stamp taken when the parent
    enqueued the chunk; monotonic clocks are system-wide on Linux, so the
    worker subtracts it from its own clock to observe the ``batch_wait``
    (queue residency) of the chunk.  ``None`` when neither metrics nor
    tracing is enabled.

    ``trace`` is the chunk's :class:`~repro.obs.trace.TraceContext` when
    tracing is enabled: the worker tags its span dicts with it so the
    parent can re-parent them under the chunk's ``wire_roundtrip`` span.
    """

    seq: int
    stream_id: str
    values: np.ndarray
    enqueued_at: Optional[float] = None
    trace: Optional[object] = None


@dataclass(frozen=True)
class MigrateOut:
    """Extract streams (config + detector state) for a live migration.

    Delivered on the shard's *priority control lane*, which the worker
    polls ahead of (and between chunks of) its command queue, so the
    extraction never waits out the ingest backlog.  On receipt the worker
    sweeps its queued commands into a local backlog, answers every swept
    chunk belonging to a migrating stream with a :class:`ChunkBounce`
    (the parent replays those on the new owner, in seq order, ahead of
    anything parked later), then extracts each named stream and replies
    with a :class:`MigrateStreamDone` per stream the moment its state is
    snapshotted; nothing else answers the request.  A stream the worker
    does not know (e.g. because it respawned after the ring was already
    updated) answers with a ``None`` payload; the parent registers it
    fresh on the destination and records the state loss.
    """

    epoch: int
    stream_ids: tuple[str, ...]


@dataclass(frozen=True)
class MigrateIn:
    """Install migrated streams on their new shard.

    ``streams`` maps ``stream_id -> {"config": dict, "state": dict | None}``;
    a ``None`` state means "register fresh" (the source's state was lost).
    Installation is idempotent: a stream the shard already holds (a racing
    snapshot replay) keeps its registration and only loads the state.
    """

    streams: dict


@dataclass(frozen=True)
class CollectStats:
    """Ask the worker for a snapshot of its private cache statistics."""

    epoch: int


@dataclass(frozen=True)
class CaptureState:
    """Non-destructively capture the shard's full serving state.

    Unlike :class:`MigrateOut` the streams stay registered and keep
    serving; the worker replies with a :class:`StateCaptureReply` carrying
    every stream's detector ``state_dict`` (through its backend plugin)
    plus the shard's private cache contents.  This is what
    ``ExplanationService.snapshot()`` collects from a drained fleet.
    """

    epoch: int


@dataclass(frozen=True)
class SeedCaches:
    """Warm the shard's private caches with snapshot-restored contents.

    ``contents`` is a ``SharedCaches.snapshot_contents()`` payload.  Fire
    and forget: seeding is a performance courtesy, not a correctness
    requirement (a cold cache recomputes identical results), so no reply
    is defined and a failure surfaces as an ordinary WorkerFailure.
    """

    contents: dict


@dataclass(frozen=True)
class CrashShard:
    """Test hook: make the worker die immediately via ``os._exit``."""

    exit_code: int = 17


@dataclass(frozen=True)
class Shutdown:
    """Clean worker exit."""


# ----------------------------------------------------------------------
# Replies: worker -> parent
# ----------------------------------------------------------------------
@dataclass
class WorkerReady:
    """First reply a worker sends: its runtime is built and serving.

    Interpreter boot (imports, cache construction) dominates a fresh
    shard's first second of life; commands queued during it just wait.
    The parent tracks these markers so ``wait_ready()`` can give
    benchmarks and operators a deterministic warm-fleet barrier instead
    of a sleep.
    """

    shard_id: str


@dataclass
class AlarmRecord:
    """One alarm a shard raised and resolved, ready for the service report."""

    stream_id: str
    position: int
    result: object
    explanation: Optional[object] = None
    error: Optional[str] = None
    from_cache: bool = False


@dataclass
class IngestReply:
    """Acknowledgement of one :class:`IngestChunk` with everything it produced.

    ``spans`` carries the worker-side trace spans of the chunk
    (:func:`repro.obs.trace.span_dict` payloads: ``batch_wait``,
    ``detect``, ``explain``) when the chunk arrived with a trace context;
    the parent re-parents them under its ``wire_roundtrip`` span so the
    chunk's timeline is complete across the process boundary.
    """

    seq: int
    stream_id: str
    alarms: list[AlarmRecord] = field(default_factory=list)
    observations: int = 0
    tests_run_delta: int = 0
    alarms_raised_delta: int = 0
    spans: list = field(default_factory=list)


@dataclass
class MigrateStreamDone:
    """One stream's extracted state, shipped the moment it leaves the source.

    ``state`` is the ``{"config": dict, "state": dict}`` payload a
    :class:`MigrateIn` installs, or ``None`` when the worker did not hold
    the stream (respawn raced the ring update) or its export failed — the
    parent then registers the stream fresh and records the state loss.
    Streaming these per stream is what lets the parent release each stream
    after its *own* extract→install hop instead of the whole epoch's.
    ``epoch`` names the migration it answers, so a late reply to an
    earlier move of the same stream is ignored.
    """

    shard_id: str
    epoch: int
    stream_id: str
    state: Optional[dict] = None


@dataclass
class ChunkBounce:
    """A chunk returned unserved because its stream just migrated out.

    Sent for every queued chunk of a migrating stream that a
    :class:`MigrateOut` swept past (and for any straggler that reaches
    the source after the extraction): the source no longer holds the
    stream, and serving the chunk there would race the state that already
    shipped.  The parent re-parks the chunk and replays it on the new
    owner strictly behind the stream's install — bounced seqs all precede
    the parent-parked ones, so a seq-ordered replay reconstructs the
    producer's exact submission order and nothing is lost or re-served.
    ``values`` is the chunk's payload, so the parent can replay it.
    """

    shard_id: str
    seq: int
    stream_id: str
    values: object = None


@dataclass
class ShardStatsReply:
    """One worker's private cache statistics and metrics snapshot.

    ``cache_stats`` is a ``SharedCaches.stats_dict()`` payload; ``metrics``
    is a ``MetricsRegistry.state_dict()`` payload (empty when the worker
    runs with metrics disabled) that the parent merges into its own
    registry — fixed-bucket histograms merge exactly, so per-shard stage
    latencies combine into fleet-wide quantiles.
    """

    shard_id: str
    epoch: int
    cache_stats: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)


@dataclass
class StateCaptureReply:
    """One shard's full serving state for a service snapshot.

    ``streams`` maps ``stream_id -> {"config": dict, "state": dict}`` for
    every stream the shard holds; ``cache_contents`` is the shard's
    ``SharedCaches.snapshot_contents()`` payload.
    """

    shard_id: str
    epoch: int
    streams: dict = field(default_factory=dict)
    cache_contents: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Frames: many chunks per message
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestFrame:
    """A batch of chunks crossing the wire as one message (one pickle pass)."""

    chunks: tuple[IngestChunk, ...]


@dataclass
class ReplyFrame:
    """The worker's answers to one :class:`IngestFrame`, as one message.

    ``replies`` holds one entry per frame chunk, in frame order: an
    :class:`IngestReply` for a served chunk, a :class:`ChunkBounce` for a
    chunk of a stream that migrated out, or a :class:`WorkerFailure`
    (with ``seq`` set) for a chunk that failed to process — per-chunk
    error isolation survives batching.
    """

    replies: list = field(default_factory=list)


def encode_frame(chunks: list[IngestChunk]) -> IngestFrame:
    """Pack pending chunks, arrays and all, into one frame."""
    return IngestFrame(chunks=tuple(chunks))


@dataclass
class WorkerFailure:
    """A worker-side failure not attributable to a single alarm.

    When ``seq`` is set, the failure consumed that chunk (the parent must
    still mark it acknowledged so ``drain()`` does not hang).  ``command``
    names the wire command that failed, so the parent can release any
    rendezvous (a migration source, a stats collection) that was waiting
    on the reply this failure replaced.
    """

    shard_id: str
    message: str
    seq: Optional[int] = None
    command: Optional[str] = None
