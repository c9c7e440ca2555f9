"""The in-flight ledger: every shard-bound chunk and every moving stream.

:class:`~repro.cluster.sharding.ProcessShardExecutor` promises that each
submitted chunk resolves exactly once — served into the report, failed by
its worker, or counted lost — and that a stream moving between shards
replays its chunks in submission order behind its detector state.
:class:`InFlightLedger` holds that promise as plain data: one
:class:`ChunkRecord` per unresolved seq, one :class:`MoveRecord` per
moving stream, the capacity and parked bounds, and the counters the
executor's ``stats()`` reports.  It holds no lock, thread, clock or
process: the executor calls it under its condition lock and performs what
a call hands back (finish the chunk's trace, call its completion, post the
install) outside that lock, and a state machine can drive it without
spawning anything.

The chunk rule: a seq's first resolution is its only one.  A served reply
*claims* its seq before the service folds it and resolves it after the
fold, so a shard write-off in between skips it and ``drain()`` cannot
return mid-fold.  A reply, bounce or failure for a seq that is not routed
to a shard and unclaimed — resolved (written off, closed), parked or
claimed — resolves nothing and is dropped.

The move rule: a moving stream installs on its new owner once its state is
in hand — extracted by its source, or given up for a fresh registration —
and its source holds none of its chunks, so every chunk admitted before
the move is served there or bounced back to park first.  An epoch that
expires (timeout, close) drops the second condition: a chunk stuck on a
hung source can no longer hold its stream, and bounces late as lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(eq=False)
class ChunkRecord:
    """One unresolved chunk.

    ``owner`` is the shard the chunk is routed to, or ``None`` while it is
    parked, when ``values`` keeps its payload for the replay.  The executor's
    ``completion``, ``trace`` (``(ChunkTrace, wire span)``) and ``started``
    (enqueue stamp of the current routing) ride along, opaque here.
    """

    seq: int
    stream_id: str
    owner: Optional[str] = None
    values: object = None
    completion: object = None
    trace: Optional[tuple] = None
    started: Optional[float] = None
    claimed: bool = False


#: A move's payload until its state arrives or its source is given up.
_PENDING = object()


@dataclass(eq=False)
class MoveRecord:
    """One stream moving to a new shard in migration ``epoch``.

    ``config`` is the stream's config snapshot, ``source`` the shard its
    state leaves, and ``generation`` the source process the ``MigrateOut``
    went to (opaque here: the executor compares it to tell a respawned
    source from a live one).  ``payload`` is the extracted state — ``None``
    for a fresh registration — or pending until it arrives or the source is
    given up.  ``started`` is the quiesce stamp, opaque here.
    """

    stream_id: str
    epoch: int
    config: object
    source: Optional[str]
    generation: object
    started: Optional[float]
    payload: object = _PENDING
    expired: bool = False

    @property
    def pending(self) -> bool:
        """Whether the state has neither arrived nor been given up."""
        return self.payload is _PENDING


class InFlightLedger:
    """Every unresolved chunk and moving stream of one executor, and how
    each resolves.

    ``capacity`` bounds unresolved chunks, parked ones included.  A chunk
    submitted to a migrating stream parks only while fewer than
    ``parked_limit`` are parked; one its source bounces back was admitted
    before the migration began, so it re-parks regardless.
    """

    def __init__(self, capacity: int, parked_limit: int) -> None:
        self.capacity = capacity
        self.parked_limit = parked_limit
        self._records: dict[int, ChunkRecord] = {}
        self._moves: dict[str, MoveRecord] = {}
        self._seq = 0
        self.parked = 0
        self.ingests = 0
        self.shard_ingests: dict[str, int] = {}
        self.bounced = 0
        self.lost = 0

    @property
    def outstanding(self) -> int:
        return len(self._records)

    def is_migrating(self, stream_id: str) -> bool:
        return stream_id in self._moves

    def has_room(self, stream_id: str) -> bool:
        """Whether :meth:`admit` may take one more chunk of ``stream_id``."""
        if len(self._records) >= self.capacity:
            return False
        return stream_id not in self._moves or self.parked < self.parked_limit

    def holds(self, stream_id: str, shard_id: Optional[str]) -> bool:
        """Whether an unresolved chunk of ``stream_id`` is routed to ``shard_id``."""
        return shard_id is not None and any(
            record.stream_id == stream_id and record.owner == shard_id
            for record in self._records.values()
        )

    def admit(
        self, stream_id: str, owner: str, values, completion=None, trace=None, started=None
    ) -> ChunkRecord:
        """Give a new chunk its seq, routed to ``owner`` — or parked, while
        its stream migrates.  The caller checked :meth:`has_room`."""
        self._seq += 1
        record = ChunkRecord(self._seq, stream_id, completion=completion, trace=trace)
        self._records[record.seq] = record
        self.ingests += 1
        if stream_id in self._moves:
            self._park(record, values)
        else:
            self._route(record, owner, started)
        return record

    def _route(self, record: ChunkRecord, owner: str, started) -> None:
        record.owner, record.started = owner, started
        self.shard_ingests[owner] = self.shard_ingests.get(owner, 0) + 1

    def _park(self, record: ChunkRecord, values) -> None:
        record.owner, record.values, record.started = None, values, None
        self.parked += 1

    def _resolve(self, record: ChunkRecord, lost: bool) -> ChunkRecord:
        del self._records[record.seq]
        if record.owner is None:
            self.parked -= 1
            record.values = None
        if lost:
            self.lost += 1
        return record

    def _routed(self, seq: int) -> Optional[ChunkRecord]:
        """The record of a seq routed to a shard and not claimed."""
        record = self._records.get(seq)
        if record is None or record.owner is None or record.claimed:
            return None
        return record

    # ------------------------------------------------------------------
    # Worker events
    # ------------------------------------------------------------------
    def claim(self, seq: int) -> Optional[ChunkRecord]:
        """Reserve a routed seq for its served reply (``None``: drop the
        reply); the seq stays unresolved until :meth:`serve`."""
        record = self._routed(seq)
        if record is not None:
            record.claimed = True
        return record

    def serve(self, seq: int) -> Optional[ChunkRecord]:
        """Resolve a claimed seq as served, once its reply is folded."""
        record = self._records.get(seq)
        if record is None or not record.claimed:
            return None
        return self._resolve(record, lost=False)

    def fail(self, seq: int) -> Optional[ChunkRecord]:
        """Resolve a routed seq its worker consumed without serving it."""
        record = self._routed(seq)
        return None if record is None else self._resolve(record, lost=False)

    def bounce(self, seq: int, values) -> Optional[ChunkRecord]:
        """A source swept a routed seq back: re-park it while its stream
        migrates; after that it could only replay out of order, so it
        resolves as lost and is returned."""
        record = self._routed(seq)
        if record is None:
            return None
        if record.stream_id not in self._moves:
            return self._resolve(record, lost=True)
        # It counts against the destination when it replays.
        self.shard_ingests[record.owner] -= 1
        self._park(record, values)
        self.bounced += 1
        return None

    def write_off(self, shard_id: str) -> list[ChunkRecord]:
        """Resolve as lost every unclaimed chunk routed to a dead shard."""
        return [
            self._resolve(record, lost=True)
            for record in list(self._records.values())
            if record.owner == shard_id and not record.claimed
        ]

    # ------------------------------------------------------------------
    # Migration and shutdown
    # ------------------------------------------------------------------
    def begin_move(
        self,
        stream_id: str,
        epoch: int,
        config,
        source: Optional[str],
        generation,
        started: Optional[float] = None,
    ) -> MoveRecord:
        """Open a stream's move: from now on its new chunks park instead of
        routing.  A stream has at most one move, so the caller opens one
        only for a stream that is not migrating."""
        move = MoveRecord(stream_id, epoch, config, source, generation, started)
        self._moves[stream_id] = move
        return move

    def arrive(self, epoch: int, stream_id: str, payload) -> bool:
        """A source shipped a stream's state.  It counts only for the
        stream's current move of the same epoch, and replaces a given-up
        fallback until the move is released."""
        move = self._moves.get(stream_id)
        if move is None or move.epoch != epoch:
            return False
        move.payload = payload
        return True

    def give_up(self, source: str) -> None:
        """A source died, was respawned or failed its ``MigrateOut``: each
        of its moves still waiting for state falls back to a fresh one."""
        for move in self._moves.values():
            if move.source == source and move.pending:
                move.payload = None

    def expire(self, epoch: int) -> None:
        """The epoch timed out or the executor closed: its moves stop
        waiting, for their state and for their source's chunks alike."""
        for move in self.moves(epoch):
            move.expired = True
            if move.pending:
                move.payload = None

    def moves(self, epoch: int) -> list[MoveRecord]:
        """The epoch's unreleased moves, by stream id."""
        return sorted(
            (move for move in self._moves.values() if move.epoch == epoch),
            key=lambda move: move.stream_id,
        )

    def installable(self, epoch: int) -> list[MoveRecord]:
        """The epoch's moves ready to install, by stream id: state in hand
        and, unless the epoch expired, no chunk of the stream still routed
        to its source.  New chunks of a moving stream park, so the source's
        share only shrinks."""
        return [
            move
            for move in self.moves(epoch)
            if not move.pending
            and (move.expired or not self.holds(move.stream_id, move.source))
        ]

    def release_stream(
        self, stream_id: str, dest: Optional[str], started: Optional[float] = None
    ) -> tuple[Optional[MoveRecord], list[tuple[ChunkRecord, object]]]:
        """Retire a stream's move and hand it back with its parked chunks,
        as ``(record, values)`` pairs in seq order — submission order,
        although bounced chunks park after the producer's.  With a
        destination each is routed there, to follow the stream's install;
        without one each resolves as lost.  ``(None, [])`` when the stream
        has no move: a move releases at most once."""
        move = self._moves.pop(stream_id, None)
        if move is None:
            return None, []
        parked = sorted(
            (r for r in self._records.values() if r.stream_id == stream_id and r.owner is None),
            key=lambda record: record.seq,
        )
        released = []
        for record in parked:
            released.append((record, record.values))
            if dest is None:
                self._resolve(record, lost=True)
            else:
                self.parked -= 1
                record.values = None
                self._route(record, dest, started)
        return move, released

    def close(self) -> list[ChunkRecord]:
        """Drop every move and resolve every unresolved chunk as lost:
        nothing will serve it."""
        self._moves.clear()
        return [self._resolve(record, lost=True) for record in list(self._records.values())]

    def stats(self) -> dict:
        return {
            "ingests": self.ingests,
            "shard_ingests": dict(self.shard_ingests),
            "outstanding": len(self._records),
            "parked_chunks": self.parked,
            "bounced_chunks": self.bounced,
            "lost_chunks": self.lost,
        }
