"""Tests for :mod:`repro.cluster.inflight`, the shard executor's ledger.

A hypothesis state machine drives the ledger alone — no process, thread or
sleep — through every event a chunk can meet between admission and
resolution and every event a moving stream can meet between its
``MigrateOut`` and its release, including events that arrive late (after
a resolution, a release, or for an earlier epoch).  After every step it
checks the exactly-once, bound, replay-order and install-readiness
guarantees against a plain model.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import repro.cluster.inflight as inflight
from repro.cluster.inflight import InFlightLedger

CAPACITY = 6
PARKED_LIMIT = 3
STREAMS = ("a", "b", "c")
SHARDS = ("shard-0", "shard-1")
EPOCHS = (1, 2)
#: The model's marker for a move whose state has not arrived.
WAITING = "waiting"


class LedgerMachine(RuleBasedStateMachine):
    """The ledger against a model: where each unresolved seq is, how each
    resolved one ended, and what each moving stream waits for."""

    def __init__(self) -> None:
        super().__init__()
        self.ledger = InFlightLedger(CAPACITY, PARKED_LIMIT)
        self.records = {}  # seq -> the record admit returned
        self.values = {}  # seq -> the payload a replay must carry
        self.owner = {}  # unresolved seq -> shard id, or None while parked
        self.claimed = set()
        self.bounced_parked = set()  # parked seqs a source swept back
        self.outcome = {}  # resolved seq -> "served" | "failed" | "lost"
        # stream id -> {"record", "epoch", "source", "generation", "payload",
        # "expired"}: the unreleased moves.
        self.moves = {}
        self.released_moves = []  # the move records released so far
        self.bounces = 0
        self.closed = False

    # -- helpers ---------------------------------------------------------
    def _admit(self, stream_id: str, shard_id: str) -> None:
        parks = stream_id in self.moves
        parked = sum(owner is None for owner in self.owner.values())
        room = len(self.owner) < CAPACITY and (not parks or parked < PARKED_LIMIT)
        assert self.ledger.has_room(stream_id) == room
        if not room:
            return
        values, completion, trace = object(), object(), object()
        record = self.ledger.admit(stream_id, shard_id, values, completion, trace, 1.0)
        assert record.seq not in self.records
        assert (record.completion, record.trace) == (completion, trace)
        self.records[record.seq] = record
        self.values[record.seq] = values
        self.owner[record.seq] = None if parks else shard_id
        assert record.owner == self.owner[record.seq]

    def _routed(self, seq: int) -> bool:
        return self.owner.get(seq) is not None and seq not in self.claimed

    def _resolved(self, records, outcome: str) -> None:
        for record in records:
            assert record is self.records[record.seq]
            assert record.seq not in self.outcome, "a seq resolved twice"
            self.outcome[record.seq] = outcome
            del self.owner[record.seq]
            self.claimed.discard(record.seq)
            self.bounced_parked.discard(record.seq)

    def _any_seq(self, data) -> int:
        # Resolved seqs stay drawable: their events arrive late.
        return data.draw(st.sampled_from(sorted(self.records)), label="seq")

    def _routed_to(self, stream_id: str, shard_id: str) -> bool:
        return any(
            owner == shard_id and self.records[seq].stream_id == stream_id
            for seq, owner in self.owner.items()
        )

    def _installable(self, stream_id: str) -> bool:
        move = self.moves[stream_id]
        return move["payload"] is not WAITING and (
            move["expired"] or not self._routed_to(stream_id, move["source"])
        )

    # -- admission -------------------------------------------------------
    @precondition(lambda self: not self.closed and set(STREAMS) - set(self.moves))
    @rule(data=st.data(), shard_id=st.sampled_from(SHARDS))
    def admit(self, data, shard_id):
        stream_id = data.draw(st.sampled_from(sorted(set(STREAMS) - set(self.moves))))
        self._admit(stream_id, shard_id)

    @precondition(lambda self: not self.closed and self.moves)
    @rule(data=st.data(), shard_id=st.sampled_from(SHARDS))
    def park(self, data, shard_id):
        self._admit(data.draw(st.sampled_from(sorted(self.moves))), shard_id)

    # -- worker events ---------------------------------------------------
    @precondition(lambda self: self.records)
    @rule(data=st.data())
    def claim(self, data):
        seq = self._any_seq(data)
        expected = self._routed(seq)
        record = self.ledger.claim(seq)
        assert (record is not None) == expected
        if expected:
            assert record is self.records[seq]
            self.claimed.add(seq)

    @precondition(lambda self: self.records)
    @rule(data=st.data())
    def serve(self, data):
        seq = self._any_seq(data)
        expected = seq in self.claimed
        record = self.ledger.serve(seq)
        assert (record is not None) == expected
        if expected:
            self._resolved([record], "served")

    @precondition(lambda self: self.records)
    @rule(data=st.data())
    def fail(self, data):
        seq = self._any_seq(data)
        expected = self._routed(seq)
        record = self.ledger.fail(seq)
        assert (record is not None) == expected
        if expected:
            self._resolved([record], "failed")

    @precondition(lambda self: self.records)
    @rule(data=st.data())
    def bounce(self, data):
        seq = self._any_seq(data)
        routed = self._routed(seq)
        values = object()
        lost = self.ledger.bounce(seq, values)
        if routed and self.records[seq].stream_id in self.moves:
            assert lost is None
            self.owner[seq] = None
            self.values[seq] = values
            self.bounced_parked.add(seq)
            self.bounces += 1
        elif routed:
            assert lost is self.records[seq]
            self._resolved([lost], "lost")
        else:
            assert lost is None

    @rule(shard_id=st.sampled_from(SHARDS))
    def write_off(self, shard_id):
        expected = {
            seq
            for seq, owner in self.owner.items()
            if owner == shard_id and seq not in self.claimed
        }
        lost = self.ledger.write_off(shard_id)
        assert {record.seq for record in lost} == expected
        self._resolved(lost, "lost")

    # -- migration -------------------------------------------------------
    @precondition(lambda self: not self.closed and set(STREAMS) - set(self.moves))
    @rule(
        data=st.data(),
        epoch=st.sampled_from(EPOCHS),
        source=st.sampled_from(SHARDS),
    )
    def begin_move(self, data, epoch, source):
        stream_id = data.draw(st.sampled_from(sorted(set(STREAMS) - set(self.moves))))
        config, generation = object(), object()
        move = self.ledger.begin_move(stream_id, epoch, config, source, generation, 3.0)
        assert (move.stream_id, move.epoch, move.config, move.started) == (
            stream_id,
            epoch,
            config,
            3.0,
        )
        self.moves[stream_id] = {
            "record": move,
            "epoch": epoch,
            "source": source,
            "generation": generation,
            "payload": WAITING,
            "expired": False,
        }

    @rule(
        stream_id=st.sampled_from(STREAMS),
        epoch=st.sampled_from(EPOCHS),
        real=st.booleans(),
    )
    def arrive(self, stream_id, epoch, real):
        # Any stream and epoch: a stale epoch, a released or never-moved
        # stream, and an arrival after a give-up are all drawn.
        payload = {"state": object()} if real else None
        move = self.moves.get(stream_id)
        counts = move is not None and move["epoch"] == epoch
        assert self.ledger.arrive(epoch, stream_id, payload) == counts
        if counts:
            # A real state replaces a given-up fallback until release.
            move["payload"] = payload

    @rule(source=st.sampled_from(SHARDS))
    def give_up(self, source):
        self.ledger.give_up(source)
        for move in self.moves.values():
            if move["source"] == source and move["payload"] is WAITING:
                move["payload"] = None

    @rule(epoch=st.sampled_from(EPOCHS))
    def expire(self, epoch):
        self.ledger.expire(epoch)
        for move in self.moves.values():
            if move["epoch"] == epoch:
                move["expired"] = True
                if move["payload"] is WAITING:
                    move["payload"] = None

    @rule(
        stream_id=st.sampled_from(STREAMS),
        dest=st.one_of(st.none(), st.sampled_from(SHARDS)),
    )
    def release(self, stream_id, dest):
        parked = sorted(
            seq
            for seq, owner in self.owner.items()
            if owner is None and self.records[seq].stream_id == stream_id
        )
        move, released = self.ledger.release_stream(stream_id, dest, 2.0)
        model = self.moves.pop(stream_id, None)
        if model is None:
            # Never moved, already released, or dropped by close: at most
            # one release per move, and nothing was parked.
            assert (move, released, parked) == (None, [], [])
            return
        assert move is model["record"]
        assert move not in self.released_moves, "a move released twice"
        self.released_moves.append(move)
        # Exactly its parked seqs, in ascending order, with their payloads.
        assert [record.seq for record, _ in released] == parked
        for record, values in released:
            assert values is self.values[record.seq]
        if dest is None:
            self._resolved([record for record, _ in released], "lost")
            return
        for record, _ in released:
            assert (record.owner, record.started) == (dest, 2.0)
            self.owner[record.seq] = dest
            self.bounced_parked.discard(record.seq)

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self):
        lost = self.ledger.close()
        assert {record.seq for record in lost} == set(self.owner)
        self._resolved(lost, "lost")
        self.moves.clear()
        self.closed = True
        assert set(self.outcome) == set(self.records), "close left a seq unresolved"
        assert not any(self.ledger.moves(epoch) for epoch in EPOCHS), "close left a move"

    # -- invariants ------------------------------------------------------
    @invariant()
    def bounds_hold(self):
        assert self.ledger.outstanding == len(self.owner) <= CAPACITY
        parked = {seq for seq, owner in self.owner.items() if owner is None}
        assert self.ledger.parked == len(parked)
        # The buffer bounds what producers park; a bounced chunk was
        # admitted before its stream began migrating and re-parks anyway.
        assert len(parked - self.bounced_parked) <= PARKED_LIMIT

    @invariant()
    def counters_match_resolutions(self):
        lost = sum(outcome == "lost" for outcome in self.outcome.values())
        assert self.ledger.lost == lost
        assert self.ledger.bounced == self.bounces
        assert self.ledger.ingests == len(self.records)

    @invariant()
    def holds_exactly_the_routed_streams(self):
        for stream_id, shard_id in itertools.product(STREAMS, SHARDS):
            assert self.ledger.holds(stream_id, shard_id) == self._routed_to(stream_id, shard_id)
        for stream_id in STREAMS:
            assert self.ledger.is_migrating(stream_id) == (stream_id in self.moves)

    @invariant()
    def moves_match_the_model(self):
        for epoch in EPOCHS:
            expected = sorted(s for s, move in self.moves.items() if move["epoch"] == epoch)
            moves = self.ledger.moves(epoch)
            assert [move.stream_id for move in moves] == expected
            for move in moves:
                model = self.moves[move.stream_id]
                assert move is model["record"]
                assert (move.source, move.generation, move.expired) == (
                    model["source"],
                    model["generation"],
                    model["expired"],
                )
                assert move.pending == (model["payload"] is WAITING)
                if not move.pending:
                    assert move.payload is model["payload"]
            # Installable exactly when the state is in hand (arrived or given
            # up) and either the epoch expired or the source holds no chunk
            # of the stream.
            ready = [move.stream_id for move in self.ledger.installable(epoch)]
            assert ready == [s for s in expected if self._installable(s)]


LedgerMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=60, deadline=None
)
TestLedgerStateMachine = LedgerMachine.TestCase


def test_a_reply_claimed_before_a_write_off_is_served():
    ledger = InFlightLedger(capacity=4, parked_limit=2)
    first = ledger.admit("s", "shard-0", values=None)
    second = ledger.admit("s", "shard-0", values=None)
    assert ledger.claim(first.seq) is first
    # The shard dies while the first reply is being folded: the write-off
    # takes only the second chunk, and the first still counts as served.
    assert ledger.write_off("shard-0") == [second]
    assert ledger.serve(first.seq) is first
    # The second chunk's reply, read from the dead shard's pipe, is dropped.
    assert ledger.claim(second.seq) is None
    assert (ledger.outstanding, ledger.lost) == (0, 1)


def test_the_ledger_holds_no_lock_thread_clock_or_process():
    tree = ast.parse(Path(inflight.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert not imported & {"multiprocessing", "threading", "time", "os"}
