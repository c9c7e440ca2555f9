"""Elastic shard rebalancing: state migration, invariants and autoscaling.

Covers the rebalance invariants the resize machinery must hold:

* detector ``state_dict``/``load_state_dict`` round-trips resume a stream
  exactly where it left off (property-tested per detector flavour);
* a ``resize(N -> N±1)`` moves only ~1/N of the streams (the consistent
  hash ring's guarantee, observed end to end through the executor);
* no observation is lost or double-processed across a live migration, and
  the executor backends stay report-parity through a resize;
* crashed-shard handling records the data loss (``restarts`` /
  ``state_lost``) instead of hiding it, and a shard past its restart
  budget is retired with its streams redistributed to survivors;
* worker-side cache statistics are merged into the parent report;
* the queue-depth autoscaler policy scales between its bounds with
  hysteresis and cooldown.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Autoscaler, HashRing, QueueDepthPolicy
from repro.cluster.sharding import ProcessShardExecutor
from repro.cluster.wire import MigrateOut, WorkerFailure
from repro.datasets.synthetic import drifting_series
from repro.drift.detector import IncrementalKSDetector, KSDriftDetector
from repro.exceptions import ServiceBackendError, ValidationError
from repro.multidim.detector import KS2DDriftDetector
from repro.service import ExplanationService, StreamConfig

STREAM_IDS = ("a", "b", "c", "d", "e", "f")


@pytest.fixture(scope="module")
def drifted_values() -> np.ndarray:
    values, _ = drifting_series(length=1200, drift_start=600, drift_magnitude=3.0, seed=5)
    return values


def replay(
    executor: str,
    values: np.ndarray,
    resize_at: dict[int, int] | None = None,
    chunk: int = 100,
    **kwargs,
):
    """Interleaved fleet replay with optional mid-replay resizes."""
    with ExplanationService(
        executor=executor,
        default_config=StreamConfig(window_size=150),
        **kwargs,
    ) as service:
        for stream_id in STREAM_IDS:
            service.register(stream_id)
        for index, start in enumerate(range(0, values.size, chunk)):
            if resize_at and index in resize_at:
                service.resize(resize_at[index])
            for stream_id in STREAM_IDS:
                service.submit(stream_id, values[start:start + chunk])
        return service.report()


# ----------------------------------------------------------------------
# Detector state round-trips
# ----------------------------------------------------------------------
finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestDetectorStateRoundTrip:
    """After any prefix, snapshot+restore must not change future behaviour."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=60), st.data())
    def test_windowed_detector(self, values, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(values)))
        original = KSDriftDetector(window_size=8, alpha=0.2)
        for value in values[:cut]:
            original.update(value)
        restored = KSDriftDetector(window_size=8, alpha=0.2)
        restored.load_state_dict(original.state_dict())
        tail = values[cut:]
        alarms_a = [a.position for v in tail if (a := original.update(v)) is not None]
        alarms_b = [a.position for v in tail if (a := restored.update(v)) is not None]
        assert alarms_a == alarms_b
        assert original.tests_run == restored.tests_run
        assert original.observations_seen == restored.observations_seen

    @settings(max_examples=25, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=60), st.data())
    def test_incremental_detector(self, values, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(values)))
        original = IncrementalKSDetector(window_size=8, alpha=0.2, stride=2)
        for value in values[:cut]:
            original.update(value)
        restored = IncrementalKSDetector(window_size=8, alpha=0.2, stride=2)
        restored.load_state_dict(original.state_dict())
        tail = values[cut:]
        alarms_a = [a.position for v in tail if (a := original.update(v)) is not None]
        alarms_b = [a.position for v in tail if (a := restored.update(v)) is not None]
        assert alarms_a == alarms_b
        assert original.tests_run == restored.tests_run

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=40),
        st.data(),
    )
    def test_ks2d_detector(self, points, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(points)))
        original = KS2DDriftDetector(window_size=5, alpha=0.2)
        for point in points[:cut]:
            original.update(point)
        restored = KS2DDriftDetector(window_size=5, alpha=0.2)
        restored.load_state_dict(original.state_dict())
        tail = points[cut:]
        alarms_a = [a.position for p in tail if (a := original.update(p)) is not None]
        alarms_b = [a.position for p in tail if (a := restored.update(p)) is not None]
        assert alarms_a == alarms_b
        assert original.tests_run == restored.tests_run

    def test_kind_mismatch_rejected(self):
        windowed = KSDriftDetector(window_size=8)
        incremental = IncrementalKSDetector(window_size=8)
        with pytest.raises(ValidationError):
            incremental.load_state_dict(windowed.state_dict())
        with pytest.raises(ValidationError):
            KS2DDriftDetector(window_size=8).load_state_dict(windowed.state_dict())

    def test_state_dicts_are_json_serialisable(self):
        detector = KSDriftDetector(window_size=4)
        for value in (0.0, 1.0, 2.0, 3.0, 4.0):
            detector.update(value)
        assert json.loads(json.dumps(detector.state_dict())) == detector.state_dict()


# ----------------------------------------------------------------------
# Ring movement bound
# ----------------------------------------------------------------------
class TestMovedFractionBound:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_adding_a_shard_moves_a_bounded_fraction(self, shards):
        keys = [f"stream-{i}" for i in range(400)]
        ring = HashRing([f"shard-{i}" for i in range(shards)])
        before = {key: ring.shard_for(key) for key in keys}
        ring.add(f"shard-{shards}")
        moved = sum(ring.shard_for(key) != before[key] for key in keys)
        expected = len(keys) / (shards + 1)
        assert 0 < moved <= 2.5 * expected
        # Every moved key lands on the newcomer: nothing shuffles between
        # surviving shards.
        for key in keys:
            if ring.shard_for(key) != before[key]:
                assert ring.shard_for(key) == f"shard-{shards}"


# ----------------------------------------------------------------------
# Live migration invariants (process executor)
# ----------------------------------------------------------------------
class TestLiveResize:
    def test_resize_parity_and_no_loss(self, drifted_values):
        """A 2->3->2 mid-replay resize changes nothing observable."""
        inline = replay("inline", drifted_values)
        assert inline.alarms_raised > 0
        elastic = replay(
            "process", drifted_values, shards=2, resize_at={4: 3, 8: 2}
        )
        assert json.dumps(elastic.canonical_dict(), sort_keys=True) == json.dumps(
            inline.canonical_dict(), sort_keys=True
        )
        # Migrated cleanly: nothing lost, nothing double-processed.
        stats = elastic.executor_stats
        assert stats["resizes"] == 2
        assert stats["migrated_streams"] >= 1
        assert stats["lost_chunks"] == 0
        assert elastic.state_lost == [] and elastic.restarts == 0
        for stream in elastic.streams:
            assert stream.observations == drifted_values.size

    def test_resize_moves_only_the_rings_share_of_streams(self, drifted_values):
        with ExplanationService(
            executor="process", shards=2, default_config=StreamConfig(window_size=150)
        ) as service:
            ids = [f"s-{i:02d}" for i in range(20)]
            for stream_id in ids:
                service.register(stream_id)
            executor = service.executor
            before = {stream_id: executor.shard_of(stream_id) for stream_id in ids}
            assert service.resize(3) == 3
            after = {stream_id: executor.shard_of(stream_id) for stream_id in ids}
            moved = [stream_id for stream_id in ids if after[stream_id] != before[stream_id]]
            # ~1/3 expected to move onto the newcomer; bound with slack.
            assert len(moved) <= 2.5 * len(ids) / 3
            assert all(after[stream_id] == "shard-2" for stream_id in moved)
            # The migrated streams still serve and alarm after the move.
            victim = moved[0] if moved else ids[0]
            service.submit(victim, drifted_values)
            report = service.report()
        by_id = {stream.stream_id: stream for stream in report.streams}
        assert by_id[victim].alarms_raised >= 1
        assert by_id[victim].explained == by_id[victim].alarms_raised

    def test_resize_under_concurrent_submission_loses_nothing(self, drifted_values):
        with ExplanationService(
            executor="process", shards=2, default_config=StreamConfig(window_size=150)
        ) as service:
            for stream_id in STREAM_IDS:
                service.register(stream_id)
            errors: list[Exception] = []

            def producer():
                try:
                    for start in range(0, drifted_values.size, 60):
                        for stream_id in STREAM_IDS:
                            service.submit(stream_id, drifted_values[start:start + 60])
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            thread = threading.Thread(target=producer, daemon=True)
            thread.start()
            service.resize(3)
            service.resize(2)
            thread.join(timeout=240)
            assert not thread.is_alive()
            report = service.report()
        assert errors == []
        assert report.executor_stats["lost_chunks"] == 0
        for stream in report.streams:
            assert stream.observations == drifted_values.size

    def test_worker_failure_releases_the_migration_rendezvous(self):
        """A failed MigrateOut must unblock resize(), not hang it.

        The worker survives command failures by replying WorkerFailure
        instead of the streams' MigrateStreamDone; the parent must give the
        source up (state lost, fresh fallback) or a deadline-less resize()
        would wait forever on a live worker.
        """
        executor = ProcessShardExecutor(shards=1)  # unbound: no processes
        ledger = executor._ledger
        for stream_id in ("a", "b"):
            ledger.begin_move(stream_id, 7, config={}, source="shard-0", generation=object())
        executor._stats_collections[8] = {"expected": {"shard-0": object()}, "replies": {}}
        # An unrelated failure (say, RemoveStream) touches neither rendezvous.
        executor._handle_reply(
            WorkerFailure("shard-0", "RemoveStream failed", command="RemoveStream")
        )
        assert ledger.installable(7) == []
        assert "shard-0" in executor._stats_collections[8]["expected"]
        executor._handle_reply(
            WorkerFailure("shard-0", "MigrateOut failed: boom", command="MigrateOut")
        )
        installable = ledger.installable(7)
        assert [(move.stream_id, move.payload) for move in installable] == [
            ("a", None),
            ("b", None),
        ]
        assert executor._stats_collections[8]["expected"] == {}
        with pytest.raises(ServiceBackendError):
            executor._raise_deferred()

    def test_resize_validation(self):
        with ExplanationService(executor="process", shards=1) as service:
            with pytest.raises(ValidationError):
                service.resize(0)
            assert service.resize(1) == 1  # no-op
        with pytest.raises(ValidationError):
            service.executor.resize(2)  # closed

    def test_inline_resize_is_parity_neutral(self, drifted_values):
        baseline = replay("inline", drifted_values)
        resized = replay("inline", drifted_values, resize_at={4: 3, 8: 2})
        assert json.dumps(resized.canonical_dict(), sort_keys=True) == json.dumps(
            baseline.canonical_dict(), sort_keys=True
        )

    def test_backlogged_resize_bounces_chunks_without_loss(self, drifted_values):
        """A resize posted behind queued ingest sweeps chunks back.

        The priority lane overtakes the source's backlog, so chunks already
        queued for migrating streams come back as bounces and replay on the
        new owner — counted, and never lost.  The shards are stopped while
        the backlog and the ``MigrateOut`` are posted, so the backlog is
        certainly still queued when the worker, resumed, polls its control
        lane before serving any chunk.
        """
        with ExplanationService(
            executor="process", shards=2, default_config=StreamConfig(window_size=150)
        ) as service:
            for stream_id in STREAM_IDS:
                service.register(stream_id)
            assert service.wait_ready(timeout=120)
            executor = service.executor
            shards = [executor._shards[shard_id] for shard_id in sorted(executor._shards)]
            grown = HashRing([*sorted(executor._shards), "shard-2"], executor._ring.replicas)
            sources = {
                executor.shard_of(stream_id)
                for stream_id in STREAM_IDS
                if grown.shard_for(stream_id) != executor.shard_of(stream_id)
            }
            assert sources, "the grow must move some stream"
            resized: list[int] = []
            resizer = threading.Thread(target=lambda: resized.append(service.resize(3)))
            for shard in shards:
                os.kill(shard.process.pid, signal.SIGSTOP)
            try:
                # A deep backlog on both shards, then a grow: the MigrateOut
                # must overtake all of it.
                for start in range(0, 600, 60):
                    for stream_id in STREAM_IDS:
                        service.submit(stream_id, drifted_values[start:start + 60])
                resizer.start()
                # Queue.empty() polls the pipe: False once the MigrateOut
                # has been written to the source's control lane.
                for shard_id in sources:
                    control = executor._shards[shard_id].control
                    while control.empty() and resizer.is_alive():
                        resizer.join(timeout=0.01)
            finally:
                for shard in shards:
                    os.kill(shard.process.pid, signal.SIGCONT)
            resizer.join(timeout=120)
            assert resized == [3]
            service.drain()
            stats = service.stats()
            report = service.report()
        assert stats["bounced_chunks"] >= 1
        assert stats["lost_chunks"] == 0
        assert report.state_lost == []
        for stream in report.streams:
            assert stream.observations == 600


# ----------------------------------------------------------------------
# Concurrent producers vs live migration (property-based)
# ----------------------------------------------------------------------
class TestConcurrentMigrationProperty:
    """Producers racing a resize must never perturb the canonical report."""

    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_concurrent_producers_mid_resize_parity(self, drifted_values, data):
        chunk = data.draw(st.integers(min_value=40, max_value=90))
        values = drifted_values[:480]
        rounds = list(range(0, values.size, chunk))
        resize_round = data.draw(
            st.integers(min_value=1, max_value=max(1, len(rounds) - 2))
        )

        baseline = replay("inline", values, chunk=chunk)

        with ExplanationService(
            executor="process",
            shards=2,
            default_config=StreamConfig(window_size=150),
        ) as service:
            for stream_id in STREAM_IDS:
                service.register(stream_id)
            assert service.wait_ready(timeout=120)
            # Two producers with disjoint stream sets (per-stream order is
            # each producer's own), plus this thread resizing: the barrier
            # lines everyone up so the grow overlaps live submission.
            barrier = threading.Barrier(3)
            errors: list[Exception] = []

            def producer(streams):
                try:
                    for index, start in enumerate(rounds):
                        if index == resize_round:
                            barrier.wait(timeout=120)
                        for stream_id in streams:
                            service.submit(stream_id, values[start:start + chunk])
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=producer, args=(STREAM_IDS[:3],), daemon=True),
                threading.Thread(target=producer, args=(STREAM_IDS[3:],), daemon=True),
            ]
            for thread in threads:
                thread.start()
            barrier.wait(timeout=120)
            service.resize(3)
            for thread in threads:
                thread.join(timeout=240)
                assert not thread.is_alive()
            report = service.report()
        assert errors == []
        assert report.executor_stats["lost_chunks"] == 0
        assert report.state_lost == []
        assert json.dumps(report.canonical_dict(), sort_keys=True) == json.dumps(
            baseline.canonical_dict(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Fault visibility: respawn loss markers and retirement
# ----------------------------------------------------------------------
class TestFaultVisibility:
    def test_respawn_records_state_loss_in_report(self, drifted_values):
        with ExplanationService(
            executor="process", shards=2, default_config=StreamConfig(window_size=150)
        ) as service:
            service.register("a")
            service.register("b")
            executor = service.executor
            # Feed half a window so there is mid-window state to lose.
            service.submit("a", drifted_values[:80])
            service.drain()
            executor.crash_shard(executor.shard_of("a"))
            service.submit("a", drifted_values)
            report = service.report()
        assert report.restarts >= 1
        assert "a" in report.state_lost
        payload = report.to_dict()
        assert payload["faults"]["restarts"] >= 1
        assert "a" in payload["faults"]["state_lost"]
        assert "detector state lost" in report.render(alarms=False)

    def test_sigkill_of_source_mid_migration_loses_only_its_streams(
        self, drifted_values
    ):
        """SIGKILL a source while its extraction is in flight.

        Only the dead shard's unextracted streams may land in
        ``state_lost``; streams migrating off surviving sources keep their
        state, and the service keeps serving everything afterwards.
        """
        executor = ProcessShardExecutor(shards=2)
        with ExplanationService(
            executor=executor, default_config=StreamConfig(window_size=150)
        ) as service:
            ids = [f"m-{i:02d}" for i in range(12)]
            for stream_id in ids:
                service.register(stream_id)
            for stream_id in ids:
                service.submit(stream_id, drifted_values[:200])
            service.drain()
            assert executor.wait_ready(timeout=120)
            before = {stream_id: executor.shard_of(stream_id) for stream_id in ids}
            victim = "shard-0"

            original = executor._post_priority

            def kill_then_post(shard, command):
                # The parent has already built the migration epoch; the
                # source dies the instant its MigrateOut ships, i.e. with
                # every one of its streams still unextracted.
                if shard.shard_id == victim and isinstance(command, MigrateOut):
                    shard.process.kill()
                    shard.process.join(timeout=60)
                original(shard, command)

            executor._post_priority = kill_then_post
            try:
                assert executor.resize(3, timeout=120) == 3
            finally:
                executor._post_priority = original
            lost = set(service.report().state_lost)
            # The dead source could not hand anything over; everyone else did.
            assert lost
            assert all(before[stream_id] == victim for stream_id in lost)
            # The fleet keeps serving, dead shard's streams included.
            for stream_id in ids:
                service.submit(stream_id, drifted_values[:120])
            report = service.report()
        assert {stream.stream_id for stream in report.streams} == set(ids)
        assert report.executor_stats["lost_chunks"] == 0

    def test_dead_victim_after_an_expired_shrink_loses_its_chunks(self, drifted_values):
        """A shrink victim that dies after its migration gave up strands nothing.

        The victim is stopped with one chunk routed to each of its streams,
        so the shrink's pipeline expires and installs those streams fresh on
        the survivor; the victim is killed only once the pipeline has
        returned, when it has left the shard table the reap walks.  Its
        chunks must still resolve, as lost.
        """
        executor = ProcessShardExecutor(shards=2)
        service = ExplanationService(
            executor=executor, default_config=StreamConfig(window_size=150)
        )
        results = []
        victim = None
        try:
            ids = [f"v-{i:02d}" for i in range(12)]
            for stream_id in ids:
                service.register(stream_id)
            assert service.wait_ready(timeout=120)
            owned = [stream_id for stream_id in ids if executor.shard_of(stream_id) == "shard-1"]
            assert owned
            victim = executor._shards["shard-1"].process
            original = executor._pipeline_epoch

            def pipeline_then_kill(epoch, timeout):
                original(epoch, timeout)
                victim.kill()
                victim.join(timeout=60)

            executor._pipeline_epoch = pipeline_then_kill
            os.kill(victim.pid, signal.SIGSTOP)
            for stream_id in owned:
                service.submit(stream_id, drifted_values[:60], on_complete=results.append)
            assert executor.resize(1, timeout=1.0) == 1
            assert not victim.is_alive()
            drained = service.drain(timeout=10)
            stats = service.stats()
        finally:
            if victim is not None and victim.is_alive():
                victim.kill()  # never leave a stopped process behind
            service.close(drain=False)
        assert drained
        assert stats["lost_chunks"] == len(owned)
        assert len(results) == len(owned)
        assert all(result.lost for result in results)

    def test_exhausted_shard_is_retired_and_streams_redistributed(self, drifted_values):
        executor = ProcessShardExecutor(shards=2, max_restarts=0)
        with ExplanationService(
            executor=executor, default_config=StreamConfig(window_size=150)
        ) as service:
            service.register("a")
            service.register("b")
            doomed = executor.shard_of("a")
            survivor = executor.shard_of("b")
            assert doomed != survivor
            executor.crash_shard(doomed)
            # Past its (zero) budget the shard is retired, not respawned:
            # "a" moves to the survivor and keeps serving.
            service.submit("a", drifted_values)
            report = service.report()
            assert executor.shard_of("a") == survivor
        stats = report.executor_stats
        assert stats["retired_shards"] == 1
        assert stats["shards"] == 1
        assert "a" in report.state_lost
        by_id = {stream.stream_id: stream for stream in report.streams}
        assert by_id["a"].alarms_raised >= 1
        assert by_id["a"].explained == by_id["a"].alarms_raised


# ----------------------------------------------------------------------
# Worker-side cache statistics
# ----------------------------------------------------------------------
class TestWorkerCacheStats:
    def test_process_report_sees_worker_cache_hits(self, drifted_values):
        report = replay("process", drifted_values, shards=2)
        hits = sum(payload["hits"] for payload in report.cache_stats.values())
        assert hits > 0, "worker-side cache hits must reach the parent report"
        assert report.cache_hit_rate > 0.0
        # The stats survive serialisation with recomputed hit rates.
        payload = json.loads(json.dumps(report.to_dict()))
        assert sum(c["hits"] for c in payload["caches"].values()) == hits


# ----------------------------------------------------------------------
# Autoscaling policy
# ----------------------------------------------------------------------
class _FakeShardedExecutor:
    """Executor stand-in exposing the queue-depth gauge without processes."""

    def __init__(self, shards: int = 2, capacity: int = 100):
        self.shards = shards
        self.capacity = capacity
        self.outstanding = 0
        self.resized_to: list[int] = []

    def stats(self) -> dict:
        return {
            "shards": self.shards,
            "capacity": self.capacity,
            "outstanding": self.outstanding,
        }

    def resize(self, shards: int) -> int:
        self.resized_to.append(shards)
        self.shards = shards
        return shards


class TestAutoscaler:
    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            QueueDepthPolicy(min_shards=0)
        with pytest.raises(ValidationError):
            QueueDepthPolicy(min_shards=3, max_shards=2)
        with pytest.raises(ValidationError):
            QueueDepthPolicy(scale_up_at=0.2, scale_down_at=0.5)
        with pytest.raises(ValidationError):
            QueueDepthPolicy(cooldown_ticks=-1)

    def test_scales_up_down_with_hysteresis_and_cooldown(self):
        executor = _FakeShardedExecutor(shards=2)
        scaler = Autoscaler(
            executor,
            QueueDepthPolicy(
                min_shards=1, max_shards=4, scale_up_at=0.8, scale_down_at=0.1,
                cooldown_ticks=1,
            ),
        )
        executor.outstanding = 90  # depth 0.9: scale up
        decision = scaler.tick()
        assert decision is not None and decision.target == 3
        assert executor.shards == 3
        assert scaler.tick() is None  # cooldown holds even under pressure
        decision = scaler.tick()
        assert decision is not None and decision.target == 4
        assert scaler.tick() is None  # cooldown
        assert scaler.tick() is None  # at max_shards: hold
        executor.outstanding = 50  # mid-band: hold
        assert scaler.tick() is None
        executor.outstanding = 5  # depth 0.05: scale down
        decision = scaler.tick()
        assert decision is not None and decision.target == 3
        assert decision.direction == "down"
        assert "3" in decision.render()
        assert [d.target for d in scaler.decisions] == [3, 4, 3]

    def test_never_leaves_the_bounds(self):
        executor = _FakeShardedExecutor(shards=2)
        policy = QueueDepthPolicy(
            min_shards=2, max_shards=3, scale_up_at=0.8, scale_down_at=0.1,
            cooldown_ticks=0,
        )
        scaler = Autoscaler(executor, policy)
        executor.outstanding = 100
        for _ in range(5):
            scaler.tick()
        assert executor.shards == 3
        executor.outstanding = 0
        for _ in range(5):
            scaler.tick()
        assert executor.shards == 2
        assert all(2 <= target <= 3 for target in executor.resized_to)

    def test_non_sharded_executors_are_ignored(self, drifted_values):
        with ExplanationService(executor="inline") as service:
            scaler = Autoscaler(service.executor, QueueDepthPolicy())
            assert scaler.tick() is None
            assert scaler.decisions == []

    def test_background_tick_thread_drives_the_pool(self):
        executor = _FakeShardedExecutor(shards=1)
        executor.outstanding = 100  # saturated: scale up every tick
        scaler = Autoscaler(
            executor,
            QueueDepthPolicy(
                min_shards=1, max_shards=3, scale_up_at=0.8, scale_down_at=0.1,
                cooldown_ticks=0,
            ),
        )
        scaler.start(interval=0.005)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and executor.shards < 3:
            time.sleep(0.005)
        scaler.stop()
        assert executor.shards == 3
        assert scaler.error is None
        assert [d.target for d in scaler.decisions][:2] == [2, 3]
        # Idempotent stop; restartable afterwards.
        scaler.stop()
        scaler.start(interval=0.005)
        scaler.stop()

    def test_background_thread_rejects_double_start_and_bad_interval(self):
        scaler = Autoscaler(_FakeShardedExecutor(), QueueDepthPolicy())
        with pytest.raises(ValidationError):
            scaler.start(interval=0.0)
        scaler.start(interval=60.0)
        try:
            with pytest.raises(ValidationError):
                scaler.start(interval=60.0)
        finally:
            scaler.stop()

    def test_background_thread_records_tick_errors_and_exits(self):
        class ExplodingExecutor(_FakeShardedExecutor):
            def resize(self, shards: int) -> int:
                raise ValidationError("closed underneath the autoscaler")

        executor = ExplodingExecutor(shards=1)
        executor.outstanding = 100
        scaler = Autoscaler(
            executor,
            QueueDepthPolicy(min_shards=1, max_shards=3, cooldown_ticks=0),
        )
        scaler.start(interval=0.005)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and scaler.error is None:
            time.sleep(0.005)
        scaler.stop()
        assert isinstance(scaler.error, ValidationError)
