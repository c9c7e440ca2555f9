"""Tests for the :mod:`repro.cluster` execution runtime.

Covers the consistent-hash ring, registry snapshot round-tripping, parity
of the executor backends on a seeded replay, shard fault handling,
backend error propagation through ``drain()``/``close()``, a clean
shutdown with no leaked semaphores and the 2-D (Fasano-Franceschini)
serving path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import HashRing, ShardRuntime
from repro.cluster.wire import CrashShard, RemoveStream, ReplyFrame
from repro.datasets.synthetic import drifting_series
from repro.exceptions import ServiceBackendError, ValidationError
from repro.service import ExplanationService, StreamConfig, StreamRegistry


@pytest.fixture(scope="module")
def drifted_values() -> np.ndarray:
    values, _ = drifting_series(length=1200, drift_start=600, drift_magnitude=3.0, seed=5)
    return values


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
class TestHashRing:
    def test_assignment_is_deterministic_across_instances(self):
        first = HashRing(["shard-0", "shard-1", "shard-2"])
        second = HashRing(["shard-0", "shard-1", "shard-2"])
        keys = [f"stream-{i}" for i in range(100)]
        assert [first.shard_for(k) for k in keys] == [second.shard_for(k) for k in keys]

    def test_keys_spread_over_every_shard(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        groups = ring.partition(f"sensor-{i}" for i in range(40))
        assert set(groups) == set(ring.shards)
        assert all(groups.values()), "some shard received no streams"

    def test_removal_only_moves_the_dead_shards_keys(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        keys = [f"stream-{i}" for i in range(200)]
        before = {k: ring.shard_for(k) for k in keys}
        ring.remove("shard-2")
        after = {k: ring.shard_for(k) for k in keys}
        for key in keys:
            if before[key] != "shard-2":
                assert after[key] == before[key]
            else:
                assert after[key] != "shard-2"

    def test_validation(self):
        with pytest.raises(ValidationError):
            HashRing([])
        with pytest.raises(ValidationError):
            HashRing(["a"], replicas=0)
        ring = HashRing(["a", "b"])
        with pytest.raises(ValidationError):
            ring.add("a")
        with pytest.raises(ValidationError):
            ring.remove("nope")
        ring.remove("b")
        with pytest.raises(ValidationError):
            ring.remove("a")


# ----------------------------------------------------------------------
# Snapshot round-tripping
# ----------------------------------------------------------------------
class TestSnapshots:
    @pytest.mark.parametrize(
        "config",
        [
            StreamConfig(),
            StreamConfig(window_size=64, alpha=0.01, detector="incremental", stride=5),
            StreamConfig(method="greedy", preference="values-desc", top_k=7, seed=3),
            StreamConfig(backend="ks2d", window_size=40),
        ],
    )
    def test_config_round_trips(self, config):
        payload = config.to_dict()
        assert json.dumps(payload)  # JSON-serialisable, not just picklable
        assert StreamConfig.from_dict(payload) == config

    def test_custom_callables_are_not_serialisable(self):
        config = StreamConfig(preference=lambda r, t: None)
        with pytest.raises(ValidationError):
            config.to_dict()

    def test_unknown_snapshot_fields_rejected(self):
        with pytest.raises(ValidationError):
            StreamConfig.from_dict({"window_size": 50, "wat": 1})

    def test_registry_snapshot_round_trips(self):
        registry = StreamRegistry()
        registry.register("a", StreamConfig(window_size=100))
        registry.register("b", StreamConfig(backend="ks2d", window_size=40))
        snapshot = registry.snapshot()
        restored = StreamRegistry.from_snapshot(snapshot)
        assert restored.ids() == ["a", "b"]
        for stream_id in registry.ids():
            assert restored.get(stream_id).config == registry.get(stream_id).config
        # The snapshot itself survives a JSON round trip unchanged.
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_snapshot_rejects_custom_callables(self):
        registry = StreamRegistry()
        registry.register("a", StreamConfig(preference=lambda r, t: None))
        with pytest.raises(ValidationError):
            registry.snapshot()


# ----------------------------------------------------------------------
# Executor parity
# ----------------------------------------------------------------------
def replay(executor: str, values: np.ndarray, **kwargs):
    with ExplanationService(
        executor=executor,
        default_config=StreamConfig(window_size=150),
        **kwargs,
    ) as service:
        for stream_id in ("a", "b", "c"):
            service.register(stream_id)
        for start in range(0, values.size, 100):
            chunk = values[start:start + 100]
            for stream_id in ("a", "b", "c"):
                service.submit(stream_id, chunk)
        return service.report()


class TestExecutorParity:
    def test_all_executors_produce_identical_reports(self, drifted_values):
        reports = {
            "inline": replay("inline", drifted_values),
            "process": replay("process", drifted_values, shards=2),
        }
        assert reports["inline"].alarms_raised > 0
        canonical = {
            name: json.dumps(report.canonical_dict(), sort_keys=True)
            for name, report in reports.items()
        }
        assert canonical["process"] == canonical["inline"]

    def test_inline_submit_reports_alarms_synchronously(self, drifted_values):
        with ExplanationService(
            executor="inline", default_config=StreamConfig(window_size=150)
        ) as service:
            service.register("s")
            total = service.submit("s", drifted_values)
            assert total == service.report().alarms_raised > 0

    def test_inline_rejects_alarm_work_after_close(self, drifted_values):
        service = ExplanationService(
            executor="inline", default_config=StreamConfig(window_size=150)
        )
        service.register("s")
        service.close()
        with pytest.raises(ValidationError):
            service.submit("s", drifted_values)


# ----------------------------------------------------------------------
# Process executor: faults and error propagation
# ----------------------------------------------------------------------
CLEAN_SHUTDOWN_SCRIPT = """
import gc
from multiprocessing import resource_tracker

import numpy as np

from repro.service import ExplanationService, StreamConfig

gc.disable()
service = ExplanationService(
    executor="process", shards=1, default_config=StreamConfig(window_size=50)
)
service.register("s")
service.submit("s", np.arange(200, dtype=float))
service.close(drain={drain})
del service
resource_tracker._resource_tracker._stop()
"""

BACKLOGGED_KILL_SCRIPT = """
import gc
import os
import signal
from multiprocessing import resource_tracker

import numpy as np

from repro.service import ExplanationService, StreamConfig

gc.disable()
service = ExplanationService(
    executor="process", shards=1, default_config=StreamConfig(window_size=50)
)
service.register("s")
assert service.wait_ready(timeout=60)
(shard,) = service.executor._shards.values()
os.kill(shard.process.pid, signal.SIGSTOP)
for _ in range(120):  # ~4 MB of frames: far more than the pipe holds
    service.submit("s", np.zeros(4000))
service.drain(timeout=0)  # ships the last partial frame
os.kill(shard.process.pid, signal.SIGKILL)
shard.process.join(30)
service.submit("s", np.zeros(200))  # respawns the shard
service.close()
del service
resource_tracker._resource_tracker._stop()
"""


def run_clean_child(script: str) -> None:
    """Run ``script`` in a child interpreter; it must exit 0 and print nothing.

    Scripts turn the cyclic GC off, so only what ``close()`` frees is
    freed; stopping the resource tracker then warns about anything still
    registered, and the finalizers of what it unlinked print tracebacks.
    A queue feeder stuck on a full pipe would hang interpreter exit, which
    the timeout turns into a failure.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""


class TestProcessShardFaults:
    def test_crashed_shard_is_respawned_and_reregistered(self, drifted_values):
        with ExplanationService(
            executor="process", shards=2, default_config=StreamConfig(window_size=150)
        ) as service:
            service.register("a")
            service.register("b")
            executor = service.executor
            service.submit("b", drifted_values)
            service.drain()
            executor.crash_shard(executor.shard_of("a"))
            # The shard comes back with 'a' re-registered from the registry
            # snapshot (fresh detector state), so a full replay alarms.
            service.submit("a", drifted_values)
            report = service.report()
        stats = report.executor_stats
        assert stats["restarts"] >= 1
        by_id = {stream.stream_id: stream for stream in report.streams}
        assert by_id["a"].alarms_raised >= 1
        assert by_id["a"].explained == by_id["a"].alarms_raised
        assert by_id["b"].alarms_raised >= 1

    def test_backpressure_bounds_in_flight_chunks(self, drifted_values):
        with ExplanationService(
            executor="process",
            shards=1,
            queue_capacity=2,
            default_config=StreamConfig(window_size=150),
        ) as service:
            service.register("s")
            # Many more chunks than the bound: submit must block-and-release
            # rather than deadlock or drop, and nothing may be lost.
            for start in range(0, drifted_values.size, 50):
                service.submit("s", drifted_values[start:start + 50])
            report = service.report()
        assert report.executor_stats["capacity"] == 2
        assert report.executor_stats["lost_chunks"] == 0
        stream = report.streams[0]
        assert stream.observations == drifted_values.size
        assert stream.alarms_raised >= 1

    def test_backpressure_survives_sibling_shard_death(self, drifted_values):
        with ExplanationService(
            executor="process",
            shards=2,
            queue_capacity=2,
            default_config=StreamConfig(window_size=150),
        ) as service:
            service.register("a")
            service.register("b")
            executor = service.executor
            assert executor.shard_of("a") != executor.shard_of("b")
            # Queue a crash ahead of a's chunks so they (usually) die
            # unacknowledged and pin the whole in-flight capacity.
            executor._shards[executor.shard_of("a")].commands.put(CrashShard())
            service.submit("a", drifted_values[:60])
            service.submit("a", drifted_values[60:120])
            # The live shard's submit must reclaim the pinned capacity by
            # reaping the dead sibling, not block forever.
            service.submit("b", drifted_values)
            assert service.drain(timeout=120)
            report = service.report()
        by_id = {stream.stream_id: stream for stream in report.streams}
        assert by_id["b"].alarms_raised >= 1

    def test_reply_read_after_its_shard_died_stays_lost(self, drifted_values):
        """A reply the collector holds while its shard dies is not folded.

        The write-off resolves the chunk as lost (its completion says so)
        before the held reply is handled, so the reply is dropped: the
        report must not count the chunk as served as well.
        """
        with ExplanationService(
            executor="process", shards=1, default_config=StreamConfig(window_size=100)
        ) as service:
            service.register("s")
            executor = service.executor
            release, handled = threading.Event(), threading.Event()
            original = executor._handle_reply

            def hold_reply_frames(reply):
                if not isinstance(reply, ReplyFrame):
                    return original(reply)
                release.wait()
                try:
                    return original(reply)
                finally:
                    handled.set()

            executor._handle_reply = hold_reply_frames
            results = []
            service.submit("s", drifted_values[:600], on_complete=results.append)
            # The CrashShard queues behind the chunk's frame: the worker
            # sends the reply, then dies.
            executor.crash_shard(executor.shard_of("s"))
            executor._reap_dead_shards()
            release.set()
            assert handled.wait(60)
            service.drain()
            stats = service.stats()
            (stream,) = service.report().streams
        assert [result.lost for result in results] == [True]
        assert stats["lost_chunks"] == 1
        assert stream.observations == 0
        assert stream.alarms_raised == 0

    def test_submit_after_close_fails_loudly(self):
        service = ExplanationService(
            executor="process", shards=1, default_config=StreamConfig(window_size=150)
        )
        service.register("s")
        service.close()
        # A closed backend must reject new work instead of queueing it for
        # nobody (which would make a later drain() hang forever).
        with pytest.raises(ValidationError):
            service.submit("s", np.zeros(10))

    @pytest.mark.parametrize("drain", [True, False])
    def test_close_leaves_nothing_for_the_resource_tracker(self, drain):
        """``close()`` alone releases every named semaphore, whether it
        drains or kills the workers with their queues unread."""
        run_clean_child(CLEAN_SHUTDOWN_SCRIPT.format(drain=drain))

    def test_respawn_after_a_backlogged_kill_exits_clean(self):
        """A shard killed with its command pipe full leaves a queue whose
        feeder is stuck mid-write; its respawn must release that queue."""
        run_clean_child(BACKLOGGED_KILL_SCRIPT)

    def test_parent_keeps_no_idle_runtime_for_sharded_streams(self):
        with ExplanationService(executor="process", shards=1) as service:
            state = service.register("s", StreamConfig(window_size=150))
            assert state.detector is None and state.explainer is None
            assert state.tests_run == 0  # remote counter, not a detector

    def test_custom_callable_config_rejected_and_rolled_back(self):
        with ExplanationService(executor="process", shards=1) as service:
            with pytest.raises(ValidationError):
                service.register("s", StreamConfig(preference=lambda r, t: None))
            assert "s" not in service

    def test_worker_failure_propagates_through_drain(self):
        with ExplanationService(executor="process", shards=1) as service:
            service.register("s", StreamConfig(window_size=150))
            executor = service.executor
            # Forge a bad command: removing an unknown stream makes the
            # worker report a WorkerFailure, which drain() must surface.
            shard = executor._shards[executor.shard_of("s")]
            shard.commands.put(RemoveStream("not-registered"))
            service.submit("s", np.zeros(10))
            with pytest.raises(ServiceBackendError, match="reported"):
                for _ in range(200):
                    service.drain(timeout=0.1)
            service.close(drain=False)


# ----------------------------------------------------------------------
# 2-D (Fasano-Franceschini) serving
# ----------------------------------------------------------------------
def make_pair_stream(window: int, seed: int = 0) -> np.ndarray:
    """2*window stable points, then a half-contaminated window that alarms.

    Half of the final window is displaced far from the stable cloud — enough
    for the Fasano-Franceschini test to reject, small enough that the greedy
    explainer can reverse it well within its removal budget.  The outliers
    lead the window so the identity preference visits them first.
    """
    rng = np.random.default_rng(seed)
    stable = rng.normal(0.0, 1.0, size=(2 * window, 2))
    outliers = rng.normal(5.0, 0.5, size=(window // 2, 2))
    inliers = rng.normal(0.0, 1.0, size=(window - window // 2, 2))
    return np.vstack([stable, outliers, inliers])


class TestKS2DStreams:
    def test_defaults_resolve_per_backend(self):
        assert StreamConfig().method == "moche"
        assert StreamConfig().preference == "spectral-residual"
        config = StreamConfig(backend="ks2d")
        assert config.method == "greedy-ks2d"
        assert config.preference == "identity"
        with pytest.raises(ValidationError):
            StreamConfig(backend="ks2d", detector="incremental")
        with pytest.raises(ValidationError):
            StreamConfig(backend="ks2d", method="greedy")
        with pytest.raises(ValidationError):
            StreamConfig(backend="ks2d", preference="values-desc")
        # Explicit 1-D choices are rejected on a 2-D stream, never silently
        # swapped for the 2-D equivalents.
        with pytest.raises(ValidationError):
            StreamConfig(backend="ks2d", method="moche")
        with pytest.raises(ValidationError):
            StreamConfig(backend="ks2d", preference="spectral-residual")

    def test_with_overrides_re_resolves_defaults_on_backend_switch(self):
        switched = StreamConfig(window_size=60).with_overrides(backend="ks2d")
        assert switched.method == "greedy-ks2d"
        assert switched.preference == "identity"
        assert switched.window_size == 60
        back = switched.with_overrides(backend="ks1d")
        assert back.method == "moche"
        assert back.preference == "spectral-residual"
        # An explicitly chosen value does not silently follow the backend.
        with pytest.raises(ValidationError):
            StreamConfig(method="greedy").with_overrides(backend="ks2d")

    def test_pairs_are_served_and_explained(self):
        points = make_pair_stream(window=40)
        with ExplanationService(
            executor="inline", default_config=StreamConfig(backend="ks2d", window_size=40)
        ) as service:
            service.register("xy")
            service.submit("xy", points)
            report = service.report()
        stream = report.streams[0]
        assert stream.observations == points.shape[0]
        assert stream.alarms_raised >= 1
        assert stream.explained == stream.alarms_raised
        alarm = stream.alarms[0]
        assert alarm.result.rejected
        assert alarm.explanation.reverses_test
        # The report renders and serialises with 2-D results in it.
        assert "greedy-ks2d" in report.render()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["streams"][0]["alarms"][0]["explanation"]["reverses_test"] is True

    def test_flat_chunks_are_paired_up(self):
        points = make_pair_stream(window=40)
        with ExplanationService(
            executor="inline", default_config=StreamConfig(backend="ks2d", window_size=40)
        ) as service:
            service.register("xy")
            service.submit("xy", points.ravel())  # flat [x0, y0, x1, y1, ...]
            flat_report = service.report()
        assert flat_report.streams[0].observations == points.shape[0]
        assert flat_report.streams[0].alarms_raised >= 1
        with pytest.raises(ValidationError):
            with ExplanationService(
                executor="inline",
                default_config=StreamConfig(backend="ks2d", window_size=40),
            ) as service:
                service.register("xy")
                service.submit("xy", np.zeros(5))  # odd number of floats

    def test_ks2d_parity_across_executors(self):
        points = make_pair_stream(window=40)

        def run(executor, **kwargs):
            with ExplanationService(
                executor=executor,
                default_config=StreamConfig(backend="ks2d", window_size=40),
                **kwargs,
            ) as service:
                service.register("xy")
                for start in range(0, points.shape[0], 32):
                    service.submit("xy", points[start:start + 32])
                return service.report().canonical_dict()

        inline = run("inline")
        process = run("process", shards=1)
        assert json.dumps(inline, sort_keys=True) == json.dumps(process, sort_keys=True)


# ----------------------------------------------------------------------
# ShardRuntime driven directly (no processes)
# ----------------------------------------------------------------------
class TestShardRuntime:
    def test_ingest_reports_alarms_and_deltas(self, drifted_values):
        runtime = ShardRuntime()
        runtime.register("s", StreamConfig(window_size=150).to_dict())
        reply = runtime.ingest("s", drifted_values, seq=7)
        assert reply.seq == 7
        assert reply.observations == drifted_values.size
        assert reply.alarms_raised_delta == len(reply.alarms) >= 1
        assert reply.tests_run_delta >= 1
        assert all(record.explanation is not None for record in reply.alarms)

    def test_registration_idempotent_for_identical_configs(self):
        runtime = ShardRuntime()
        runtime.register("s", StreamConfig())
        runtime.register("s", StreamConfig())  # replayed snapshot: no-op
        assert len(runtime) == 1
        with pytest.raises(ValidationError):
            runtime.register("s", StreamConfig(window_size=99))
        with pytest.raises(ValidationError):
            runtime.ingest("nope", [1.0])
        runtime.remove("s")
        with pytest.raises(ValidationError):
            runtime.remove("s")
