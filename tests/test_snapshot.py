"""Service snapshot / warm-restart tests (repro.service.snapshot).

The core property — established by hypothesis under both executors —
is that splitting a replay at any chunk boundary with
``snapshot()`` → new service → ``restore()`` produces a canonical report
byte-identical to the uninterrupted replay.  On top of that: snapshot file
round trips (atomic pickle save/load), restore guards, warm cache
restoration, and the full ``repro serve --snapshot-dir`` warm restart
across a SIGKILL.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.service import ExplanationService, ServiceSnapshot, StreamConfig
from repro.service.results import canonical_report_dict
from repro.service.snapshot import SNAPSHOT_FILENAME

EXECUTORS = [
    ("inline", {}),
    ("process", {"shards": 2}),
]


def fleet(seed: int, streams: int = 3, segments: int = 3, segment: int = 250):
    """Seeded regime-switching feeds, one per stream."""
    out = {}
    for index in range(streams):
        rng = np.random.default_rng(seed * 100 + index)
        parts = [
            rng.normal(3.0 if part % 2 else 0.0, 1.0, segment)
            for part in range(segments)
        ]
        out[f"s{index}"] = np.concatenate(parts)
    return out


def replay(executor, kwargs, series, split=None, chunk=100, window=100):
    """Replay a fleet; optionally snapshot/close/restore at round ``split``.

    Returns ``(canonical_dict, resumed_report)`` where ``resumed_report``
    is the report object of the (possibly restored) service.
    """
    service = ExplanationService(
        executor=executor,
        default_config=StreamConfig(window_size=window),
        **kwargs,
    )
    for stream_id in sorted(series):
        service.register(stream_id)
    longest = max(values.size for values in series.values())
    rounds = range(0, longest, chunk)
    for round_index, start in enumerate(rounds):
        for stream_id in sorted(series):
            values = series[stream_id][start:start + chunk]
            if values.size:
                service.submit(stream_id, values)
        if split is not None and round_index == split:
            snapshot = service.snapshot()
            service.close()
            service = ExplanationService(
                executor=executor,
                default_config=StreamConfig(window_size=window),
                **kwargs,
            )
            service.restore(snapshot)
    report = service.report()
    service.close()
    return canonical_report_dict(report.to_dict()), report


class TestSnapshotRoundTripProperty:
    @pytest.mark.parametrize("executor,kwargs", EXECUTORS)
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50), split=st.integers(0, 6))
    def test_split_replay_is_byte_identical(self, executor, kwargs, seed, split):
        series = fleet(seed)
        base, _ = replay(executor, kwargs, series)
        resumed, _ = replay(executor, kwargs, series, split=split)
        assert base == resumed

    def test_round_trip_preserves_alarms_and_counters(self):
        series = fleet(5)
        base, _ = replay("inline", {}, series)
        resumed, report = replay("inline", {}, series, split=3)
        assert base == resumed
        assert sum(len(s["alarms"]) for s in base["streams"]) >= 3
        # The restored run's report covers the *whole* replay.
        assert report.observations == sum(v.size for v in fleet(5).values())

    def test_restored_caches_start_warm(self):
        series = fleet(7)
        _, report = replay("inline", {}, series, split=4)
        assert report.cache_hit_rate > 0.0


class TestSnapshotContents:
    def test_snapshot_captures_detector_state_and_accounting(self):
        series = fleet(3, streams=2)
        with ExplanationService(executor="inline") as service:
            for stream_id in sorted(series):
                service.register(stream_id, StreamConfig(window_size=100))
            for stream_id, values in series.items():
                service.submit(stream_id, values)
            snapshot = service.snapshot()
        assert snapshot.stream_ids() == ["s0", "s1"]
        for stream_id, values in series.items():
            assert snapshot.detector_states[stream_id]["count"] == values.size
            acct = snapshot.accounting[stream_id]
            assert acct["observations"] == values.size
            assert acct["alarms_raised"] == len(acct["alarms"])
        assert snapshot.resume_offsets() == {
            stream_id: values.size for stream_id, values in series.items()
        }
        assert any(items for items in snapshot.caches.values())

    def test_process_snapshot_collects_worker_state_over_the_wire(self):
        series = fleet(11, streams=4)
        with ExplanationService(executor="process", shards=2) as service:
            for stream_id in sorted(series):
                service.register(stream_id, StreamConfig(window_size=100))
            for stream_id, values in series.items():
                service.submit(stream_id, values)
            snapshot = service.snapshot()
        assert sorted(snapshot.detector_states) == sorted(series)
        for stream_id, values in series.items():
            assert snapshot.detector_states[stream_id]["count"] == values.size


class TestSnapshotFile:
    def test_save_load_round_trip(self, tmp_path):
        series = fleet(2, streams=2)
        with ExplanationService(executor="inline") as service:
            for stream_id in sorted(series):
                service.register(stream_id, StreamConfig(window_size=100))
            for stream_id, values in series.items():
                service.submit(stream_id, values)
            snapshot = service.snapshot()
        path = snapshot.save(tmp_path / "svc.pkl")
        loaded = ServiceSnapshot.load(path)
        assert loaded.configs == snapshot.configs
        assert loaded.detector_states == snapshot.detector_states
        assert loaded.resume_offsets() == snapshot.resume_offsets()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="no service snapshot"):
            ServiceSnapshot.load(tmp_path / "nope.pkl")

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "torn.pkl"
        path.write_bytes(b"\x80\x05 definitely not a full pickle")
        with pytest.raises(ValidationError, match="corrupt"):
            ServiceSnapshot.load(path)

    def test_wrong_payload_type_raises(self, tmp_path):
        import pickle

        path = tmp_path / "other.pkl"
        path.write_bytes(pickle.dumps({"not": "a snapshot"}))
        with pytest.raises(ValidationError, match="does not hold"):
            ServiceSnapshot.load(path)


class TestRestoreGuards:
    def test_restore_requires_an_empty_service(self):
        with ExplanationService(executor="inline") as service:
            service.register("s", StreamConfig(window_size=100))
            snapshot = service.snapshot()
        with ExplanationService(executor="inline") as service:
            service.register("other", StreamConfig(window_size=100))
            with pytest.raises(ValidationError, match="no registered streams"):
                service.restore(snapshot)

    def test_snapshot_of_closed_service_raises(self):
        service = ExplanationService(executor="inline")
        service.close()
        with pytest.raises(ValidationError):
            service.snapshot()

    def test_restore_into_closed_service_raises(self):
        with ExplanationService(executor="inline") as service:
            snapshot = service.snapshot()
        service = ExplanationService(executor="inline")
        service.close()
        with pytest.raises(ValidationError):
            service.restore(snapshot)


class TestWarmRestartCLI:
    """Kill ``repro serve --snapshot-dir`` mid-replay; restart; same report."""

    @pytest.fixture
    def cli_env(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def _write_fleet(self, tmp_path):
        paths = []
        for stream_id, values in fleet(9, streams=3, segments=4, segment=300).items():
            path = tmp_path / f"{stream_id}.csv"
            path.write_text("\n".join(str(v) for v in values) + "\n")
            paths.append(str(path))
        return paths

    def test_kill_and_restart_is_byte_identical(self, tmp_path, cli_env):
        paths = self._write_fleet(tmp_path)
        base_args = [
            sys.executable, "-m", "repro.cli", "serve", *paths,
            "--window", "100", "--chunk", "60", "--summary-only",
        ]
        reference = tmp_path / "reference.json"
        subprocess.run(
            base_args + ["--output", str(reference)],
            env=cli_env, check=True, capture_output=True,
        )
        snapshot_dir = tmp_path / "snaps"
        resumed = tmp_path / "resumed.json"
        snapshot_args = base_args + [
            "--snapshot-dir", str(snapshot_dir), "--output", str(resumed),
        ]
        process = subprocess.Popen(
            snapshot_args, env=cli_env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        snapshot_file = snapshot_dir / SNAPSHOT_FILENAME
        deadline = time.time() + 60
        while time.time() < deadline and not snapshot_file.exists():
            time.sleep(0.01)
        assert snapshot_file.exists(), "no snapshot was ever written"
        process.send_signal(signal.SIGKILL)
        process.wait()
        completed = subprocess.run(
            snapshot_args, env=cli_env, check=True, capture_output=True, text=True,
        )
        assert "warm restart" in completed.stdout
        base = canonical_report_dict(json.loads(reference.read_text()))
        warm = canonical_report_dict(json.loads(resumed.read_text()))
        assert base == warm
        assert sum(len(s["alarms"]) for s in base["streams"]) >= 3

    def test_snapshot_dir_refuses_a_different_fleet(self, tmp_path, cli_env, capsys):
        from repro.cli import main

        paths = self._write_fleet(tmp_path)
        snapshot_dir = tmp_path / "snaps"
        code = main([
            "serve", *paths, "--window", "100", "--summary-only",
            "--snapshot-dir", str(snapshot_dir),
        ])
        assert code == 0
        capsys.readouterr()
        code = main([
            "serve", paths[0], "--window", "100", "--summary-only",
            "--snapshot-dir", str(snapshot_dir),
        ])
        assert code == 3
        assert "refusing to mix runs" in capsys.readouterr().err

    def test_snapshot_dir_refuses_different_configs(self, tmp_path, cli_env, capsys):
        from repro.cli import main

        paths = self._write_fleet(tmp_path)
        snapshot_dir = tmp_path / "snaps"
        code = main([
            "serve", *paths, "--window", "100", "--summary-only",
            "--snapshot-dir", str(snapshot_dir),
        ])
        assert code == 0
        capsys.readouterr()
        # Same fleet, different flags: the restore would silently serve the
        # snapshot's window-100 configs, so it must refuse instead.
        code = main([
            "serve", *paths, "--window", "120", "--summary-only",
            "--snapshot-dir", str(snapshot_dir),
        ])
        assert code == 3
        assert "different stream configs" in capsys.readouterr().err

    def test_snapshot_every_requires_snapshot_dir(self, tmp_path, capsys):
        from repro.cli import main

        paths = self._write_fleet(tmp_path)
        code = main(["serve", paths[0], "--snapshot-every", "2"])
        assert code == 3
        assert "--snapshot-every requires --snapshot-dir" in capsys.readouterr().err
