"""End-to-end tests for the multi-stream explanation service."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets.synthetic import drifting_series
from repro.drift.monitor import ExplainedDriftMonitor
from repro.exceptions import ValidationError
from repro.io.export import save_service_report, service_report_to_json
from repro.service import (
    ExplanationService,
    SharedCaches,
    StreamConfig,
    StreamRegistry,
)


@pytest.fixture
def drifted_values() -> np.ndarray:
    values, _ = drifting_series(length=1200, drift_start=600, drift_magnitude=3.0, seed=5)
    return values


class TestRegistry:
    def test_register_and_lookup(self):
        registry = StreamRegistry()
        state = registry.register("s1", StreamConfig(window_size=50))
        assert registry.get("s1") is state
        assert "s1" in registry
        assert registry.ids() == ["s1"]

    def test_duplicate_registration_rejected(self):
        registry = StreamRegistry()
        registry.register("s1")
        with pytest.raises(ValidationError):
            registry.register("s1")

    def test_unknown_stream_rejected(self):
        with pytest.raises(ValidationError):
            StreamRegistry().get("nope")

    def test_remove_returns_final_state(self):
        registry = StreamRegistry()
        registry.register("s1")
        state = registry.remove("s1")
        assert state.stream_id == "s1"
        assert "s1" not in registry

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            StreamConfig(window_size=1)
        with pytest.raises(ValidationError):
            StreamConfig(alpha=5.0)
        with pytest.raises(ValidationError):
            StreamConfig(alpha=0.0)
        with pytest.raises(ValidationError):
            StreamConfig(detector="nope")
        with pytest.raises(ValidationError):
            StreamConfig(preference="nope")
        with pytest.raises(ValidationError):
            StreamConfig(method="nope")

    def test_custom_callables_are_not_cacheable(self):
        assert StreamConfig().cacheable
        assert not StreamConfig(preference=lambda r, t: None).cacheable


class TestServiceEndToEnd:
    def test_matches_naive_monitor_across_streams(self, drifted_values):
        """The service must produce exactly the alarms of the one-shot pipeline."""
        naive = ExplainedDriftMonitor(window_size=150, alpha=0.05)
        expected = list(naive.process(drifted_values))
        assert expected  # the workload must actually drift

        with ExplanationService(default_config=StreamConfig(window_size=150)) as service:
            for stream_id in ("a", "b", "c"):
                service.register(stream_id)
            for start in range(0, drifted_values.size, 100):
                chunk = drifted_values[start:start + 100]
                for stream_id in ("a", "b", "c"):
                    service.submit(stream_id, chunk)
            report = service.report()

        assert len(report.streams) == 3
        for stream in report.streams:
            assert stream.observations == drifted_values.size
            assert stream.alarms_raised == len(expected)
            assert stream.explained == len(expected)
            stream_alarms = sorted(stream.alarms, key=lambda alarm: alarm.position)
            for alarm, reference in zip(stream_alarms, expected):
                assert alarm.position == reference.position
                assert alarm.result.statistic == reference.alarm.result.statistic
                assert np.array_equal(
                    alarm.explanation.indices, reference.explanation.indices
                )
                assert alarm.explanation.reverses_test

    def test_replicated_streams_share_cached_explanations(self, drifted_values):
        with ExplanationService(default_config=StreamConfig(window_size=150)) as service:
            for stream_id in ("a", "b", "c", "d"):
                service.register(stream_id)
            # Sequential replay: stream "a" warms every cache for the rest.
            for stream_id in ("a", "b", "c", "d"):
                service.submit(stream_id, drifted_values)
            report = service.report()

        assert report.alarms_raised >= 4
        explanation_stats = report.cache_stats["explanations"]
        assert explanation_stats["hits"] > 0
        assert report.cache_hit_rate > 0
        cached = [
            alarm
            for stream in report.streams
            for alarm in stream.alarms
            if alarm.from_cache
        ]
        assert len(cached) >= 3  # every replica after the first reuses the work

    def test_incremental_detector_raises_earlier(self, drifted_values):
        with ExplanationService() as service:
            service.register(
                "windowed", StreamConfig(window_size=150, detector="windowed")
            )
            service.register(
                "incremental",
                StreamConfig(window_size=150, detector="incremental", stride=5),
            )
            service.submit("windowed", drifted_values)
            service.submit("incremental", drifted_values)
            report = service.report()
        by_id = {stream.stream_id: stream for stream in report.streams}
        assert by_id["incremental"].alarms_raised >= 1
        assert by_id["windowed"].alarms_raised >= 1
        # Per-observation testing fires closer to the true drift onset (600).
        assert (
            by_id["incremental"].alarms[0].position
            <= by_id["windowed"].alarms[0].position
        )

    def test_register_with_inline_overrides(self, drifted_values):
        with ExplanationService(default_config=StreamConfig(window_size=150)) as service:
            state = service.register("s", alpha=0.01, method="greedy")
            assert state.config.alpha == 0.01
            assert state.config.method == "greedy"
            assert state.config.window_size == 150
            service.submit("s", drifted_values)
            report = service.report()
        assert report.streams[0].alarms_raised >= 1
        for alarm in report.streams[0].alarms:
            assert alarm.explanation.method == "greedy"

    def test_submit_to_unknown_stream_rejected(self):
        with ExplanationService() as service:
            with pytest.raises(ValidationError):
                service.submit("nope", [1.0, 2.0])

    def test_custom_preference_builder_runs_uncached(self, drifted_values):
        from repro.drift.monitor import spectral_residual_preference

        calls = {"count": 0}

        def builder(reference, test):
            calls["count"] += 1
            return spectral_residual_preference(reference, test)

        with ExplanationService() as service:
            service.register("s", StreamConfig(window_size=150, preference=builder))
            service.submit("s", drifted_values)
            report = service.report()
        assert report.streams[0].alarms_raised >= 1
        assert calls["count"] == report.streams[0].alarms_raised

    def test_alarm_log_bounded_per_stream(self, drifted_values):
        with ExplanationService(
            default_config=StreamConfig(window_size=150),
            max_alarms_per_stream=1,
        ) as service:
            service.register("s", detector="incremental", stride=10)
            service.submit("s", drifted_values)
            report = service.report()
        stream = report.streams[0]
        assert stream.alarms_raised >= 2  # incremental mode re-alarms
        assert len(stream.alarms) == 1  # log bounded, counters complete
        assert stream.explained == stream.alarms_raised

    def test_shared_caches_can_be_injected(self, drifted_values):
        caches = SharedCaches(explanations=4)
        with ExplanationService(
            caches=caches, default_config=StreamConfig(window_size=150)
        ) as service:
            service.register("s")
            service.submit("s", drifted_values)
            service.report()
        assert caches.explanations.stats.misses >= 1


class TestServiceReport:
    @pytest.fixture
    def report(self, drifted_values):
        with ExplanationService(default_config=StreamConfig(window_size=150)) as service:
            service.register("s1")
            service.register("s2")
            service.submit("s1", drifted_values)
            service.submit("s2", drifted_values)
            return service.report()

    def test_to_dict_is_json_serialisable(self, report):
        payload = json.loads(service_report_to_json(report))
        assert payload["totals"]["streams"] == 2
        assert payload["totals"]["observations"] == report.observations
        assert {stream["stream_id"] for stream in payload["streams"]} == {"s1", "s2"}
        first_alarm = payload["streams"][0]["alarms"][0]
        assert first_alarm["result"]["rejected"] is True
        assert first_alarm["explanation"]["reverses_test"] is True

    def test_render_mentions_every_stream(self, report):
        text = report.render()
        assert "Explanation service report" in text
        assert "s1" in text and "s2" in text
        assert "drift alarm at observation" in text

    def test_save_service_report_json_and_txt(self, report, tmp_path):
        json_path = save_service_report(report, tmp_path / "report.json")
        payload = json.loads(json_path.read_text())
        assert payload["totals"]["alarms_raised"] == report.alarms_raised

        txt_path = save_service_report(report, tmp_path / "report.txt")
        assert "Explanation service report" in txt_path.read_text()

        with pytest.raises(ValidationError):
            save_service_report(report, tmp_path / "report.xml")

    def test_throughput_positive(self, report):
        assert report.throughput > 0
        assert report.elapsed_seconds > 0
