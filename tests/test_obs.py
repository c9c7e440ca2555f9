"""Tests for the observability layer (:mod:`repro.obs`) and its wiring.

Covers the metric primitives (exact histogram merge, pickling, the
disabled-registry contract), the Prometheus exposition round trip, the
HTTP exporter, TTL/size-aware cache lifecycle, stage-latency presence
parity and equal stage sample counts across executors, the latency-driven
autoscaling policy, and the elapsed-time reset on warm restart.
"""

from __future__ import annotations

import asyncio
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio.server import AsyncIngestServer
from repro.aio.service import AsyncExplanationService
from repro.cluster.autoscale import Autoscaler, LatencyPolicy, QueueDepthPolicy
from repro.datasets.synthetic import drifting_series
from repro.exceptions import ValidationError
from repro.obs.exporter import start_metrics_server
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    STAGES,
    STAGE_METRIC,
    latency_summary,
    merge_metric_states,
    register_stage_histograms,
    stage_histogram,
)
from repro.obs.prometheus import parse_exposition, render_registry
from repro.service import ExplanationService, StreamConfig
from repro.service.cache import LRUCache, SharedCaches, merge_stats_dicts


@pytest.fixture
def drifted_values() -> np.ndarray:
    values, _ = drifting_series(length=1200, drift_start=600, drift_magnitude=3.0, seed=5)
    return values


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
observations = st.lists(
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


class TestHistogramMerge:
    @settings(max_examples=60, deadline=None)
    @given(observations, st.integers(min_value=0, max_value=200))
    def test_merged_shards_equal_concatenated_samples(self, samples, cut):
        """Per-shard histograms merge *exactly* into the whole-run histogram."""
        cut = cut % (len(samples) + 1)
        whole = Histogram("h")
        for value in samples:
            whole.observe(value)
        shard_a, shard_b = Histogram("h"), Histogram("h")
        for value in samples[:cut]:
            shard_a.observe(value)
        for value in samples[cut:]:
            shard_b.observe(value)
        merged = Histogram("h")
        merged.merge_state(shard_a.state_dict())
        merged.merge_state(shard_b.state_dict())

        assert merged.bucket_counts() == whole.bucket_counts()
        assert merged.count == whole.count
        assert merged.sum == pytest.approx(whole.sum)
        for q in (0.5, 0.95, 0.99, 1.0):
            assert merged.quantile(q) == pytest.approx(whole.quantile(q))

    @settings(max_examples=60, deadline=None)
    @given(observations)
    def test_quantiles_are_monotone_and_bounded(self, samples):
        histogram = Histogram("h")
        for value in samples:
            histogram.observe(value)
        p50, p95, p99 = (histogram.quantile(q) for q in (0.5, 0.95, 0.99))
        assert 0.0 <= p50 <= p95 <= p99 <= DEFAULT_LATENCY_BUCKETS[-1]

    def test_merge_refuses_different_bounds(self):
        ours = Histogram("h", buckets=(0.1, 1.0))
        theirs = Histogram("h", buckets=(0.5, 5.0))
        theirs.observe(0.3)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            ours.merge_state(theirs.state_dict())

    def test_empty_histogram_has_no_quantiles(self):
        assert Histogram("h").quantile(0.95) is None
        assert Histogram("h").summary()["count"] == 0


class TestRegistry:
    def test_disabled_registry_hands_out_none(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c") is None
        assert registry.gauge("g") is None
        assert registry.histogram("h") is None
        assert stage_histogram(None, "detect") is None
        assert registry.state_dict() == {}
        assert latency_summary(None) == {}

    def test_same_name_and_labels_return_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("c", {"x": "1"})
        b = registry.counter("c", {"x": "1"})
        c = registry.counter("c", {"x": "2"})
        assert a is b
        assert a is not c

    def test_state_round_trip_through_merge(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth", {"shard": "s0"}).set(7.5)
        stage_histogram(registry, "detect", shard="s0").observe(0.02)
        rebuilt = merge_metric_states([registry.state_dict()])
        assert rebuilt.state_dict() == registry.state_dict()

    def test_registry_pickles_with_state(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(5)
        stage_histogram(registry, "explain").observe(0.4)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.state_dict() == registry.state_dict()
        # Rebuilt locks still work.
        clone.counter("hits").inc()
        assert clone.counter("hits").value == 6

    def test_latency_summary_folds_per_shard_series(self):
        registry = MetricsRegistry()
        stage_histogram(registry, "explain", shard="s0").observe(0.010)
        stage_histogram(registry, "explain", shard="s1").observe(0.010)
        stage_histogram(registry, "explain").observe(0.010)
        summary = latency_summary(registry)
        assert summary["explain"]["count"] == 3

    def test_register_stage_histograms_precreates_all_stages(self):
        registry = MetricsRegistry()
        register_stage_histograms(registry)
        assert set(latency_summary(registry)) == set(STAGES)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", {"cache": "explanations"}).inc(4)
        registry.gauge("repro_shards").set(3)
        stage_histogram(registry, "detect").observe(0.003)
        text = render_registry(registry)
        assert "# HELP" in text and "# TYPE" in text
        parsed = parse_exposition(text)
        assert parsed["repro_hits_total"][(("cache", "explanations"),)] == 4.0
        assert parsed["repro_shards"][()] == 3.0
        bucket = f"{STAGE_METRIC}_bucket"
        inf_rows = [
            value
            for labels, value in parsed[bucket].items()
            if ("le", "+Inf") in labels
        ]
        assert inf_rows == [1.0]
        assert parsed[f"{STAGE_METRIC}_count"][(("stage", "detect"),)] == 1.0

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            histogram.observe(value)
        parsed = parse_exposition(render_registry(registry))
        by_le = {dict(labels)["le"]: value for labels, value in parsed["h_bucket"].items()}
        assert by_le == {"0.1": 1.0, "1": 2.0, "+Inf": 3.0}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not an exposition{")


class TestExporter:
    def test_serves_metrics_over_http(self):
        registry = MetricsRegistry()
        registry.counter("repro_up").inc()

        async def scrape(path: str) -> tuple[str, str]:
            bound: asyncio.Future = asyncio.get_running_loop().create_future()
            server = await start_metrics_server(
                lambda: render_registry(registry),
                on_bound=lambda addr: bound.set_result(addr),
            )
            try:
                host, port = await asyncio.wait_for(bound, timeout=5)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
                await writer.drain()
                payload = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                head, _, body = payload.decode().partition("\r\n\r\n")
                return head.split("\r\n")[0], body
            finally:
                server.close()
                await server.wait_closed()

        status, body = asyncio.run(scrape("/metrics"))
        assert status == "HTTP/1.1 200 OK"
        assert parse_exposition(body)["repro_up"][()] == 1.0
        status, _ = asyncio.run(scrape("/nope"))
        assert status == "HTTP/1.1 404 Not Found"


# ----------------------------------------------------------------------
# Cache lifecycle: TTL expiry and size-aware admission
# ----------------------------------------------------------------------
class TestCacheLifecycle:
    def test_entries_expire_after_ttl(self):
        clock = [0.0]
        cache = LRUCache(capacity=8, ttl=10.0, clock=lambda: clock[0])
        cache.put("k", "v")
        assert cache.get("k") == "v"
        clock[0] = 10.5
        assert cache.get("k") is None
        assert cache.stats.expired == 1
        assert cache.stats.misses == 1
        # The expired entry is gone, not resurrectable.
        clock[0] = 0.0
        assert cache.get("k") is None

    def test_snapshot_skips_stale_entries(self):
        clock = [0.0]
        cache = LRUCache(capacity=8, ttl=5.0, clock=lambda: clock[0])
        cache.put("old", 1)
        clock[0] = 4.0
        cache.put("fresh", 2)
        clock[0] = 6.0
        assert dict(cache.snapshot_items()) == {"fresh": 2}

    def test_oversized_entries_are_rejected(self):
        cache = LRUCache(capacity=8, max_entry_bytes=64)
        cache.put("small", b"x")
        cache.put("big", np.zeros(1024))
        assert cache.get("small") == b"x"
        assert cache.get("big") is None
        assert cache.stats.rejected == 1

    def test_lifecycle_counters_surface_in_stats_merge(self):
        clock = [0.0]
        cache = LRUCache(capacity=8, ttl=1.0, clock=lambda: clock[0])
        cache.put("k", "v")
        clock[0] = 2.0
        cache.get("k")
        merged = merge_stats_dicts({"c": cache.stats.to_dict()})
        assert merged["c"]["expired"] == 1
        assert "rejected" in merged["c"]

    def test_shared_caches_forward_lifecycle_knobs(self):
        clock = [0.0]
        caches = SharedCaches(ttl=5.0, max_entry_bytes=10_000, clock=lambda: clock[0])
        caches.explanations.put("k", "v")
        clock[0] = 6.0
        assert caches.explanations.get("k") is None
        assert caches.explanations.stats.expired == 1

    def test_invalid_lifecycle_knobs_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=8, ttl=0.0)
        with pytest.raises(ValueError):
            LRUCache(capacity=8, max_entry_bytes=0)


# ----------------------------------------------------------------------
# Service telemetry: presence parity across executors
# ----------------------------------------------------------------------
class TestServiceTelemetry:
    @pytest.mark.parametrize(
        "executor,kwargs",
        [
            ("inline", {}),
            ("process", {"shards": 2}),
        ],
    )
    def test_all_stages_present_under_every_executor(
        self, executor, kwargs, drifted_values
    ):
        with ExplanationService(
            executor=executor,
            metrics=True,
            default_config=StreamConfig(window_size=150),
            **kwargs,
        ) as service:
            service.register("a")
            for start in range(0, drifted_values.size, 200):
                service.submit("a", drifted_values[start:start + 200])
            report = service.report()
        assert report.alarms_raised > 0
        # Presence parity: every stage series exists on every executor,
        # even the ones that never observe a sample on this backend.
        assert set(report.latency) == set(STAGES)
        for summary in report.latency.values():
            assert {"count", "p50", "p95", "p99"} <= set(summary)
        for stage in ("ingest_enqueue", "detect", "explain"):
            assert report.latency[stage]["count"] > 0
            assert (
                report.latency[stage]["p50"]
                <= report.latency[stage]["p95"]
                <= report.latency[stage]["p99"]
            )
        if executor == "process":
            # Wire stages only exist across a process boundary; their
            # samples prove the cross-process stamp/merge path works.
            assert report.latency["wire_roundtrip"]["count"] > 0
            assert report.latency["batch_wait"]["count"] > 0
        assert "stage latency" in report.render(alarms=False)

    def test_stage_counts_agree_across_executors(self, drifted_values):
        """The same replay gives the same per-stage sample counts everywhere.

        One ``ingest_enqueue`` and one ``detect`` sample per chunk, one
        ``explain`` sample per alarm raised, cache hits included (each
        mirror can reuse its twin's explanation), whether the work runs
        inline or on one or two process shards.
        """
        # A level that flips every window raises an alarm per window.
        flipping = np.random.default_rng(6).normal(size=1200) + 3.0 * (np.arange(1200) // 150 % 2)
        streams = {
            "a": drifted_values,
            "a-mirror": drifted_values,
            "b": flipping,
            "b-mirror": flipping,
        }
        counts = {}
        for executor, kwargs in (
            ("inline", {}),
            ("process", {"shards": 1}),
            ("process", {"shards": 2}),
        ):
            with ExplanationService(
                executor=executor,
                metrics=True,
                default_config=StreamConfig(window_size=150),
                **kwargs,
            ) as service:
                for stream_id in streams:
                    service.register(stream_id)
                for start in range(0, 1200, 100):
                    for stream_id, values in streams.items():
                        service.submit(stream_id, values[start:start + 100])
                report = service.report()
            assert report.latency["explain"]["count"] == report.alarms_raised > 0
            counts[executor, kwargs.get("shards")] = {
                stage: report.latency[stage]["count"]
                for stage in ("ingest_enqueue", "detect", "explain")
            }
        assert counts[("inline", None)]["ingest_enqueue"] == 4 * 12
        assert counts[("inline", None)]["detect"] == 4 * 12
        assert len(set(map(str, counts.values()))) == 1, counts

    def test_metrics_disabled_by_default(self, drifted_values):
        with ExplanationService(
            default_config=StreamConfig(window_size=150)
        ) as service:
            service.register("a")
            service.submit("a", drifted_values[:400])
            report = service.report()
            assert report.latency == {}
            assert "disabled" in service.scrape_metrics()

    def test_scrape_exposes_stage_and_cache_series(self, drifted_values):
        with ExplanationService(
            metrics=True,
            default_config=StreamConfig(window_size=150),
        ) as service:
            service.register("a")
            for start in range(0, drifted_values.size, 200):
                service.submit("a", drifted_values[start:start + 200])
            service.drain()
            parsed = parse_exposition(service.scrape_metrics())
        assert f"{STAGE_METRIC}_count" in parsed
        stages = {
            dict(labels).get("stage")
            for labels in parsed[f"{STAGE_METRIC}_count"]
        }
        assert stages == set(STAGES)
        assert "repro_observations_total" in parsed
        assert "repro_cache_hits_total" in parsed

    def test_restore_resets_elapsed_clock(self, drifted_values):
        with ExplanationService(
            default_config=StreamConfig(window_size=150)
        ) as service:
            service.register("a")
            service.submit("a", drifted_values[:600])
            snapshot = service.snapshot()
        with ExplanationService(
            default_config=StreamConfig(window_size=150)
        ) as restored:
            time.sleep(0.3)
            before_restore = time.perf_counter()
            restored.restore(snapshot)
            report = restored.report()
            after_report = time.perf_counter()
        # The elapsed clock restarts at restore(): the idle stretch before
        # it must not deflate the restored service's throughput.
        assert report.elapsed_seconds <= after_report - before_restore


# ----------------------------------------------------------------------
# Latency-driven autoscaling
# ----------------------------------------------------------------------
class _StubExecutor:
    def __init__(self, shards: int = 2) -> None:
        self.shards = shards
        self.resized: list[int] = []

    def stats(self) -> dict:
        return {"outstanding": 0, "capacity": 64, "shards": self.shards}

    def resize(self, target: int) -> None:
        self.resized.append(target)
        self.shards = target


class TestLatencyPolicy:
    def test_scales_up_where_queue_depth_holds(self):
        """A shallow queue with a slow p95 fires latency, not depth."""
        signals = {
            "latency_stage": "explain",
            "latency_samples": 50,
            "p95_latency": 2.0,
            "shard_skew": 1.0,
        }
        depth_executor = _StubExecutor()
        depth = Autoscaler(
            depth_executor,
            QueueDepthPolicy(min_shards=2, max_shards=4, cooldown_ticks=0),
        )
        assert depth.tick() is None  # outstanding=0: depth never fires up
        assert depth_executor.resized == []

        latency_executor = _StubExecutor()
        latency = Autoscaler(
            latency_executor,
            LatencyPolicy(min_shards=2, max_shards=4, target_p95=0.5),
            signals=lambda: signals,
        )
        decision = latency.tick()
        assert decision is not None and decision.target == 3
        assert latency_executor.resized == [3]
        assert "p95" in decision.reason
        assert "p95" in decision.render()

    def test_scales_up_on_shard_skew_alone(self):
        executor = _StubExecutor()
        scaler = Autoscaler(
            executor,
            LatencyPolicy(min_shards=1, max_shards=4, skew_threshold=2.0),
            signals=lambda: {"shard_skew": 3.0},
        )
        decision = scaler.tick()
        assert decision.target == 3
        assert "skew" in decision.reason

    def test_scales_down_when_fast_and_balanced(self):
        executor = _StubExecutor()
        scaler = Autoscaler(
            executor,
            LatencyPolicy(min_shards=1, target_p95=0.5, scale_down_p95=0.05),
            signals=lambda: {"p95_latency": 0.001, "latency_samples": 100},
        )
        assert scaler.tick().target == 1

    def test_holds_without_enough_samples(self):
        policy = LatencyPolicy(min_samples=10, target_p95=0.5)
        assert policy.decide_signals(
            {"shards": 1, "p95_latency": 9.0, "latency_samples": 3}
        ) is None

    def test_cooldown_suppresses_consecutive_steps(self):
        policy = LatencyPolicy(target_p95=0.5, cooldown_ticks=2)
        signals = {"shards": 1, "p95_latency": 1.0, "latency_samples": 100}
        assert policy.decide_signals(signals) == 2
        assert policy.decide_signals(signals) is None
        assert policy.decide_signals(signals) is None
        assert policy.decide_signals(signals) == 2

    def test_signal_provider_errors_fall_back_to_stats(self):
        executor = _StubExecutor()

        def boom() -> dict:
            raise RuntimeError("metrics hiccup")

        scaler = Autoscaler(
            executor,
            QueueDepthPolicy(min_shards=1, max_shards=4, cooldown_ticks=0),
            signals=boom,
        )
        decision = scaler.tick()  # depth 0 <= 0.15 -> scale down on raw stats
        assert decision is not None and decision.target == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            LatencyPolicy(min_shards=0)
        with pytest.raises(ValidationError):
            LatencyPolicy(target_p95=0.1, scale_down_p95=0.2)
        with pytest.raises(ValidationError):
            LatencyPolicy(skew_threshold=1.0)
        with pytest.raises(ValidationError):
            LatencyPolicy(min_samples=0)
        with pytest.raises(ValidationError):
            LatencyPolicy(cooldown_ticks=-1)

    def test_end_to_end_latency_scaling(self, drifted_values):
        """The service's own signals drive a resize the queue never would."""
        with ExplanationService(
            executor="process",
            shards=1,
            metrics=True,
            default_config=StreamConfig(window_size=150),
        ) as service:
            service.register("a")
            for start in range(0, drifted_values.size, 200):
                service.submit("a", drifted_values[start:start + 200])
            service.drain()
            signals = service.autoscale_signals()
            assert signals["latency_samples"] > 0
            # Target just below the measured p95: the very next tick fires.
            scaler = Autoscaler(
                service.executor,
                LatencyPolicy(
                    min_shards=1,
                    max_shards=2,
                    target_p95=max(signals["p95_latency"] / 2, 1e-6),
                    scale_down_p95=0.0,
                    min_samples=1,
                ),
                signals=service.autoscale_signals,
            )
            decision = scaler.tick()
            assert decision is not None and decision.target == 2
            assert service.executor.stats()["shards"] == 2


# ----------------------------------------------------------------------
# Wire ops
# ----------------------------------------------------------------------
class _NullSource:
    def stop(self) -> None:  # pragma: no cover - contract only
        pass

    async def run(self, handler) -> None:  # pragma: no cover - contract only
        pass


class TestWireOps:
    def test_metrics_and_stats_ops(self, drifted_values):
        async def run() -> tuple[dict, dict]:
            async with AsyncExplanationService(
                metrics=True,
                default_config=StreamConfig(window_size=150),
            ) as aio:
                server = AsyncIngestServer(aio, _NullSource())
                reply = await server.handle({
                    "op": "ingest",
                    "stream": "a",
                    "values": drifted_values.tolist(),
                    "await": True,
                })
                assert reply["ok"] and reply["alarms"] > 0
                metrics = await server.handle({"op": "metrics"})
                stats = await server.handle({"op": "stats"})
                return metrics, stats

        metrics, stats = asyncio.run(run())
        assert metrics["ok"]
        parsed = parse_exposition(metrics["metrics"])
        assert f"{STAGE_METRIC}_count" in parsed
        assert stats["ok"]
        assert stats["stats"]["latency_stage"] == "explain"
        assert stats["stats"]["latency_samples"] > 0
        assert stats["stats"]["p95_latency"] > 0

    def test_unknown_op_still_errors(self):
        async def run() -> dict:
            async with AsyncExplanationService() as aio:
                server = AsyncIngestServer(aio, _NullSource())
                return await server.handle({"op": "frobnicate"})

        assert "error" in asyncio.run(run())
