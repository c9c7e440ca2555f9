"""Tests for the stream-backend plugin layer (repro.backends).

Covers the registry contract (unknown names list what *is* registered,
duplicate registration is refused), the built-in ks1d/ks2d backends being
ordinary plugins, renderer dispatch in :mod:`repro.io.export`, a custom
backend serving end to end through the service as a pure one-file
addition, the stream-id attribution of registration-time validation
errors, and the rejection of missing or non-finite chunks at submit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import (
    BackendRegistry,
    KS1DBackend,
    KS2DBackend,
    StreamBackend,
    backend_names,
    default_registry,
    get_backend,
    register_backend,
    renderer_for,
)
from repro.cluster.runtime import ShardRuntime
from repro.exceptions import ValidationError
from repro.io.export import explanation_report, explanation_to_dict
from repro.multidim.explain2d import KS2DExplanation
from repro.multidim.fasano_franceschini import KS2DResult
from repro.service import ExplanationService, StreamConfig, StreamRegistry


class TestRegistry:
    def test_builtins_are_registered(self):
        assert set(backend_names()) >= {"ks1d", "ks2d"}
        assert get_backend("ks1d") is get_backend("ks1d")  # singleton
        assert isinstance(get_backend("ks2d"), KS2DBackend)

    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(ValidationError) as err:
            get_backend("nope")
        message = str(err.value)
        assert "ks1d" in message and "ks2d" in message

    def test_unknown_backend_in_stream_config_lists_names(self):
        with pytest.raises(ValidationError) as err:
            StreamConfig(backend="nope")
        message = str(err.value)
        assert "ks1d" in message and "ks2d" in message

    def test_duplicate_name_refused_unless_replacing(self):
        registry = BackendRegistry()
        registry.register(KS1DBackend())
        with pytest.raises(ValidationError):
            registry.register(KS1DBackend())
        registry.register(KS1DBackend(), replace=True)
        assert registry.names() == ("ks1d",)

    def test_non_backend_objects_are_rejected(self):
        registry = BackendRegistry()
        with pytest.raises(ValidationError):
            registry.register(object())

    def test_nameless_backend_is_rejected(self):
        class Nameless(KS1DBackend):
            name = "?"

        with pytest.raises(ValidationError):
            BackendRegistry().register(Nameless())

    def test_unregister(self):
        registry = BackendRegistry()
        registry.register(KS2DBackend())
        assert registry.unregister("ks2d").name == "ks2d"
        assert registry.names() == ()
        with pytest.raises(ValidationError):
            registry.unregister("ks2d")

    def test_register_accepts_classes_and_decorates(self):
        registry = BackendRegistry()
        returned = registry.register(KS1DBackend)
        assert returned is KS1DBackend  # decorator-style pass-through
        assert "ks1d" in registry


class TestRendererDispatch:
    def test_ks2d_explanations_render_through_their_backend(self):
        result = KS2DResult(statistic=0.8, pvalue=0.001, alpha=0.05, n=40, m=40)
        explanation = KS2DExplanation(
            indices=np.array([1, 3]),
            points=np.array([[0.0, 1.0], [2.0, 3.0]]),
            result_before=result,
            result_after=KS2DResult(
                statistic=0.1, pvalue=0.9, alpha=0.05, n=40, m=38
            ),
            runtime_seconds=0.01,
        )
        assert renderer_for(explanation) is get_backend("ks2d")
        payload = explanation_to_dict(explanation)
        assert payload["method"] == "greedy-ks2d"
        assert payload["points"] == [[0.0, 1.0], [2.0, 3.0]]
        assert "greedy-ks2d" in explanation_report(explanation)

    def test_duck_typed_2d_explanations_render_through_ks2d(self):
        # A custom 2-D explainer object may return its own result class;
        # anything 2-D-shaped must not crash against the scalar renderer.
        class Custom2D:
            indices = np.array([0])
            points = np.array([[1.0, 2.0]])
            result_before = KS2DResult(
                statistic=0.7, pvalue=0.002, alpha=0.05, n=30, m=30
            )
            result_after = KS2DResult(
                statistic=0.1, pvalue=0.8, alpha=0.05, n=30, m=29
            )
            runtime_seconds = 0.0
            size = 1
            reverses_test = True

        explanation = Custom2D()
        assert renderer_for(explanation) is get_backend("ks2d")
        assert explanation_to_dict(explanation)["points"] == [[1.0, 2.0]]
        assert "greedy-ks2d" in explanation_report(explanation)

    def test_unclaimed_explanations_fall_back_to_ks1d(self, small_failed_problem, rng):
        from repro.core.moche import MOCHE
        from repro.core.preference import PreferenceList

        problem = small_failed_problem
        explanation = MOCHE(alpha=problem.alpha).explain(
            problem.reference, problem.test, PreferenceList.identity(problem.m)
        )
        assert renderer_for(explanation) is get_backend("ks1d")
        payload = explanation_to_dict(explanation)
        assert payload["method"] == explanation.method
        assert "Counterfactual explanation" in explanation_report(explanation)


@pytest.fixture
def doubled_backend():
    """A one-file custom backend: ks1d with observations scaled 2x.

    Scaling both windows by the same factor leaves the KS statistic
    untouched, so the custom backend raises exactly the alarms ks1d would
    — which makes it a clean end-to-end probe of the plugin seam.
    """

    class DoubledBackend(KS1DBackend):
        name = "doubled"

        def coerce_observations(self, observations):
            return super().coerce_observations(observations) * 2.0

    backend = DoubledBackend()
    register_backend(backend)
    yield backend
    default_registry().unregister("doubled")


class TestCustomBackend:
    def test_serves_end_to_end_without_serving_code_changes(self, doubled_backend, rng):
        values = np.concatenate(
            [rng.normal(0.0, 1.0, 180), rng.normal(3.0, 1.0, 120)]
        )
        with ExplanationService(executor="inline") as service:
            service.register("s", StreamConfig(window_size=60, backend="doubled"))
            service.submit("s", values)
            report = service.report()
        stream = report.streams[0]
        assert stream.observations == values.size
        assert stream.alarms_raised >= 1
        assert stream.explained == stream.alarms_raised
        # The doubled values flow all the way into the explanations.
        explained = report.streams[0].alarms[0].explanation
        assert np.all(np.abs(explained.values) >= np.abs(values).min() * 2.0 - 1e-9)

    def test_config_snapshot_round_trips_custom_backend_name(self, doubled_backend):
        config = StreamConfig(window_size=60, backend="doubled")
        clone = StreamConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.plugin is doubled_backend

    def test_defaults_resolve_through_the_plugin(self, doubled_backend):
        config = StreamConfig(backend="doubled")
        assert config.method == "moche"
        assert config.preference == "spectral-residual"


class TestStreamIdAttribution:
    """Registration-time validation errors must name the offending stream."""

    def test_service_register_names_stream_on_bad_override(self):
        with ExplanationService(executor="inline") as service:
            with pytest.raises(ValidationError, match="sensor-7"):
                service.register("sensor-7", method="nope")
            with pytest.raises(ValidationError, match="sensor-8"):
                service.register("sensor-8", backend="nope")

    def test_registry_from_snapshot_names_stream_on_bad_payload(self):
        snapshot = {"good": StreamConfig().to_dict(), "bad": {"method": "nope"}}
        with pytest.raises(ValidationError, match="'bad'"):
            StreamRegistry.from_snapshot(snapshot)

    def test_shard_runtime_register_names_stream_on_bad_config_dict(self):
        runtime = ShardRuntime()
        with pytest.raises(ValidationError, match="'worker-stream'"):
            runtime.register("worker-stream", {"preference": "nope"})

    def test_stream_id_appears_exactly_once(self):
        with ExplanationService(executor="inline") as service:
            with pytest.raises(ValidationError) as err:
                service.register("once", method="nope")
        assert str(err.value).count("'once'") == 1


def drifting_chunks(backend: str) -> list:
    """Six chunks of one stream that alarm at window 20."""
    rng = np.random.default_rng(3)
    shape = (120,) if backend == "ks1d" else (120, 2)
    values = rng.normal(0.0, 1.0, size=shape)
    values[100:] += 4.0
    return np.array_split(values, 6)


def replay_canonical(executor: str, backend: str, chunks: list, bad: list) -> str:
    """Submit ``chunks`` with the ``bad`` ones after the third; each bad
    chunk must raise a ValidationError naming the stream."""
    with ExplanationService(
        executor=executor,
        shards=1,
        default_config=StreamConfig(backend=backend, window_size=20),
    ) as service:
        service.register("s")
        for index, chunk in enumerate(chunks):
            if index == 3:
                for values in bad:
                    with pytest.raises(ValidationError, match="stream 's'"):
                        service.submit("s", values)
            service.submit("s", chunk)
        service.drain()
        report = service.report()
    assert report.streams[0].alarms_raised >= 1
    return json.dumps(report.canonical_dict(), sort_keys=True)


class TestNonFiniteChunks:
    """A missing or non-finite chunk is rejected at submit, before a
    detector sees it: one NaN in a window would fail every later test."""

    @pytest.mark.parametrize("executor", ["inline", "process"])
    @pytest.mark.parametrize("backend", ["ks1d", "ks2d"])
    def test_bad_chunk_raises_and_leaves_the_stream_untouched(self, executor, backend):
        chunks = drifting_chunks(backend)
        poisoned = chunks[3].copy()
        poisoned[5] = np.nan
        infinite = chunks[3].copy()
        infinite[-1] = np.inf
        bad = [None, poisoned, infinite]
        assert replay_canonical(executor, backend, chunks, bad) == replay_canonical(
            executor, backend, chunks, []
        )


class TestBackendProtocol:
    def test_ks1d_owns_both_detector_flavours(self):
        backend = get_backend("ks1d")
        assert backend.detectors == ("windowed", "incremental")
        windowed = backend.build_detector(StreamConfig(window_size=50))
        incremental = backend.build_detector(
            StreamConfig(window_size=50, detector="incremental")
        )
        assert type(windowed).__name__ == "KSDriftDetector"
        assert type(incremental).__name__ == "IncrementalKSDetector"

    def test_detector_state_pass_through(self, rng):
        backend = get_backend("ks1d")
        config = StreamConfig(window_size=30)
        detector = backend.build_detector(config)
        for value in rng.normal(size=75):
            detector.update(float(value))
        state = backend.detector_state(detector)
        clone = backend.build_detector(config)
        backend.restore_detector(clone, state)
        assert clone.observations_seen == detector.observations_seen
        assert np.array_equal(clone.test_window(), detector.test_window())

    def test_cache_keys_are_backend_qualified(self):
        ks1d, ks2d = get_backend("ks1d"), get_backend("ks2d")
        config_1d = StreamConfig(window_size=50)
        config_2d = StreamConfig(window_size=50, backend="ks2d")
        digest = b"x" * 16
        assert ks1d.explanation_cache_key(config_1d, digest, digest) != (
            ks2d.explanation_cache_key(config_2d, digest, digest)
        )
        assert ks1d.preference_cache_key(config_1d, digest, digest)[0] == "ks1d"

    def test_stream_backend_is_abstract(self):
        with pytest.raises(TypeError):
            StreamBackend()
