"""Self-time arithmetic and the entry-point wrappers of the traced run."""

import threading

import pytest

from perfbench import layers
from perfbench.layers import Span, SpanRecorder


def test_self_time_of_nested_spans():
    spans = [
        Span("service.submit", 0.0, 10.0, -1, 0.0),
        Span("drift.detect", 1.0, 4.0, 0, 0.0),
        Span("service.explain", 5.0, 9.0, 0, 0.0),
        Span("core.construction", 6.0, 7.0, 2, 0.0),
        Span("service.submit", 11.0, 12.0, -1, 0.0),
    ]
    assert layers.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0])
    table = layers.by_name([("main", spans)])
    assert table["service.submit"]["self"] == pytest.approx([3.0, 1.0])
    assert layers.layer_self_seconds(table) == pytest.approx(
        {"service": 7.0, "drift": 3.0, "core": 1.0}
    )


def test_spans_from_several_threads_keep_their_own_parents():
    recorder = SpanRecorder()
    inner = recorder.wrap("core.verify", lambda: None)

    def body():
        inner()
        inner()

    outer = recorder.wrap("core.construction", body)
    barrier = threading.Barrier(3)

    def worker():
        barrier.wait(timeout=10)
        for _ in range(50):
            outer()

    recorder.active = True
    threads = [threading.Thread(target=worker) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    recorder.active = False
    outer()  # inactive: not recorded

    recorded = recorder.threads()
    assert len(recorded) == 3
    for _, spans in recorded:
        assert len(spans) == 150
        for index, span in enumerate(spans):
            if span.name == "core.verify":
                parent = spans[span.parent]
                assert parent.name == "core.construction"
                assert parent.start <= span.start <= span.end <= parent.end
            else:
                assert span.parent == -1
                assert index == 0 or spans[index - 1].end <= span.start
        own = layers.self_times(spans)
        assert sum(own) == pytest.approx(
            sum(span.duration for span in spans if span.parent == -1)
        )
        assert min(own) >= 0.0
    table = layers.by_name(recorded)
    assert len(table["core.construction"]["duration"]) == 150
    assert len(table["core.verify"]["duration"]) == 300


def test_installed_wraps_every_entry_point_and_restores_it():
    points = layers.entry_points()
    originals = [
        owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        for _, owner, attribute, _ in points
    ]
    recorder = SpanRecorder()
    with layers.installed(recorder):
        for (name, owner, attribute, _), original in zip(points, originals):
            assert name in layers.LAYER_OF
            assert getattr(owner, attribute).__wrapped__ is original
    for (_, owner, attribute, _), original in zip(points, originals):
        if isinstance(owner, type):
            assert owner.__dict__[attribute] is original
        else:
            assert getattr(owner, attribute) is original


def test_wrapper_records_errors_and_reraises():
    recorder = SpanRecorder()

    def fails():
        raise KeyError("boom")

    wrapped = recorder.wrap("core.problem", fails)
    recorder.active = True
    with pytest.raises(KeyError):
        wrapped()
    ((_, spans),) = recorder.threads()
    assert [span.name for span in spans] == ["core.problem"]
    assert spans[0].end >= spans[0].start
