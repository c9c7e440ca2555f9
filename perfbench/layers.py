"""Outside-in layer tracing: spans around the program's public entry points.

The traced run installs :class:`SpanRecorder` wrappers on the entry points
listed in :func:`entry_points` before the service is built (detectors bind
``SharedCaches.ks_test`` when a stream registers), records spans only while
``recorder.active`` is set, and derives each layer's self time afterwards.
Only per-chunk and per-alarm calls are wrapped, never per-observation ones,
so the wrappers cost less than the machine's run-to-run noise.

The program's own code is untouched: a shard worker process re-imports it
unwrapped, so under the ``process`` executor only the parent's spans exist.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

#: Span names whose layer is the prefix before the first dot.
LAYER_OF = {
    "drift.detect": "drift",
    "core.ks_test": "core",
    "core.problem": "core",
    "core.size_search": "core",
    "core.construction": "core",
    "core.verify": "core",
    "preference.build": "preference",
    "service.submit": "service",
    "service.explain": "service",
    "wire.encode": "wire",
    "multidim.detect_test": "multidim",
    "multidim.explain_test": "multidim",
    "multidim.explain": "multidim",
}


class Span(NamedTuple):
    """One finished call: ``parent`` indexes the same thread's span list."""

    name: str
    start: float
    end: float
    parent: int
    cpu: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def entry_points() -> list[tuple[str, object, str, bool]]:
    """``(span name, owner, attribute, time thread CPU)`` for every wrapped call.

    Owners are the modules and classes whose attribute the program looks
    the call up on, so replacing the attribute reroutes every call site.
    """
    import repro.backends.ks1d as ks1d
    import repro.cluster.sharding as sharding
    import repro.core.cumulative as cumulative
    import repro.core.moche as moche
    import repro.multidim.detector as md_detector
    import repro.multidim.explain2d as md_explain
    import repro.service.engine as engine
    from repro.backends.base import StreamBackend
    from repro.service.cache import SharedCaches

    return [
        ("drift.detect", ks1d.KS1DBackend, "run_detection", False),
        ("drift.detect", StreamBackend, "run_detection", False),
        ("core.ks_test", SharedCaches, "ks_test", False),
        ("preference.build", ks1d, "build_preference_list", False),
        ("core.problem", moche, "ExplanationProblem", False),
        ("core.size_search", moche, "explanation_size", False),
        ("core.construction", moche, "construct_most_comprehensible", False),
        ("core.verify", cumulative.ExplanationProblem, "test_after_removal", False),
        ("service.submit", engine.ExplanationService, "submit", True),
        ("service.explain", engine, "explain_alarm", False),
        ("wire.encode", sharding, "encode_frame", False),
        ("multidim.detect_test", md_detector, "ks2d_test", False),
        ("multidim.explain_test", md_explain, "ks2d_test", False),
        ("multidim.explain", md_explain.GreedyKS2DExplainer, "explain", False),
    ]


class SpanRecorder:
    """Keeps spans in memory, one list and one call stack per thread.

    Each thread appends only to its own list, so recording takes no lock;
    a span's parent is the span open on the same thread when it started.
    """

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[str, list]] = []

    def _thread_spans(self) -> tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list = []
            state = self._local.state = (spans, [])
            with self._lock:
                self._threads.append((threading.current_thread().name, spans))
        return state

    def wrap(self, name: str, function: Callable, cpu: bool = False) -> Callable:
        """``function`` recording a span named ``name`` while the recorder is active."""
        recorder = self
        clock = time.perf_counter
        thread_clock = time.thread_time

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            spans, stack = recorder._thread_spans()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(record)
            cpu_started = thread_clock() if cpu else 0.0
            record[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = clock()
                if cpu:
                    record[4] = thread_clock() - cpu_started
                stack.pop()

        wrapper.__name__ = getattr(function, "__name__", name)
        wrapper.__qualname__ = getattr(function, "__qualname__", name)
        wrapper.__wrapped__ = function
        return wrapper

    def threads(self) -> list[tuple[str, list[Span]]]:
        """Every thread's finished spans, in start order."""
        with self._lock:
            return [(label, [Span(*record) for record in spans]) for label, spans in self._threads]

    def to_json(self) -> dict:
        return {
            "fields": list(Span._fields),
            "threads": [
                {"thread": label, "spans": [list(span) for span in spans]}
                for label, spans in self.threads()
            ],
        }


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every entry point for the duration of the block, then restore them."""
    saved = []
    try:
        for name, owner, attribute, cpu in entry_points():
            original = (
                owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            )
            setattr(owner, attribute, recorder.wrap(name, original, cpu))
            saved.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` is one thread's list; parents always precede their children.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def by_name(threads: list[tuple[str, list[Span]]]) -> dict[str, dict[str, list[float]]]:
    """``name -> {"duration": [...], "self": [...], "cpu": [...]}`` across threads."""
    table: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: {"duration": [], "self": [], "cpu": []}
    )
    for _, spans in threads:
        for span, own in zip(spans, self_times(spans)):
            entry = table[span.name]
            entry["duration"].append(span.duration)
            entry["self"].append(own)
            entry["cpu"].append(span.cpu)
    return dict(table)


def layer_self_seconds(table: dict[str, dict[str, list[float]]]) -> dict[str, float]:
    """Total self time per layer (``drift``, ``core``, ``service``, ...)."""
    totals: dict[str, float] = defaultdict(float)
    for name, entry in table.items():
        totals[LAYER_OF[name]] += sum(entry["self"])
    return dict(totals)
