"""Per-chunk distributed tracing for the explanation service.

The metrics layer (:mod:`repro.obs.metrics`) answers aggregate questions
("what is explain p95?"); this module answers the per-request one: *why
was this chunk slow*.  Every chunk submitted to the service gets a
:class:`ChunkTrace` — a trace id plus a span tree whose span names match
the five PR 6 stage names (``ingest_enqueue``, ``batch_wait``,
``detect``, ``explain``, ``wire_roundtrip``) — so one chunk's timeline
reads the same regardless of executor.

Design notes, mirroring the metrics layer:

* **Parent-only state.**  The :class:`Tracer` lives in the service
  process.  Workers never hold tracer state: they receive a picklable
  :class:`TraceContext` on the ``IngestChunk`` wire message, build plain
  span *dicts* (:func:`span_dict`) with :func:`time.monotonic` stamps —
  system-wide on Linux, so parent and worker stamps share one timeline —
  and ship them back on the ``IngestReply``.  The parent re-parents them
  under its ``wire_roundtrip`` span, completing the tree across the
  process boundary.
* **Head-based sampling + slow exemplars.**  A seeded
  :class:`random.Random` decides at ``start_chunk`` whether a trace is
  *retained* after it finishes (``sample_rate``, deterministic for a
  given seed and submission order).  Independently, an always-on
  reservoir keeps the slowest finished traces per stage — the chunks
  that land in the top latency-histogram buckets — and surfaces their
  ``repro_*`` trace ids as exemplars in ``ServiceReport.latency``.
* **Chrome trace-event export.**  :meth:`Tracer.chrome_trace` renders
  retained traces as a Chrome/Perfetto-loadable trace-event JSON object
  (``ph:"X"`` complete events, microsecond timestamps, one synthetic
  thread per trace so span nesting displays as a flame).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import STAGES

__all__ = [
    "TRACE_SCHEMA",
    "ChunkTrace",
    "Span",
    "TraceContext",
    "Tracer",
    "span_dict",
    "validate_chrome_trace",
]

#: Schema tag embedded in exported trace files.
TRACE_SCHEMA = "repro-trace/1"

#: Prefix of every trace id (the ISSUE-visible ``repro_*`` exemplar ids).
TRACE_ID_PREFIX = "repro_"

_OK = "ok"


@dataclass(frozen=True)
class TraceContext:
    """Picklable trace coordinates shipped on the ingest wire message.

    ``parent_span_id`` is the parent-side ``wire_roundtrip`` span; worker
    spans that name it as their parent re-attach under it when the reply
    lands.
    """

    trace_id: str
    parent_span_id: int
    sampled: bool = False


def span_dict(
    name: str,
    start: float,
    duration: float,
    *,
    parent: Optional[int] = None,
    status: str = _OK,
    attrs: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A wire-safe span: plain dict, :func:`time.monotonic` stamps."""
    return {
        "name": name,
        "start": float(start),
        "duration": float(duration),
        "parent": parent,
        "status": status,
        "attrs": dict(attrs or {}),
    }


class Span:
    """One timed operation inside a chunk's trace."""

    __slots__ = ("name", "span_id", "parent_id", "start", "duration", "status", "attrs")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        *,
        duration: Optional[float] = None,
        status: str = _OK,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.duration = duration
        self.status = status
        self.attrs = dict(attrs or {})

    def finish(self, status: str = _OK, *, clock=time.monotonic) -> None:
        """Close the span (idempotent: the first ``finish`` wins)."""
        if self.duration is None:
            self.duration = max(0.0, clock() - self.start)
            self.status = status

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class ChunkTrace:
    """The span tree of one submitted chunk.

    The service finishes it through :meth:`Tracer.finish_chunk` once the
    chunk resolves: at the end of ``submit()`` under the inline executor,
    when the shard reply (or a loss) lands under the process executor.
    Thread-safe; the shard reply collector grafts worker spans onto it.
    """

    __slots__ = (
        "trace_id",
        "stream_id",
        "sampled",
        "root",
        "spans",
        "error",
        "_clock",
        "_lock",
        "_next_id",
        "_finalized",
    )

    def __init__(
        self,
        trace_id: str,
        stream_id: str,
        *,
        sampled: bool = False,
        clock=time.monotonic,
    ) -> None:
        self.trace_id = trace_id
        self.stream_id = stream_id
        self.sampled = sampled
        self.error: Optional[str] = None
        self._clock = clock
        self._lock = threading.Lock()
        self._next_id = 1
        self._finalized = False
        self.root = Span("chunk", 0, None, clock(), attrs={"stream": stream_id})
        self.spans: List[Span] = [self.root]

    # -- span construction -------------------------------------------------

    def _alloc(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def start_span(self, name: str, *, parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Open a live child span (finish it with :meth:`Span.finish`)."""
        with self._lock:
            span = Span(
                name,
                self._alloc(),
                (parent or self.root).span_id,
                self._clock(),
                attrs=attrs or None,
            )
            self.spans.append(span)
            return span

    def add_span(
        self,
        name: str,
        start: float,
        duration: float,
        *,
        parent: Optional[Span] = None,
        status: str = _OK,
        **attrs: Any,
    ) -> Span:
        """Record an already-timed span (retroactive, e.g. queue waits)."""
        with self._lock:
            span = Span(
                name,
                self._alloc(),
                (parent or self.root).span_id,
                start,
                duration=max(0.0, duration),
                status=status,
                attrs=attrs or None,
            )
            self.spans.append(span)
            return span

    def extend(self, dicts: Iterable[Dict[str, Any]], *, parent: Optional[Span] = None) -> None:
        """Re-parent worker span dicts (:func:`span_dict`) into this trace.

        A dict whose ``parent`` names no local span id falls back to
        ``parent`` (the wire span) so cross-process spans never dangle.
        """
        fallback = (parent or self.root).span_id
        with self._lock:
            known = {span.span_id for span in self.spans}
            for raw in dicts:
                parent_id = raw.get("parent")
                if parent_id not in known:
                    parent_id = fallback
                span = Span(
                    str(raw.get("name", "span")),
                    self._alloc(),
                    parent_id,
                    float(raw.get("start", self.root.start)),
                    duration=max(0.0, float(raw.get("duration") or 0.0)),
                    status=str(raw.get("status", _OK)),
                    attrs=raw.get("attrs") or None,
                )
                self.spans.append(span)

    def wire_context(self, wire_span: Span) -> TraceContext:
        """The :class:`TraceContext` to ship on the ingest wire message."""
        return TraceContext(self.trace_id, wire_span.span_id, self.sampled)

    # -- completion --------------------------------------------------------

    def finalize(self, status: str = _OK, error: Optional[str] = None, *, clock=None) -> bool:
        """Close the root span; False if the trace was already finalized."""
        with self._lock:
            if self._finalized:
                return False
            self._finalized = True
            self.error = error
            self.root.finish(status, clock=clock or self._clock)
            for span in self.spans:
                if not span.finished:
                    span.finish(status, clock=clock or self._clock)
            return True

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def status(self) -> str:
        return self.root.status

    @property
    def duration(self) -> Optional[float]:
        return self.root.duration

    def stage_durations(self) -> Dict[str, float]:
        """Max span duration per known stage name (for exemplar ranking)."""
        out: Dict[str, float] = {}
        with self._lock:
            for span in self.spans:
                if span.name in STAGES and span.duration is not None:
                    if span.duration > out.get(span.name, -1.0):
                        out[span.name] = span.duration
        return out

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "stream": self.stream_id,
                "sampled": self.sampled,
                "status": self.root.status,
                "error": self.error,
                "spans": [span.to_dict() for span in self.spans],
            }


class Tracer:
    """Parent-side trace factory, retention buffer and exemplar reservoir.

    ``sample_rate`` drives head-based sampling with a seeded RNG: the
    n-th started chunk's keep/drop decision is deterministic for a given
    ``seed``.  Unsampled traces still record spans while in flight (the
    slow-exemplar reservoir needs complete timelines for chunks whose
    slowness is only known at the end) but are dropped on finish unless
    they rank among the ``exemplar_slots`` slowest for some stage.
    """

    def __init__(
        self,
        sample_rate: float = 0.1,
        *,
        seed: int = 0,
        max_traces: int = 512,
        exemplar_slots: int = 2,
        clock=time.monotonic,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate!r}")
        self.sample_rate = float(sample_rate)
        self.exemplar_slots = int(exemplar_slots)
        self.max_traces = int(max_traces)
        self._clock = clock
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._serial = 0
        self._retained: List[ChunkTrace] = []
        self._exemplars: Dict[str, List[ChunkTrace]] = {stage: [] for stage in STAGES}
        self.started = 0
        self.finished = 0
        self.errors = 0

    # -- lifecycle ---------------------------------------------------------

    def start_chunk(self, stream_id: str) -> ChunkTrace:
        with self._lock:
            self._serial += 1
            self.started += 1
            trace_id = f"{TRACE_ID_PREFIX}{self._serial:08d}"
            sampled = self._rng.random() < self.sample_rate
        return ChunkTrace(trace_id, stream_id, sampled=sampled, clock=self._clock)

    def finish_chunk(
        self, trace: Optional[ChunkTrace], status: str = _OK, error: Optional[str] = None
    ) -> None:
        """Close a trace; idempotent — the first call wins."""
        if trace is None or not trace.finalize(status, error):
            return
        with self._lock:
            self.finished += 1
            if status != _OK:
                self.errors += 1
            if trace.sampled:
                self._retained.append(trace)
                if len(self._retained) > self.max_traces:
                    del self._retained[: -self.max_traces]
            if self.exemplar_slots > 0:
                self._consider_exemplar(trace)

    def _consider_exemplar(self, trace: ChunkTrace) -> None:
        durations = trace.stage_durations()
        for stage, duration in durations.items():
            bucket = self._exemplars[stage]
            bucket.append(trace)
            bucket.sort(key=lambda t: t.stage_durations().get(stage, 0.0), reverse=True)
            del bucket[self.exemplar_slots :]
        # The root span ranks for wire_roundtrip-free executors too: a chunk
        # with no stage spans at all still shows up somewhere if it is slow.
        _ = durations

    # -- views -------------------------------------------------------------

    def exemplar_ids(self) -> Dict[str, List[str]]:
        """Per-stage ``repro_*`` trace ids of the slowest finished chunks."""
        with self._lock:
            return {
                stage: [trace.trace_id for trace in bucket]
                for stage, bucket in self._exemplars.items()
                if bucket
            }

    def traces(self) -> List[ChunkTrace]:
        """Retained traces: sampled + exemplars, deduplicated, start order."""
        with self._lock:
            seen: Dict[str, ChunkTrace] = {trace.trace_id: trace for trace in self._retained}
            for bucket in self._exemplars.values():
                for trace in bucket:
                    seen.setdefault(trace.trace_id, trace)
        return sorted(seen.values(), key=lambda t: t.trace_id)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "started": self.started,
                "finished": self.finished,
                "errors": self.errors,
                "retained": len(self._retained),
                "sample_rate": self.sample_rate,
            }

    def chrome_trace(self) -> Dict[str, Any]:
        """Render retained traces as Chrome trace-event / Perfetto JSON."""
        traces = self.traces()
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "repro-service"},
            }
        ]
        base = min(
            (span.start for trace in traces for span in trace.spans),
            default=0.0,
        )
        for tid, trace in enumerate(traces, start=1):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": f"{trace.trace_id} {trace.stream_id}"},
                }
            )
            for span in trace.spans:
                args = {
                    "trace_id": trace.trace_id,
                    "stream": trace.stream_id,
                    "status": span.status,
                }
                args.update(span.attrs)
                events.append(
                    {
                        "name": span.name,
                        "cat": "chunk",
                        "ph": "X",
                        "ts": round((span.start - base) * 1e6, 3),
                        "dur": round((span.duration or 0.0) * 1e6, 3),
                        "pid": 1,
                        "tid": tid,
                        "args": args,
                    }
                )
        return {
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA, "traces": len(traces)},
            "traceEvents": events,
        }


def validate_chrome_trace(payload: Any) -> List[str]:
    """Structural check that ``payload`` is Perfetto-loadable.

    Returns a list of problems (empty when valid) so benchmarks and tests
    can assert on it without importing Perfetto.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected dict"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where} is not a dict")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M"):
            problems.append(f"{where} has unexpected ph {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where} has no string name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}.{key} is not an int")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"{where}.{key} is not a non-negative number")
    return problems
