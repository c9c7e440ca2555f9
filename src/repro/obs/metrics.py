"""Low-overhead metrics primitives for the explanation service.

The service runs the same explanation pipeline under two executors
(inline and process shards), so its telemetry has to satisfy three
constraints at once:

* **cheap when off** — a disabled registry hands out ``None`` instruments
  and the hot paths guard on truthiness, so the cost of compiling the
  service with metrics support is one attribute check per stage;
* **thread-safe when on** — counters, gauges and histograms take a small
  lock per update; there is no global registry lock on the hot path;
* **mergeable across processes** — every instrument serialises to a plain
  ``state_dict`` of Python scalars/lists, and fixed-bucket histograms with
  identical bounds merge by elementwise addition, so per-shard histograms
  collected over the ``CollectStats`` wire path combine *exactly* into the
  histogram of the concatenated samples.

Quantiles (p50/p95/p99) are estimated from the bucket counts by linear
interpolation inside the bucket containing the requested rank — the
standard Prometheus-style estimate, bounded by the bucket edges.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "STAGES",
    "STAGE_METRIC",
    "stage_histogram",
    "register_stage_histograms",
    "latency_summary",
    "merge_metric_states",
]

#: Log-spaced latency bucket upper bounds (seconds), 100 µs .. 10 s.
#: Chosen to straddle every pipeline stage: sub-millisecond enqueues,
#: millisecond detector updates, and multi-second cold explanations.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: The instrumented pipeline stages, in pipeline order.  The first five
#: time the chunk path; ``migration_quiesce`` times how long a migrating
#: stream is frozen during a live resize (entering the migrating set to
#: its install on the new owner) — tail latency a producer experiences as
#: a parked chunk.
STAGES: Tuple[str, ...] = (
    "ingest_enqueue",
    "batch_wait",
    "detect",
    "explain",
    "wire_roundtrip",
    "migration_quiesce",
)

#: Metric name shared by all stage histograms; the stage travels as a label.
STAGE_METRIC = "repro_stage_latency_seconds"

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    labels: LabelPairs = ()
    help: str = ""
    _value: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def state_dict(self) -> dict:
        return {"type": "counter", "help": self.help, "value": self.value}

    def merge_state(self, state: Mapping) -> None:
        with self._lock:
            self._value += float(state.get("value", 0.0))

    def __getstate__(self):
        return {"name": self.name, "labels": self.labels, "help": self.help, "value": self.value}

    def __setstate__(self, state):
        self.name = state["name"]
        self.labels = state["labels"]
        self.help = state["help"]
        self._value = state["value"]
        self._lock = threading.Lock()


@dataclass
class Gauge:
    """A value that can go up and down; merge keeps the latest non-None set."""

    name: str
    labels: LabelPairs = ()
    help: str = ""
    _value: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def state_dict(self) -> dict:
        return {"type": "gauge", "help": self.help, "value": self.value}

    def merge_state(self, state: Mapping) -> None:
        # Gauges are point-in-time; an incoming snapshot overwrites.
        self.set(float(state.get("value", 0.0)))

    def __getstate__(self):
        return {"name": self.name, "labels": self.labels, "help": self.help, "value": self.value}

    def __setstate__(self, state):
        self.name = state["name"]
        self.labels = state["labels"]
        self.help = state["help"]
        self._value = state["value"]
        self._lock = threading.Lock()


class Histogram:
    """Fixed-bucket histogram with Prometheus-style quantile estimation.

    Bucket ``i`` counts observations ``<= bounds[i]``; a final implicit
    ``+Inf`` bucket catches the overflow.  Because the bounds are fixed at
    construction, merging two histograms with identical bounds is exact:
    elementwise count addition plus summed ``sum``/``count``.
    """

    __slots__ = ("name", "labels", "help", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (0 < q <= 1) from bucket counts.

        Linear interpolation within the bucket holding rank ``q * count``,
        using the previous bound (or 0 for the first bucket) as the lower
        edge.  Observations in the ``+Inf`` bucket clamp to the top bound.
        Returns ``None`` when the histogram is empty.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        for idx, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                if idx >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[idx - 1] if idx > 0 else 0.0
                upper = self.bounds[idx]
                if bucket_count == 0:
                    return upper
                return lower + (upper - lower) * (rank - previous) / bucket_count
        return self.bounds[-1]

    def summary(self) -> dict:
        """The p50/p95/p99 triple plus count/mean, for reports."""
        with self._lock:
            total = self._count
            observed_sum = self._sum
        return {
            "count": total,
            "sum": observed_sum,
            "mean": (observed_sum / total) if total else None,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def state_dict(self) -> dict:
        with self._lock:
            return {
                "type": "histogram",
                "help": self.help,
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }

    def merge_state(self, state: Mapping) -> None:
        bounds = tuple(float(b) for b in state.get("bounds", ()))
        if bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ "
                f"({bounds} vs {self.bounds})"
            )
        counts = state.get("counts", [])
        if len(counts) != len(self._counts):
            raise ValueError(f"cannot merge histogram {self.name!r}: bucket arity differs")
        with self._lock:
            for idx, extra in enumerate(counts):
                self._counts[idx] += int(extra)
            self._sum += float(state.get("sum", 0.0))
            self._count += int(state.get("count", 0))

    def __getstate__(self):
        return {
            "name": self.name,
            "labels": self.labels,
            "help": self.help,
            "bounds": self.bounds,
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
        }

    def __setstate__(self, state):
        self.name = state["name"]
        self.labels = state["labels"]
        self.help = state["help"]
        self.bounds = tuple(state["bounds"])
        self._counts = list(state["counts"])
        self._sum = state["sum"]
        self._count = state["count"]
        self._lock = threading.Lock()


class MetricsRegistry:
    """Instrument factory and merge point.

    ``enabled=False`` turns every factory into a ``None`` machine: callers
    keep the returned reference and guard updates with ``if ref:``, so a
    disabled service pays one truthiness check per stage and allocates
    nothing.  The registry itself is picklable (locks are rebuilt on
    unpickle) and serialises to/from plain ``state_dict`` payloads for the
    wire path.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelPairs], object] = {}

    # -- instrument factories ------------------------------------------

    def _get_or_create(self, key, factory):
        with self._lock:
            instrument = self._metrics.get(key)
            if instrument is None:
                instrument = factory()
                self._metrics[key] = instrument
            return instrument

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None, help: str = ""
    ) -> Optional[Counter]:
        if not self.enabled:
            return None
        key = (name, _label_key(labels))
        return self._get_or_create(key, lambda: Counter(name, key[1], help))

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None, help: str = ""
    ) -> Optional[Gauge]:
        if not self.enabled:
            return None
        key = (name, _label_key(labels))
        return self._get_or_create(key, lambda: Gauge(name, key[1], help))

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Optional[Histogram]:
        if not self.enabled:
            return None
        key = (name, _label_key(labels))
        return self._get_or_create(key, lambda: Histogram(name, key[1], help, buckets))

    # -- introspection / merge ----------------------------------------

    def instruments(self) -> List[object]:
        with self._lock:
            return list(self._metrics.values())

    def state_dict(self) -> dict:
        """Serialise to ``{name: {label-json: instrument-state}}`` of scalars."""
        payload: Dict[str, dict] = {}
        with self._lock:
            items = list(self._metrics.items())
        for (name, labels), instrument in items:
            payload.setdefault(name, {})[_encode_labels(labels)] = instrument.state_dict()
        return payload

    def merge_state(self, payload: Mapping) -> None:
        """Fold a ``state_dict`` (e.g. from a shard worker) into this registry."""
        if not self.enabled or not payload:
            return
        for name, by_labels in payload.items():
            for encoded, state in by_labels.items():
                labels = dict(_decode_labels(encoded))
                kind = state.get("type")
                if kind == "counter":
                    instrument = self.counter(name, labels, state.get("help", ""))
                elif kind == "gauge":
                    instrument = self.gauge(name, labels, state.get("help", ""))
                elif kind == "histogram":
                    instrument = self.histogram(
                        name,
                        labels,
                        state.get("help", ""),
                        state.get("bounds", DEFAULT_LATENCY_BUCKETS),
                    )
                else:
                    continue
                if instrument is not None:
                    instrument.merge_state(state)

    def merged(self, *payloads: Mapping) -> "MetricsRegistry":
        """A fresh registry holding this one's state plus ``payloads``."""
        combined = MetricsRegistry(enabled=True)
        combined.merge_state(self.state_dict())
        for payload in payloads:
            if payload:
                combined.merge_state(payload)
        return combined

    def __getstate__(self):
        return {"enabled": self.enabled, "state": self.state_dict()}

    def __setstate__(self, state):
        self.enabled = state["enabled"]
        self._lock = threading.Lock()
        self._metrics = {}
        if self.enabled:
            self.merge_state(state["state"])


def _encode_labels(labels: LabelPairs) -> str:
    return "\x1f".join(f"{k}\x1e{v}" for k, v in labels)


def _decode_labels(encoded: str) -> LabelPairs:
    if not encoded:
        return ()
    pairs = []
    for item in encoded.split("\x1f"):
        key, _, value = item.partition("\x1e")
        pairs.append((key, value))
    return tuple(pairs)


def stage_histogram(
    registry: Optional[MetricsRegistry], stage: str, **labels: str
) -> Optional[Histogram]:
    """The latency histogram for one pipeline ``stage`` (plus extra labels)."""
    if registry is None:
        return None
    return registry.histogram(
        STAGE_METRIC,
        {"stage": stage, **labels},
        help="Per-stage pipeline latency in seconds.",
    )


def register_stage_histograms(registry: Optional[MetricsRegistry]) -> None:
    """Pre-create every stage histogram so metric *presence* is uniform.

    Under the inline executor ``wire_roundtrip`` never observes a sample;
    pre-registering keeps the series (with count 0) in every report and
    scrape so dashboards and parity tests see the same shape regardless of
    executor.
    """
    if registry is None or not registry.enabled:
        return
    for stage in STAGES:
        stage_histogram(registry, stage)


def latency_summary(registry: Optional[MetricsRegistry]) -> dict:
    """``{stage: {count, sum, mean, p50, p95, p99}}`` for all stage histograms.

    Histograms carrying extra labels (e.g. per-shard) are merged into the
    stage-level summary first, so callers always see one entry per stage.
    """
    if registry is None:
        return {}
    merged: Dict[str, Histogram] = {}
    for instrument in registry.instruments():
        if not isinstance(instrument, Histogram) or instrument.name != STAGE_METRIC:
            continue
        labels = dict(instrument.labels)
        stage = labels.get("stage")
        if stage is None:
            continue
        target = merged.get(stage)
        if target is None:
            target = Histogram(STAGE_METRIC, (("stage", stage),), buckets=instrument.bounds)
            merged[stage] = target
        target.merge_state(instrument.state_dict())
    return {stage: histogram.summary() for stage, histogram in sorted(merged.items())}


def merge_metric_states(states: Iterable[Mapping]) -> MetricsRegistry:
    """Build one registry from several ``state_dict`` payloads."""
    registry = MetricsRegistry(enabled=True)
    for state in states:
        if state:
            registry.merge_state(state)
    return registry
