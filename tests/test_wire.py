"""Tests for the framed parent↔shard wire.

Covers the frame codec (arbitrary dtypes/shapes and trace contexts survive
the pickle an :class:`~repro.cluster.wire.IngestFrame` crosses the process
boundary as, byte-identically) and crash safety: a chunk the runtime
rejects surfaces as a :class:`~repro.cluster.wire.WorkerFailure` for its
seq instead of a hang, and a SIGKILLed shard loses its in-flight chunks
attributably, with their traces finalised as lost.
"""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.wire import IngestChunk, IngestFrame, encode_frame
from repro.datasets.synthetic import drifting_series
from repro.exceptions import ServiceBackendError
from repro.obs.trace import TraceContext
from repro.service import ExplanationService, StreamConfig

WINDOW = 150


@pytest.fixture(scope="module")
def drifted_values() -> np.ndarray:
    values, _ = drifting_series(
        length=1200, drift_start=600, drift_magnitude=3.0, seed=5
    )
    return values


# ----------------------------------------------------------------------
# Frame codec: property-based round trip
# ----------------------------------------------------------------------
DTYPES = ("<f8", "<f4", "<i8", "<i4", "<u2")

chunk_arrays = st.builds(
    lambda dtype, shape, fill: np.full(shape, fill, dtype=np.dtype(dtype)),
    st.sampled_from(DTYPES),
    st.one_of(
        st.integers(min_value=0, max_value=400).map(lambda n: (n,)),
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=8),
        ),
    ),
    st.integers(min_value=0, max_value=1000),  # fits every sampled dtype
)

trace_contexts = st.one_of(
    st.none(),
    st.builds(
        TraceContext,
        trace_id=st.text("abcdef0123456789", min_size=8, max_size=8),
        parent_span_id=st.text("abcdef0123456789", min_size=8, max_size=8),
        sampled=st.booleans(),
    ),
)

chunk_batches = st.lists(
    st.tuples(
        chunk_arrays,
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6)),
        trace_contexts,
    ),
    min_size=1,
    max_size=12,
)

CODEC_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_chunks(batch) -> list[IngestChunk]:
    return [
        IngestChunk(
            seq=index + 1,
            stream_id=f"stream-{index % 3}",
            values=values,
            enqueued_at=enqueued_at,
            trace=trace,
        )
        for index, (values, enqueued_at, trace) in enumerate(batch)
    ]


def assert_round_trip(chunks, decoded):
    assert len(decoded) == len(chunks)
    for chunk, out in zip(chunks, decoded):
        assert isinstance(out, IngestChunk), out
        assert out.seq == chunk.seq
        assert out.stream_id == chunk.stream_id
        assert out.enqueued_at == chunk.enqueued_at
        assert out.trace == chunk.trace
        assert out.values.dtype == chunk.values.dtype
        assert out.values.shape == chunk.values.shape
        assert out.values.tobytes() == chunk.values.tobytes()


class TestFrameCodec:
    @given(chunk_batches)
    @CODEC_SETTINGS
    def test_pickled_frame_round_trips_byte_identically(self, batch):
        chunks = build_chunks(batch)
        # The frame is what actually crosses the process boundary: pickle
        # it, exactly like mp.Queue would.
        frame = pickle.loads(pickle.dumps(encode_frame(chunks)))
        assert isinstance(frame, IngestFrame)
        assert_round_trip(chunks, frame.chunks)


# ----------------------------------------------------------------------
# Crash safety: no hangs, lost chunks attributed, traces finalized
# ----------------------------------------------------------------------
class TestCrashSafety:
    def test_sigkill_mid_frame_loses_chunks_attributably(self, drifted_values):
        with ExplanationService(
            executor="process",
            shards=2,
            tracing=True,
            trace_sample=1.0,
            default_config=StreamConfig(window_size=WINDOW),
        ) as service:
            service.register("a")
            service.register("b")
            executor = service.executor
            service.submit("b", drifted_values[:400])
            service.drain()
            # Freeze a's shard so its next chunks sit unprocessed (in the
            # pending frame or its queue), then SIGKILL it mid-flight.
            shard = executor._shards[executor.shard_of("a")]
            os.kill(shard.process.pid, signal.SIGSTOP)
            service.submit("a", drifted_values[:300])
            service.submit("a", drifted_values[300:600])
            os.kill(shard.process.pid, signal.SIGKILL)
            shard.process.join(30)
            assert not shard.process.is_alive()
            # Drain must not hang on the dead shard's unacknowledged chunks.
            assert service.drain(timeout=60)
            tracer = service.tracer
            report = service.report()
        assert report.executor_stats["restarts"] >= 1
        assert report.executor_stats["lost_chunks"] >= 1
        lost = [trace for trace in tracer.traces() if trace.status == "lost"]
        assert lost, "lost chunks must finalize their traces as lost"
        assert all(span.finished for trace in lost for span in trace.spans)

    def test_corrupt_frame_surfaces_as_worker_failure_not_hang(self):
        with ExplanationService(
            executor="process",
            shards=1,
            tracing=True,
            default_config=StreamConfig(window_size=WINDOW),
        ) as service:
            service.register("s")
            executor = service.executor
            shard = executor._shards[executor.shard_of("s")]
            # A frame holding a chunk the runtime cannot coerce: the worker
            # must answer with a WorkerFailure for that seq, not die or go
            # silent.
            bad = encode_frame(
                [IngestChunk(seq=999_983, stream_id="s", values=np.array(["nan?"]))]
            )
            with executor._lifecycle:
                executor._post(shard, bad)
            # A real chunk behind the bad frame keeps drain() waiting long
            # enough to observe the deferred failure.
            service.submit("s", np.zeros(10))
            with pytest.raises(ServiceBackendError, match="IngestChunk failed"):
                for _ in range(200):
                    service.drain(timeout=0.1)
            failures = [
                event
                for event in service.recorder.events(shard.shard_id)
                if event["event"] == "worker_failure"
            ]
            assert [event["seq"] for event in failures] == [999_983]
            service.close(drain=False)
