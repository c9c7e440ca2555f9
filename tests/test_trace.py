"""Tests for per-chunk tracing, the flight recorder and structured logs.

Covers the trace primitives (spans, completion accounting, cross-process
re-parenting), the tracer's head-based sampling and slow-exemplar
reservoir, Chrome trace-event export and its structural validator, the
flight recorder's ring buffers and crash dumps, the JSON event logger,
and the end-to-end wiring: trace propagation under both executors,
shard crash handling (lost-chunk spans close with an error status and
the recorder dumps a post-mortem file), the ``/healthz`` endpoint, the
``trace`` wire op, the ``repro trace`` CLI command and the versioned
``BENCH_*.json`` envelope.
"""

from __future__ import annotations

import asyncio
import io
import json

import numpy as np
import pytest

from benchmarks.conftest import (
    BENCH_SCHEMA,
    bench_envelope,
    save_bench_json,
    validate_bench_envelope,
)
from repro.aio import AsyncExplanationService, AsyncIngestServer, encode_event, decode_event
from repro.datasets.synthetic import drifting_series
from repro.exceptions import ValidationError
from repro.io.export import save_chrome_trace
from repro.obs.log import JsonLogger
from repro.obs.recorder import FLIGHT_SCHEMA, SERVICE_CHANNEL, FlightRecorder
from repro.obs.trace import (
    TRACE_ID_PREFIX,
    TRACE_SCHEMA,
    ChunkTrace,
    TraceContext,
    Tracer,
    span_dict,
    validate_chrome_trace,
)
from repro.service import ExplanationService, StreamConfig

WINDOW = 150


@pytest.fixture
def drifted_values() -> np.ndarray:
    values, _ = drifting_series(length=1200, drift_start=600, drift_magnitude=3.0, seed=5)
    return values


# ----------------------------------------------------------------------
# Span and trace primitives
# ----------------------------------------------------------------------
class TestSpanPrimitives:
    def test_finish_is_idempotent_first_call_wins(self):
        trace = ChunkTrace("repro_00000001", "s", clock=lambda: 10.0)
        span = trace.start_span("detect")
        span.finish("ok", clock=lambda: 12.5)
        span.finish("error", clock=lambda: 99.0)
        assert span.finished
        assert span.duration == pytest.approx(2.5)
        assert span.status == "ok"

    def test_span_dict_is_wire_safe(self):
        raw = span_dict("batch_wait", 1.0, 0.25, parent=3, attrs={"shard": "shard-1"})
        assert raw == {
            "name": "batch_wait",
            "start": 1.0,
            "duration": 0.25,
            "parent": 3,
            "status": "ok",
            "attrs": {"shard": "shard-1"},
        }
        # Must survive the wire: picklable plain types only.
        assert json.loads(json.dumps(raw)) == raw


class TestChunkTrace:
    def test_finalize_closes_unfinished_spans_with_final_status(self):
        trace = ChunkTrace("repro_00000001", "s", clock=lambda: 1.0)
        open_span = trace.start_span("wire_roundtrip")
        done_span = trace.start_span("detect")
        done_span.finish("ok", clock=lambda: 1.5)
        assert trace.finalize("lost", "shard shard-0 died", clock=lambda: 2.0)
        assert trace.error == "shard shard-0 died"
        assert trace.status == "lost"
        assert open_span.status == "lost"
        assert all(span.finished for span in trace.spans)
        # Already-closed spans keep their own status.
        assert done_span.status == "ok"

    def test_finalize_is_idempotent(self):
        trace = ChunkTrace("repro_00000001", "s")
        assert trace.finalize("ok") is True
        assert trace.finalize("error", "late") is False
        assert trace.status == "ok"
        assert trace.error is None

    def test_extend_reparents_unknown_worker_parents_under_wire_span(self):
        trace = ChunkTrace("repro_00000001", "s")
        wire = trace.start_span("wire_roundtrip")
        # 999 is a span id from the worker's private numbering: unknown here.
        trace.extend(
            [
                span_dict("batch_wait", 1.0, 0.1, parent=999),
                span_dict("detect", 1.1, 0.2, parent=wire.span_id),
            ],
            parent=wire,
        )
        by_name = {span.name: span for span in trace.spans}
        assert by_name["batch_wait"].parent_id == wire.span_id
        assert by_name["detect"].parent_id == wire.span_id

    def test_wire_context_is_picklable_coordinates(self):
        trace = ChunkTrace("repro_00000007", "s", sampled=True)
        wire = trace.start_span("wire_roundtrip")
        context = trace.wire_context(wire)
        assert context == TraceContext("repro_00000007", wire.span_id, True)

    def test_stage_durations_keep_the_max_per_stage(self):
        trace = ChunkTrace("repro_00000001", "s")
        trace.add_span("detect", 0.0, 0.1)
        trace.add_span("detect", 0.0, 0.4)
        trace.add_span("not_a_stage", 0.0, 9.0)
        assert trace.stage_durations() == {"detect": pytest.approx(0.4)}


# ----------------------------------------------------------------------
# Tracer: sampling, exemplars, export
# ----------------------------------------------------------------------
class TestTracer:
    def test_sampling_is_deterministic_for_a_seed(self):
        def sampled_flags(seed: int) -> list[bool]:
            tracer = Tracer(0.5, seed=seed)
            return [tracer.start_chunk("s").sampled for _ in range(50)]

        assert sampled_flags(7) == sampled_flags(7)
        assert sampled_flags(7) != sampled_flags(8)

    def test_trace_ids_are_serial_with_the_public_prefix(self):
        tracer = Tracer(1.0)
        ids = [tracer.start_chunk("s").trace_id for _ in range(3)]
        assert ids == ["repro_00000001", "repro_00000002", "repro_00000003"]
        assert all(tid.startswith(TRACE_ID_PREFIX) for tid in ids)

    def test_finish_chunk_is_idempotent_in_stats(self):
        tracer = Tracer(1.0)
        trace = tracer.start_chunk("s")
        tracer.finish_chunk(trace, "error", "boom")
        tracer.finish_chunk(trace)  # late duplicate: ignored
        stats = tracer.stats()
        assert stats["started"] == 1
        assert stats["finished"] == 1
        assert stats["errors"] == 1

    def test_unsampled_slow_chunks_survive_as_exemplars(self):
        clock = [0.0]
        tracer = Tracer(0.0, exemplar_slots=1, clock=lambda: clock[0])
        durations = {"fast": 0.01, "slow": 5.0, "medium": 1.0}
        for name, duration in durations.items():
            trace = tracer.start_chunk(name)
            trace.add_span("detect", 0.0, duration)
            tracer.finish_chunk(trace)
        assert tracer.stats()["retained"] == 0  # rate 0: nothing sampled
        exemplars = tracer.exemplar_ids()
        assert len(exemplars["detect"]) == 1
        slow_id = exemplars["detect"][0]
        # The exemplar is the slowest chunk, and it is exported.
        kept = {trace.stream_id for trace in tracer.traces()}
        assert kept == {"slow"}
        assert slow_id == tracer.traces()[0].trace_id

    def test_retention_buffer_is_bounded(self):
        tracer = Tracer(1.0, max_traces=4, exemplar_slots=0)
        for _ in range(10):
            tracer.finish_chunk(tracer.start_chunk("s"))
        assert tracer.stats()["retained"] == 4

    def test_chrome_trace_is_structurally_valid(self):
        clock = [100.0]
        tracer = Tracer(1.0, clock=lambda: clock[0])
        trace = tracer.start_chunk("s")
        clock[0] = 100.5
        tracer.finish_chunk(trace)
        payload = tracer.chrome_trace()
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"] == {"schema": TRACE_SCHEMA, "traces": 1}
        complete = [event for event in payload["traceEvents"] if event["ph"] == "X"]
        assert complete[0]["name"] == "chunk"
        assert complete[0]["dur"] == pytest.approx(0.5e6)

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) == ["payload is list, expected dict"]
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": -1, "dur": 0}]}
        )
        assert any("ts" in problem for problem in problems)

    def test_sample_rate_is_validated(self):
        with pytest.raises(ValueError):
            Tracer(1.5)


class TestSaveChromeTrace:
    def test_round_trips_through_disk(self, tmp_path):
        tracer = Tracer(1.0)
        tracer.finish_chunk(tracer.start_chunk("s"))
        path = save_chrome_trace(tracer.chrome_trace(), tmp_path / "deep" / "trace.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_rejects_non_trace_payloads(self, tmp_path):
        with pytest.raises(ValidationError):
            save_chrome_trace({"spans": []}, tmp_path / "trace.json")


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_rings_are_bounded_per_channel(self):
        recorder = FlightRecorder(capacity=3, clock=lambda: 0.0)
        for index in range(10):
            recorder.record("shard-0", "ingest", seq=index)
        recorder.record("shard-1", "spawn")
        assert [event["seq"] for event in recorder.events("shard-0")] == [7, 8, 9]
        assert recorder.channels() == ["shard-0", "shard-1"]

    def test_none_channel_lands_on_the_service_channel(self):
        recorder = FlightRecorder()
        recorder.record(None, "resize", shards=3)
        assert recorder.events(SERVICE_CHANNEL)[0]["event"] == "resize"

    def test_dump_writes_schema_tagged_file(self, tmp_path):
        clock = [123.0]
        recorder = FlightRecorder(dump_dir=tmp_path / "flight", clock=lambda: clock[0])
        recorder.record("shard-0", "crash", exitcode=17)
        path = recorder.dump("crash shard-0")  # space must be sanitised
        assert path is not None and path.name == "flight-crash-shard-0-001.json"
        payload = json.loads(path.read_text())
        assert payload["schema"] == FLIGHT_SCHEMA
        assert payload["reason"] == "crash shard-0"
        assert payload["channels"]["shard-0"][0]["exitcode"] == 17

    def test_dump_without_destination_returns_none(self):
        recorder = FlightRecorder()
        assert recorder.dump("manual") is None

    def test_capacity_is_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_log_handler_routes_shard_field_to_channel(self):
        recorder = FlightRecorder()
        logger = JsonLogger(clock=lambda: 1.0)
        logger.add_handler(recorder.log_handler)
        logger.info("respawn", shard="shard-2", pid=42)
        events = recorder.events("shard-2")
        assert events and events[0]["event"] == "respawn"
        assert events[0]["pid"] == 42


# ----------------------------------------------------------------------
# Structured JSON logging
# ----------------------------------------------------------------------
class TestJsonLogger:
    def test_records_are_one_json_object_per_line(self):
        stream = io.StringIO()
        logger = JsonLogger(stream, clock=lambda: 5.0)
        logger.info("spawn", shard="shard-0")
        logger.error("crash", shard="shard-0", exitcode=17)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines[0] == {"ts": 5.0, "level": "info", "event": "spawn", "shard": "shard-0"}
        assert lines[1]["level"] == "error" and lines[1]["exitcode"] == 17

    def test_bound_context_rides_every_record(self):
        stream = io.StringIO()
        logger = JsonLogger(stream, clock=lambda: 1.0).bind(trace_id="repro_00000001")
        logger.debug("detect")
        assert json.loads(stream.getvalue())["trace_id"] == "repro_00000001"

    def test_handler_errors_never_propagate(self):
        logger = JsonLogger(clock=lambda: 1.0)
        logger.add_handler(lambda record: (_ for _ in ()).throw(RuntimeError("observer bug")))
        record = logger.warning("drop", stream="s")
        assert record["event"] == "drop"


# ----------------------------------------------------------------------
# BENCH_*.json envelope (benchmarks/conftest helpers)
# ----------------------------------------------------------------------
class TestBenchEnvelope:
    def test_envelope_stamps_schema_name_and_timestamp(self):
        payload = bench_envelope("rebalance", {"speedup": 2.0})
        assert validate_bench_envelope(payload, "rebalance") == []
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["speedup"] == 2.0

    def test_save_round_trips_and_validates(self, tmp_path):
        path = save_bench_json("smoke", {"ok": True}, tmp_path / "results" / "BENCH_x.json")
        assert validate_bench_envelope(json.loads(path.read_text()), "smoke") == []

    def test_validator_names_each_problem(self):
        problems = validate_bench_envelope(
            {"schema": "other/9", "generated_at": "yesterday"}, "x"
        )
        assert len(problems) == 3
        assert validate_bench_envelope([]) == ["payload is list, expected dict"]
        assert validate_bench_envelope(
            bench_envelope("a", {}), "b"
        ) == ["benchmark is 'a', expected 'b'"]


# ----------------------------------------------------------------------
# End-to-end: trace propagation under every executor
# ----------------------------------------------------------------------
class TestTracePropagation:
    @pytest.mark.parametrize(
        "executor,kwargs,expected_stages",
        [
            ("inline", {}, {"ingest_enqueue", "detect", "explain"}),
            (
                "process",
                {"shards": 2},
                {"ingest_enqueue", "batch_wait", "detect", "explain", "wire_roundtrip"},
            ),
        ],
    )
    def test_span_tree_covers_the_executor_stages(
        self, executor, kwargs, expected_stages, drifted_values
    ):
        with ExplanationService(
            executor=executor,
            tracing=True,
            trace_sample=1.0,
            default_config=StreamConfig(window_size=WINDOW),
            **kwargs,
        ) as service:
            service.register("a")
            for start in range(0, drifted_values.size, 200):
                service.submit("a", drifted_values[start:start + 200])
            service.drain()
            tracer = service.tracer
            traces = tracer.traces()
            payload = service.trace_export()
        stats = tracer.stats()
        assert stats["started"] == stats["finished"] > 0
        assert stats["errors"] == 0
        seen_stages = {span.name for trace in traces for span in trace.spans}
        assert expected_stages <= seen_stages
        # Every trace is complete: root closed ok, no dangling spans.
        for trace in traces:
            assert trace.finalized and trace.status == "ok"
            assert all(span.finished for span in trace.spans)
            span_ids = {span.span_id for span in trace.spans}
            assert all(
                span.parent_id in span_ids for span in trace.spans if span.parent_id is not None
            )
        if executor == "process":
            wire_parents = {
                span.span_id
                for trace in traces
                for span in trace.spans
                if span.name == "wire_roundtrip"
            }
            worker_spans = [
                span
                for trace in traces
                for span in trace.spans
                if span.name in ("detect", "explain") and span.parent_id in wire_parents
            ]
            assert worker_spans, "worker spans must re-parent under wire_roundtrip"
            assert any(span.attrs.get("shard") for span in worker_spans)
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["traces"] == len(traces)

    def test_exemplar_ids_surface_in_the_report_latency(self, drifted_values):
        with ExplanationService(
            metrics=True,
            tracing=True,
            trace_sample=0.0,  # exemplars are independent of sampling
            default_config=StreamConfig(window_size=WINDOW),
        ) as service:
            service.register("a")
            for start in range(0, drifted_values.size, 200):
                service.submit("a", drifted_values[start:start + 200])
            report = service.report()
        detect = report.latency["detect"]
        assert detect["count"] > 0
        assert detect["exemplars"]
        assert all(tid.startswith(TRACE_ID_PREFIX) for tid in detect["exemplars"])
        assert "slowest: repro_" in report.render(alarms=False)

    def test_default_sampling_retains_a_deterministic_subset(self, drifted_values):
        def retained_ids() -> list[str]:
            with ExplanationService(
                executor="inline",
                tracing=True,
                trace_sample=0.5,
                trace_seed=11,
                default_config=StreamConfig(window_size=WINDOW),
            ) as service:
                service.register("a")
                for start in range(0, drifted_values.size, 100):
                    service.submit("a", drifted_values[start:start + 100])
                service.drain()
                return sorted(
                    trace.trace_id for trace in service.tracer.traces() if trace.sampled
                )

        first, second = retained_ids(), retained_ids()
        assert first == second
        assert 0 < len(first) < drifted_values.size // 100 + 1

    def test_tracing_disabled_exports_an_empty_valid_payload(self, drifted_values):
        with ExplanationService(default_config=StreamConfig(window_size=WINDOW)) as service:
            service.register("a")
            service.submit("a", drifted_values[:400])
            payload = service.trace_export()
        assert service.tracer is None and service.recorder is None
        assert validate_chrome_trace(payload) == []
        assert payload["traceEvents"] == []


# ----------------------------------------------------------------------
# Shard crash: lost spans close, the recorder dumps a post-mortem
# ----------------------------------------------------------------------
class TestCrashFlightPath:
    def test_lost_chunk_spans_close_with_error_and_recorder_dumps(
        self, tmp_path, drifted_values
    ):
        trace_dir = tmp_path / "telemetry"
        with ExplanationService(
            executor="process",
            shards=2,
            tracing=True,
            trace_sample=1.0,
            trace_dir=trace_dir,
            default_config=StreamConfig(window_size=WINDOW),
        ) as service:
            service.register("a")
            service.register("b")
            executor = service.executor
            service.submit("a", drifted_values[:400])
            service.drain()
            # Freeze a's shard so the next chunk provably sits unprocessed
            # in its queue, then hard-kill it: the chunk can never be
            # acknowledged and must be abandoned as lost.
            import os
            import signal

            process = executor._shards[executor.shard_of("a")].process
            os.kill(process.pid, signal.SIGSTOP)
            service.submit("a", drifted_values[400:800])
            os.kill(process.pid, signal.SIGKILL)
            process.join(30)
            assert not process.is_alive()
            service.drain()
            tracer = service.tracer
            recorder = service.recorder
            report = service.report()

        assert report.executor_stats["restarts"] >= 1
        stats = tracer.stats()
        assert stats["started"] == stats["finished"]
        assert stats["errors"] >= 1
        lost = [trace for trace in tracer.traces() if trace.status == "lost"]
        assert lost, "the abandoned chunk's trace must be retained with its error"
        for trace in lost:
            assert "died" in (trace.error or "")
            assert all(span.finished for span in trace.spans)
            wire = [span for span in trace.spans if span.name == "wire_roundtrip"]
            assert wire and wire[0].status == "lost"

        # The recorder saw the lifecycle and persisted a crash dump.
        events = {event["event"] for event in recorder.events()}
        assert {"spawn", "crash", "chunks_lost", "respawn"} <= events
        dumps = list(trace_dir.glob("flight-crash-*.json"))
        assert dumps, "a shard crash must leave a flight-recorder file"
        payload = json.loads(dumps[0].read_text())
        assert payload["schema"] == FLIGHT_SCHEMA
        assert any(
            event["event"] == "crash"
            for channel in payload["channels"].values()
            for event in channel
        )


# ----------------------------------------------------------------------
# /healthz endpoint and 404 discoverability
# ----------------------------------------------------------------------
class TestHealthEndpoint:
    @staticmethod
    def _request(path: str, health=None) -> tuple[str, str]:
        from repro.obs.exporter import start_metrics_server

        async def run() -> tuple[str, str]:
            bound: asyncio.Future = asyncio.get_running_loop().create_future()
            server = await start_metrics_server(
                lambda: "# metrics\n",
                health=health,
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

        return asyncio.run(run())

    def test_healthz_serves_the_health_payload_as_json(self):
        status, body = self._request("/healthz", health=lambda: {"status": "ok", "streams": 2})
        assert status == "HTTP/1.1 200 OK"
        assert json.loads(body) == {"status": "ok", "streams": 2}

    def test_healthz_is_404_when_no_health_callable_is_wired(self):
        status, body = self._request("/healthz")
        assert status == "HTTP/1.1 404 Not Found"
        assert "known paths: /, /metrics" in body
        assert "/healthz" not in body

    def test_404_lists_healthz_when_available(self):
        status, body = self._request("/nope", health=lambda: {"status": "ok"})
        assert status == "HTTP/1.1 404 Not Found"
        assert "known paths: /, /metrics, /healthz" in body

    def test_service_health_payload_shape(self, drifted_values):
        with ExplanationService(default_config=StreamConfig(window_size=WINDOW)) as service:
            service.register("a")
            service.submit("a", drifted_values[:200])
            health = service.health()
        assert health["status"] == "ok"
        assert health["streams"] == 1
        assert health["uptime_seconds"] >= 0
        assert service.health()["status"] == "closed"


# ----------------------------------------------------------------------
# Report rendering: latency rows only when sampled
# ----------------------------------------------------------------------
class TestReportLatencyRendering:
    @staticmethod
    def _report(latency: dict):
        from repro.service.results import ServiceReport

        return ServiceReport(
            streams=[],
            cache_stats={},
            executor_stats={"executor": "inline"},
            elapsed_seconds=1.0,
            cache_hit_rate=0.0,
            latency=latency,
        )

    def test_metrics_disabled_renders_no_latency_section(self):
        assert "stage latency" not in self._report({}).render()

    def test_zero_count_stages_are_suppressed(self):
        rendered = self._report(
            {
                "detect": {"count": 3, "p50": 0.001, "p95": 0.002, "p99": 0.003},
                "wire_roundtrip": {"count": 0, "p50": None, "p95": None, "p99": None},
            }
        ).render()
        assert "stage latency" in rendered
        assert "detect" in rendered
        assert "wire_roundtrip" not in rendered

    def test_exemplar_ids_render_alongside_their_stage(self):
        rendered = self._report(
            {
                "detect": {
                    "count": 3,
                    "p50": 0.001,
                    "p95": 0.002,
                    "p99": 0.003,
                    "exemplars": ["repro_00000004"],
                }
            }
        ).render()
        assert "slowest: repro_00000004" in rendered


# ----------------------------------------------------------------------
# The trace wire op
# ----------------------------------------------------------------------
class TestTraceWireOp:
    def test_trace_op_returns_perfetto_payload_over_the_wire(self, drifted_values):
        from repro.aio import serve_listen

        async def run() -> dict:
            loop = asyncio.get_running_loop()
            bound = loop.create_future()
            async with AsyncExplanationService(
                executor="inline",
                tracing=True,
                trace_sample=1.0,
                default_config=StreamConfig(window_size=WINDOW),
            ) as aio:
                task = asyncio.ensure_future(
                    serve_listen(aio, "127.0.0.1", 0, on_bound=bound.set_result)
                )
                host, port = await asyncio.wait_for(bound, timeout=10)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    encode_event(
                        {"stream": "a", "values": drifted_values[:400].tolist(), "await": True}
                    )
                )
                await writer.drain()
                assert decode_event(await reader.readline()).get("ok")
                writer.write(encode_event({"op": "trace"}))
                await writer.drain()
                reply = decode_event(await reader.readline())
                writer.write(encode_event({"op": "shutdown"}))
                await writer.drain()
                await reader.readline()
                writer.close()
                await asyncio.wait_for(task, timeout=30)
                return reply

        reply = asyncio.run(run())
        assert reply["ok"]
        assert validate_chrome_trace(reply["trace"]) == []
        assert reply["trace"]["otherData"]["traces"] >= 1

    def test_async_health_mirrors_the_engine(self):
        async def run() -> dict:
            async with AsyncExplanationService(
                executor="inline", default_config=StreamConfig(window_size=WINDOW)
            ) as aio:
                return await aio.health()

        assert asyncio.run(run())["status"] == "ok"

    def test_server_class_answers_trace_when_disabled(self, drifted_values):
        async def run() -> dict:
            async with AsyncExplanationService(
                executor="inline", default_config=StreamConfig(window_size=WINDOW)
            ) as aio:
                server = AsyncIngestServer(aio, source=None)
                return await server.handle({"op": "trace"})

        reply = asyncio.run(run())
        assert reply["ok"]
        assert validate_chrome_trace(reply["trace"]) == []
        assert reply["trace"]["traceEvents"] == []


# ----------------------------------------------------------------------
# CLI: repro trace and serve --trace-dir
# ----------------------------------------------------------------------
class TestTraceCli:
    @pytest.fixture
    def series_file(self, tmp_path):
        values, _ = drifting_series(length=1200, drift_start=600, drift_magnitude=3.0, seed=5)
        path = tmp_path / "sensor.csv"
        path.write_text("\n".join(str(v) for v in values) + "\n")
        return str(path)

    def test_trace_command_writes_a_perfetto_file(self, series_file, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "out" / "trace.json"
        code = main(["trace", series_file, "--window", "150", "--output", str(output)])
        assert code == 0
        payload = json.loads(output.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["traces"] >= 1
        out = capsys.readouterr().out
        assert "traced" in out and str(output) in out

    def test_trace_command_rejects_bad_sample_rate(self, series_file):
        from repro.cli import main

        assert main(["trace", series_file, "--sample", "2.0"]) != 0

    def test_trace_shards_require_process_executor(self, series_file):
        from repro.cli import main

        assert main(["trace", series_file, "--shards", "2"]) != 0

    def test_serve_trace_dir_writes_trace_and_reports(self, series_file, tmp_path, capsys):
        from repro.cli import main

        trace_dir = tmp_path / "telemetry"
        code = main(
            [
                "serve",
                series_file,
                "--window",
                "150",
                "--summary-only",
                "--trace-dir",
                str(trace_dir),
            ]
        )
        assert code == 0
        payload = json.loads((trace_dir / "trace.json").read_text())
        assert validate_chrome_trace(payload) == []
        assert "chunk traces written to" in capsys.readouterr().out
