"""Tests for the asyncio ingestion front-end (``repro.aio``).

Covers the chunk-completion hook the async layer is bridged from, the
awaitable service wrapper itself (futures, alarm streams, backpressure
awaiting, the periodic snapshot task), the ingest sources and server, and
the headline property: interleaved async submitters across many streams
produce byte-identical canonical reports to a sequential replay, under
both in-process and process-sharded executors.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aio import (
    AsyncExplanationService,
    AsyncIngestServer,
    FileTailSource,
    decode_event,
    encode_event,
    make_source,
    register_source,
    serve_listen,
    source_names,
)
from repro.exceptions import ValidationError
from repro.service import ChunkResult, ExplanationService, StreamConfig
from repro.service.results import canonical_report_dict
from repro.service.snapshot import ServiceSnapshot

WINDOW = 100


def fleet(streams: int = 2, size: int = 500) -> dict[str, np.ndarray]:
    """Deterministic drifting feeds: one mean shift halfway through."""
    series: dict[str, np.ndarray] = {}
    for index in range(streams):
        first = np.random.default_rng(index).normal(0.0, 1.0, size=size // 2)
        second = np.random.default_rng(1000 + index).normal(4.0, 1.0, size=size - size // 2)
        series[f"s{index}"] = np.concatenate([first, second])
    return series


def sequential_canonical(
    series: dict[str, np.ndarray], executor: str = "inline", chunk: int = 125, **kwargs
) -> dict:
    """Reference replay: stream after stream, chunk after chunk."""
    with ExplanationService(
        executor=executor, default_config=StreamConfig(window_size=WINDOW), **kwargs
    ) as service:
        for stream_id in sorted(series):
            service.register(stream_id)
        for stream_id in sorted(series):
            values = series[stream_id]
            for start in range(0, values.size, chunk):
                piece = values[start:start + chunk]
                if piece.size:
                    service.submit(stream_id, piece)
        return canonical_report_dict(service.report().to_dict())


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# The engine-level completion hook the async layer is built on
# ----------------------------------------------------------------------
class TestChunkCompletion:
    @pytest.mark.parametrize("executor,kwargs", [("inline", {}), ("process", {"shards": 1})])
    def test_on_complete_fires_once_per_chunk_with_its_alarms(self, executor, kwargs):
        series = fleet(streams=1)["s0"]
        results: list[ChunkResult] = []
        with ExplanationService(
            executor=executor, default_config=StreamConfig(window_size=WINDOW), **kwargs
        ) as service:
            service.register("s0")
            chunks = 0
            for start in range(0, series.size, 125):
                service.submit("s0", series[start:start + 125], on_complete=results.append)
                chunks += 1
            service.drain()
            report = service.report()
        assert len(results) == chunks
        assert sum(result.observations for result in results) == series.size
        assert sum(len(result.alarms) for result in results) == report.alarms_raised
        assert not any(result.lost for result in results)
        # A chunk that raised no alarms still resolves (with none).
        assert any(not result.alarms for result in results)

    def test_process_executor_resolves_after_shard_acknowledgement(self):
        series = fleet(streams=1)["s0"]
        results: list[ChunkResult] = []
        with ExplanationService(
            executor="process", shards=2, default_config=StreamConfig(window_size=WINDOW)
        ) as service:
            service.register("s0")
            for start in range(0, series.size, 125):
                service.submit("s0", series[start:start + 125], on_complete=results.append)
            service.drain()
            report = service.report()
        assert len(results) == 4
        assert sum(result.observations for result in results) == series.size
        assert sum(len(result.alarms) for result in results) == report.alarms_raised
        assert not any(result.lost for result in results)

    def test_raising_on_complete_is_deferred_not_fatal(self):
        series = fleet(streams=1)["s0"]

        def bad(result: ChunkResult) -> None:
            raise RuntimeError("completion bug")

        service = ExplanationService(
            executor="inline", default_config=StreamConfig(window_size=WINDOW)
        )
        service.register("s0")
        service.submit("s0", series, on_complete=bad)
        with pytest.raises(Exception, match="completion bug"):
            service.drain()
        service.close()

    def test_alarm_listener_sees_every_alarm(self):
        series = fleet(streams=2)
        seen: list = []
        lock = threading.Lock()

        def listener(alarm) -> None:
            with lock:
                seen.append(alarm)

        with ExplanationService(default_config=StreamConfig(window_size=WINDOW)) as service:
            service.add_alarm_listener(listener)
            for stream_id in sorted(series):
                service.register(stream_id)
            for stream_id, values in series.items():
                service.submit(stream_id, values)
            service.drain()
            report = service.report()
            service.remove_alarm_listener(listener)
        assert len(seen) == report.alarms_raised


# ----------------------------------------------------------------------
# The awaitable wrapper
# ----------------------------------------------------------------------
class TestAsyncExplanationService:
    def test_submit_returns_future_resolving_to_chunk_result(self):
        series = fleet(streams=2)

        async def run() -> tuple[list[ChunkResult], dict]:
            async with AsyncExplanationService(
                default_config=StreamConfig(window_size=WINDOW)
            ) as aio:
                futures = []
                for stream_id in sorted(series):
                    await aio.register(stream_id)
                for start in range(0, 500, 125):
                    for stream_id, values in series.items():
                        future = await aio.submit(stream_id, values[start:start + 125])
                        futures.append(future)
                results = await asyncio.gather(*futures)
                report = await aio.report()
                return results, canonical_report_dict(report.to_dict())

        results, canonical = asyncio.run(run())
        assert len(results) == 8
        assert all(isinstance(result, ChunkResult) for result in results)
        total = sum(len(stream["alarms"]) for stream in canonical["streams"])
        assert sum(len(result.alarms) for result in results) == total
        assert canonical == sequential_canonical(series)

    def test_explain_awaits_resolution_inline(self):
        series = fleet(streams=1)["s0"]

        async def run() -> ChunkResult:
            async with AsyncExplanationService(
                executor="inline", default_config=StreamConfig(window_size=WINDOW)
            ) as aio:
                await aio.register("s0")
                return await aio.explain("s0", series)

        result = asyncio.run(run())
        assert result.observations == series.size
        assert result.alarms and all(alarm.explained for alarm in result.alarms)

    def test_alarm_stream_yields_and_ends_on_close(self):
        series = fleet(streams=1)["s0"]

        async def run() -> list:
            aio = AsyncExplanationService(default_config=StreamConfig(window_size=WINDOW))
            async with aio:
                stream = aio.alarms()
                await aio.register("s0")
                collected = []

                async def consume() -> None:
                    async for alarm in stream:
                        collected.append(alarm)

                consumer = asyncio.ensure_future(consume())
                result = await aio.explain("s0", series)
                assert result.alarms
                await aio.drain()
            # Closing the service closed the stream: the consumer ends.
            await asyncio.wait_for(consumer, timeout=10)
            return collected

        collected = asyncio.run(run())
        assert collected and all(alarm.explained for alarm in collected)

    def test_submit_awaits_capacity(self):
        """A saturated backend suspends the submitter instead of blocking."""
        series = fleet(streams=1)["s0"]

        async def run() -> None:
            async with AsyncExplanationService(
                executor="inline", default_config=StreamConfig(window_size=WINDOW)
            ) as aio:
                await aio.register("s0")
                gate = [False]
                aio.service.has_capacity = lambda: gate[0]  # saturate the probe

                async def open_gate() -> None:
                    await asyncio.sleep(0.15)
                    gate[0] = True

                opener = asyncio.ensure_future(open_gate())
                started = time.perf_counter()
                future = await aio.submit("s0", series[:200])
                waited = time.perf_counter() - started
                await future
                await opener
                assert waited >= 0.1, "submit did not await the capacity signal"

        asyncio.run(run())

    def test_periodic_snapshot_task_checkpoints(self, tmp_path):
        series = fleet(streams=1)["s0"]
        path = tmp_path / "service.snapshot"

        async def run() -> None:
            async with AsyncExplanationService(
                executor="inline",
                default_config=StreamConfig(window_size=WINDOW),
                snapshot_path=path,
                snapshot_interval=0.05,
            ) as aio:
                await aio.register("s0")
                await aio.explain("s0", series)
                deadline = time.perf_counter() + 5.0
                while not path.exists() and time.perf_counter() < deadline:
                    await asyncio.sleep(0.02)
            assert path.exists(), "the snapshot task never checkpointed"

        asyncio.run(run())
        snapshot = ServiceSnapshot.load(path)
        assert snapshot.stream_ids() == ["s0"]
        assert snapshot.resume_offsets()["s0"] == series.size

    def test_submit_raises_when_wrapped_service_closed_out_of_band(self):
        """Closing the shared service must end the capacity wait, not spin."""

        async def run() -> None:
            aio = AsyncExplanationService()
            await aio.register("s0")
            aio.service.close()  # out-of-band: the wrapper does not know
            with pytest.raises(ValidationError, match="closed"):
                await asyncio.wait_for(aio.submit("s0", [1.0, 2.0]), timeout=10)

        asyncio.run(run())

    def test_rejects_service_kwargs_with_prebuilt_service(self):
        service = ExplanationService(executor="inline")
        with pytest.raises(ValidationError):
            AsyncExplanationService(service, metrics=True)
        service.close()


# ----------------------------------------------------------------------
# Sources and the ingest server
# ----------------------------------------------------------------------
class TestSources:
    def test_wire_codec_round_trip_and_validation(self):
        event = {"stream": "s0", "values": [1.0, 2.0]}
        assert decode_event(encode_event(event).strip()) == event
        with pytest.raises(ValidationError, match="malformed"):
            decode_event(b"{nope")
        with pytest.raises(ValidationError, match="object"):
            decode_event(b"[1, 2]")

    def test_source_registry(self):
        assert {"tcp", "tail"} <= set(source_names())
        with pytest.raises(ValidationError, match="unknown ingest source"):
            make_source("carrier-pigeon")

        class Custom:
            name = "custom"

            async def run(self, handler):  # pragma: no cover - contract only
                pass

            def stop(self):  # pragma: no cover - contract only
                pass

        register_source("custom", Custom)
        assert isinstance(make_source("custom"), Custom)

    def test_tail_source_replays_file_with_parity(self, tmp_path):
        series = fleet(streams=2)
        events_path = tmp_path / "events.jsonl"
        with events_path.open("wb") as handle:
            for start in range(0, 500, 125):
                for stream_id, values in series.items():
                    handle.write(
                        encode_event(
                            {"stream": stream_id, "values": values[start:start + 125].tolist()}
                        )
                    )

        async def run() -> dict:
            async with AsyncExplanationService(
                executor="inline", default_config=StreamConfig(window_size=WINDOW)
            ) as aio:
                source = FileTailSource(str(events_path))
                server = AsyncIngestServer(aio, source)
                await server.run()
                report = await aio.report()
                return canonical_report_dict(report.to_dict())

        assert asyncio.run(run()) == sequential_canonical(series)

    def test_tcp_server_end_to_end_with_parity(self):
        series = fleet(streams=3)

        async def run() -> tuple[dict, dict]:
            loop = asyncio.get_running_loop()
            bound = loop.create_future()
            async with AsyncExplanationService(
                executor="inline", default_config=StreamConfig(window_size=WINDOW)
            ) as aio:
                task = asyncio.ensure_future(
                    serve_listen(aio, "127.0.0.1", 0, on_bound=bound.set_result)
                )
                host, port = await asyncio.wait_for(bound, timeout=10)
                reader, writer = await asyncio.open_connection(host, port)
                for start in range(0, 500, 125):
                    for stream_id, values in series.items():
                        writer.write(
                            encode_event(
                                {
                                    "stream": stream_id,
                                    "values": values[start:start + 125].tolist(),
                                }
                            )
                        )
                writer.write(encode_event({"op": "report"}))
                await writer.drain()
                reply = decode_event(await reader.readline())
                assert reply.get("ok"), reply
                writer.write(encode_event({"op": "shutdown"}))
                await writer.drain()
                assert decode_event(await reader.readline()).get("ok")
                writer.close()
                report = await asyncio.wait_for(task, timeout=30)
                return reply["report"], canonical_report_dict(report.to_dict())

        over_wire, final = asyncio.run(run())
        reference = sequential_canonical(series)
        assert canonical_json(over_wire) == canonical_json(reference)
        assert canonical_json(final) == canonical_json(reference)

    def test_tcp_server_answers_errors_and_keeps_serving(self):
        async def run() -> list[dict]:
            loop = asyncio.get_running_loop()
            bound = loop.create_future()
            async with AsyncExplanationService(
                executor="inline", default_config=StreamConfig(window_size=WINDOW)
            ) as aio:
                task = asyncio.ensure_future(
                    serve_listen(aio, "127.0.0.1", 0, on_bound=bound.set_result)
                )
                host, port = await asyncio.wait_for(bound, timeout=10)
                reader, writer = await asyncio.open_connection(host, port)
                replies = []
                for line in (
                    b"{broken json\n",
                    encode_event({"op": "no-such-op"}),
                    encode_event({"op": "ingest", "values": [1.0]}),  # missing stream
                    encode_event(
                        {"stream": "ok", "values": [1.0, 2.0], "await": True}
                    ),
                ):
                    writer.write(line)
                    await writer.drain()
                    replies.append(decode_event(await reader.readline()))
                writer.write(encode_event({"op": "shutdown"}))
                await writer.drain()
                await reader.readline()
                writer.close()
                await asyncio.wait_for(task, timeout=30)
                return replies

        replies = asyncio.run(run())
        assert "error" in replies[0]
        assert "error" in replies[1]
        assert "error" in replies[2]
        assert replies[3].get("ok") and replies[3]["stream"] == "ok"

    def test_register_op_with_overrides_survives_snapshot_restore(self, tmp_path):
        """A client-registered per-stream config must not brick warm restart.

        The CLI restore path used to cross-check *every* snapshot stream
        config against the flag defaults; a stream registered over the wire
        with overrides then failed the check forever.  In listen mode the
        snapshot is authoritative instead.
        """
        from repro.cli import main

        series = fleet(streams=1)["s0"]
        events_path = tmp_path / "events.jsonl"
        with events_path.open("wb") as handle:
            handle.write(
                encode_event(
                    {"op": "register", "stream": "s0", "config": {"window_size": 80}}
                )
            )
            handle.write(encode_event({"stream": "s0", "values": series.tolist()}))
        snapshot_path = tmp_path / "ckpt.snapshot"

        async def run_once() -> None:
            async with AsyncExplanationService(
                executor="inline", snapshot_path=snapshot_path, snapshot_interval=3600
            ) as aio:
                source = FileTailSource(str(events_path))
                await AsyncIngestServer(aio, source).run()
                await aio.snapshot_now()

        asyncio.run(run_once())
        snapshot = ServiceSnapshot.load(snapshot_path)
        assert snapshot.configs["s0"]["window_size"] == 80
        # The CLI warm-restarts from that snapshot with default flags: the
        # client-chosen config must be restored, not rejected.  (Uses an
        # immediate-shutdown client via the parser path being validated at
        # the restore step, which runs before the listener binds.)
        from repro.service.snapshot import SNAPSHOT_FILENAME

        snapshot_dir = tmp_path / "dir"
        snapshot_dir.mkdir()
        snapshot.save(snapshot_dir / SNAPSHOT_FILENAME)

        result: dict = {}

        def run_cli() -> None:
            result["code"] = main(
                ["serve", "--listen", "127.0.0.1:0", "--snapshot-dir", str(snapshot_dir)]
            )

        async def shut_down(port: int) -> None:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_event({"op": "shutdown"}))
            await writer.drain()
            await reader.readline()
            writer.close()

        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            thread = threading.Thread(target=run_cli, daemon=True)
            thread.start()
            port = None
            deadline = time.perf_counter() + 15
            while port is None and time.perf_counter() < deadline:
                match = re.search(r"listening on 127\.0\.0\.1:(\d+)", captured.getvalue())
                if match:
                    port = int(match.group(1))
                else:
                    time.sleep(0.05)
            assert port is not None, captured.getvalue()
            asyncio.run(shut_down(port))
            thread.join(timeout=30)
        assert result.get("code") == 0, captured.getvalue()
        assert "warm restart: resumed 1 stream(s)" in captured.getvalue()

    def test_concurrent_auto_register_of_one_stream_never_errors(self):
        """Racing ingest events for the same unknown stream all succeed.

        The check-then-register window used to bounce the race loser's
        chunk with an 'already registered' error reply.
        """
        series = fleet(streams=1)["s0"]

        async def run() -> list:
            async with AsyncExplanationService(
                executor="inline", default_config=StreamConfig(window_size=WINDOW)
            ) as aio:
                server = AsyncIngestServer(aio, source=None)
                events = [
                    {"stream": "racy", "values": series[:50].tolist(), "await": True}
                    for _ in range(8)
                ]
                return await asyncio.gather(*(server.handle(dict(e)) for e in events))

        replies = asyncio.run(run())
        assert all(reply.get("ok") for reply in replies), replies

    def test_tcp_shutdown_completes_with_an_idle_second_client(self):
        """An idle connection must not pin the listener's shutdown.

        On Python >= 3.12.1 ``Server.wait_closed()`` also waits for client
        handlers, so the wind-down must force EOF on stragglers *before*
        waiting the server out.
        """

        async def run() -> None:
            loop = asyncio.get_running_loop()
            bound = loop.create_future()
            async with AsyncExplanationService(executor="inline") as aio:
                task = asyncio.ensure_future(
                    serve_listen(aio, "127.0.0.1", 0, on_bound=bound.set_result)
                )
                host, port = await asyncio.wait_for(bound, timeout=10)
                # Idle client: connects and never sends a byte.
                idle_reader, idle_writer = await asyncio.open_connection(host, port)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_event({"op": "shutdown"}))
                await writer.drain()
                assert decode_event(await reader.readline()).get("ok")
                writer.close()
                await asyncio.wait_for(task, timeout=30)
                idle_writer.close()

        asyncio.run(run())

    def test_unknown_stream_rejected_without_auto_register(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        events_path.write_bytes(encode_event({"stream": "ghost", "values": [1.0]}))
        replies: list[dict] = []

        async def run() -> None:
            async with AsyncExplanationService(executor="inline") as aio:
                source = FileTailSource(str(events_path), on_reply=replies.append)
                server = AsyncIngestServer(aio, source, auto_register=False)
                await server.run()

        asyncio.run(run())
        assert replies and "unknown stream" in replies[0]["error"]


# ----------------------------------------------------------------------
# The headline property: interleaving changes nothing
# ----------------------------------------------------------------------
def interleaved_canonical(
    series: dict[str, np.ndarray],
    cuts: list[int],
    stagger: list[int],
    executor: str,
    **kwargs,
) -> dict:
    """Replay with one async submitter per stream, interleaved by the loop.

    ``cuts`` picks each stream's chunking; ``stagger`` injects extra
    scheduling points so hypothesis explores many interleavings.
    """

    async def run() -> dict:
        async with AsyncExplanationService(
            executor=executor, default_config=StreamConfig(window_size=WINDOW), **kwargs
        ) as aio:
            for stream_id in sorted(series):
                await aio.register(stream_id)

            async def producer(index: int, stream_id: str) -> None:
                values = series[stream_id]
                chunk = 40 + cuts[index % len(cuts)]
                for hops in range(stagger[index % len(stagger)]):
                    await asyncio.sleep(0)
                futures = []
                for start in range(0, values.size, chunk):
                    piece = values[start:start + chunk]
                    if piece.size:
                        futures.append(await aio.submit(stream_id, piece))
                    await asyncio.sleep(0)
                results = await asyncio.gather(*futures)
                assert not any(result.lost for result in results)

            await asyncio.gather(
                *(
                    producer(index, stream_id)
                    for index, stream_id in enumerate(sorted(series))
                )
            )
            report = await aio.report()
            return canonical_report_dict(report.to_dict())

    return asyncio.run(run())


class TestInterleavedSubmittersParity:
    @settings(max_examples=5, deadline=None)
    @given(
        streams=st.integers(2, 4),
        cuts=st.lists(st.integers(0, 90), min_size=1, max_size=4),
        stagger=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    def test_inline_executor_parity(self, streams, cuts, stagger):
        series = fleet(streams=streams, size=400)
        reference = canonical_json(sequential_canonical(series))
        interleaved = canonical_json(
            interleaved_canonical(series, cuts, stagger, "inline")
        )
        assert interleaved == reference

    @settings(
        max_examples=2,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        cuts=st.lists(st.integers(0, 90), min_size=1, max_size=3),
        stagger=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    )
    def test_process_executor_parity(self, cuts, stagger):
        series = fleet(streams=3, size=400)
        reference = canonical_json(sequential_canonical(series))
        interleaved = canonical_json(
            interleaved_canonical(series, cuts, stagger, "process", shards=2)
        )
        assert interleaved == reference
