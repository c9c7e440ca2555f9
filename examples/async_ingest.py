"""Async ingestion: a TCP-fed explanation service and an asyncio producer.

This example runs both halves of the network story in one process:

* the **server** side — an :class:`repro.aio.AsyncExplanationService`
  behind :func:`repro.aio.serve_listen`, the same engine that powers
  ``repro serve --listen HOST:PORT``, plus an async-iterable alarm stream
  consumed as alarms resolve;
* the **client** side — an asyncio producer speaking the newline-JSON
  wire format over a real (loopback) socket, interleaving chunks from
  three drifting sensors and finishing with ``drain`` + ``shutdown`` ops.

Run with::

    python examples/async_ingest.py
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.aio import AsyncExplanationService, encode_event, serve_listen
from repro.datasets.synthetic import drifting_series
from repro.service import StreamConfig

SENSORS = 3
LENGTH = 1200
WINDOW = 150
CHUNK = 200


def build_sensors() -> dict[str, np.ndarray]:
    """Three synthetic sensors drifting at different onsets."""
    sensors: dict[str, np.ndarray] = {}
    for index in range(SENSORS):
        values, _ = drifting_series(
            length=LENGTH,
            drift_start=500 + 200 * index,
            drift_magnitude=2.5 + 0.5 * index,
            seed=index,
        )
        sensors[f"sensor-{index}"] = values
    return sensors


async def produce(host: str, port: int, sensors: dict[str, np.ndarray]) -> None:
    """Stream every sensor to the service over TCP, then shut it down."""
    reader, writer = await asyncio.open_connection(host, port)
    for start in range(0, LENGTH, CHUNK):
        for sensor_id, values in sensors.items():
            piece = values[start:start + CHUNK]
            writer.write(encode_event({"stream": sensor_id, "values": piece.tolist()}))
        await writer.drain()
    writer.write(encode_event({"op": "drain"}))
    await writer.drain()
    ack = json.loads(await reader.readline())
    print(f"drain acknowledged: {ack}")
    writer.write(encode_event({"op": "shutdown"}))
    await writer.drain()
    await reader.readline()
    writer.close()


async def main() -> None:
    sensors = build_sensors()
    loop = asyncio.get_running_loop()
    bound: asyncio.Future = loop.create_future()

    async with AsyncExplanationService(
        default_config=StreamConfig(window_size=WINDOW)
    ) as service:
        # A live alarm feed: alarms print the moment they are explained,
        # while ingestion is still running.
        async def watch() -> None:
            async for alarm in service.alarms():
                print(f"[live] {alarm.stream_id}: drift at observation "
                      f"{alarm.position}, explanation size "
                      f"{len(alarm.explanation.indices) if alarm.explanation else 0}")

        watcher = asyncio.ensure_future(watch())
        server = asyncio.ensure_future(
            serve_listen(service, "127.0.0.1", 0, on_bound=bound.set_result)
        )
        host, port = await bound
        print(f"service listening on {host}:{port}")
        await produce(host, port, sensors)
        report = await server
        watcher.cancel()

    print()
    print(report.render(alarms=False))


if __name__ == "__main__":
    asyncio.run(main())
