"""Asyncio ingestion front-end for the explanation service.

The serving layers below this package are thread- and process-based; this
package is the seam where real event sources — sockets, files, message
queues — meet them without blocking an event loop:

* :class:`AsyncExplanationService` (:mod:`~repro.aio.service`) — awaitable
  ``submit`` returning a per-chunk explanation future, async-iterable
  alarm streams, off-loop ``drain``/``report``/``close``, and an
  in-service periodic snapshot task with bounded staleness;
* ingest sources (:mod:`~repro.aio.sources`) — the newline-JSON wire
  format, a TCP server source and a file/stdin tailer, plus a registry
  for third-party sources;
* the driver (:mod:`~repro.aio.server`) — :class:`AsyncIngestServer`
  mapping source events onto the service, and :func:`serve_listen`, the
  engine behind ``repro serve --listen HOST:PORT``;
* bridging (:mod:`~repro.aio.bridge`) — the ``call_soon_threadsafe``
  plumbing that resolves asyncio futures from the ingest thread or the
  shard reply collector.

Minimal end to end::

    import asyncio
    from repro.aio import AsyncExplanationService

    async def main():
        async with AsyncExplanationService() as aio:
            await aio.register("sensor-1")
            future = await aio.submit("sensor-1", chunk)   # suspends on backpressure
            result = await future                          # this chunk's alarms
            for alarm in result.alarms:
                print(alarm.render())

    asyncio.run(main())
"""

from repro.aio.bridge import AsyncAlarmStream, resolve_future_threadsafe
from repro.aio.server import AsyncIngestServer, serve_listen
from repro.aio.service import AsyncExplanationService
from repro.aio.sources import (
    EventHandler,
    FileTailSource,
    TCPServerSource,
    decode_event,
    encode_event,
    handle_event_line,
    make_source,
    register_source,
    source_names,
)

__all__ = [
    "AsyncAlarmStream",
    "AsyncExplanationService",
    "AsyncIngestServer",
    "EventHandler",
    "FileTailSource",
    "TCPServerSource",
    "decode_event",
    "encode_event",
    "handle_event_line",
    "make_source",
    "register_source",
    "resolve_future_threadsafe",
    "serve_listen",
    "source_names",
]
