"""The ingest driver: an event source feeding an async explanation service.

:class:`AsyncIngestServer` implements the handler side of the source
protocol (:mod:`repro.aio.sources`) over an
:class:`~repro.aio.service.AsyncExplanationService`: ingest events become
awaited submissions (so transport reads inherit the service's
backpressure), unknown streams auto-register with the service's default
config, and the control ops (``drain``, ``report``, ``shutdown``) map onto
the service lifecycle.  :func:`serve_listen` is the one-call form the CLI
uses for ``repro serve --listen HOST:PORT``.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.aio.service import AsyncExplanationService
from repro.aio.sources import TCPServerSource
from repro.exceptions import ValidationError
from repro.service.results import ServiceReport, canonical_report_dict


class AsyncIngestServer:
    """Serve one ingest source against one async explanation service.

    Parameters
    ----------
    service:
        The :class:`AsyncExplanationService` to feed.
    source:
        Any object with the source contract (``async run(handler)``,
        ``stop()``).
    auto_register:
        Register unknown stream ids with the service's default config on
        first sight (the fleet announces itself); with ``False`` an event
        for an unknown stream is answered with an error instead.
    """

    def __init__(
        self,
        service: AsyncExplanationService,
        source,
        auto_register: bool = True,
    ) -> None:
        self.service = service
        self.source = source
        self.auto_register = bool(auto_register)
        self.events = 0
        self.pending_futures: set[asyncio.Future] = set()

    async def run(self) -> None:
        """Serve events until the source stops (e.g. a ``shutdown`` op)."""
        await self.source.run(self.handle)

    # ------------------------------------------------------------------
    async def handle(self, event: dict) -> Optional[dict]:
        """Process one event; the returned dict (if any) is the reply."""
        self.events += 1
        op = event.get("op", "ingest")
        if op == "ingest":
            return await self._ingest(event)
        if op == "register":
            return await self._register(event)
        if op == "drain":
            await self.service.drain()
            return {"ok": True}
        if op == "report":
            report = await self.service.report()
            return {"ok": True, "report": canonical_report_dict(report.to_dict())}
        if op == "metrics":
            # The Prometheus text exposition, inside a JSON envelope for
            # wire clients; HTTP scrapers use the /metrics listener.
            return {"ok": True, "metrics": await self.service.metrics_text()}
        if op == "stats":
            # Live executor stats + autoscale signals; unlike `report`
            # this does not drain, so it is safe to poll mid-ingest.
            return {"ok": True, "stats": await self.service.stats()}
        if op == "trace":
            # Chrome trace-event JSON of the retained chunk traces; empty
            # (but still Perfetto-valid) when tracing is disabled.
            return {"ok": True, "trace": await self.service.trace_json()}
        if op == "shutdown":
            # Ack first, then stop: the source flushes this reply while it
            # winds the connections down.
            self.source.stop()
            return {"ok": True}
        return {"error": f"unknown op {op!r}"}

    async def _ensure_registered(self, stream_id: str) -> None:
        if stream_id in self.service:
            return
        if not self.auto_register:
            raise ValidationError(f"unknown stream {stream_id!r}")
        try:
            await self.service.register(stream_id)
        except ValidationError:
            # Two connections can race the same unknown stream through the
            # check above; the loser's "already registered" is a success
            # for our purposes, not an error to bounce the chunk with.
            if stream_id not in self.service:
                raise

    async def _ingest(self, event: dict) -> Optional[dict]:
        stream_id = event.get("stream")
        values = event.get("values")
        if not isinstance(stream_id, str) or not stream_id:
            raise ValidationError("ingest event needs a 'stream' string")
        if values is None:
            raise ValidationError("ingest event needs a 'values' array")
        await self._ensure_registered(stream_id)
        future = await self.service.submit(stream_id, values)
        if event.get("await"):
            # Synchronous client: hold the connection until this chunk's
            # alarms are fully explained, and say what happened.
            result = await future
            return {
                "ok": True,
                "stream": stream_id,
                "alarms": len(result.alarms),
                "lost": result.lost,
            }
        # Pipelined client: the future resolves in the background; track it
        # so nothing is garbage-collected mid-flight.
        self.pending_futures.add(future)
        future.add_done_callback(self.pending_futures.discard)
        return None

    async def _register(self, event: dict) -> dict:
        stream_id = event.get("stream")
        if not isinstance(stream_id, str) or not stream_id:
            raise ValidationError("register event needs a 'stream' string")
        overrides = event.get("config") or {}
        if not isinstance(overrides, dict):
            raise ValidationError("register 'config' must be an object")
        if stream_id in self.service:
            return {"ok": True, "stream": stream_id, "existing": True}
        try:
            await self.service.register(stream_id, **overrides)
        except ValidationError:
            # Lost a registration race (see _ensure_registered); config
            # problems re-raise because the stream never appeared.
            if stream_id not in self.service:
                raise
            return {"ok": True, "stream": stream_id, "existing": True}
        return {"ok": True, "stream": stream_id}


async def serve_listen(
    service: AsyncExplanationService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    on_bound: Optional[Callable[[tuple], None]] = None,
    auto_register: bool = True,
) -> ServiceReport:
    """Serve newline-JSON TCP ingestion until a client sends ``shutdown``.

    Binds ``host:port`` (``port=0`` picks an ephemeral one, announced via
    ``on_bound``), feeds every connection's events through ``service``,
    drains once the listener stops, and returns the final
    :class:`~repro.service.results.ServiceReport`.  The caller owns the
    service and closes it (``async with`` composes naturally)::

        async with AsyncExplanationService() as aio:
            report = await serve_listen(aio, "0.0.0.0", 7007, on_bound=print)
    """
    source = TCPServerSource(host, port, on_bound=on_bound)
    server = AsyncIngestServer(service, source, auto_register=auto_register)
    await server.run()
    if server.pending_futures:
        await asyncio.gather(*list(server.pending_futures), return_exceptions=True)
    return await service.report()
