"""The live status surface: a minimal local HTTP endpoint.

:class:`StatusServer` serves a running gateway's state as JSON over a
loopback TCP socket (pure asyncio — no HTTP framework, and nothing here
reads the wall clock):

- ``GET /report`` (or ``/``) — the periodically materialized
  :class:`~repro.ops.report.OpsReport` snapshot plus health signals
  (the gateway refreshes it every ``snapshot_every`` steps, so a
  request is O(1) and reads are bounded-stale, never torn);
- ``GET /health`` — the full degradation surface
  (:meth:`~repro.serve.gateway.ServeGateway.health_doc`): gateway
  counters plus journal stats, rebuilt per request;
- ``GET /metrics`` — the Prometheus text exposition (format 0.0.4) of
  the session's :class:`~repro.obs.registry.MetricsRegistry`: every
  controller family plus the attached gateway/memo/journal counters,
  rendered byte-deterministically per scrape;
- ``POST /events`` — submit events in the canonical wire format (one
  JSON object per line, as :func:`~repro.serve.sources.encode_event`
  emits).  Accepted events are journaled and enqueued exactly like
  source events; a malformed body is a ``400`` (counted in
  ``rejected_events``) without disturbing the session, and a closed
  intake is a ``409``.

One request per connection (``Connection: close``) keeps the protocol
trivially correct for ``curl`` and the CLI's own probes.  Transport
errors while answering a request are swallowed — a dying client must
not kill the control plane — but never silently: each one increments
the gateway's ``http_errors`` health counter.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Union

from repro.obs import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.ops.events import OpsEvent
from repro.serve.gateway import ServeGateway
from repro.serve.sources import decode_event

#: refuse request bodies beyond this size (a local status port is not a
#: bulk-ingest path)
MAX_BODY_BYTES = 1 << 20


class StatusServer:
    """Serves one gateway's snapshot and health over local HTTP."""

    def __init__(
        self,
        gateway: ServeGateway,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.gateway = gateway
        self.host = host
        #: requested port (0 = ephemeral); the bound port after start()
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("status server already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readline()
            content_length = 0
            while True:  # drain request headers up to the blank line
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        content_length = 0
            parts = request.decode("latin-1").split()
            method = parts[0] if parts else ""
            path = parts[1] if len(parts) > 1 else "/"
            status, doc = await self._route(
                method, path, reader, content_length
            )
            if isinstance(doc, str):
                # plain-text route (the Prometheus exposition)
                body = doc.encode("utf-8")
                content_type = PROMETHEUS_CONTENT_TYPE
            else:
                body = json.dumps(doc, sort_keys=True).encode("utf-8")
                content_type = "application/json"
            writer.write(
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n".encode("latin-1")
            )
            writer.write(body)
            await writer.drain()
        except (ConnectionError, OSError):
            # A client that hung up mid-request must not take the
            # control plane with it — swallowed, but counted.
            self.gateway.health.http_errors += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                self.gateway.health.http_errors += 1

    async def _route(
        self,
        method: str,
        path: str,
        reader: asyncio.StreamReader,
        content_length: int,
    ) -> tuple[str, Union[dict[str, object], str]]:
        routes = {
            "/": "GET",
            "/report": "GET",
            "/health": "GET",
            "/metrics": "GET",
            "/events": "POST",
        }
        allowed = routes.get(path)
        if allowed is None:
            return "404 Not Found", {"error": f"no route {path}"}
        if method != allowed:
            return "405 Method Not Allowed", {
                "error": f"{path} accepts {allowed} only"
            }
        if path == "/events":
            return await self._post_events(reader, content_length)
        if path == "/health":
            return "200 OK", self.gateway.health_doc()
        if path == "/metrics":
            return "200 OK", render_prometheus(self.gateway.obs.registry)
        return "200 OK", self.gateway.snapshot()

    async def _post_events(
        self, reader: asyncio.StreamReader, content_length: int
    ) -> tuple[str, dict[str, object]]:
        if content_length <= 0:
            self.gateway.health.rejected_events += 1
            return "400 Bad Request", {"error": "empty body"}
        if content_length > MAX_BODY_BYTES:
            self.gateway.health.rejected_events += 1
            return "400 Bad Request", {
                "error": f"body exceeds {MAX_BODY_BYTES} bytes"
            }
        try:
            raw = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:
            self.gateway.health.rejected_events += 1
            return "400 Bad Request", {"error": "truncated body"}
        events: list[OpsEvent] = []
        for n, line in enumerate(raw.decode("utf-8", errors="replace").split("\n")):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(decode_event(line))
            except ValueError as exc:
                # All-or-nothing: one bad line rejects the batch, and
                # nothing has been admitted yet.
                self.gateway.health.rejected_events += 1
                return "400 Bad Request", {
                    "error": f"line {n}: {exc}",
                }
        try:
            accepted, dropped = self.gateway.inject(events)
        except RuntimeError:
            self.gateway.health.rejected_events += 1
            return "409 Conflict", {"error": "intake closed"}
        return "202 Accepted", {"accepted": accepted, "dropped": dropped}
