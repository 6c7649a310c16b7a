"""TCP transport for the compile farm (trusted networks only).

A :class:`FarmServer` exposes one started
:class:`~repro.serve.farm.CompileFarm` over asyncio streams;
:class:`RemoteClient` is its counterpart.  The wire format is the
checksummed pickle framing of :mod:`repro.serve.protocol` — pickle, so
this transport must never face an untrusted peer: it exists for
lab-internal farms where the client and server share a codebase and a
network boundary.

Conversation shape (one request/response exchange at a time per
connection):

* ``{"op": "submit", "requests": [...]}`` → a ``response`` frame per
  request **in completion order**, then ``{"op": "done", "request_ids":
  [...]}`` carrying the submission order (what
  :func:`~repro.serve.protocol.gather` needs to restore it client-side).
* ``{"op": "stats"}`` → ``{"op": "stats", "stats": {...}}``.
* ``{"op": "cache-metrics"}`` → ``{"op": "cache-metrics", "cache":
  {table: {entries, evictions, hits, misses, hit_rate}, ...}}`` — a fresh
  per-table snapshot of the server's analysis cache
  (:meth:`~repro.serve.farm.CompileFarm.cache_metrics`).
* ``{"op": "ping"}`` → ``{"op": "pong"}``.

A malformed frame closes the connection; the farm itself is unaffected.
A well-formed ``submit`` whose batch the farm rejects — ``requests`` not a
list, a malformed request, an unknown benchmark — gets ``{"op": "error",
"error": ...}`` and the connection stays open.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, List, Optional, Sequence

from repro.errors import FarmError, ProtocolError
from repro.serve.farm import CompileFarm
from repro.serve.protocol import (
    CompileRequest,
    CompileResponse,
    decode_frame,
    encode_frame,
    frame_header_size,
    gather,
    parse_frame_header,
)

__all__ = ["FarmServer", "RemoteClient", "read_frame", "write_frame"]


async def write_frame(writer: asyncio.StreamWriter, payload: object) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> object:
    header = await reader.readexactly(frame_header_size())
    length = parse_frame_header(header)
    body = await reader.readexactly(length)
    return decode_frame(header + body)


class FarmServer:
    """Serve one started farm over TCP."""

    def __init__(
        self, farm: CompileFarm, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.farm = farm
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._handlers: set = set()

    @property
    def address(self) -> tuple:
        """The bound (host, port) — resolves ``port=0`` to the real port."""
        if self._server is None:
            raise FarmError("server not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "FarmServer":
        if self._server is not None:
            raise FarmError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # wait_closed() only covers the listening socket — open connection
        # handlers would otherwise outlive the server and die noisily at
        # event-loop shutdown.
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)

    async def __aenter__(self) -> "FarmServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                except ProtocolError:
                    return  # desynchronised or hostile peer: drop it
                if not isinstance(message, dict):
                    return
                op = message.get("op")
                if op == "ping":
                    await write_frame(writer, {"op": "pong"})
                elif op == "stats":
                    await write_frame(
                        writer, {"op": "stats", "stats": self.farm.stats.as_dict()}
                    )
                elif op == "cache-metrics":
                    await write_frame(
                        writer,
                        {"op": "cache-metrics", "cache": self.farm.cache_metrics()},
                    )
                elif op == "submit":
                    await self._serve_batch(writer, message.get("requests"))
                else:
                    await write_frame(
                        writer, {"op": "error", "error": f"unknown op {op!r}"}
                    )
        except asyncio.CancelledError:
            # The server is shutting down.  Finish normally rather than
            # cancelled: 3.11's streams machinery logs every handler task
            # that ends in the cancelled state as an unhandled exception.
            return
        finally:
            self._handlers.discard(task)
            writer.close()

    async def _serve_batch(self, writer: asyncio.StreamWriter, requests: object) -> None:
        try:
            if not isinstance(requests, list):
                raise FarmError(
                    f"a submit frame's requests must be a list, not {type(requests).__name__}"
                )
            batch = await self.farm.submit(requests)
        except FarmError as exc:
            await write_frame(writer, {"op": "error", "error": str(exc)})
            return
        async for response in batch.stream():
            await write_frame(writer, {"op": "response", "response": response})
        await write_frame(writer, {"op": "done", "request_ids": batch.request_ids})


class RemoteClient:
    """Async client of a :class:`FarmServer`.

    One request/response exchange at a time per connection — interleaving
    two ``submit`` calls on one client is a caller error.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "RemoteClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def aclose(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass

    async def __aenter__(self) -> "RemoteClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def ping(self) -> bool:
        await write_frame(self._writer, {"op": "ping"})
        reply = await read_frame(self._reader)
        return isinstance(reply, dict) and reply.get("op") == "pong"

    async def stats(self) -> dict:
        await write_frame(self._writer, {"op": "stats"})
        reply = await read_frame(self._reader)
        self._expect(reply, "stats")
        return reply["stats"]

    async def cache_metrics(self) -> dict:
        """Per-table analysis-cache counters of the remote farm, refreshed
        server-side at call time (entries, evictions, hits, misses,
        hit_rate per table)."""
        await write_frame(self._writer, {"op": "cache-metrics"})
        reply = await read_frame(self._reader)
        self._expect(reply, "cache-metrics")
        return reply["cache"]

    async def stream(
        self, requests: Sequence[CompileRequest]
    ) -> AsyncIterator[CompileResponse]:
        """Submit and yield responses in completion order (server-side)."""
        await write_frame(self._writer, {"op": "submit", "requests": list(requests)})
        while True:
            reply = await read_frame(self._reader)
            if not isinstance(reply, dict):
                raise ProtocolError(f"unexpected reply {type(reply).__name__}")
            op = reply.get("op")
            if op == "response":
                yield reply["response"]
            elif op == "done":
                return
            elif op == "error":
                raise FarmError(reply.get("error") or "remote farm error")
            else:
                raise ProtocolError(f"unexpected op {op!r} mid-batch")

    async def gather(
        self, requests: Sequence[CompileRequest]
    ) -> List[CompileResponse]:
        """Submit and return responses restored to submission order."""
        await write_frame(self._writer, {"op": "submit", "requests": list(requests)})
        responses: List[CompileResponse] = []
        while True:
            reply = await read_frame(self._reader)
            if not isinstance(reply, dict):
                raise ProtocolError(f"unexpected reply {type(reply).__name__}")
            op = reply.get("op")
            if op == "response":
                responses.append(reply["response"])
            elif op == "done":
                return gather(responses, reply.get("request_ids") or [])
            elif op == "error":
                raise FarmError(reply.get("error") or "remote farm error")
            else:
                raise ProtocolError(f"unexpected op {op!r} mid-batch")

    @staticmethod
    def _expect(reply: object, op: str) -> None:
        if not isinstance(reply, dict) or reply.get("op") != op:
            raise ProtocolError(f"expected {op!r} reply, got {reply!r}")
