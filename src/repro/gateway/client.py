"""The asyncio gateway client: pooled connections, pipelined requests.

:class:`GatewayClient` opens a small pool of TCP connections to a
:class:`~repro.gateway.server.GatewayServer` and multiplexes requests
over them: every request gets a unique id, frames coming back are
demultiplexed by that id, so many requests can be in flight on one
connection at once (pipelining) — hundreds of concurrent requests go
through a handful of sockets.

:meth:`GatewayClient.search` returns a :class:`GatewayReply` that
records the whole exchange: the final response *or* the shed/error
frame, every streamed partial, and the client-side timing of the first
partial — the number the streaming path exists to shrink.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.federation.service import FederatedResponse, SearchRequest
from repro.gateway.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL,
    ErrorFrame,
    Frame,
    Hello,
    Overload,
    PartialResults,
    ProtocolError,
    RequestFrame,
    ResponseFrame,
    decode_frame,
    encode_frame,
)

__all__ = ["GatewayClient", "GatewayError", "GatewayReply"]


class GatewayError(ConnectionError):
    """The gateway conversation failed (connect, protocol, or transport)."""


@dataclass(frozen=True)
class GatewayReply:
    """Everything one request exchange produced, client side.

    ``status`` is ``"ok"`` (final response arrived), ``"overload"``
    (the gateway shed the request), or ``"error"`` (the gateway
    reported a failure).  ``first_partial_after`` is seconds from send
    to the first streamed partial frame (``None`` if none arrived);
    ``elapsed`` is send-to-terminal-frame.
    """

    status: str
    response: FederatedResponse | None
    partials: tuple[PartialResults, ...]
    overload: Overload | None
    error: ErrorFrame | None
    first_partial_after: float | None
    elapsed: float

    @property
    def ok(self) -> bool:
        """Whether a final response arrived."""
        return self.status == "ok"


@dataclass
class _Pending:
    """Client-side state of one in-flight request."""

    frames: asyncio.Queue[Frame | None] = field(default_factory=asyncio.Queue)


class _Connection:
    """One pooled socket plus its demultiplexing reader task."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict[str, _Pending] = {}
        self.hello: Hello | None = None
        self.closed = False
        self._reader_task: asyncio.Task[None] | None = None

    def start(self) -> None:
        self._reader_task = asyncio.create_task(self._read_loop(), name="gateway-client-reader")

    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    line = await self.reader.readline()
                    frame = decode_frame(line) if line else None
                except (ConnectionError, ValueError):
                    # A lost connection, a line over the frame bound, or
                    # an undecodable one (ProtocolError): no later frame
                    # can be trusted to be framed right.
                    break
                if frame is None:
                    break
                request_id = getattr(frame, "request_id", None)
                if request_id is None:
                    continue  # banner frames are handled at connect
                entry = self.pending.get(request_id)
                if entry is not None:
                    entry.frames.put_nowait(frame)
        finally:
            self.closed = True
            # Wake every waiter: a None frame means "connection died".
            for entry in self.pending.values():
                entry.frames.put_nowait(None)

    async def close(self) -> None:
        self.closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            # Whatever ended the reader was reported to the requests it
            # woke; closing does not raise it again.
            await asyncio.gather(self._reader_task, return_exceptions=True)
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


class GatewayClient:
    """Pooled, pipelining client for the gateway wire protocol.

    Parameters
    ----------
    host, port:
        The gateway's bind address.
    pool_size:
        Connections to open; requests are spread across the pool by
        least in-flight count, and each connection pipelines freely.
    """

    def __init__(self, host: str, port: int, *, pool_size: int = 2) -> None:
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self._connections: list[_Connection] = []
        self._ids = itertools.count(1)

    # -- lifecycle ---------------------------------------------------------

    async def connect(self) -> None:
        """Open the pool; validates the server's hello banner."""
        if self._connections:
            raise RuntimeError("client already connected")
        for _ in range(self.pool_size):
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port, limit=MAX_FRAME_BYTES
                )
            except OSError as exc:
                await self.close()
                raise GatewayError(
                    f"cannot connect to gateway at {self.host}:{self.port}: {exc}"
                ) from exc
            line = await reader.readline()
            try:
                hello = decode_frame(line)
            except ProtocolError as exc:
                await self.close()
                raise GatewayError(f"bad gateway banner: {exc}") from exc
            if not isinstance(hello, Hello) or hello.protocol != PROTOCOL:
                await self.close()
                raise GatewayError(
                    f"gateway speaks {getattr(hello, 'protocol', '?')!r}, "
                    f"this client speaks {PROTOCOL!r}"
                )
            connection = _Connection(reader, writer)
            connection.hello = hello
            connection.start()
            self._connections.append(connection)

    async def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        connections, self._connections = self._connections, []
        for connection in connections:
            await connection.close()

    async def __aenter__(self) -> "GatewayClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.close()

    @property
    def databases(self) -> int:
        """Federation size, from the server banner."""
        if not self._connections or self._connections[0].hello is None:
            raise GatewayError("not connected")
        return self._connections[0].hello.databases

    # -- requests ----------------------------------------------------------

    def _pick(self) -> _Connection:
        alive = [c for c in self._connections if not c.closed]
        if not alive:
            raise GatewayError("no live gateway connections")
        return min(alive, key=lambda c: len(c.pending))

    async def search(
        self,
        request: SearchRequest,
        *,
        on_partial: Callable[[PartialResults], None] | None = None,
    ) -> GatewayReply:
        """Send one request and collect its frames until terminal.

        Partials are accumulated on the reply (and forwarded to
        ``on_partial`` as they arrive).  Raises :class:`GatewayError`
        only for transport-level failures — a shed or failed request is
        a *reply* (``status`` ``"overload"`` / ``"error"``), because
        under load those are answers, not exceptions.
        """
        connection = self._pick()
        request_id = f"r{next(self._ids)}"
        entry = _Pending()
        connection.pending[request_id] = entry
        started = time.perf_counter()
        try:
            try:
                connection.writer.write(
                    encode_frame(RequestFrame(request_id=request_id, request=request))
                )
                await connection.writer.drain()
            except (ConnectionError, RuntimeError) as exc:
                connection.closed = True
                raise GatewayError(f"gateway connection lost on send: {exc}") from exc
            partials: list[PartialResults] = []
            first_partial_after: float | None = None
            while True:
                frame = await entry.frames.get()
                if frame is None:
                    raise GatewayError("gateway connection lost mid-request")
                if isinstance(frame, PartialResults):
                    if first_partial_after is None:
                        first_partial_after = time.perf_counter() - started
                    partials.append(frame)
                    if on_partial is not None:
                        on_partial(frame)
                    continue
                elapsed = time.perf_counter() - started
                if isinstance(frame, ResponseFrame):
                    return GatewayReply(
                        status="ok",
                        response=frame.response,
                        partials=tuple(partials),
                        overload=None,
                        error=None,
                        first_partial_after=first_partial_after,
                        elapsed=elapsed,
                    )
                if isinstance(frame, Overload):
                    return GatewayReply(
                        status="overload",
                        response=None,
                        partials=tuple(partials),
                        overload=frame,
                        error=None,
                        first_partial_after=first_partial_after,
                        elapsed=elapsed,
                    )
                if isinstance(frame, ErrorFrame):
                    return GatewayReply(
                        status="error",
                        response=None,
                        partials=tuple(partials),
                        overload=None,
                        error=frame,
                        first_partial_after=first_partial_after,
                        elapsed=elapsed,
                    )
                raise GatewayError(f"unexpected frame {type(frame).__name__} mid-request")
        finally:
            connection.pending.pop(request_id, None)
