"""The asyncio gateway server: admission control, deadlines, streaming.

:class:`GatewayServer` exposes a :class:`~repro.serving.frontend.FederationFrontend`
over the JSON-lines protocol of :mod:`repro.gateway.protocol`.  Three
properties make it survive load instead of merely handling it:

* **Bounded admission.**  Requests land in a fixed-capacity FIFO.  A
  request arriving at a full FIFO is *shed immediately* with an
  :class:`~repro.gateway.protocol.Overload` frame — the server never
  buffers unboundedly, so memory and queueing delay stay bounded at
  any offered rate and a client learns it is being shed in one RTT
  instead of timing out.
* **Deadline propagation.**  A client-supplied ``deadline`` is the
  request's *total* budget from admission.  Time spent waiting in the
  FIFO is subtracted before the fan-out runs, so backends get only
  the remaining budget; a request whose budget is already spent when
  it reaches the head of the FIFO is shed (``deadline_expired``)
  without touching a single backend — under overload the gateway does
  less work, not more.
* **Streamed delivery.**  The fan-out runs through
  :meth:`~repro.serving.frontend.FederationFrontend.search_incremental`;
  every early merge flushes to the client as a ``partial`` frame, so
  the first hits arrive as soon as the *fastest* backends answer while
  stragglers are still being waited out (and are folded into the final
  frame's ``dropped`` if they miss the deadline).

Each connection is one :class:`asyncio.Protocol` object, and each
admitted request schedules one loop callback that takes the oldest off
the FIFO, so connections are read and requests shed between any two
searches.  Where a search runs is decided once, at
:meth:`GatewayServer.start`, by :func:`repro.backend.may_wait`: over a
backend that may wait, on a ``gateway-exec`` executor thread (at most
``concurrency`` at once) whose frames return in order through
``call_soon_threadsafe``; over in-process indexes only, inline on the
loop thread, since threads sharing one interpreter lock cannot overlap
computation.  A peer that stops reading its answers stops being read,
which bounds what is buffered for it.

Instrumented through :mod:`repro.obs`: a ``gateway_request`` span per
request (queue wait, outcome), ``gateway.shed`` /
``gateway.streamed_partials`` / ``gateway.requests`` counters, and
``gateway.queue_depth`` samples on every admission.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

from repro.backend import may_wait
from repro.federation.service import SearchRequest
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
from repro.obs.trace import Recorder
from repro.serving.frontend import FederationFrontend, PartialUpdate

__all__ = ["GatewayServer", "GatewayStats"]

#: Backoff hint (seconds) carried by every shed frame.
SHED_RETRY_AFTER = 0.05


@dataclass
class GatewayStats:
    """Counters a load test asserts against (and ops dashboards read).

    ``max_queue_depth`` is the high-water mark of the admission queue —
    the bounded-buffering guarantee made observable: it can never
    exceed the configured queue limit, no matter the offered rate.
    """

    accepted: int = 0
    completed: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    errors: int = 0
    streamed_partials: int = 0
    max_queue_depth: int = 0
    connections: int = 0

    @property
    def shed(self) -> int:
        """Total requests shed (queue full + deadline already spent)."""
        return self.shed_queue_full + self.shed_deadline


class _Connection(asyncio.Protocol):
    """One client connection: frames its input, writes its frames."""

    transport: asyncio.Transport

    def __init__(self, server: GatewayServer) -> None:
        self.server = server
        self.buffer = bytearray()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        self.server._opened(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        scan = len(buffer)  # what came before holds no line end
        buffer += data
        start = 0
        while (end := buffer.find(b"\n", scan)) >= 0:
            if end - start > MAX_FRAME_BYTES:
                self.hang_up()
                return
            self.server._received(self, bytes(buffer[start : end + 1]))
            start = scan = end + 1
        del buffer[:start]
        if len(buffer) > MAX_FRAME_BYTES:
            self.hang_up()

    def hang_up(self) -> None:
        """A line over the frame bound cannot be re-framed: say why, then close."""
        self.server._protocol_error(
            self, f"frame too long: a line may hold at most {MAX_FRAME_BYTES} bytes"
        )
        self.buffer.clear()
        self.transport.close()

    # A peer that does not read its answers stops being read, so the
    # frames written for it cannot pile up without bound.
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def send(self, frame: Frame) -> None:
        """Write one frame, unless the connection is closing or closed."""
        if not self.transport.is_closing():
            self.transport.write(encode_frame(frame))


class GatewayServer:
    """Serve a federation frontend over TCP with admission control.

    Parameters
    ----------
    frontend:
        The serving frontend (models installed, scorer compilable).
    host, port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    queue_limit:
        Admission queue capacity.  Requests beyond it are shed with an
        ``overload`` frame, never buffered.
    concurrency:
        Requests searched at once over a federation with backends that
        may wait: each drives one frontend search on its own executor
        thread, so the effective parallelism over *waiting* backends is
        ``concurrency x`` the frontend's ``max_workers``.  Over an
        all-in-process federation searches run one at a time on the
        loop thread whatever this is.
    recorder:
        Observability sink; defaults to the frontend's recorder.  Queue
        waits are measured on its clock.
    """

    def __init__(
        self,
        frontend: FederationFrontend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        concurrency: int = 8,
        recorder: Recorder | None = None,
    ) -> None:
        if queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")
        self.frontend = frontend
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        self.concurrency = concurrency
        self.recorder = recorder if recorder is not None else frontend.recorder
        self.stats = GatewayStats()
        # Admitted requests, oldest first: who asked, what, and when.
        self._fifo: deque[tuple[_Connection, RequestFrame, float]] = deque()
        self._in_flight = 0
        self._connections: set[_Connection] = set()
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and begin accepting connections."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        if any(may_wait(server) for server in self.frontend.service.servers.values()):
            self._executor = ThreadPoolExecutor(
                max_workers=self.concurrency, thread_name_prefix="gateway-exec"
            )
        self._server = await asyncio.get_running_loop().create_server(
            partial(_Connection, self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, close every connection, drop what is queued."""
        if self._server is not None:
            self._server.close()
            # Abort, not close: a peer that stopped reading would hold a
            # closing transport open for as long as it keeps not reading.
            for connection in self._connections:
                connection.transport.abort()
            await self._server.wait_closed()
            self._server = None
        self._fifo.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's run mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def __aenter__(self) -> "GatewayServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.stop()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port)."""
        return self.host, self.port

    # -- connection handling -----------------------------------------------

    def _opened(self, connection: _Connection) -> None:
        self._connections.add(connection)
        self.stats.connections += 1
        self.recorder.count("gateway.connections")
        connection.send(Hello(protocol=PROTOCOL, databases=len(self.frontend.service.servers)))

    def _received(self, connection: _Connection, line: bytes) -> None:
        try:
            frame = decode_frame(line)
            if not isinstance(frame, RequestFrame):
                raise ProtocolError(
                    f"clients may only send request frames, got {type(frame).__name__}"
                )
        except ProtocolError as exc:
            self._protocol_error(connection, str(exc))
            return
        self._admit(connection, frame)

    def _protocol_error(self, connection: _Connection, message: str) -> None:
        """Count one undecodable line and tell the peer (no id to echo)."""
        self.stats.errors += 1
        self.recorder.count("gateway.protocol_errors")
        connection.send(ErrorFrame(request_id="?", code="protocol", message=message))

    def _shed(self, connection: _Connection, request_id: str, reason: str) -> None:
        self.recorder.count("gateway.shed")
        self.recorder.event("gateway_shed", request_id=request_id, reason=reason)
        connection.send(
            Overload(
                request_id=request_id,
                reason=reason,
                queue_depth=len(self._fifo),
                capacity=self.queue_limit,
                retry_after=SHED_RETRY_AFTER,
            )
        )

    # -- admission ----------------------------------------------------------

    def _admit(self, connection: _Connection, frame: RequestFrame) -> None:
        """Enqueue or shed, synchronously."""
        if len(self._fifo) >= self.queue_limit:
            self.stats.shed_queue_full += 1
            self._shed(connection, frame.request_id, "queue_full")
            return
        self._fifo.append((connection, frame, self.recorder.clock.now))
        self.stats.accepted += 1
        depth = len(self._fifo)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        self.recorder.observe("gateway.queue_depth", depth)
        asyncio.get_running_loop().call_soon(self._next)

    # -- execution -----------------------------------------------------------

    def _next(self) -> None:
        """Start the oldest queued request, if there is room to run it.

        One call per admission and one per finished executor search:
        whenever a request waits while a search slot is free, a call is
        still scheduled.  A request shed here takes no slot, so the call
        goes on to the next one.
        """
        while self._fifo and self._in_flight < self.concurrency:
            connection, frame, enqueued_at = self._fifo.popleft()
            request_id, request = frame.request_id, frame.request
            queue_wait = self.recorder.clock.now - enqueued_at
            self.recorder.observe("gateway.queue_wait", queue_wait)
            if request.deadline is not None:
                # The client deadline is the total budget from admission;
                # the fan-out only gets what queueing hasn't spent.
                remaining = request.deadline - queue_wait
                if remaining <= 0:
                    self.stats.shed_deadline += 1
                    self._shed(connection, request_id, "deadline_expired")
                    continue
                request = replace(request, deadline=max(remaining, 1e-6))
            if self._executor is None:
                # Nothing in this federation waits: compute right here.
                stream = partial(self._stream, connection)
                self._finish(connection, self._search(request_id, request, queue_wait, stream))
            else:
                self._submit(connection, request_id, request, queue_wait)
            return

    def _submit(
        self, connection: _Connection, request_id: str, request: SearchRequest, queue_wait: float
    ) -> None:
        """Search on an executor thread; its frames come back in order."""
        assert self._executor is not None
        loop = asyncio.get_running_loop()

        def post(partial_results: PartialResults) -> None:
            loop.call_soon_threadsafe(self._stream, connection, partial_results)

        def run() -> None:
            # _search answers every failure with an error frame; this
            # call raises only once the loop is closed, which nothing
            # waits for any more.
            final = self._search(request_id, request, queue_wait, post)
            loop.call_soon_threadsafe(self._done, connection, final)

        self._in_flight += 1
        self._executor.submit(run)

    def _search(
        self,
        request_id: str,
        request: SearchRequest,
        queue_wait: float,
        post: Callable[[PartialResults], None],
    ) -> ResponseFrame | ErrorFrame:
        """Run one search; each early merge goes to ``post`` as it is made."""
        partials = 0

        def flush_partial(update: PartialUpdate) -> None:
            nonlocal partials
            partials += 1
            post(
                PartialResults(
                    request_id=request_id,
                    sequence=update.sequence,
                    results=update.results,
                    searched=update.searched,
                    pending=update.pending,
                )
            )

        with self.recorder.span(
            "gateway_request", request_id=request_id, query=request.query
        ) as span:
            span.set(queue_wait=queue_wait)
            try:
                response = self.frontend.search_incremental(request, flush_partial)
            except Exception as exc:  # noqa: BLE001 - one request, not the server
                span.set(error=type(exc).__name__)
                return ErrorFrame(request_id=request_id, code=type(exc).__name__, message=str(exc))
            span.set(
                results=len(response.results), dropped=list(response.dropped), partials=partials
            )
        return ResponseFrame(request_id=request_id, response=response)

    def _stream(self, connection: _Connection, frame: PartialResults) -> None:
        self.stats.streamed_partials += 1
        self.recorder.count("gateway.streamed_partials")
        connection.send(frame)

    def _done(self, connection: _Connection, final: ResponseFrame | ErrorFrame) -> None:
        self._in_flight -= 1
        self._finish(connection, final)
        self._next()

    def _finish(self, connection: _Connection, final: ResponseFrame | ErrorFrame) -> None:
        if isinstance(final, ResponseFrame):
            self.stats.completed += 1
            self.recorder.count("gateway.requests")
        else:
            self.stats.errors += 1
            self.recorder.count("gateway.request_errors")
        connection.send(final)
