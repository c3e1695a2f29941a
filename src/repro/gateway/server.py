"""The asyncio gateway server: admission control, deadlines, streaming.

:class:`GatewayServer` exposes a :class:`~repro.serving.frontend.FederationFrontend`
over the JSON-lines protocol of :mod:`repro.gateway.protocol`.  Three
properties make it survive load instead of merely handling it:

* **Bounded admission.**  Requests land in a fixed-capacity queue
  drained by a fixed pool of workers.  A request arriving at a full
  queue is *shed immediately* with an
  :class:`~repro.gateway.protocol.Overload` frame — the server never
  buffers unboundedly, so memory and queueing delay stay bounded at
  any offered rate and a client learns it is being shed in one RTT
  instead of timing out.
* **Deadline propagation.**  A client-supplied ``deadline`` is the
  request's *total* budget from admission.  Time spent waiting in the
  queue is subtracted before the fan-out runs, so backends get only
  the remaining budget; a request whose budget is already spent when a
  worker picks it up is shed (``deadline_expired``) without touching a
  single backend — under overload the gateway does less work, not
  more.
* **Streamed delivery.**  The fan-out runs through
  :meth:`~repro.serving.frontend.FederationFrontend.search_incremental`;
  every early merge flushes to the client as a ``partial`` frame, so
  the first hits arrive as soon as the *fastest* backends answer while
  stragglers are still being waited out (and are folded into the final
  frame's ``dropped`` if they miss the deadline).

Where a search runs is decided once, at :meth:`GatewayServer.start`,
by the one distinction the fan-out itself makes
(:func:`repro.backend.may_wait`).  If any backend of the federation may
wait, each worker drives its search on a ``gateway-exec`` executor
thread, so the event loop keeps reading and shedding while backends are
waited out.  If every backend is an in-process index a search is pure
computation that threads sharing one interpreter lock cannot overlap:
workers then call the frontend directly on the loop thread — no
executor is created, no thread hand-off happens anywhere in a request —
and yield one loop turn before each search, so connections are still
read and requests admitted or shed between any two searches.

Instrumented through :mod:`repro.obs`: a ``gateway_request`` span per
request (queue wait, outcome), ``gateway.shed`` /
``gateway.streamed_partials`` / ``gateway.requests`` counters, and
``gateway.queue_depth`` samples on every enqueue/dequeue.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future as ConcurrentFuture
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from repro.backend import may_wait
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


@dataclass
class _Connection:
    """One client connection: its writer, serialized by a lock."""

    writer: asyncio.StreamWriter
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    closed: bool = False

    async def send(self, frame: Frame) -> None:
        """Write one frame; a broken pipe marks the connection closed."""
        if self.closed:
            return
        data = encode_frame(frame)
        async with self.lock:
            if self.closed:
                return
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                self.closed = True


@dataclass
class _Admitted:
    """One queued request: who asked, what, and when it was admitted."""

    connection: _Connection
    frame: RequestFrame
    enqueued_at: float


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
        Worker count — requests executed at once.  For a federation
        with backends that may wait, each worker drives one frontend
        search on its own executor thread, so the effective parallelism
        over *waiting* backends is ``concurrency x`` the frontend's
        ``max_workers``.  Over an all-in-process federation searches
        run one at a time on the loop thread whatever this is; it then
        only bounds how many requests are past the queue at once.
    shed_retry_after:
        Backoff hint (seconds) carried by shed frames.
    recorder:
        Observability sink; defaults to the frontend's recorder.
    """

    def __init__(
        self,
        frontend: FederationFrontend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        concurrency: int = 8,
        shed_retry_after: float = 0.05,
        recorder: Recorder | None = None,
    ) -> None:
        if queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if shed_retry_after < 0:
            raise ValueError("shed_retry_after must be non-negative")
        self.frontend = frontend
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        self.concurrency = concurrency
        self.shed_retry_after = shed_retry_after
        self.recorder = recorder if recorder is not None else frontend.recorder
        self.stats = GatewayStats()
        self._queue: asyncio.Queue[_Admitted] | None = None
        self._server: asyncio.base_events.Server | None = None
        self._workers: list[asyncio.Task[None]] = []
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind, spawn the worker pool, and begin accepting connections."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        if any(may_wait(server) for server in self.frontend.service.servers.values()):
            self._executor = ThreadPoolExecutor(
                max_workers=self.concurrency, thread_name_prefix="gateway-exec"
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_FRAME_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._workers = [
            asyncio.create_task(self._worker(), name=f"gateway-worker-{i}")
            for i in range(self.concurrency)
        ]

    async def stop(self) -> None:
        """Stop accepting, cancel workers, release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._workers = []
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

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer=writer)
        self.stats.connections += 1
        self.recorder.count("gateway.connections")
        await connection.send(
            Hello(protocol=PROTOCOL, databases=len(self.frontend.service.servers))
        )
        try:
            while not connection.closed:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except ValueError as exc:
                    # A line longer than the stream limit: the reader has
                    # discarded part of it, so whatever follows cannot be
                    # framed any more — say why, then hang up.
                    await self._protocol_error(connection, f"frame too long: {exc}")
                    break
                if not line:
                    break
                try:
                    frame = self._decode_request(line)
                except ProtocolError as exc:
                    await self._protocol_error(connection, str(exc))
                    continue
                self._admit(connection, frame)
        finally:
            connection.closed = True
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _protocol_error(self, connection: _Connection, message: str) -> None:
        """Count one undecodable line and tell the peer (no id to echo)."""
        self.stats.errors += 1
        self.recorder.count("gateway.protocol_errors")
        await connection.send(ErrorFrame(request_id="?", code="protocol", message=message))

    @staticmethod
    def _decode_request(line: bytes) -> RequestFrame:
        frame = decode_frame(line)
        if not isinstance(frame, RequestFrame):
            raise ProtocolError(
                f"clients may only send request frames, got {type(frame).__name__}"
            )
        return frame

    # -- admission ----------------------------------------------------------

    def _admit(self, connection: _Connection, frame: RequestFrame) -> None:
        """Enqueue or shed, synchronously — admission never awaits."""
        assert self._queue is not None and self._loop is not None
        try:
            self._queue.put_nowait(
                _Admitted(
                    connection=connection,
                    frame=frame,
                    enqueued_at=time.perf_counter(),
                )
            )
        except asyncio.QueueFull:
            self.stats.shed_queue_full += 1
            self.recorder.count("gateway.shed")
            self.recorder.event(
                "gateway_shed", request_id=frame.request_id, reason="queue_full"
            )
            self._loop.create_task(
                connection.send(
                    Overload(
                        request_id=frame.request_id,
                        reason="queue_full",
                        queue_depth=self._queue.qsize(),
                        capacity=self.queue_limit,
                        retry_after=self.shed_retry_after,
                    )
                )
            )
            return
        self.stats.accepted += 1
        depth = self._queue.qsize()
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        self.recorder.observe("gateway.queue_depth", depth)

    # -- execution -----------------------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            admitted = await self._queue.get()
            try:
                await self._execute(admitted)
            finally:
                self._queue.task_done()

    async def _execute(self, admitted: _Admitted) -> None:
        assert self._loop is not None
        frame = admitted.frame
        connection = admitted.connection
        queue_wait = time.perf_counter() - admitted.enqueued_at
        self.recorder.observe("gateway.queue_wait", queue_wait)
        request = frame.request
        if request.deadline is not None:
            # The client deadline is the total budget from admission;
            # the fan-out only gets what queueing hasn't spent.
            remaining = request.deadline - queue_wait
            if remaining <= 0:
                self.stats.shed_deadline += 1
                self.recorder.count("gateway.shed")
                self.recorder.event(
                    "gateway_shed", request_id=frame.request_id, reason="deadline_expired"
                )
                await connection.send(
                    Overload(
                        request_id=frame.request_id,
                        reason="deadline_expired",
                        queue_depth=self._queue.qsize() if self._queue else 0,
                        capacity=self.queue_limit,
                        retry_after=self.shed_retry_after,
                    )
                )
                return
            request = replace(request, deadline=max(remaining, 1e-6))
        loop = self._loop
        partial_sends: list[ConcurrentFuture[None]] = []

        def flush_partial(update: PartialUpdate) -> None:
            # Called mid-fan-out on the thread running the search: hand
            # the frame to the event loop and remember the send so the
            # final response is only written after every partial hit
            # the wire.
            self.stats.streamed_partials += 1
            self.recorder.count("gateway.streamed_partials")
            send = connection.send(
                PartialResults(
                    request_id=frame.request_id,
                    sequence=update.sequence,
                    results=update.results,
                    searched=update.searched,
                    pending=update.pending,
                )
            )
            partial_sends.append(asyncio.run_coroutine_threadsafe(send, loop))

        with self.recorder.span(
            "gateway_request", request_id=frame.request_id, query=request.query
        ) as span:
            span.set(queue_wait=queue_wait)
            try:
                if self._executor is None:
                    # Nothing in this federation waits: compute right
                    # here.  One loop turn first, so that between any
                    # two searches connections are read and shed.
                    await asyncio.sleep(0)
                    response = self.frontend.search_incremental(request, flush_partial)
                else:
                    response = await loop.run_in_executor(
                        self._executor,
                        self.frontend.search_incremental,
                        request,
                        flush_partial,
                    )
            except Exception as exc:  # noqa: BLE001 - one request, not the server
                self.stats.errors += 1
                self.recorder.count("gateway.request_errors")
                span.set(error=type(exc).__name__)
                await connection.send(
                    ErrorFrame(
                        request_id=frame.request_id,
                        code=type(exc).__name__,
                        message=str(exc),
                    )
                )
                return
            for send_done in partial_sends:
                await asyncio.wrap_future(send_done)
            await connection.send(
                ResponseFrame(request_id=frame.request_id, response=response)
            )
            self.stats.completed += 1
            self.recorder.count("gateway.requests")
            span.set(
                results=len(response.results),
                dropped=list(response.dropped),
                partials=len(partial_sends),
            )
