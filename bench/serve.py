"""Workloads ``serve_light`` and ``serve_heavy``: the TCP gateway under load.

Both host the gateway in a child process (``gateway_host.py``) and drive
it from this process over two connections.  ``serve_light`` is a closed
loop — two callers, one request in flight each, every query distinct,
fan-out 3 of 8, ten results — so the per-request cost of the gateway
itself dominates.  ``serve_heavy`` is an open loop — Poisson arrivals at
a fixed rate, six-term queries drawn Zipf from a small pool, fan-out to
all 8, fifty results — so index scoring, merging and large frames
dominate, and latency is timed from when each request was *due*.  An op
is one request.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.federation.service import SearchRequest
from repro.gateway.loadgen import frontend_from_servers
from repro.gateway.protocol import (
    Hello,
    RequestFrame,
    ResponseFrame,
    decode_frame,
    encode_frame,
)
from repro.serving.bench import build_synthetic_federation
from repro.utils.rand import derive_seed

import measure
from fixtures import (
    NUM_DATABASES,
    SETUP_REPEATS,
    distinct_queries,
    index_build_seconds,
    query_vocabulary,
    zipf_pool_queries,
)
from measure import Options, Outcome, SpanLog

HOST = Path(__file__).resolve().parent / "gateway_host.py"

CONNECTIONS = 2
#: Every this-many-th request is replayed through a serial in-process oracle.
CHECK_EVERY = 20
WARMUP_SECONDS = 3.0
#: How long the child may take to come up, or to wind down, before it is killed.
CHILD_TIMEOUT = 60.0
#: Above this share of ambiguous span joins the traced run's self times mean little.
MAX_AMBIGUOUS_SHARE = 0.05
#: Interpreter-lock switch interval of the generator while it sends on a schedule.
SWITCH_INTERVAL = 0.0002


@dataclass(frozen=True)
class Shape:
    """The traffic of one serving workload."""

    name: str
    fanout: int
    results: int
    slo_ms: float
    #: Open-loop arrival rate in requests per second; ``None`` = closed loop.
    rate: float | None


LIGHT = Shape("serve_light", fanout=3, results=10, slo_ms=25.0, rate=None)
#: About 30 % of the ceiling measured for this shape on 2 cores.
HEAVY = Shape("serve_heavy", fanout=NUM_DATABASES, results=50, slo_ms=100.0, rate=40.0)
#: Offered rates of the traced run's ladder (``loadgen.max_rate_ok``).
LADDER = (20.0, 40.0, 80.0, 120.0)


# -- the child -----------------------------------------------------------------


class GatewayChild:
    """The gateway host process: started, talked to, and always reaped."""

    def __init__(self, options: Options, shape: Shape, label: str) -> None:
        self.dump_path = os.path.join(options.workdir, f"gateway-{label}.json")
        self.process = subprocess.Popen(
            [
                sys.executable, str(HOST),
                "--scale", str(options.sizes.federation_scale),
                "--seed", str(options.seed),
                "--databases-per-query", str(shape.fanout),
                "--traced", "1" if options.traced else "0",
                "--dump", self.dump_path,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = 0

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_listening(self) -> None:
        """Block until the child accepts connections (or kill it and raise)."""
        words = self._reply().split()
        if len(words) != 2 or words[0] != "listening":
            self.kill()
            raise RuntimeError(f"gateway child did not come up (said {' '.join(words)!r})")
        self.port = int(words[1])

    def _reply(self) -> str:
        # A child that hangs is killed by the timer, which ends the read.
        timer = threading.Timer(CHILD_TIMEOUT, self.process.kill)
        timer.start()
        try:
            return self.process.stdout.readline().strip()
        finally:
            timer.cancel()

    def trace(self, on: bool) -> None:
        """Switch the child's proxies on or off; returns once it has."""
        command = "trace on" if on else "trace off"
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        if self._reply() != command:
            raise RuntimeError("gateway child did not acknowledge " + command)

    def stop(self) -> dict:
        """End of input stops the child; returns what it dumped."""
        self.process.stdin.close()
        try:
            code = self.process.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("gateway child did not stop; killed") from None
        self.process.stdout.close()
        if code != 0:
            raise RuntimeError(f"gateway child exited with code {code}")
        with open(self.dump_path, encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        """Make sure the process is gone and waited for (idempotent)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe and not pipe.closed:
                pipe.close()


# -- the generator ----------------------------------------------------------------


class Exchange:
    """One request as the generator saw it."""

    __slots__ = ("index", "request", "request_id", "due", "sent", "done", "status",
                 "frames", "bytes", "lines", "in_flight")

    def __init__(self, index: int, request: SearchRequest, keep: bool) -> None:
        self.index = index
        self.request = request
        self.request_id = f"r{index}"
        self.due = self.sent = self.done = 0.0
        self.status = "lost"
        self.frames = 0
        self.bytes = 0
        self.lines: list[bytes] | None = [] if keep else None
        self.in_flight = 0

    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


_TERMINAL = {"response": "ok", "overload": "shed", "error": "error"}


class Connection:
    """One blocking TCP connection speaking the gateway's JSON-lines protocol."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        hello = decode_frame(self.reader.readline())
        if not isinstance(hello, Hello):
            raise RuntimeError(f"gateway greeted with {hello!r}")

    def send(self, exchange: Exchange) -> None:
        self.sock.sendall(
            encode_frame(RequestFrame(request_id=exchange.request_id, request=exchange.request))
        )

    def receive(self, pending: dict[str, Exchange]) -> Exchange | None:
        """Read one frame into its exchange; returns the exchange once it is over."""
        line = self.reader.readline()
        now = time.perf_counter()
        if not line:
            raise ConnectionError("gateway closed the connection")
        row = json.loads(line)
        exchange = pending[row["id"]]
        exchange.frames += 1
        exchange.bytes += len(line)
        if exchange.lines is not None:
            exchange.lines.append(line)
        status = _TERMINAL.get(row["type"])
        if status is None:
            return None
        exchange.done = now
        exchange.status = status
        del pending[row["id"]]
        return exchange

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Generator:
    """Drives the gateway over ``CONNECTIONS`` connections, one phase at a time."""

    def __init__(self, port: int, shape: Shape, queries) -> None:
        self.connections = [Connection(port) for _ in range(CONNECTIONS)]
        self.shape = shape
        self.queries = queries
        self.indices = itertools.count()
        self.errors: list[str] = []

    def _exchange(self) -> Exchange:
        index = next(self.indices)
        request = SearchRequest(
            query=next(self.queries),
            n=self.shape.results,
            docs_per_database=self.shape.results,
        )
        return Exchange(index, request, keep=index % CHECK_EVERY == 0)

    def closed(self, seconds: float) -> list[Exchange]:
        """Closed loop: each connection's caller sends, waits, sends again."""
        done: list[Exchange] = []
        lock = threading.Lock()
        until = time.perf_counter() + seconds

        def caller(connection: Connection) -> None:
            pending: dict[str, Exchange] = {}
            try:
                while time.perf_counter() < until:
                    with lock:  # one query stream: take the next query in order
                        exchange = self._exchange()
                    pending[exchange.request_id] = exchange
                    exchange.due = exchange.sent = time.perf_counter()
                    connection.send(exchange)
                    while connection.receive(pending) is None:
                        pass
                    done.append(exchange)
            except (OSError, KeyError, ValueError) as error:
                self.errors.append(f"caller: {type(error).__name__}: {error}")

        self._run_threads([lambda c=c: caller(c) for c in self.connections])
        return sorted(done, key=lambda exchange: exchange.index)

    def open(self, rate: float, seconds: float, rng: random.Random) -> list[Exchange]:
        """Open loop: Poisson arrivals at ``rate``, sent whether or not replies came.

        The arrival count is fixed at ``rate * seconds`` and the arrival
        times are uniform over the window — a Poisson process conditioned
        on its count — so that runs offer exactly the same load.
        """
        offsets = sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))
        exchanges = [self._exchange() for _ in offsets]
        pending: list[dict[str, Exchange]] = [{} for _ in self.connections]
        expected = [len(exchanges[i::CONNECTIONS]) for i in range(CONNECTIONS)]

        def reader(connection: Connection, waiting: dict[str, Exchange], count: int) -> None:
            try:
                while count:
                    if connection.receive(waiting) is not None:
                        count -= 1
            except (OSError, KeyError, ValueError) as error:
                self.errors.append(f"reader: {type(error).__name__}: {error}")

        threads = [
            threading.Thread(target=reader, args=(c, p, n))
            for c, p, n in zip(self.connections, pending, expected)
        ]
        for thread in threads:
            thread.start()
        # The sender must not wait out a 5 ms interpreter-lock turn of a
        # reader that is parsing a frame when a request falls due.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL)
        try:
            self._send_on_schedule(offsets, exchanges, pending)
        finally:
            sys.setswitchinterval(switch_interval)
        self._join(threads)
        return exchanges

    def _send_on_schedule(self, offsets, exchanges, pending) -> None:
        started = time.perf_counter()
        for position, (offset, exchange) in enumerate(zip(offsets, exchanges)):
            exchange.due = started + offset
            delay = exchange.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lane = position % CONNECTIONS
            pending[lane][exchange.request_id] = exchange
            exchange.in_flight = sum(len(waiting) for waiting in pending)
            exchange.sent = time.perf_counter()
            try:
                self.connections[lane].send(exchange)
            except OSError as error:
                self.errors.append(f"sender: {type(error).__name__}: {error}")
                break

    def _run_threads(self, targets) -> None:
        threads = [threading.Thread(target=target) for target in targets]
        for thread in threads:
            thread.start()
        self._join(threads)

    def _join(self, threads: list[threading.Thread]) -> None:
        for thread in threads:
            thread.join(timeout=CHILD_TIMEOUT)
            if thread.is_alive():
                self.errors.append("a generator thread did not finish; replies are missing")

    def close(self) -> None:
        for connection in self.connections:
            connection.close()


@dataclass(frozen=True)
class Tally:
    """Requests sent / ok / shed / errored / late / lost of one phase."""

    sent: int
    ok: int
    shed: int
    errored: int
    late: int
    lost: int

    @property
    def slo_share(self) -> float:
        """Share of requests sent that came back ``ok`` within the limit."""
        return (self.ok - self.late) / self.sent if self.sent else 0.0

    def line(self, label: str) -> str:
        return (
            f"{label}: sent {self.sent}, ok {self.ok}, shed {self.shed}, "
            f"errored {self.errored}, late {self.late}, lost {self.lost}"
        )


def tally(exchanges: list[Exchange], slo_ms: float) -> Tally:
    status = [exchange.status for exchange in exchanges]
    return Tally(
        sent=len(exchanges),
        ok=status.count("ok"),
        shed=status.count("shed"),
        errored=status.count("error"),
        late=sum(1 for e in exchanges if e.status == "ok" and e.latency_ms() > slo_ms),
        lost=status.count("lost"),
    )


#: The window is cut into buckets this long; see ``measure.fast_quartile``.
BUCKET_SECONDS = 0.5


def bucket_edges(exchanges: list[Exchange]) -> list[float]:
    """Edges of the whole buckets between a phase's first send and last answer."""
    start = min(e.sent for e in exchanges)
    end = max(e.done for e in exchanges)
    return [start + i * BUCKET_SECONDS for i in range(int((end - start) / BUCKET_SECONDS) + 1)]


def bucketed(exchanges: list[Exchange], edges: list[float]) -> list[list[Exchange]]:
    """The ``ok`` exchanges that were answered in each bucket between ``edges``."""
    buckets: list[list[Exchange]] = [[] for _ in edges[1:]]
    for exchange in exchanges:
        position = int((exchange.done - edges[0]) / BUCKET_SECONDS)
        if exchange.status == "ok" and 0 <= position < len(buckets):
            buckets[position].append(exchange)
    return buckets


def closed_loop_rate(exchanges: list[Exchange]) -> float:
    """Requests per second of a closed-loop phase: fast quartile over its buckets."""
    edges = bucket_edges(exchanges)
    return measure.fast_quartile(
        [len(bucket) / BUCKET_SECONDS for bucket in bucketed(exchanges, edges)], "higher"
    )


def cpu_ms_per_request(
    exchanges: list[Exchange], edges: list[float], samples: list[list[float]]
) -> list[float]:
    """Per bucket: CPU milliseconds the child used per request it answered.

    ``samples`` are the child's own ``(perf_counter, process_time)``
    readings; the CPU clock at a bucket edge is interpolated from them.
    """
    def cpu_at(moment: float) -> float:
        for (t0, c0), (t1, c1) in zip(samples, samples[1:]):
            if t0 <= moment <= t1:
                return c0 + (c1 - c0) * (moment - t0) / (t1 - t0)
        raise ValueError("the child took no CPU reading around a bucket edge")

    return [
        (cpu_at(high) - cpu_at(low)) * 1000.0 / len(bucket)
        for low, high, bucket in zip(edges, edges[1:], bucketed(exchanges, edges))
        if bucket
    ]


def per_bucket(
    exchanges: list[Exchange], samples: list[list[float]]
) -> tuple[list[float], list[float]]:
    """(CPU ms per request, median latency ms) of each bucket of a phase."""
    edges = bucket_edges(exchanges)
    medians = [
        measure.median([e.latency_ms() for e in bucket])
        for bucket in bucketed(exchanges, edges) if bucket
    ]
    return cpu_ms_per_request(exchanges, edges, samples), medians


# -- the workload -------------------------------------------------------------------


class _Serve:
    def __init__(self, options: Options, shape: Shape) -> None:
        self.options = options
        self.shape = shape
        self.outcome = Outcome()
        self.child: GatewayChild | None = None

    def run(self) -> Outcome:
        try:
            return self._run()
        finally:
            if self.child is not None:
                self.child.kill()

    def _start_child(self) -> None:
        """Set-up, several times over: child start until ``listening``."""
        seconds = []
        for attempt in range(SETUP_REPEATS):
            if self.child is not None:
                self.child.stop()
            started = time.perf_counter()
            self.child = GatewayChild(self.options, self.shape, str(attempt))
            self.child.wait_listening()
            seconds.append(time.perf_counter() - started)
        self.outcome.end_to_end["setup_s"] = measure.median(seconds)
        self.outcome.timings["setup_s"] = (seconds, "s")

    def _queries(self, vocabulary: list[str]):
        rng = random.Random(derive_seed(self.options.seed, self.shape.name, "queries"))
        if self.shape.rate is None:
            return distinct_queries(vocabulary, rng, 3)
        return zipf_pool_queries(vocabulary, rng, pool=64, terms=6, exponent=1.1)

    def _phase(self, generator: Generator, seconds: float, label: str, rate=None):
        rate = rate if rate is not None else self.shape.rate
        if rate is None:
            exchanges = generator.closed(seconds)
        else:
            rng = random.Random(derive_seed(self.options.seed, self.shape.name, label))
            exchanges = generator.open(rate, seconds, rng)
        counts = tally(exchanges, self.shape.slo_ms)
        self.outcome.phases.append(counts.line(label))
        return exchanges, counts

    def _run(self) -> Outcome:
        options, shape, outcome = self.options, self.shape, self.outcome
        warmup = WARMUP_SECONDS * min(1.0, options.seconds / 10.0)
        # The same federation in this process: vocabulary for the queries
        # now, the serial oracle for the correctness replay afterwards.
        oracle_servers = build_synthetic_federation(
            NUM_DATABASES, options.sizes.federation_scale, seed=options.seed, profile="wsj88"
        )
        vocabulary = query_vocabulary(oracle_servers, options.sizes.query_min_df)
        self._start_child()
        child = self.child
        generator = Generator(child.port, shape, self._queries(vocabulary))
        reference: list[Exchange] = []
        ladder: list[tuple[float, list[Exchange], Tally]] = []
        try:
            self._phase(generator, warmup, "warm-up")
            if options.traced:
                # Same child, proxies switched off: the whole-request numbers
                # of the traced run, and what tracing costs, come from here.
                reference, _ = self._phase(generator, options.seconds / 3.0, "untraced reference")
            if options.traced:
                child.trace(True)
            window, counts = self._phase(generator, options.seconds, "window")
            rss = measure.peak_rss_mb(child.pid)
            if options.traced:
                child.trace(False)
            if options.traced and shape.rate is not None:
                for rate in LADDER:
                    exchanges, level = self._phase(
                        generator, options.seconds / len(LADDER), f"ladder {rate:g}/s", rate=rate
                    )
                    ladder.append((rate, exchanges, level))
        finally:
            generator.close()
        dump = child.stop()
        for error in generator.errors:
            outcome.problem(error)

        outcome.attempted = counts.sent
        outcome.failed += counts.sent - counts.ok
        self._check_against_oracle(oracle_servers, window)
        rate = self._rate(window, counts)
        if not options.traced:
            cpu_ms, medians = per_bucket(window, dump["cpu_samples"])
            outcome.end_to_end["ops_per_s"] = rate
            outcome.end_to_end["peak_rss_mb"] = rss
            outcome.timings["latency_ms"] = (
                [e.latency_ms() for e in window if e.status == "ok"], "ms"
            )
            outcome.timings["latency_p50_ms (per bucket)"] = (medians, "ms")
            outcome.timings["cpu_ms_per_op (per bucket)"] = (cpu_ms, "ms")
            outcome.phases.append(
                f"slo: {counts.slo_share:.4f} of requests sent were ok within "
                f"{shape.slo_ms:g} ms; gateway shed {dump['stats']['shed_queue_full']}, "
                f"max queue depth {dump['stats']['max_queue_depth']}"
            )
        else:
            self._layers(window, counts, rate, reference, ladder, dump, oracle_servers)
        return outcome

    def _rate(self, exchanges: list[Exchange], counts: Tally) -> float:
        """``ops_per_s`` of a phase."""
        if self.shape.rate is None:
            return closed_loop_rate(exchanges)
        # An open loop completes what was offered, so what can fall is the
        # rate of answers that came back within the limit.
        span = max(e.done for e in exchanges) - min(e.due for e in exchanges)
        return (counts.ok - counts.late) / span

    def _check_against_oracle(self, oracle_servers, window: list[Exchange]) -> None:
        """Replay the kept requests through a serial in-process service."""
        outcome = self.outcome
        oracle = frontend_from_servers(
            oracle_servers, databases_per_query=self.shape.fanout, workers=1
        ).service
        for exchange in window:
            if exchange.lines is None or exchange.status != "ok":
                continue
            frame = decode_frame(exchange.lines[-1])
            if not isinstance(frame, ResponseFrame):
                outcome.problem(f"{exchange.request_id}: terminal frame is {type(frame).__name__}")
                continue
            served = frame.response
            expected = oracle.search(exchange.request)
            hits = [(r.database, r.doc_id) for r in served.results]
            if hits != [(r.database, r.doc_id) for r in expected.results]:
                outcome.problem(f"{exchange.request_id}: results differ from the serial oracle")
            if served.dropped:
                outcome.problem(f"{exchange.request_id}: dropped {served.dropped}")
            if len(hits) != exchange.request.n:
                outcome.problem(
                    f"{exchange.request_id}: {len(hits)} results, {exchange.request.n} requested"
                )

    # -- per-layer metrics of the traced run --------------------------------------------

    def _layers(self, window, counts, rate, reference, ladder, dump, oracle_servers) -> None:
        options, shape, outcome = self.options, self.shape, self.outcome
        layers = outcome.layers
        log = SpanLog.continuing(dump["spans"])
        ok = [e for e in window if e.status == "ok"]
        for exchange in ok:
            log.add(
                "client_request", "loadgen", exchange.due, exchange.done,
                request=exchange.request_id, query=exchange.request.query,
            )
        ambiguous = _join_requests(log)
        outcome.log = log

        layers["index.build_s"] = index_build_seconds(
            "wsj88", options.sizes.federation_scale, options.seed
        )
        searches = log.named("frontend_search")
        backend = log.named("backend_search")
        merges = log.named("merge")
        layers["index.search_ms"] = measure.median(log.durations_ms("backend_search"))
        layers["index.search_calls_per_request"] = len(backend) / max(1, len(searches))
        layers["serving.search_ms"] = measure.median(log.durations_ms("frontend_search"))
        children = measure.children_by_parent(log.rows)
        layers["serving.self_ms"] = measure.median(
            [measure.self_seconds(row, children.get(row["id"], ())) * 1000.0 for row in searches]
        )
        layers["dbselect.merge_us"] = measure.median(log.durations_ms("merge")) * 1000.0
        layers["dbselect.merge_calls_per_request"] = len(merges) / max(1, len(searches))
        outcome.timings["index.search_ms"] = (log.durations_ms("backend_search"), "ms")
        outcome.timings["serving.search_ms"] = (log.durations_ms("frontend_search"), "ms")

        # serving.select: replay the window's queries, in order, on a frontend
        # of this process, so that the caches see the same hit pattern.
        with frontend_from_servers(
            oracle_servers, databases_per_query=shape.fanout, workers=1
        ) as frontend:
            frontend.select(window[0].request.query)  # compile the scorer, untimed
            frontend.invalidate()
            select_us = []
            for exchange in window:
                started = time.perf_counter()
                frontend.select(exchange.request.query)
                select_us.append((time.perf_counter() - started) * 1e6)
        layers["serving.select_us"] = measure.median(select_us)
        lookups = dump["selection"]["hits"] + dump["selection"]["misses"]
        layers["serving.select_hit_share"] = dump["selection"]["hits"] / max(1, lookups)

        latencies = [e.latency_ms() for e in ok]
        layers["gateway.overhead_ms"] = measure.median(latencies) - layers["serving.search_ms"]
        kept = [e for e in ok if e.lines is not None]
        decode_us, encode_us = _replay_frames([line for e in kept for line in e.lines])
        layers["gateway.decode_us_per_frame"] = decode_us
        layers["gateway.encode_us_per_frame"] = encode_us
        layers["gateway.response_bytes"] = measure.mean([e.bytes for e in ok])
        layers["gateway.frames_per_request"] = measure.mean([e.frames for e in ok])
        queue_wait = dump["timers"].get("gateway.queue_wait", {})
        layers["gateway.queue_wait_ms_mean"] = queue_wait.get("mean", 0.0) * 1000.0
        layers["gateway.max_queue_depth"] = dump["stats"]["max_queue_depth"]
        layers["gateway.shed"] = (
            dump["stats"]["shed_queue_full"] + dump["stats"]["shed_deadline"]
        )

        lateness = [(e.sent - e.due) * 1000.0 for e in window]
        layers["loadgen.lateness_ms_p99"] = measure.percentile(lateness, 99.0)
        layers["loadgen.latency_p95_ms"] = measure.percentile(latencies, 95.0)
        layers["loadgen.latency_p99_ms"] = measure.percentile(latencies, 99.0)
        layers["loadgen.slo_share"] = counts.slo_share
        outcome.timings["loadgen.latency_ms"] = (latencies, "ms")
        if shape.rate is not None:
            outcome.timings["loadgen.lateness_ms"] = (lateness, "ms")
        if shape.rate is not None and layers["loadgen.lateness_ms_p99"] > 5.0:
            outcome.phases.append(
                "INVALID: the generator ran more than 5 ms late at p99; "
                "this run measured the generator, not the gateway"
            )
        layers["loadgen.max_rate_ok"] = max(
            (rate for rate, exchanges, level in ladder
             if level.slo_share >= 0.99 and not _backlog_grows(exchanges)),
            default=0.0,
        )
        layers["obs.ambiguous_join_share"] = ambiguous / max(1, len(searches) + len(backend))
        if layers["obs.ambiguous_join_share"] > MAX_AMBIGUOUS_SHARE:
            outcome.problem(
                f"{layers['obs.ambiguous_join_share']:.1%} of the spans could not be told "
                f"apart when joined to their request (limit {MAX_AMBIGUOUS_SHARE:.0%})"
            )
        cpu_ms, medians = per_bucket(reference, dump["cpu_samples"])
        layers["total.cpu_ms_per_op"] = measure.fast_quartile(cpu_ms)
        layers["total.latency_p50_ms"] = measure.fast_quartile(medians)
        if shape.rate is None:
            plain = closed_loop_rate(reference)
            layers["obs.trace_overhead_share"] = (plain - rate) / plain


def _join_requests(log: SpanLog) -> int:
    """Hang the child's spans under the client request that caused them.

    The wire id does not reach the frontend, and backend searches run on
    fan-out pool threads, so both joins go by query text and containment
    (``measure.join_spans``).  Returns the number of ambiguous joins.
    """
    ambiguous = measure.join_spans(log, "frontend_search", "client_request")
    ambiguous += measure.join_spans(log, "backend_search", "frontend_search")
    request_of = {row["id"]: row["request"] for row in log.named("frontend_search")}
    for row in log.named("merge"):
        row["request"] = request_of.get(row["parent"])
    return ambiguous


def _backlog_grows(exchanges: list[Exchange]) -> bool:
    """Whether more requests were in flight late in the phase than early in it."""
    half = len(exchanges) // 2
    if half == 0:
        return False
    early = measure.mean([e.in_flight for e in exchanges[:half]])
    late = measure.mean([e.in_flight for e in exchanges[half:]])
    return late > 2.0 * early + 2.0


def _replay_frames(lines: list[bytes]) -> tuple[float, float]:
    """Microseconds per frame in ``decode_frame`` and in ``encode_frame``."""
    if not lines:
        return 0.0, 0.0
    started = time.perf_counter()
    frames = [decode_frame(line) for line in lines]
    decode = time.perf_counter() - started
    started = time.perf_counter()
    for frame in frames:
        encode_frame(frame)
    encode = time.perf_counter() - started
    return decode * 1e6 / len(lines), encode * 1e6 / len(lines)


def run_light(options: Options) -> Outcome:
    """Run ``serve_light`` once."""
    return _Serve(options, LIGHT).run()


def run_heavy(options: Options) -> Outcome:
    """Run ``serve_heavy`` once."""
    return _Serve(options, HEAVY).run()
