"""The gateway child process of the ``serve_*`` workloads.

Hosts a ``GatewayServer`` over a synthetic federation in a process of its
own, so that the load generator and the server do not share an
interpreter lock.  It is built from the program's own parts only
(``build_synthetic_federation``, ``frontend_from_servers``,
``GatewayServer``); with ``--traced 1`` the benchmark's timing proxies
stand at the program's injection points, recording only while the parent
has switched them on.

Protocol with the parent: prints ``listening <port>`` once it accepts
connections; answers ``trace on`` / ``trace off`` lines on standard
input by echoing them; on end of input (or SIGTERM) stops the server,
writes its counters and spans to ``--dump`` and exits.  Because it stops
on end of input, it cannot outlive a parent that died.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.gateway.loadgen import frontend_from_servers  # noqa: E402
from repro.gateway.server import GatewayServer  # noqa: E402
from repro.obs.metrics import MetricSet  # noqa: E402
from repro.obs.trace import NullRecorder  # noqa: E402
from repro.serving.bench import build_synthetic_federation  # noqa: E402

from fixtures import NUM_DATABASES  # noqa: E402
from measure import SpanLog  # noqa: E402
from proxies import Scope, TimedDatabase, TimedFrontend, TimedMerger  # noqa: E402

#: Load shape fixed by the benchmark (2 cores): executor threads of the
#: gateway, fan-out threads of the frontend, admission queue capacity.
CONCURRENCY = 2
FANOUT_WORKERS = 2
QUEUE_LIMIT = 64
CPU_SAMPLE_SECONDS = 0.25


class TimerRecorder(NullRecorder):
    """Keeps the gateway's own ``observe`` timers (queue wait) while tracing is on."""

    def __init__(self, log: SpanLog) -> None:
        self.metrics = MetricSet()
        self._log = log

    def observe(self, name: str, seconds: float) -> None:
        if self._log.enabled:
            self.metrics.timer(name).observe(seconds)


class TracedStretch:
    """Counters of the stretch during which the parent had tracing switched on."""

    def __init__(self, log: SpanLog, frontend, server: GatewayServer) -> None:
        self.log = log
        self.selections = frontend.selections
        self.server = server
        self.hits = self.misses = 0
        self.stats: dict[str, int] | None = None
        self._base = (0, 0)

    def switch(self, on: bool) -> None:
        self.log.enabled = on
        now = (self.selections.hits, self.selections.misses)
        if on:
            self._base = now
        else:
            self.hits += now[0] - self._base[0]
            self.misses += now[1] - self._base[1]
            self.stats = dataclasses.asdict(self.server.stats)


def sample_cpu(samples: list[tuple[float, float]], stop: threading.Event) -> None:
    """Read this process's CPU clock a few times a second until told to stop.

    ``/proc/<pid>/stat`` counts in 10 ms ticks, too coarse for the
    half-second buckets the generator cuts the window into.
    """
    while True:
        samples.append((time.perf_counter(), time.process_time()))
        if stop.wait(CPU_SAMPLE_SECONDS):
            samples.append((time.perf_counter(), time.process_time()))
            return


async def serve(server: GatewayServer, stretch: TracedStretch | None) -> None:
    await server.start()
    print(f"listening {server.port}", flush=True)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def watch_parent() -> None:
        for line in sys.stdin:
            command = line.strip()
            if stretch is not None and command in ("trace on", "trace off"):
                stretch.switch(command == "trace on")
                print(command, flush=True)
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=watch_parent, name="watch-parent", daemon=True).start()
    await stop.wait()
    await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--databases-per-query", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args()
    # Ctrl-C reaches the whole process group; the parent decides when this
    # process stops, so that it can always collect the dump.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    servers = build_synthetic_federation(
        NUM_DATABASES, args.scale, seed=args.seed, profile="wsj88"
    )
    models = {name: server.actual_language_model() for name, server in servers.items()}
    log = recorder = None
    if args.traced:
        log = SpanLog()
        log.enabled = False
        scope = Scope()
        servers = {name: TimedDatabase(server, log, scope) for name, server in servers.items()}
        recorder = TimerRecorder(log)
    frontend = frontend_from_servers(
        servers,
        models=models,
        databases_per_query=args.databases_per_query,
        workers=FANOUT_WORKERS,
    )
    handed = frontend
    if log is not None:
        frontend.service.merger = TimedMerger(frontend.service.merger, log, scope)
        handed = TimedFrontend(frontend, log, scope)
    server = GatewayServer(
        handed, queue_limit=QUEUE_LIMIT, concurrency=CONCURRENCY, recorder=recorder
    )
    stretch = TracedStretch(log, frontend, server) if log is not None else None
    cpu_samples: list[tuple[float, float]] = []
    sampling_done = threading.Event()
    sampler = threading.Thread(target=sample_cpu, args=(cpu_samples, sampling_done))
    sampler.start()
    try:
        asyncio.run(serve(server, stretch))
    finally:
        sampling_done.set()
        sampler.join()
        frontend.close()
    if stretch is not None and log.enabled:
        stretch.switch(False)
    dump = {
        "stats": (stretch and stretch.stats) or dataclasses.asdict(server.stats),
        "timers": recorder.metrics.snapshot()["timers"] if recorder else {},
        "selection": {"hits": stretch.hits, "misses": stretch.misses} if stretch else {},
        "cpu_samples": cpu_samples,
        "spans": log.rows if log is not None else [],
    }
    with open(args.dump, "w", encoding="utf-8") as handle:
        json.dump(dump, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
