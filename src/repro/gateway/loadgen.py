"""The gateway load generator: open-loop Poisson sweeps, measured QPS.

"Millions of users" is a number, not a metaphor, only once it is
measured.  This module drives a :class:`~repro.gateway.server.GatewayServer`
with an **open-loop** arrival process — requests arrive at
exponentially distributed intervals for an offered rate, *regardless*
of whether earlier requests have completed, exactly like independent
users — sweeps the offered QPS over a ladder of levels, and reports
per-level p50/p95/p99 latency, shed rate, and achieved throughput.
Closed-loop harnesses (fire, wait, fire) hide saturation behind
coordinated omission; an open loop makes the queue, and therefore the
shedding, real.

The sweep's headline number is the **saturation QPS**: the highest
measured throughput among levels the gateway still served *cleanly*
(shed plus errored requests within a threshold share of arrivals).
Above it, the bounded admission queue sheds the excess instead of
melting — which the level rows show directly.

``run_load_bench`` either targets a running gateway by address or
self-hosts one in-process (the CI smoke and unit tests);
``write_load_bench`` lands the whole report in
``BENCH_serving_load.json`` (schema ``repro-serving-load/1``).
"""

from __future__ import annotations

import asyncio
import json
import platform
import random
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.backend import EvaluableDatabase, SearchableDatabase
from repro.federation.service import FederatedSearchService, SearchRequest
from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.server import GatewayServer, GatewayStats
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.serving.frontend import FederationFrontend
from repro.utils.atomic import atomic_write_text
from repro.utils.stats import latency_summary
from repro.utils.table import format_table

__all__ = [
    "LOAD_BENCH_SCHEMA",
    "LevelResult",
    "LoadBenchReport",
    "format_load_bench",
    "frontend_from_servers",
    "run_load_bench",
    "write_load_bench",
]

#: Schema identifier of BENCH_serving_load.json.
LOAD_BENCH_SCHEMA = "repro-serving-load/1"

#: A level counts as cleanly served if it sheds (or errors) at most
#: this fraction of its arrivals.
SATURATION_SHED_THRESHOLD = 0.01


def frontend_from_servers(
    servers: Mapping[str, SearchableDatabase],
    *,
    models: Mapping[str, LanguageModel] | None = None,
    databases_per_query: int = 3,
    workers: int = 8,
    recorder: Recorder = NULL_RECORDER,
) -> FederationFrontend:
    """A serving frontend over ``servers`` with their actual models.

    ``models`` defaults to each database's ground-truth language model
    (the gateway serves; it does not re-acquire).  Raises
    :class:`TypeError` if a database is not evaluable and no model was
    supplied for it.
    """
    if models is None:
        models = {
            name: server.actual_language_model()
            for name, server in servers.items()
            if isinstance(server, EvaluableDatabase)
        }
        if set(models) != set(servers):
            missing = sorted(set(servers) - set(models))
            raise TypeError(
                "cannot derive models: databases are not evaluable "
                f"(no actual_language_model): {missing}"
            )
    service = FederatedSearchService(
        servers,
        databases_per_query=min(databases_per_query, len(servers)),
        recorder=recorder,
    )
    service.use_models(models)
    return FederationFrontend(service, max_workers=workers, recorder=recorder)


@dataclass(frozen=True)
class LevelResult:
    """One offered-QPS level of the sweep, fully measured.

    ``latency`` and ``time_to_first_partial`` are
    :func:`~repro.utils.stats.latency_summary` mappings in seconds;
    the latter is all-zero (count 0) when no partial frames streamed.
    """

    offered_qps: float
    duration: float
    sent: int
    completed: int
    shed: int
    errors: int
    achieved_qps: float
    shed_rate: float
    latency: Mapping[str, float]
    time_to_first_partial: Mapping[str, float]


@dataclass(frozen=True)
class LoadBenchReport:
    """Everything one QPS sweep measured."""

    levels: tuple[LevelResult, ...]
    saturation_qps: float
    config: Mapping[str, object]
    #: Server-side stats (self-hosted sweeps only; None over the wire).
    gateway: GatewayStats | None = None


@dataclass
class _LevelTally:
    """Mutable per-level accumulation shared by the request tasks."""

    sent: int = 0
    shed: int = 0
    errors: int = 0
    latencies: list[float] = field(default_factory=list)
    first_partials: list[float] = field(default_factory=list)


async def _run_level(
    client: GatewayClient,
    queries: Sequence[str],
    *,
    qps: float,
    duration: float,
    rng: random.Random,
    n: int,
    docs_per_database: int,
    deadline: float | None,
) -> LevelResult:
    """Drive one open-loop level: Poisson arrivals at ``qps`` offered.

    Latencies count from each arrival's *due* time, not from its send:
    when the sender runs behind schedule the wait it imposes on later
    arrivals is part of what their users would see.
    """
    tally = _LevelTally()

    async def one(query: str, due: float) -> None:
        request = SearchRequest(
            query=query, n=n, docs_per_database=docs_per_database, deadline=deadline
        )
        late = time.perf_counter() - due
        try:
            reply = await client.search(request)
        except GatewayError:
            tally.errors += 1
            return
        if reply.ok:
            tally.latencies.append(time.perf_counter() - due)
            if reply.first_partial_after is not None:
                tally.first_partials.append(late + reply.first_partial_after)
        elif reply.status == "overload":
            tally.shed += 1
        else:
            tally.errors += 1

    tasks: list[asyncio.Task[None]] = []
    started = time.perf_counter()
    next_at = rng.expovariate(qps)
    while next_at < duration:
        # Open loop: sleep to the scheduled arrival, fire, never wait
        # for completions — offered load is independent of service time.
        due = started + next_at
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tally.sent += 1
        tasks.append(
            asyncio.create_task(one(queries[tally.sent % len(queries)], due))
        )
        next_at += rng.expovariate(qps)
    if tasks:
        await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - started
    completed = len(tally.latencies)
    return LevelResult(
        offered_qps=qps,
        duration=duration,
        sent=tally.sent,
        completed=completed,
        shed=tally.shed,
        errors=tally.errors,
        achieved_qps=completed / elapsed if elapsed > 0 else 0.0,
        shed_rate=tally.shed / tally.sent if tally.sent else 0.0,
        latency=latency_summary(tally.latencies),
        time_to_first_partial=latency_summary(tally.first_partials),
    )


def saturation_qps(levels: Sequence[LevelResult]) -> float:
    """The highest *achieved* QPS among cleanly served levels.

    A level is clean when shed and errored requests together are at
    most :data:`SATURATION_SHED_THRESHOLD` of its arrivals — in an
    open loop every arrival terminates as completed, shed, or errored,
    so once the admission queue saturates the shed rate is the
    unambiguous overload signal.  0.0 if no level qualified (the
    lowest swept level already saturated).
    """
    clean = [
        level.achieved_qps
        for level in levels
        if level.sent > 0
        and (level.shed + level.errors) / level.sent <= SATURATION_SHED_THRESHOLD
    ]
    return max(clean, default=0.0)


async def _sweep(
    host: str,
    port: int,
    queries: Sequence[str],
    *,
    qps_levels: Sequence[float],
    duration: float,
    pool_size: int,
    seed: int,
    n: int,
    docs_per_database: int,
    deadline: float | None,
) -> list[LevelResult]:
    rng = random.Random(seed)
    levels: list[LevelResult] = []
    async with GatewayClient(host, port, pool_size=pool_size) as client:
        for qps in qps_levels:
            levels.append(
                await _run_level(
                    client,
                    queries,
                    qps=qps,
                    duration=duration,
                    rng=rng,
                    n=n,
                    docs_per_database=docs_per_database,
                    deadline=deadline,
                )
            )
    return levels


def run_load_bench(
    *,
    address: tuple[str, int] | None = None,
    frontend: FederationFrontend | None = None,
    queries: Sequence[str] | None = None,
    qps_levels: Sequence[float] = (10.0, 20.0, 40.0),
    duration: float = 2.0,
    pool_size: int = 4,
    n: int = 10,
    docs_per_database: int = 10,
    deadline: float | None = None,
    queue_limit: int = 64,
    concurrency: int = 8,
    seed: int = 0,
    recorder: Recorder = NULL_RECORDER,
) -> LoadBenchReport:
    """Sweep offered QPS against a gateway; measure the ceiling.

    Exactly one of ``address`` (a running gateway) or ``frontend``
    (self-host an in-process gateway for the sweep's duration) must be
    given.  ``queries`` defaults, in self-host mode, to queries drawn
    from the federation's own models; over the wire they are required.
    """
    if (address is None) == (frontend is None):
        raise ValueError("pass exactly one of address= or frontend=")
    if not qps_levels or any(qps <= 0 for qps in qps_levels):
        raise ValueError("qps_levels must be positive rates")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if queries is None:
        if frontend is None:
            raise ValueError("queries are required when targeting a remote gateway")
        from repro.serving.bench import queries_from_models

        queries = queries_from_models(frontend.service.models, 12)

    config: dict[str, object] = {
        "qps_levels": list(qps_levels),
        "duration": duration,
        "pool_size": pool_size,
        "n": n,
        "docs_per_database": docs_per_database,
        "deadline": deadline,
        "seed": seed,
        "num_queries": len(queries),
    }

    if address is not None:
        host, port = address
        levels = asyncio.run(
            _sweep(
                host,
                port,
                queries,
                qps_levels=qps_levels,
                duration=duration,
                pool_size=pool_size,
                seed=seed,
                n=n,
                docs_per_database=docs_per_database,
                deadline=deadline,
            )
        )
        return LoadBenchReport(
            levels=tuple(levels),
            saturation_qps=saturation_qps(levels),
            config=config,
            gateway=None,
        )

    async def hosted() -> tuple[list[LevelResult], GatewayStats]:
        assert frontend is not None
        server = GatewayServer(
            frontend,
            queue_limit=queue_limit,
            concurrency=concurrency,
            recorder=recorder,
        )
        async with server:
            levels = await _sweep(
                server.host,
                server.port,
                queries,
                qps_levels=qps_levels,
                duration=duration,
                pool_size=pool_size,
                seed=seed,
                n=n,
                docs_per_database=docs_per_database,
                deadline=deadline,
            )
        return levels, server.stats

    config["queue_limit"] = queue_limit
    config["concurrency"] = concurrency
    levels, stats = asyncio.run(hosted())
    return LoadBenchReport(
        levels=tuple(levels),
        saturation_qps=saturation_qps(levels),
        config=config,
        gateway=stats,
    )


# -- emission --------------------------------------------------------------


def _ms(summary: Mapping[str, float]) -> dict[str, float]:
    """A seconds latency summary as rounded milliseconds (count kept)."""
    return {
        key: (int(value) if key == "count" else round(value * 1000.0, 3))
        for key, value in summary.items()
    }


def load_bench_payload(report: LoadBenchReport) -> dict[str, object]:
    """The report as the ``repro-serving-load/1`` JSON document."""
    payload: dict[str, object] = {
        "schema": LOAD_BENCH_SCHEMA,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "config": dict(report.config),
        "levels": [
            {
                "offered_qps": round(level.offered_qps, 3),
                "duration": level.duration,
                "sent": level.sent,
                "completed": level.completed,
                "shed": level.shed,
                "errors": level.errors,
                "achieved_qps": round(level.achieved_qps, 3),
                "shed_rate": round(level.shed_rate, 4),
                "latency_ms": _ms(level.latency),
                "time_to_first_partial_ms": (
                    _ms(level.time_to_first_partial)
                    if level.time_to_first_partial["count"]
                    else None
                ),
            }
            for level in report.levels
        ],
        "saturation_qps": round(report.saturation_qps, 3),
    }
    if report.gateway is not None:
        payload["gateway"] = {
            "accepted": report.gateway.accepted,
            "completed": report.gateway.completed,
            "shed": report.gateway.shed,
            "shed_queue_full": report.gateway.shed_queue_full,
            "shed_deadline": report.gateway.shed_deadline,
            "errors": report.gateway.errors,
            "streamed_partials": report.gateway.streamed_partials,
            "max_queue_depth": report.gateway.max_queue_depth,
        }
    return payload


def write_load_bench(report: LoadBenchReport, path: str) -> None:
    """Write the report to ``path`` atomically (BENCH_serving_load.json)."""
    atomic_write_text(path, json.dumps(load_bench_payload(report), indent=1) + "\n")


def format_load_bench(report: LoadBenchReport) -> str:
    """Human-readable sweep tables (CLI output)."""
    rows = [
        {
            "offered_qps": round(level.offered_qps, 1),
            "achieved_qps": round(level.achieved_qps, 1),
            "p50_ms": round(level.latency["p50"] * 1000, 2),
            "p95_ms": round(level.latency["p95"] * 1000, 2),
            "p99_ms": round(level.latency["p99"] * 1000, 2),
            "shed_rate": round(level.shed_rate, 3),
            "sent": level.sent,
            "errors": level.errors,
        }
        for level in report.levels
    ]
    lines = [format_table(rows, title="Load sweep (open-loop Poisson arrivals)")]
    lines.append("")
    lines.append(f"saturation QPS (cleanly served ceiling): {report.saturation_qps:.1f}")
    if report.gateway is not None:
        lines.append(
            f"gateway: max queue depth {report.gateway.max_queue_depth}, "
            f"shed {report.gateway.shed} "
            f"(queue_full {report.gateway.shed_queue_full}, "
            f"deadline {report.gateway.shed_deadline}), "
            f"streamed partials {report.gateway.streamed_partials}"
        )
    return "\n".join(lines)
