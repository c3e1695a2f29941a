"""The ``repro serve-bench`` harness: throughput of the serving path.

Measures the three layers the serving frontend adds — vectorized
selection, selection caching, concurrent fan-out — against their
baselines (scalar CORI, cold caches, the service's serial retrieval
loop) on one federation, and reports ops/sec per mode plus the derived
speedups.  The same functions back the CLI subcommand, the CI smoke
run, and the ``benchmarks/test_bench_serving.py`` perf baselines.

Backend latency can be injected (:class:`LatencyInjected`) to model
remote databases: the serial loop pays the latency once per selected
backend, the concurrent fan-out pays it roughly once per query — the
gap *is* the point of the fan-out.

With a :class:`~repro.classify.TopicRouter` (``--route-topics``), an
extra ``search_routed`` mode runs the same fan-out with the CORI
candidate set restricted to the query's classified topics; the report
then also carries mean ``databases_per_query`` per mode, so the
fan-out saving is visible next to the throughput numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.backend import EvaluableDatabase, SearchableDatabase
from repro.corpus.document import Document
from repro.federation.service import FederatedSearchService, SearchRequest
from repro.federation.testbed import build_skewed_partition
from repro.index.server import DatabaseServer
from repro.lm.model import LanguageModel
from repro.serving.frontend import FederationFrontend
from repro.synth.profiles import PROFILES_BY_NAME
from repro.utils.stats import latency_summary

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.classify.router import TopicRouter

__all__ = [
    "LatencyInjected",
    "ServeBenchReport",
    "build_synthetic_federation",
    "format_serve_bench",
    "queries_from_models",
    "run_serve_bench",
]


class _DelayedEngine:
    """Engine proxy that sleeps before every search (simulated RTT)."""

    def __init__(self, inner, delay: float) -> None:
        self._inner = inner
        self._delay = delay

    def search(self, query: str, n: int = 10):
        time.sleep(self._delay)
        return self._inner.search(query, n=n)


class LatencyInjected:
    """A retrievable database whose every search pays a fixed latency.

    Unlike the transport layer's fault injector (which perturbs
    *sampling* queries), this wrapper targets the ranked-retrieval
    engine the federated fan-out calls — the serving-side analogue of a
    slow remote backend.
    """

    def __init__(self, inner: SearchableDatabase, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.inner = inner
        self.name = getattr(inner, "name", "database")
        self.engine = _DelayedEngine(inner.engine, delay)  # type: ignore[attr-defined]

    def run_query(self, query: str, max_docs: int = 10) -> list[Document]:
        """Delegate sampling queries unchanged."""
        return self.inner.run_query(query, max_docs=max_docs)


def build_synthetic_federation(
    num_databases: int = 4,
    scale: float = 0.05,
    seed: int = 0,
    profile: str = "wsj88",
) -> dict[str, DatabaseServer]:
    """A topically skewed federation over one synthetic corpus."""
    corpus = PROFILES_BY_NAME[profile]().build(seed=seed, scale=scale)
    parts = build_skewed_partition(corpus, num_databases=num_databases, seed=seed)
    return {part.name: DatabaseServer(part) for part in parts}


def queries_from_models(
    models: Mapping[str, LanguageModel], count: int, terms_per_query: int = 3
) -> list[str]:
    """Deterministic bench queries from the federation's own vocabulary.

    Interleaves each database's frequent terms so queries discriminate
    between databases instead of all hitting the global head.
    """
    if count <= 0 or terms_per_query <= 0:
        raise ValueError("count and terms_per_query must be positive")
    pool: list[str] = []
    seen: set[str] = set()
    per_model = max(2, (count * terms_per_query) // max(len(models), 1) + 1)
    for model in models.values():
        for stats in model.top_terms(per_model + 5, "ctf"):
            if len(stats.term) >= 3 and stats.term not in seen:
                seen.add(stats.term)
                pool.append(stats.term)
    if not pool:
        raise ValueError("models have no usable vocabulary for bench queries")
    return [
        " ".join(
            pool[(i * terms_per_query + j) % len(pool)] for j in range(terms_per_query)
        )
        for i in range(count)
    ]


def _throughput(
    operation: Callable[[], object], budget: float
) -> tuple[float, int, Mapping[str, float]]:
    """(seconds per op, ops, latency summary) within a time budget.

    Every operation is timed individually so the summary carries the
    tail (p95/p99), not just the mean that ops/sec alone would give.
    """
    operation()  # warm-up, uncounted
    samples: list[float] = []
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        operation()
        now = time.perf_counter()
        samples.append(now - before)
        if now - started >= budget:
            break
    elapsed = now - started
    return elapsed / len(samples), len(samples), latency_summary(samples)


@dataclass(frozen=True)
class ServeBenchReport:
    """Everything one serve-bench run measured."""

    num_databases: int
    num_queries: int
    backend_latency: float
    #: mode → (seconds per op, ops measured)
    modes: Mapping[str, tuple[float, int]]
    #: label → before/after ratio
    speedups: Mapping[str, float]
    #: mode → per-op latency summary in seconds (count/mean/min/max/p50/p95/p99)
    latency: Mapping[str, Mapping[str, float]]
    #: mode → mean databases searched per query (populated when routing)
    fanout: Mapping[str, float] = field(default_factory=dict)


def run_serve_bench(
    servers: Mapping[str, DatabaseServer],
    queries: Sequence[str] | None = None,
    *,
    num_queries: int = 12,
    budget: float = 0.5,
    workers: int = 8,
    backend_latency: float = 0.0,
    databases_per_query: int = 3,
    models: Mapping[str, LanguageModel] | None = None,
    router: "TopicRouter | None" = None,
) -> ServeBenchReport:
    """Benchmark serial/scalar/cold baselines against the serving path.

    ``budget`` is the wall-clock budget *per measured mode* (six
    modes).  ``models`` defaults to the databases' actual language
    models — the bench measures serving, not acquisition; pass a
    store-loaded set (``repro serve-bench --models DIR``) to bench the
    warm-start path instead.  With ``router``, a seventh
    ``search_routed`` mode re-runs the concurrent fan-out with
    topic-aware candidate restriction, and ``report.fanout`` compares
    mean databases searched per query between the two fan-out modes.
    """
    if models is None:
        models = {
            name: server.actual_language_model()
            for name, server in servers.items()
            if isinstance(server, EvaluableDatabase)
        }
        if set(models) != set(servers):
            raise TypeError("serve-bench needs evaluable databases (actual models)")
    else:
        missing = set(servers) - set(models)
        if missing:
            raise TypeError(f"serve-bench models missing databases: {sorted(missing)}")
        models = {name: models[name] for name in servers}
    if queries is None:
        queries = queries_from_models(models, num_queries)
    depth = min(databases_per_query, len(servers))

    service = FederatedSearchService(servers, databases_per_query=depth)
    service.use_models(models)

    modes: dict[str, tuple[float, int]] = {}
    latency: dict[str, Mapping[str, float]] = {}

    def measure(mode: str, operation: Callable[[], object]) -> None:
        seconds, ops, summary = _throughput(operation, budget)
        modes[mode] = (seconds, ops)
        latency[mode] = summary

    def cycle(run_one: Callable[[str], object]) -> Callable[[], object]:
        state = {"i": 0}

        def step() -> object:
            query = queries[state["i"] % len(queries)]
            state["i"] += 1
            return run_one(query)

        return step

    # Selection: scalar reference vs compiled scorer vs caches.
    measure("select_scalar", cycle(service.select))
    with FederationFrontend(service, max_workers=workers) as frontend:
        frontend.select(queries[0])  # compile outside the timed region

        def cold_select(query: str) -> object:
            frontend.selections.clear()
            return frontend.select(query)

        measure("select_vectorized", cycle(cold_select))
        modes["select_cold_cache"] = modes["select_vectorized"]
        latency["select_cold_cache"] = latency["select_vectorized"]
        measure("select_warm_cache", cycle(frontend.select))

    # End-to-end retrieval: serial service loop vs concurrent fan-out,
    # optionally against latency-injected backends.
    fanout_servers: Mapping[str, SearchableDatabase] = servers
    if backend_latency > 0:
        fanout_servers = {
            name: LatencyInjected(server, backend_latency)
            for name, server in servers.items()
        }
    fanout_service = FederatedSearchService(fanout_servers, databases_per_query=depth)
    fanout_service.use_models(models)
    measure(
        "search_serial",
        cycle(lambda query: fanout_service.search(SearchRequest(query=query))),
    )
    with FederationFrontend(fanout_service, max_workers=workers) as frontend:
        measure(
            "search_concurrent",
            cycle(lambda query: frontend.search(SearchRequest(query=query))),
        )

    fanout: dict[str, float] = {}
    if router is not None:
        routed_service = FederatedSearchService(
            fanout_servers, databases_per_query=depth, router=router
        )
        routed_service.use_models(models)
        searched: list[int] = []
        with FederationFrontend(routed_service, max_workers=workers) as frontend:

            def routed_one(query: str) -> object:
                response = frontend.search(SearchRequest(query=query))
                searched.append(len(response.searched))
                return response

            measure("search_routed", cycle(routed_one))
        fanout = {
            "search_concurrent": float(depth),
            "search_routed": sum(searched) / len(searched) if searched else 0.0,
        }

    speedups = {
        "vectorized_vs_scalar_select": modes["select_scalar"][0]
        / modes["select_vectorized"][0],
        "warm_vs_cold_cache_select": modes["select_cold_cache"][0]
        / modes["select_warm_cache"][0],
        "concurrent_vs_serial_fanout": modes["search_serial"][0]
        / modes["search_concurrent"][0],
    }
    if "search_routed" in modes:
        speedups["routed_vs_broadcast_search"] = (
            modes["search_concurrent"][0] / modes["search_routed"][0]
        )
    return ServeBenchReport(
        num_databases=len(servers),
        num_queries=len(queries),
        backend_latency=backend_latency,
        modes=modes,
        speedups=speedups,
        latency=latency,
        fanout=fanout,
    )


def format_serve_bench(report: ServeBenchReport) -> str:
    """Human-readable serve-bench tables (CLI output)."""
    from repro.experiments.reporting import format_table

    mode_rows = []
    for mode, (seconds, ops) in report.modes.items():
        summary = report.latency.get(mode, {})
        mode_rows.append(
            {
                "mode": mode,
                "ops_per_sec": round(1.0 / seconds, 1) if seconds > 0 else float("inf"),
                "ms_per_op": round(seconds * 1000.0, 4),
                "p50_ms": round(summary.get("p50", 0.0) * 1000.0, 4),
                "p95_ms": round(summary.get("p95", 0.0) * 1000.0, 4),
                "p99_ms": round(summary.get("p99", 0.0) * 1000.0, 4),
                "ops": ops,
            }
        )
    speedup_rows = [
        {"speedup": label, "x": round(value, 2)}
        for label, value in report.speedups.items()
    ]
    title = (
        f"serve-bench: {report.num_databases} databases, "
        f"{report.num_queries} queries, "
        f"{report.backend_latency * 1000:.0f}ms injected backend latency"
    )
    rendered = (
        format_table(mode_rows, title=title)
        + "\n\n"
        + format_table(speedup_rows, title="Derived speedups")
    )
    if report.fanout:
        fanout_rows = [
            {"mode": mode, "databases_per_query": round(value, 2)}
            for mode, value in report.fanout.items()
        ]
        rendered += "\n\n" + format_table(
            fanout_rows, title="Fan-out (topic-aware routing)"
        )
    return rendered
