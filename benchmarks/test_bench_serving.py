"""Serving-path performance benchmarks and their perf-regression floors.

Measures the three layers :mod:`repro.serving` adds over the plain
federated service, each against its baseline, and feeds the session's
:class:`~conftest.PerfRecorder` so ``BENCH_perf.json`` carries the
serving hot paths:

* **vectorized CORI vs the scalar selector** at 10/100/500 synthetic
  databases — the scalar path is O(databases² · terms) per query, so
  the gap widens with federation size; the acceptance floor is ≥5x at
  100 databases, asserted *after* checking both paths still produce
  identical rankings (scores within 1e-9);
* **warm vs cold selection caches** (floor: ≥10x);
* **concurrent vs serial fan-out** against 10ms latency-injected
  backends — the serial loop pays the latency per selected backend,
  the fan-out roughly once per query.

Synthetic model sets keep the selection benches index-free and fast;
the fan-out bench runs on a real (small) indexed federation.
"""

from __future__ import annotations

import random
import time
from typing import Callable

import pytest

from repro.dbselect import CoriScorer, make_selector
from repro.federation import FederatedSearchService, SearchRequest
from repro.lm import LanguageModel
from repro.serving import FederationFrontend, LatencyInjected, build_synthetic_federation

#: Scale of the indexed fan-out federation (matches the perf corpus).
PERF_SCALE = 0.05

#: Injected per-backend latency for the fan-out comparison.
BACKEND_LATENCY = 0.010


@pytest.fixture(autouse=True)
def _record_scale(perf_recorder):
    perf_recorder.scale = PERF_SCALE


def synthetic_models(
    num_databases: int, vocabulary: int = 400, terms_per_db: int = 120, seed: int = 0
) -> dict[str, LanguageModel]:
    """Random per-database language models over a shared vocabulary."""
    rng = random.Random(seed)
    terms = [f"t{i:04d}" for i in range(vocabulary)]
    models: dict[str, LanguageModel] = {}
    for i in range(num_databases):
        model = LanguageModel()
        for term in rng.sample(terms, terms_per_db):
            df = rng.randint(1, 500)
            model.add_term(term, df=df, ctf=df + rng.randint(0, 500))
        model.documents_seen = rng.randint(100, 3000)
        model.tokens_seen = rng.randint(10_000, 200_000)
        models[f"db{i:04d}"] = model
    return models


def bench_queries(seed: int, count: int = 16) -> list[str]:
    """Three-term queries over the synthetic vocabulary."""
    rng = random.Random(seed)
    return [
        " ".join(f"t{rng.randrange(400):04d}" for _ in range(3)) for _ in range(count)
    ]


def best_seconds(operation: Callable[[], object], rounds: int) -> float:
    """Minimum wall time of ``operation`` over ``rounds`` (after warm-up).

    The minimum is the regression statistic, as in
    :meth:`~conftest.PerfRecorder.record_benchmark`.
    """
    operation()  # warm-up, uncounted
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - started)
    return best


class _StubDatabase:
    """Searchable stand-in so selection benches need no real index."""

    def run_query(self, query: str, max_docs: int = 10):
        return []


@pytest.mark.parametrize("num_databases", [10, 100, 500])
def test_perf_select_vectorized_vs_scalar(num_databases, perf_recorder):
    models = synthetic_models(num_databases, seed=num_databases)
    queries = bench_queries(seed=num_databases)
    selector = make_selector("cori")
    scorer = CoriScorer(models)

    # The speedup must not come from changed results: identical
    # rankings, scores within 1e-9, on every bench query.
    for query in queries:
        scalar = selector.rank(query, models)
        vector = scorer.rank(query)
        assert scalar.names == vector.names, query
        for left, right in zip(scalar.entries, vector.entries):
            assert abs(left.score - right.score) <= 1e-9

    rounds = 3 if num_databases >= 500 else 5
    scalar_total = best_seconds(
        lambda: [selector.rank(query, models) for query in queries], rounds
    )
    vector_total = best_seconds(
        lambda: [scorer.rank(query) for query in queries], rounds
    )
    scalar_name = f"cori_select_scalar_{num_databases}db"
    vector_name = f"cori_select_vectorized_{num_databases}db"
    perf_recorder.record(scalar_name, scalar_total / len(queries))
    perf_recorder.record(vector_name, vector_total / len(queries))
    speedup = perf_recorder.speedup(
        f"cori_vectorized_vs_scalar_{num_databases}db",
        before=scalar_name,
        after=vector_name,
    )
    if num_databases >= 100:
        # Acceptance floor; the recorded baseline documents the real
        # (~20x at 100 databases) margin.
        assert speedup >= 5.0, f"vectorized CORI regressed: {speedup:.2f}x"


def test_perf_selection_cache_warm_vs_cold(perf_recorder):
    models = synthetic_models(100, seed=7)
    queries = bench_queries(seed=7)
    service = FederatedSearchService({name: _StubDatabase() for name in models})
    service.use_models(models)

    with FederationFrontend(service) as frontend:

        def cold_pass():
            for query in queries:
                frontend.selections.clear()
                frontend.select(query)

        def warm_pass():
            for query in queries:
                frontend.select(query)

        cold_total = best_seconds(cold_pass, rounds=5)
        warm_total = best_seconds(warm_pass, rounds=5)

    perf_recorder.record("selection_cold_cache_100db", cold_total / len(queries))
    perf_recorder.record("selection_warm_cache_100db", warm_total / len(queries))
    speedup = perf_recorder.speedup(
        "selection_warm_vs_cold_cache",
        before="selection_cold_cache_100db",
        after="selection_warm_cache_100db",
    )
    assert speedup >= 10.0, f"selection cache regressed: {speedup:.2f}x"


def test_perf_fanout_concurrent_vs_serial(perf_recorder):
    servers = build_synthetic_federation(
        num_databases=4, scale=PERF_SCALE, seed=3
    )
    slowed = {
        name: LatencyInjected(server, BACKEND_LATENCY)
        for name, server in servers.items()
    }
    models = {
        name: server.actual_language_model() for name, server in servers.items()
    }
    service = FederatedSearchService(slowed, databases_per_query=3)
    service.use_models(models)
    queries = [
        " ".join(s.term for s in model.top_terms(3, "ctf"))
        for model in models.values()
    ]

    def serial_pass():
        for query in queries:
            service.search(SearchRequest(query=query))

    serial_total = best_seconds(serial_pass, rounds=3)
    with FederationFrontend(service) as frontend:

        def concurrent_pass():
            for query in queries:
                frontend.search(SearchRequest(query=query))

        concurrent_total = best_seconds(concurrent_pass, rounds=3)

    perf_recorder.record("federated_search_serial_10ms", serial_total / len(queries))
    perf_recorder.record(
        "federated_search_concurrent_10ms", concurrent_total / len(queries)
    )
    speedup = perf_recorder.speedup(
        "fanout_concurrent_vs_serial_10ms",
        before="federated_search_serial_10ms",
        after="federated_search_concurrent_10ms",
    )
    # 3 backends x 10ms serial vs ~10ms concurrent: ~3x in theory;
    # loose floor so a loaded CI machine cannot flake.
    assert speedup > 1.5, f"concurrent fan-out regressed: {speedup:.2f}x"
