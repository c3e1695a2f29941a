"""Synthetic-federation fixtures of the serving layer.

Three helpers that stand a federation up without any corpus files, for
the CLI's ``--synthetic`` / ``--slow-backend`` flags, ``benchmarks/``
and ``bench/``:

* :func:`build_synthetic_federation` — a topically skewed federation
  over one synthetic corpus;
* :class:`LatencyInjected` — a retrievable database whose every search
  pays a fixed latency, the serving-side model of a slow remote
  backend;
* :func:`queries_from_models` — deterministic queries drawn from the
  federation's own vocabulary.

Nothing here takes a time: serving speed is measured end to end by
``python3 bench/run.py --workload serve_light|serve_heavy`` and per
layer, with floors, by ``benchmarks/test_bench_serving.py``.
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.backend import SearchableDatabase
from repro.corpus.document import Document
from repro.federation.testbed import build_skewed_partition
from repro.index.server import DatabaseServer, build_servers
from repro.lm.model import LanguageModel
from repro.synth.profiles import PROFILES_BY_NAME

__all__ = [
    "LatencyInjected",
    "build_synthetic_federation",
    "queries_from_models",
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
    """A topically skewed federation over one synthetic corpus.

    The indexes are built on every usable CPU (:func:`build_servers`).
    """
    corpus = PROFILES_BY_NAME[profile]().build(seed=seed, scale=scale)
    parts = build_skewed_partition(corpus, num_databases=num_databases, seed=seed)
    return {server.name: server for server in build_servers(parts)}


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
