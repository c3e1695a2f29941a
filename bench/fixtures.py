"""What the workloads are run on: sizes, federations, generated queries.

Everything a workload feeds the program is made here from the run's
seed, so the program itself only ever sees generated inputs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.federation.testbed import build_skewed_partition
from repro.index.server import DatabaseServer
from repro.sampling.selection import is_eligible_query_term
from repro.synth.profiles import PROFILES_BY_NAME

#: Databases in every federation the benchmark builds.
NUM_DATABASES = 8

#: Shards of every model store the benchmark writes.
NUM_SHARDS = 4

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Sizes:
    """Corpus scales and document budgets of one benchmark size."""

    #: ``wsj88`` federation of ``acquire`` and ``serve_*`` (one corpus, split 8 ways).
    federation_scale: float
    #: Documents sampled per database in ``acquire``; must stay below the
    #: smallest database or the run degenerates into exhaustion queries.
    acquire_documents: int
    #: ``cacm`` databases of ``refresh`` (8 corpora) and their drifted ``wsj88`` stand-ins.
    refresh_scale: float
    drift_scale: float
    refresh_documents: int
    #: Terms must occur in at least this many documents of the federation
    #: to be drawn into a serving query, so that no result list runs short.
    query_min_df: int


FULL = Sizes(
    federation_scale=0.5,
    acquire_documents=300,
    refresh_scale=0.3,
    drift_scale=0.08,
    refresh_documents=300,
    query_min_df=40,
)

#: ``--smoke``: the same code paths in seconds, not a measurement.
SMOKE = Sizes(
    federation_scale=0.1,
    acquire_documents=60,
    refresh_scale=0.1,
    drift_scale=0.027,
    refresh_documents=100,
    query_min_df=15,
)


def index_build_seconds(profile: str, scale: float, seed: int) -> float:
    """Seconds spent in ``DatabaseServer(corpus)`` across the federation.

    Repeats the three steps of ``build_synthetic_federation`` so that
    the index build can be timed apart from corpus generation.
    """
    corpus = PROFILES_BY_NAME[profile]().build(seed=seed, scale=scale)
    parts = build_skewed_partition(corpus, num_databases=NUM_DATABASES, seed=seed)
    started = time.perf_counter()
    for part in parts:
        DatabaseServer(part)
    return time.perf_counter() - started


def query_vocabulary(servers, min_df: int) -> list[str]:
    """Index terms frequent enough across the federation to query with."""
    totals: dict[str, int] = {}
    for server in servers.values():
        model = server.actual_language_model()
        for term in model:
            totals[term] = totals.get(term, 0) + model.df(term)
    return sorted(
        term
        for term, df in totals.items()
        if df >= min_df and is_eligible_query_term(term)
    )


def distinct_queries(vocabulary: list[str], rng: random.Random, terms: int):
    """An endless stream of queries, no two alike."""
    seen: set[tuple[str, ...]] = set()
    while True:
        choice = tuple(rng.sample(vocabulary, terms))
        if choice not in seen:
            seen.add(choice)
            yield " ".join(choice)


def zipf_pool_queries(
    vocabulary: list[str], rng: random.Random, *, pool: int, terms: int, exponent: float
):
    """An endless Zipf(``exponent``) stream over a fixed pool of queries."""
    queries = [" ".join(rng.sample(vocabulary, terms)) for _ in range(pool)]
    weights = [1.0 / (rank + 1) ** exponent for rank in range(pool)]
    while True:
        yield rng.choices(queries, weights)[0]
