"""Extension Ext-6: full federated search with result merging.

Completes the paper's motivating pipeline: learned models drive CORI
selection, the selected databases are searched, and their per-database
scores are merged.  Compares mergers on topical precision@10 (fraction
of merged results generated from the query's topic):

* the **CORI merge** (collection-score-weighted normalisation),
* **raw-score** merging (the scale-naive baseline), and
* **round-robin** interleaving (scale-free but quality-blind).

Expected shape: the CORI merge matches or beats round-robin, and
merging from learned-model selection stays close to merging from
actual-model selection.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.dbselect.merge import CoriMerger, RawScoreMerger, RoundRobinMerger
from repro.federation import (
    FederatedSearchService,
    SearchRequest,
    skewed_world,
    topical_queries,
)
from repro.sampling import RandomFromOther
from repro.utils.table import format_table

NUM_DATABASES = 6
SEARCH_N = 10


def _experiment(testbed):
    corpus = testbed.server("wsj88").index.corpus
    world = skewed_world(corpus, NUM_DATABASES, seed=17)
    servers = world.servers
    queries = topical_queries(world.parts, max_topics=8)

    mergers = {
        "cori_merge": CoriMerger(),
        "raw_score": RawScoreMerger(),
        "round_robin": RoundRobinMerger(),
    }
    model_sources = {
        "learned": None,  # filled by sampling below
        "actual": {name: server.actual_language_model() for name, server in servers.items()},
    }

    service = FederatedSearchService(servers, databases_per_query=3)
    service.learn_models(
        lambda name: RandomFromOther(testbed.actual_model("trec123")),
        total_documents=NUM_DATABASES * 100,
        seed=19,
    )
    model_sources["learned"] = dict(service.models)

    rows = []
    precision: dict[tuple[str, str], float] = {}
    for source_label, models in model_sources.items():
        service.use_models(models)
        for merger_label, merger in mergers.items():
            service.merger = merger
            values = []
            for query in queries:
                response = service.search(SearchRequest(query=query.text, n=SEARCH_N))
                values.append(world.precision(response.results, query.topic))
            mean_precision = sum(values) / len(values)
            precision[(source_label, merger_label)] = mean_precision
            rows.append(
                {
                    "models": source_label,
                    "merger": merger_label,
                    "P@10": round(mean_precision, 3),
                }
            )
    return rows, precision


def test_bench_ext_merging(benchmark, testbed):
    rows, precision = benchmark.pedantic(lambda: _experiment(testbed), rounds=1, iterations=1)
    emit(format_table(rows, title="Ext-6: merged-result topical precision@10"))

    # The CORI merge is competitive with both baselines.
    for source in ("learned", "actual"):
        assert precision[(source, "cori_merge")] >= precision[(source, "round_robin")] - 0.05
    # Learned-model federation stays close to actual-model federation.
    assert (
        precision[("learned", "cori_merge")]
        >= precision[("actual", "cori_merge")] - 0.2
    )
    # Selection is doing real work: topical precision well above the
    # base rate of a topic in the corpus (~1/12 topics).
    assert precision[("learned", "cori_merge")] > 0.3
