"""Extension Ext-8: shrinkage rescues small-sample selection.

Ipeirotis & Gravano (SIGMOD 2004) showed that when per-database samples
are *small*, smoothing each learned model toward a background model
improves database selection.  This bench reproduces the effect with the
union-of-samples as the background (the object the service already
owns): CORI selection accuracy R@n on an 8-database testbed, with
models learned from only ~40 documents per database, raw vs. shrunk.

Expected shape: shrunk models match or beat raw small-sample models;
the benefit shrinks as samples grow (also measured, at 120 docs).
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.dbselect import CoriSelector, evaluate_rankings
from repro.federation import skewed_world, topical_queries
from repro.lm import shrink_all
from repro.sampling import MaxDocuments, QueryBasedSampler, RandomFromOther
from repro.text import Analyzer
from repro.utils.table import format_table

NUM_DATABASES = 8
SHRINK_WEIGHT = 0.7


def _learn(servers, testbed, budget):
    canonical = Analyzer.inquery_style()
    models = {}
    for name, server in servers.items():
        sampler = QueryBasedSampler(
            server,
            bootstrap=RandomFromOther(testbed.actual_model("trec123")),
            stopping=MaxDocuments(min(budget, max(20, server.num_documents // 4))),
            seed=43,
            name=name,
        )
        models[name] = sampler.run().model.project(canonical, name=name)
    return models


def _experiment(testbed):
    corpus = testbed.server("wsj88").index.corpus
    world = skewed_world(corpus, NUM_DATABASES, seed=47)
    queries = topical_queries(world.parts, max_topics=8)
    relevance = [world.relevant_counts(query.topic) for query in queries]
    selector = CoriSelector(analyzer=Analyzer.inquery_style())

    rows = []
    recall = {}
    for budget in (40, 120):
        raw_models = _learn(world.servers, testbed, budget)
        shrunk_models = shrink_all(raw_models, weight=SHRINK_WEIGHT)
        for label, models in (("raw", raw_models), ("shrunk", shrunk_models)):
            rankings = [selector.rank(query.text, models) for query in queries]
            evaluation = evaluate_rankings(
                f"{label}@{budget}", rankings, relevance, n_values=(1, 2, 4)
            )
            recall[(budget, label)] = evaluation.mean_recall
            row = evaluation.as_row()
            row["sample_docs"] = budget
            rows.append(row)
    return rows, recall


def test_bench_ext_shrinkage(benchmark, testbed):
    rows, recall = benchmark.pedantic(lambda: _experiment(testbed), rounds=1, iterations=1)
    emit(format_table(rows, title="Ext-8: CORI selection with raw vs shrunk small-sample models"))

    # Shrinkage never hurts materially at either budget...
    for budget in (40, 120):
        assert recall[(budget, "shrunk")][2] >= recall[(budget, "raw")][2] - 0.05, recall
    # ...and bigger samples help raw models (sanity of the sweep).
    assert recall[(120, "raw")][2] >= recall[(40, "raw")][2] - 0.05, recall
