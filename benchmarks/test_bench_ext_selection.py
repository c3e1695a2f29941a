"""Extension Ext-1: database selection with learned vs. actual models.

The paper's motivation (Sections 1-2) — learned language models exist
to drive database selection — validated end to end, reproducing the
shape of the follow-on result (Callan & Connell, TOIS 2001): CORI
rankings computed from *sampled* language models select nearly as well
as rankings computed from the *actual* models, and far better than a
topic-blind baseline.

Testbed: the WSJ-like corpus split into topically skewed (not pure)
databases, served as a :func:`repro.federation.skewed_world`; queries
are distinctive terms of each topic; a document is relevant iff it was
generated from the query's topic (the world's ``relevant_counts``).
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.dbselect import (
    BGlossSelector,
    CoriSelector,
    KlSelector,
    ReddeParameters,
    ReddeSelector,
    evaluate_rankings,
)
from repro.dbselect.base import finish_ranking
from repro.federation import skewed_world, topical_queries
from repro.sampling import MaxDocuments, QueryBasedSampler, RandomFromOther
from repro.sizeest import sample_resample
from repro.text import Analyzer
from repro.utils.table import format_table

NUM_DATABASES = 8
SAMPLE_BUDGET = 150
NUM_QUERY_TOPICS = 8


def _experiment(testbed):
    corpus = testbed.server("wsj88").index.corpus
    world = skewed_world(corpus, NUM_DATABASES, seed=7)
    servers = world.servers
    actual_models = {
        name: server.actual_language_model() for name, server in servers.items()
    }
    # The selection service normalises every learned model through its
    # own canonical pipeline (stemming + stopping), per the paper's
    # "enforce consistency among language models" (Section 3).
    canonical = Analyzer.inquery_style()
    learned_models = {}
    samples = {}
    estimated_sizes = {}
    for name, server in servers.items():
        budget = min(SAMPLE_BUDGET, max(50, server.num_documents // 3))
        sampler = QueryBasedSampler(
            server,
            bootstrap=RandomFromOther(testbed.actual_model("trec123")),
            stopping=MaxDocuments(budget),
            seed=11,
            name=name,
        )
        run = sampler.run()
        learned_models[name] = run.model.project(canonical, name=name)
        samples[name] = run.documents
        # ReDDE's size scaling from the observable surface only.
        estimated_sizes[name] = sample_resample(server, run.model, seed=11).estimate

    queries = topical_queries(world.parts, max_topics=NUM_QUERY_TOPICS)
    relevance = [world.relevant_counts(query.topic) for query in queries]

    analyzer = Analyzer.inquery_style()
    selectors = {
        "cori_actual": (CoriSelector(analyzer=analyzer), actual_models),
        "cori_learned": (CoriSelector(analyzer=analyzer), learned_models),
        "bgloss_learned": (BGlossSelector(analyzer=analyzer), learned_models),
        "kl_learned": (KlSelector(analyzer=analyzer), learned_models),
    }
    evaluations = {}
    for label, (selector, models) in selectors.items():
        rankings = [selector.rank(query.text, models) for query in queries]
        evaluations[label] = evaluate_rankings(
            label, rankings, relevance, n_values=(1, 2, 4)
        )
    # ReDDE: central sample index + estimated sizes (no df/ctf models).
    redde = ReddeSelector(samples, ReddeParameters(top_n=50), estimated_sizes=estimated_sizes)
    redde_rankings = [redde.rank(query.text) for query in queries]
    evaluations["redde_learned"] = evaluate_rankings(
        "redde_learned", redde_rankings, relevance, n_values=(1, 2, 4)
    )
    # Topic-blind baseline: rank databases by size, identically per query.
    size_ranking = finish_ranking(
        "size",
        {name: float(model.documents_seen) for name, model in actual_models.items()},
    )
    evaluations["by_size_baseline"] = evaluate_rankings(
        "by_size_baseline",
        [size_ranking] * len(queries),
        relevance,
        n_values=(1, 2, 4),
    )
    return evaluations


def test_bench_ext_selection(benchmark, testbed):
    evaluations = benchmark.pedantic(lambda: _experiment(testbed), rounds=1, iterations=1)
    rows = [evaluation.as_row() for evaluation in evaluations.values()]
    emit(format_table(rows, title="Ext-1: selection accuracy (mean R@n over topic queries)"))

    r2 = {label: evaluation.mean_recall[2] for label, evaluation in evaluations.items()}
    # Learned models select nearly as well as actual models...
    assert r2["cori_learned"] >= r2["cori_actual"] - 0.2, r2
    # ReDDE (sample index + estimated sizes) is competitive too.
    assert r2["redde_learned"] >= r2["by_size_baseline"], r2
    # ...and both beat the topic-blind baseline decisively.
    assert r2["cori_actual"] > r2["by_size_baseline"], r2
    assert r2["cori_learned"] > r2["by_size_baseline"], r2
