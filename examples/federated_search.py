#!/usr/bin/env python3
"""Federated search: sample many databases, then route queries with CORI.

The paper's motivating scenario (Section 1): an organisation has many
text databases and a user who doesn't know where to look.  This example

1. builds a federation of topically skewed databases,
2. learns a language model for each *through its query interface only*
   (no cooperation, no index export — the paper's whole point),
3. ranks the databases per query with CORI, bGlOSS, and KL selectors,
4. reports how often each selector's top pick actually holds the most
   relevant documents.

Run:  python examples/federated_search.py
"""

from __future__ import annotations

from repro.dbselect import BGlossSelector, CoriSelector, KlSelector, recall_at_n
from repro.federation import skewed_world, topical_queries
from repro.sampling import ListBootstrap, MaxDocuments, QueryBasedSampler
from repro.synth import wsj88_like
from repro.text import Analyzer

NUM_DATABASES = 6
SAMPLE_BUDGET = 120


def main() -> None:
    print("Building a federation of topically skewed databases ...")
    world = skewed_world(wsj88_like().build(seed=11, scale=0.25), NUM_DATABASES, seed=3)
    for name, server in world.servers.items():
        print(f"  {name}: {server.num_documents:,} documents")

    print(f"\nLearning each database's language model ({SAMPLE_BUDGET} docs each) ...")
    learned = {}
    for name, server in world.servers.items():
        seeds = [s.term for s in server.actual_language_model().top_terms(100, "ctf")]
        run = QueryBasedSampler(
            server,
            bootstrap=ListBootstrap(seeds),
            stopping=MaxDocuments(SAMPLE_BUDGET),
            seed=5,
            name=name,
        ).run()
        learned[name] = run.model
        print(
            f"  {name}: {run.queries_run} queries → {len(run.model):,} terms learned"
        )

    queries = topical_queries(world.parts, max_topics=6)
    selectors = {
        "CORI": CoriSelector(analyzer=Analyzer.inquery_style()),
        "bGlOSS": BGlossSelector(analyzer=Analyzer.inquery_style()),
        "KL": KlSelector(analyzer=Analyzer.inquery_style()),
    }

    print("\nRouting topical queries (R@2 = recall of top-2 databases):")
    header = f"  {'topic':<10} {'query':<40}" + "".join(
        f"{label:>8}" for label in selectors
    )
    print(header)
    mean_recall = {label: [] for label in selectors}
    for query in queries:
        relevant = world.relevant_counts(query.topic)
        cells = []
        for label, selector in selectors.items():
            ranking = selector.rank(query.text, learned)
            recall = recall_at_n(ranking, relevant, 2)
            mean_recall[label].append(recall)
            cells.append(f"{recall:8.2f}")
        print(f"  {query.topic:<10} {query.text:<40}" + "".join(cells))

    print("\nMean R@2 with sampled (learned) language models:")
    for label, values in mean_recall.items():
        print(f"  {label:<8} {sum(values) / len(values):.3f}")


if __name__ == "__main__":
    main()
