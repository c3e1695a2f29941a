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

from collections import Counter, defaultdict

import numpy as np

from repro.corpus import Corpus
from repro.dbselect import BGlossSelector, CoriSelector, KlSelector, recall_at_n
from repro.index import DatabaseServer
from repro.sampling import ListBootstrap, MaxDocuments, QueryBasedSampler
from repro.synth import wsj88_like
from repro.text import Analyzer

NUM_DATABASES = 6
SAMPLE_BUDGET = 120


def build_federation() -> list[Corpus]:
    """Split one corpus into topically skewed databases (70% home)."""
    corpus = wsj88_like().build(seed=11, scale=0.25)
    rng = np.random.default_rng(3)
    topics = sorted(corpus.topics())
    home = {topic: i % NUM_DATABASES for i, topic in enumerate(topics)}
    buckets: dict[int, list] = defaultdict(list)
    for document in corpus:
        bucket = (
            home[document.topic]
            if rng.random() >= 0.3
            else int(rng.integers(NUM_DATABASES))
        )
        buckets[bucket].append(document)
    return [Corpus(docs, name=f"db{i}") for i, docs in sorted(buckets.items())]


def topical_queries(corpus_parts: list[Corpus], k: int = 6) -> dict[str, str]:
    """Per-topic queries built from topic-distinctive index terms."""
    analyzer = Analyzer.inquery_style()
    global_counts: Counter = Counter()
    per_topic: dict[str, Counter] = defaultdict(Counter)
    for part in corpus_parts:
        for document in part:
            terms = analyzer.analyze(document.text)
            global_counts.update(terms)
            per_topic[document.topic].update(terms)
    queries = {}
    for topic in sorted(per_topic)[:k]:
        scored = sorted(
            (
                (count / global_counts[term], term)
                for term, count in per_topic[topic].items()
                if global_counts[term] >= 20 and len(term) >= 3
            ),
            reverse=True,
        )
        queries[topic] = " ".join(term for _, term in scored[:3])
    return queries


def main() -> None:
    print("Building a federation of topically skewed databases ...")
    parts = build_federation()
    servers = {part.name: DatabaseServer(part) for part in parts}
    for name, server in servers.items():
        print(f"  {name}: {server.num_documents:,} documents")

    print(f"\nLearning each database's language model ({SAMPLE_BUDGET} docs each) ...")
    learned = {}
    for name, server in servers.items():
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

    queries = topical_queries(parts)
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
    for topic, query in queries.items():
        relevant = {
            part.name: sum(1 for d in part if d.topic == topic) for part in parts
        }
        cells = []
        for label, selector in selectors.items():
            ranking = selector.rank(query, learned)
            recall = recall_at_n(ranking, relevant, 2)
            mean_recall[label].append(recall)
            cells.append(f"{recall:8.2f}")
        print(f"  {topic:<10} {query:<40}" + "".join(cells))

    print("\nMean R@2 with sampled (learned) language models:")
    for label, values in mean_recall.items():
        print(f"  {label:<8} {sum(values) / len(values):.3f}")


if __name__ == "__main__":
    main()
