"""Federated-testbed construction: skewed partitions and topical queries.

Real multi-database testbeds (TREC collections split by source and
date) are topically *skewed but impure*: a finance database holds most
— not all — of the finance documents.  :func:`build_skewed_partition`
reproduces that texture from any topic-labelled corpus, and
:func:`topical_queries` derives evaluation queries whose relevance
oracle is the generating topic.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.corpus.collection import Corpus
from repro.text.analyzer import Analyzer
from repro.utils.rand import ensure_rng


def build_skewed_partition(
    corpus: Corpus,
    num_databases: int,
    spillover: float = 0.3,
    seed: int = 0,
    prefix: str = "db",
) -> list[Corpus]:
    """Split ``corpus`` into topically skewed databases.

    Topics are assigned home databases round-robin; each document lands
    in its topic's home with probability ``1 - spillover`` and in a
    uniformly random database otherwise.  Every database must receive a
    document: a :class:`ValueError` says how many did when some did not.
    """
    if num_databases <= 0:
        raise ValueError("num_databases must be positive")
    if not 0.0 <= spillover <= 1.0:
        raise ValueError("spillover must be in [0, 1]")
    topics = sorted(corpus.topics())
    if not topics:
        raise ValueError("corpus has no topic labels; cannot build a skewed partition")
    rng = ensure_rng(seed)
    home = {topic: i % num_databases for i, topic in enumerate(topics)}
    buckets: dict[int, list] = defaultdict(list)
    for document in corpus:
        if document.topic is None or rng.random() < spillover:
            bucket = int(rng.integers(num_databases))
        else:
            bucket = home[document.topic]
        buckets[bucket].append(document)
    if len(buckets) < num_databases:
        raise ValueError(
            f"{num_databases} databases requested but only {len(buckets)} received "
            f"documents from {len(corpus)} documents: use fewer databases or a "
            "larger corpus"
        )
    return [
        Corpus(documents, name=f"{prefix}{bucket}")
        for bucket, documents in sorted(buckets.items())
    ]


@dataclass(frozen=True)
class TopicalQuery:
    """An evaluation query with its relevance oracle."""

    topic: str
    text: str


def topical_queries(
    corpus_parts: Sequence[Corpus],
    max_topics: int | None = None,
    terms_per_query: int = 3,
    min_global_count: int = 20,
    analyzer: Analyzer | None = None,
) -> list[TopicalQuery]:
    """Distinctive-term queries, one per topic.

    A topic's query is its ``terms_per_query`` most *distinctive* index
    terms — highest ratio of within-topic count to global count, among
    terms globally frequent enough (``min_global_count``) to be
    plausible user vocabulary.
    """
    analyzer = analyzer or Analyzer.inquery_style()
    global_counts: Counter = Counter()
    per_topic: dict[str, Counter] = defaultdict(Counter)
    for part in corpus_parts:
        for document in part:
            terms = analyzer.analyze(document.text)
            global_counts.update(terms)
            if document.topic is not None:
                per_topic[document.topic].update(terms)
    queries = []
    for topic in sorted(per_topic)[: max_topics or len(per_topic)]:
        scored = sorted(
            (
                (count / global_counts[term], term)
                for term, count in per_topic[topic].items()
                if global_counts[term] >= min_global_count and len(term) >= 3
            ),
            reverse=True,
        )
        if not scored:
            continue
        text = " ".join(term for _, term in scored[:terms_per_query])
        queries.append(TopicalQuery(topic=topic, text=text))
    return queries


def relevance_counts(
    corpus_parts: Sequence[Corpus], topic: str
) -> dict[str, int]:
    """Per-database counts of documents generated from ``topic``."""
    return {
        part.name: sum(1 for document in part if document.topic == topic)
        for part in corpus_parts
    }
