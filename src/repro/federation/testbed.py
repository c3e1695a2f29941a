"""Federated testbeds: a :class:`World` and the skewed partition.

Real multi-database testbeds (TREC collections split by source and
date) are topically *skewed but impure*: a finance database holds most
— not all — of the finance documents.  :func:`build_skewed_partition`
reproduces that texture from any topic-labelled corpus, and
:func:`skewed_world` serves it as a :class:`World` (so do the overlap
and heavy-tail scenarios of :mod:`repro.scenarios`).
:func:`build_synthetic_federation` is its servers over a synthetic
profile (``--synthetic``, ``bench/``); :func:`topical_queries` and
:func:`queries_from_models` derive queries.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from repro.corpus.collection import Corpus
from repro.index.server import DatabaseServer, build_servers
from repro.lm.model import LanguageModel
from repro.synth.profiles import PROFILES_BY_NAME
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
    The databases are views sharing ``corpus``'s document file
    (:meth:`~repro.corpus.collection.Corpus.subset`); nothing is read.
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
    buckets: dict[int, list[int]] = defaultdict(list)
    for row, topic in enumerate(corpus.topic_labels):
        if topic is None or rng.random() < spillover:
            bucket = int(rng.integers(num_databases))
        else:
            bucket = home[topic]
        buckets[bucket].append(row)
    if len(buckets) < num_databases:
        raise ValueError(
            f"{num_databases} databases requested but only {len(buckets)} received "
            f"documents from {len(corpus)} documents: use fewer databases or a "
            "larger corpus"
        )
    return [corpus.subset(rows, f"{prefix}{bucket}") for bucket, rows in sorted(buckets.items())]


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


def queries_from_models(
    models: Mapping[str, LanguageModel], count: int, terms_per_query: int = 3
) -> list[str]:
    """Deterministic queries from the federation's own vocabulary.

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


@dataclass(frozen=True)
class World:
    """A federation with its relevance oracle.

    ``corpus`` is the topic-labelled collection; ``parts`` are its
    databases, views of ``corpus`` (a document may sit in several);
    ``servers`` serve them, by name.  A document is relevant to a topic
    iff the generator drew it from that topic.
    """

    corpus: Corpus
    parts: tuple[Corpus, ...]
    servers: dict[str, DatabaseServer]

    @classmethod
    def of(cls, corpus: Corpus, parts: Sequence[Corpus]) -> World:
        """The world of ``parts``, their indexes built by :func:`build_servers`."""
        return cls(corpus, tuple(parts), {s.name: s for s in build_servers(parts)})

    def relevant_counts(self, topic: str) -> dict[str, int]:
        """Per database, how many of its documents were drawn from ``topic``."""
        return {part.name: part.topic_labels.count(topic) for part in self.parts}

    def precision(self, results: Sequence, topic: str) -> float:
        """The share of ``results`` (anything with a ``doc_id``) drawn from ``topic``."""
        if not results:
            return 0.0
        return sum(self._topic_of[item.doc_id] == topic for item in results) / len(results)

    @cached_property
    def _topic_of(self) -> dict[str, str | None]:
        return dict(zip(self.corpus.doc_ids, self.corpus.topic_labels))


def skewed_world(corpus: Corpus, num_databases: int, **options) -> World:
    """The :func:`build_skewed_partition` of ``corpus``, served."""
    return World.of(corpus, build_skewed_partition(corpus, num_databases, **options))


def build_synthetic_federation(
    num_databases: int = 4,
    scale: float = 0.05,
    seed: int = 0,
    profile: str = "wsj88",
) -> dict[str, DatabaseServer]:
    """The servers of the skewed world over one synthetic ``profile`` corpus."""
    corpus = PROFILES_BY_NAME[profile]().build(seed=seed, scale=scale)
    return skewed_world(corpus, num_databases, seed=seed).servers
