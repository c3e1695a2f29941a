"""Deterministic corpus partitioning.

Multi-database experiments (the selection-accuracy extension, and any
user building a federated testbed) need one big corpus split into many
databases.  Three standard TREC-testbed splits are provided:

* **round-robin** — documents dealt to ``k`` databases in turn, giving
  content-homogeneous databases of near-equal size;
* **chunks** — contiguous slices, mimicking "by source/date" splits;
* **by topic** — one database per topic label, giving topically skewed
  databases, the regime where database selection is interesting.

Every part is a view sharing the corpus's document file
(:meth:`~repro.corpus.collection.Corpus.subset`): nothing is read or
copied.
"""

from __future__ import annotations

from collections import defaultdict

from repro.corpus.collection import Corpus


def partition_round_robin(corpus: Corpus, k: int, prefix: str | None = None) -> list[Corpus]:
    """Deal documents to ``k`` corpora in round-robin order."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    prefix = prefix or corpus.name
    return [corpus.subset(range(i, len(corpus), k), f"{prefix}-rr{i}") for i in range(k)]


def partition_chunks(corpus: Corpus, k: int, prefix: str | None = None) -> list[Corpus]:
    """Split into ``k`` contiguous, near-equal chunks."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    prefix = prefix or corpus.name
    n = len(corpus)
    parts = []
    start = 0
    for i in range(k):
        end = start + (n - start) // (k - i)
        parts.append(corpus.subset(range(start, end), f"{prefix}-chunk{i}"))
        start = end
    return parts


def partition_by_topic(corpus: Corpus, prefix: str | None = None) -> list[Corpus]:
    """One corpus per topic label, sorted by topic name.

    Documents without a topic label go to a ``-misc`` corpus.
    """
    prefix = prefix or corpus.name
    buckets: dict[str, list[int]] = defaultdict(list)
    for row, topic in enumerate(corpus.topic_labels):
        buckets[topic if topic is not None else "misc"].append(row)
    return [corpus.subset(rows, f"{prefix}-{topic}") for topic, rows in sorted(buckets.items())]
