"""Overlapping databases: the same document on several servers.

Federated testbeds are usually built as *partitions* — every document
lives in exactly one database — but real federations overlap heavily:
mirrors, aggregators, and cross-posted articles put identical content
behind many endpoints.  Overlap is invisible to database selection
(each database's language model honestly describes what it holds) but
lethal to naive result merging, where the copies of one strong document
crowd the merged top-``n``.

:func:`build_overlapping_partition` starts from the skewed partition of
:func:`repro.federation.testbed.build_skewed_partition` and replicates
a seeded fraction of documents into extra databases, keeping ``doc_id``
identical across copies — the property mergers must deduplicate on;
:func:`overlapping_world` serves it as a
:class:`~repro.federation.testbed.World`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.corpus.collection import Corpus
from repro.federation.testbed import World, build_skewed_partition
from repro.utils.rand import derive_seed, ensure_rng

__all__ = [
    "OverlapStats",
    "build_overlapping_partition",
    "overlap_statistics",
    "overlapping_world",
]


def build_overlapping_partition(
    corpus: Corpus,
    num_databases: int,
    replication: float = 0.3,
    spillover: float = 0.3,
    seed: int = 0,
    prefix: str = "db",
) -> list[Corpus]:
    """Split ``corpus`` into skewed databases, then replicate across them.

    Each document first lands in one database exactly as in
    :func:`build_skewed_partition`; it is then copied into one further
    database with probability ``replication`` (same
    :class:`~repro.corpus.document.Document`, same ``doc_id``).  With
    ``replication=0`` the result is the plain skewed partition.
    """
    if num_databases < 2:
        raise ValueError("an overlapping federation needs at least 2 databases")
    if not 0.0 <= replication <= 1.0:
        raise ValueError("replication must be in [0, 1]")
    parts = build_skewed_partition(
        corpus,
        num_databases,
        spillover=spillover,
        seed=derive_seed(seed, "overlap", "partition"),
        prefix=prefix,
    )
    rng = ensure_rng(derive_seed(seed, "overlap", "replicate"))
    # Snapshot the pristine partition first: each document rolls once,
    # and a replica never re-rolls when its new home is iterated.
    originals = [
        (index, document) for index, part in enumerate(parts) for document in part
    ]
    for index, document in originals:
        if rng.random() >= replication:
            continue
        target = int(rng.integers(len(parts) - 1))
        if target >= index:
            target += 1
        if document.doc_id not in parts[target]:
            parts[target].add(document)
    return parts


def overlapping_world(corpus: Corpus, num_databases: int, **options) -> World:
    """The :func:`build_overlapping_partition` of ``corpus``, served."""
    return World.of(corpus, build_overlapping_partition(corpus, num_databases, **options))


@dataclass(frozen=True)
class OverlapStats:
    """How much content the databases of a federation share."""

    total_documents: int
    unique_documents: int
    replicated_documents: int
    max_copies: int

    @property
    def replication_rate(self) -> float:
        """Fraction of unique documents present in more than one database."""
        if self.unique_documents == 0:
            return 0.0
        return self.replicated_documents / self.unique_documents


def overlap_statistics(parts: Sequence[Corpus]) -> OverlapStats:
    """Measure the overlap structure of a federation."""
    copies: Counter[str] = Counter()
    for part in parts:
        copies.update(part.doc_ids)
    return OverlapStats(
        total_documents=sum(copies.values()),
        unique_documents=len(copies),
        replicated_documents=sum(1 for count in copies.values() if count > 1),
        max_copies=max(copies.values(), default=0),
    )
