"""Result merging: one ranked list from many databases' results.

Database selection is only half of federated search: once the selected
databases have each run the query, their per-database document scores
must be merged into a single ranking, even though every database scored
against its own collection statistics.  Three standard mergers:

* :class:`CoriMerger` — the CORI merge formula (Callan et al.): min-max
  normalise document scores within each database and collection scores
  across databases, then weight documents by their database's quality:
  ``D'' = (D' + 0.4 · D' · C') / 1.4``.  The merge is *lazy*: a
  database's hits arrive best first and both normalisations are
  monotone within a database, so the top ``n`` is a k-way heap merge
  that looks at about ``n + k`` hits and builds a result object only
  for each one it returns.
* :class:`RawScoreMerger` — trust raw scores across databases (the
  naive baseline; fails when databases' score scales differ).
* :class:`RoundRobinMerger` — interleave the per-database lists in
  database-rank order (scale-free but quality-blind).

Every merger reads the same input: per database, its hits as
:class:`~repro.index.search.RankedHits` columns, best first — what the
search plan produces.  A caller holding
:class:`~repro.index.search.SearchResult` lists converts each once with
:meth:`~repro.index.search.RankedHits.from_results`.  The list-fed
bodies the column-fed ones replaced are kept in
``tests/reference/merge.py`` as their oracles.

All mergers share two rules.  **Participation**: only databases present
in the ``ranking`` argument contribute results — a result list from a
database the selector never ranked (stale fan-out, a misrouted reply)
is dropped rather than merged unscored.  **Deduplication**: a document
returned by several databases (overlapping collections replicate
content across servers) appears once in the merged list, keeping its
best-scoring provenance, so copies never eat top-``n`` slots.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from repro.dbselect.base import DatabaseRanking
from repro.index.search import RankedHits


@dataclass(frozen=True)
class MergedResult:
    """One document in the merged ranking, with provenance."""

    doc_id: str
    database: str
    score: float


class ResultMerger(Protocol):
    """Merges per-database hits under a database ranking."""

    def merge(
        self,
        ranking: DatabaseRanking,
        hits: Mapping[str, RankedHits],
        n: int,
    ) -> list[MergedResult]:
        """Return the top ``n`` merged results of hits that are best first."""
        ...  # pragma: no cover - protocol


def _minmax(values: Sequence[float]) -> list[float]:
    low = min(values)
    high = max(values)
    if high == low:
        return [1.0 for _ in values]
    return [(value - low) / (high - low) for value in values]


class CoriMerger:
    """The CORI merge: document score weighted by collection score."""

    def __init__(self, collection_weight: float = 0.4) -> None:
        if collection_weight < 0:
            raise ValueError("collection_weight must be non-negative")
        self.collection_weight = collection_weight

    def merge(
        self,
        ranking: DatabaseRanking,
        hits: Mapping[str, RankedHits],
        n: int,
    ) -> list[MergedResult]:
        """Normalise within-database and across-database, then combine.

        Scores are the eager formula's, bit for bit, and so is the
        order: score descending, then database, then ``doc_id``, the
        first copy of a document kept.  Within a database the merged
        score never rises down the list, so its next hit can only follow
        what the heap holds; hits that tie on merged score enter the
        heap together, where database and ``doc_id`` order them.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        collection_scores = {entry.name: entry.score for entry in ranking.entries}
        participating = [
            name for name in hits if name in collection_scores and hits[name].scores
        ]
        if not participating:
            return []
        normalised_collection = _minmax(
            [collection_scores[name] for name in participating]
        )
        weight = self.collection_weight
        scale = 1.0 + weight
        # Per database: name, hits, min-max bounds (a zero span
        # normalises every hit to 1.0) and normalised collection score.
        streams = []
        for name, c_norm in zip(participating, normalised_collection):
            doc_ids, scores, _ = hits[name]
            low = scores[-1]
            streams.append((name, doc_ids, scores, low, scores[0] - low, c_norm))
        # The next hit of each database not pushed yet, and how many of
        # its pushed hits the heap still holds.
        positions = [0] * len(streams)
        in_heap = [0] * len(streams)
        heap: list[tuple[float, str, str, int]] = []
        push = heapq.heappush
        merged: list[MergedResult] = []
        seen: set[str] = set()
        refill: Sequence[int] = range(len(streams))
        while True:
            # A database none of whose hits is in the heap pushes its
            # next hit, and every later hit with the same merged score.
            for index in refill:
                name, doc_ids, scores, low, span, c_norm = streams[index]
                start = position = positions[index]
                first = None
                while position < len(scores):
                    d_norm = (scores[position] - low) / span if span else 1.0
                    negated = -((d_norm + weight * d_norm * c_norm) / scale)
                    if first is not None and negated != first:
                        break
                    first = negated
                    push(heap, (negated, name, doc_ids[position], index))
                    position += 1
                positions[index] = position
                in_heap[index] = position - start
            if not heap or len(merged) == n:
                return merged
            negated, name, doc_id, index = heapq.heappop(heap)
            in_heap[index] -= 1
            refill = () if in_heap[index] else (index,)
            if doc_id not in seen:
                seen.add(doc_id)
                merged.append(MergedResult(doc_id, name, -negated))


class RawScoreMerger:
    """Merge by raw scores — correct only if scales are comparable."""

    def merge(
        self,
        ranking: DatabaseRanking,
        hits: Mapping[str, RankedHits],
        n: int,
    ) -> list[MergedResult]:
        """The best ``n`` distinct documents by raw score.

        Sorting plain ``(-score, database, doc_id)`` tuples orders the
        candidates best first — score descending, then database, then
        ``doc_id`` — so the first occurrence of a document is the
        provenance to keep.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        ranked = set(ranking.names)
        scored = sorted(
            (-score, name, doc_id)
            for name, (doc_ids, scores, _) in hits.items()
            if name in ranked
            for doc_id, score in zip(doc_ids, scores)
        )
        seen: set[str] = set()
        merged: list[MergedResult] = []
        for negated, name, doc_id in scored:
            if doc_id not in seen:
                seen.add(doc_id)
                merged.append(MergedResult(doc_id, name, -negated))
                if len(merged) == n:
                    break
        return merged


class RoundRobinMerger:
    """Interleave per-database lists in database-rank order."""

    def merge(
        self,
        ranking: DatabaseRanking,
        hits: Mapping[str, RankedHits],
        n: int,
    ) -> list[MergedResult]:
        """Depth by depth, each database's hit in database-rank order."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        ordered = [
            (name, hits[name].doc_ids)
            for name in ranking.names
            if name in hits and hits[name].doc_ids
        ]
        merged: list[MergedResult] = []
        seen: set[str] = set()
        depth = 0
        while len(merged) < n:
            advanced = False
            for position, (name, doc_ids) in enumerate(ordered):
                if depth >= len(doc_ids):
                    continue
                advanced = True
                doc_id = doc_ids[depth]
                if doc_id in seen:
                    # A copy already emitted from a better-ranked slot;
                    # interleaving continues without burning a slot on it.
                    continue
                seen.add(doc_id)
                # Score encodes (depth, db-rank) so the list order is
                # reconstructible from scores alone.
                merged.append(
                    MergedResult(
                        doc_id=doc_id,
                        database=name,
                        score=-(depth * len(ordered) + position),
                    )
                )
                if len(merged) == n:
                    break
            if not advanced:
                break
            depth += 1
        return merged
