"""Result merging: one ranked list from many databases' results.

Database selection is only half of federated search: once the selected
databases have each run the query, their per-database document scores
must be merged into a single ranking, even though every database scored
against its own collection statistics.  Three standard mergers:

* :class:`CoriMerger` — the CORI merge formula (Callan et al.): min-max
  normalise document scores within each database and collection scores
  across databases, then weight documents by their database's quality:
  ``D'' = (D' + 0.4 · D' · C') / 1.4``.
* :class:`RawScoreMerger` — trust raw scores across databases (the
  naive baseline; fails when databases' score scales differ).
* :class:`RoundRobinMerger` — interleave the per-database lists in
  database-rank order (scale-free but quality-blind).

All mergers share two rules.  **Participation**: only databases present
in the ``ranking`` argument contribute results — a result list from a
database the selector never ranked (stale fan-out, a misrouted reply)
is dropped rather than merged unscored.  **Deduplication**: a document
returned by several databases (overlapping collections replicate
content across servers) appears once in the merged list, keeping its
best-scoring provenance, so copies never eat top-``n`` slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from repro.dbselect.base import DatabaseRanking
from repro.index.search import SearchResult


@dataclass(frozen=True)
class MergedResult:
    """One document in the merged ranking, with provenance."""

    doc_id: str
    database: str
    score: float


class ResultMerger(Protocol):
    """Merges per-database result lists under a database ranking."""

    def merge(
        self,
        ranking: DatabaseRanking,
        results: Mapping[str, Sequence[SearchResult]],
        n: int,
    ) -> list[MergedResult]:
        """Return the top ``n`` merged results."""
        ...  # pragma: no cover - protocol


def _top_distinct(scored: list[tuple[float, str, str]], n: int) -> list[MergedResult]:
    """The best ``n`` distinct documents of ``(-score, database, doc_id)`` keys.

    Sorting the plain tuples (in place) orders candidates best-first
    (score desc, then database, then ``doc_id`` — the deterministic
    tie-break), so the first occurrence of a document is the provenance
    to keep.  Only the ``n`` returned candidates become
    :class:`MergedResult` objects.
    """
    scored.sort()
    seen: set[str] = set()
    unique: list[MergedResult] = []
    for negated, database, doc_id in scored:
        if doc_id in seen:
            continue
        seen.add(doc_id)
        unique.append(MergedResult(doc_id=doc_id, database=database, score=-negated))
        if len(unique) == n:
            break
    return unique


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
        results: Mapping[str, Sequence[SearchResult]],
        n: int,
    ) -> list[MergedResult]:
        """Normalise within-database and across-database, then combine."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        collection_scores = {entry.name: entry.score for entry in ranking.entries}
        participating = [name for name in results if name in collection_scores and results[name]]
        if not participating:
            return []
        normalised_collection = dict(
            zip(participating, _minmax([collection_scores[name] for name in participating]))
        )
        scored: list[tuple[float, str, str]] = []
        weight = self.collection_weight
        for name in participating:
            doc_scores = _minmax([result.score for result in results[name]])
            c_norm = normalised_collection[name]
            for result, d_norm in zip(results[name], doc_scores):
                final = (d_norm + weight * d_norm * c_norm) / (1.0 + weight)
                scored.append((-final, name, result.doc_id))
        return _top_distinct(scored, n)


class RawScoreMerger:
    """Merge by raw scores — correct only if scales are comparable."""

    def merge(
        self,
        ranking: DatabaseRanking,
        results: Mapping[str, Sequence[SearchResult]],
        n: int,
    ) -> list[MergedResult]:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        ranked = set(ranking.names)
        scored = [
            (-result.score, name, result.doc_id)
            for name, result_list in results.items()
            if name in ranked
            for result in result_list
        ]
        return _top_distinct(scored, n)


class RoundRobinMerger:
    """Interleave per-database lists in database-rank order."""

    def merge(
        self,
        ranking: DatabaseRanking,
        results: Mapping[str, Sequence[SearchResult]],
        n: int,
    ) -> list[MergedResult]:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        ordered = [name for name in ranking.names if results.get(name)]
        merged: list[MergedResult] = []
        seen: set[str] = set()
        depth = 0
        while len(merged) < n:
            advanced = False
            for position, name in enumerate(ordered):
                result_list = results[name]
                if depth >= len(result_list):
                    continue
                advanced = True
                result = result_list[depth]
                if result.doc_id in seen:
                    # A copy already emitted from a better-ranked slot;
                    # interleaving continues without burning a slot on it.
                    continue
                seen.add(result.doc_id)
                # Score encodes (depth, db-rank) so the list order is
                # reconstructible from scores alone.
                merged.append(
                    MergedResult(
                        doc_id=result.doc_id,
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
