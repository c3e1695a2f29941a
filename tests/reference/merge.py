"""The list-fed mergers the column-fed ones replaced.

:meth:`repro.dbselect.merge.CoriMerger.merge` used to normalise every
hit of every database, make each a ``(-score, database, doc_id)`` tuple,
sort them all and keep the first ``n`` distinct documents.  That body is
kept here verbatim as the oracle of the lazy merge, which must return
the same list — documents, provenance and scores, bit for bit.  The raw
score and round-robin mergers read per-database
:class:`~repro.index.search.SearchResult` lists before they read
columns; those bodies are kept here too, as the oracles of their
column-fed successors.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.dbselect.base import DatabaseRanking
from repro.dbselect.merge import MergedResult
from repro.index.search import SearchResult

__all__ = ["cori_merge_eager", "raw_score_merge_lists", "round_robin_merge_lists"]


def _minmax(values: Sequence[float]) -> list[float]:
    low = min(values)
    high = max(values)
    if high == low:
        return [1.0 for _ in values]
    return [(value - low) / (high - low) for value in values]


def cori_merge_eager(
    ranking: DatabaseRanking,
    results: Mapping[str, Sequence[SearchResult]],
    n: int,
    collection_weight: float = 0.4,
) -> list[MergedResult]:
    """Normalise within-database and across-database, combine, sort all."""
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
    for name in participating:
        doc_scores = _minmax([result.score for result in results[name]])
        c_norm = normalised_collection[name]
        for result, d_norm in zip(results[name], doc_scores):
            final = (d_norm + collection_weight * d_norm * c_norm) / (1.0 + collection_weight)
            scored.append((-final, name, result.doc_id))
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


def raw_score_merge_lists(
    ranking: DatabaseRanking,
    results: Mapping[str, Sequence[SearchResult]],
    n: int,
) -> list[MergedResult]:
    """Every ranked database's hits by raw score, first copy of a document kept."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    ranked = set(ranking.names)
    scored = [
        (-result.score, name, result.doc_id)
        for name, result_list in results.items()
        if name in ranked
        for result in result_list
    ]
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


def round_robin_merge_lists(
    ranking: DatabaseRanking,
    results: Mapping[str, Sequence[SearchResult]],
    n: int,
) -> list[MergedResult]:
    """Interleave the lists depth by depth in database-rank order."""
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
                continue
            seen.add(result.doc_id)
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
