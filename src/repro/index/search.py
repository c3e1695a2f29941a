"""Ranked retrieval over an inverted index.

:class:`SearchEngine` analyzes the query with the *database's* analyzer
(so a raw query term like ``running`` matches the stemmed index term
``run``), scores each query term's postings with the configured scorer,
accumulates scores across terms, and returns the top-N documents with
deterministic tie-breaking (score descending, then document order).
Every document tied with the N-th score is ordered before the list is
cut, so which of several equal-scoring documents make the list is
decided by document order too — never by how a partition happened to
split them.

**Duplicate query terms are deduplicated** (first occurrence kept): a
query of ``"cat cat"`` scores identically to ``"cat"``.  Query-side tf
weighting, if ever wanted, should be an explicit scorer feature, not an
accident of tokenization.

Every query runs as one *plan* over any number of databases
(:func:`search_databases`; :meth:`SearchEngine.search` and
:meth:`SearchEngine.search_phrase` are the plan over one).  What the
plan ranks is *rows*: a query term's CSR row of postings, or a phrase's
one row of phrase postings, per database.  The query is analyzed once
per group of equal analyzers; every database's rows are gathered in one
pass; all elements are scored in one
:meth:`~repro.index.scoring.Scorer.score_terms` call per distinct
scorer, each row against its own database's statistics
(:class:`~repro.index.scoring.ElementContext`); one weighted
``bincount`` over database-offset document ids accumulates every
document's total; and each database's top N comes out of one segmented
ordering.  Elements are database-major, row-major, document-ascending,
so ``bincount`` adds each document's scores in query-term order, and a
database's hits are bit-identical whichever plan it was searched in.
When every database brings one row — the sampler's one-term and phrase
queries — a row's documents are distinct already: nothing is
accumulated and nothing sized by the collection is allocated, so the
query costs in proportion to its postings.  The scalar accumulation
loop all of this replaced survives as ``search_scalar`` in
``tests/reference/index.py``, the oracle the equivalence tests compare
against bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from repro.corpus.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.positions import PositionalIndex
from repro.index.scoring import CollectionContext, ElementContext, Scorer, TfIdfScorer
from repro.text.analyzer import Analyzer


@dataclass(frozen=True)
class SearchResult:
    """One ranked hit."""

    doc_id: str
    score: float
    doc_index: int


class RankedHits(NamedTuple):
    """One database's ranked hits as parallel columns, best first."""

    doc_ids: Sequence[str]
    scores: Sequence[float]
    doc_indices: Sequence[int]

    @classmethod
    def from_results(cls, results: Sequence[SearchResult]) -> "RankedHits":
        """Columns of ``results``, best first.

        The sort is stable, so a ranked list (what ``engine.search``
        returns) keeps its order.
        """
        ranked = sorted(results, key=attrgetter("score"), reverse=True)
        return cls(
            [result.doc_id for result in ranked],
            [result.score for result in ranked],
            [result.doc_index for result in ranked],
        )

    def results(self) -> list[SearchResult]:
        """The hits as :class:`SearchResult` objects."""
        return [SearchResult(*hit) for hit in zip(*self)]


#: What a database without a matching document answers.
NO_HITS = RankedHits((), (), ())

#: Rows to rank in one database: per row, its document indices
#: (ascending) and their term frequencies; a row's length is its df.
_Rows = tuple[list[np.ndarray], list[np.ndarray]]


class SearchEngine:
    """Ranked retrieval with pluggable scoring (see the module docstring)."""

    def __init__(self, index: InvertedIndex, scorer: Scorer | None = None) -> None:
        self.index = index
        self.scorer = scorer or TfIdfScorer()
        self._context = CollectionContext(
            num_documents=index.num_documents,
            average_doc_length=index.average_doc_length,
        )
        # Per document, what scorers take: 8 bytes a document, not a posting.
        self._doc_lengths = index.doc_lengths.astype(np.float64)
        self._doc_ids = index.corpus.doc_ids
        self._positional: PositionalIndex | None = None

    def search(self, query: str, n: int = 10) -> list[SearchResult]:
        """Return the top ``n`` documents for ``query``.

        The query text is analyzed by the database's own pipeline;
        query terms that are stopwords (to the database) or unindexed
        simply contribute nothing — a query of only such terms returns
        no documents, exactly the "failed query" the paper's Table 3
        counts.  Repeated query terms count once (see module docstring).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        rows = self.index.term_rows(_query_terms(self.index.analyzer, query))
        return _plan([self], [rows], n)[0].results()

    def search_phrase(self, phrase: str, n: int = 10) -> list[SearchResult]:
        """Return the top ``n`` documents containing ``phrase`` adjacently.

        The phrase is analyzed by the database's pipeline; matching
        documents are scored with the configured scorer using the
        phrase's occurrence counts as term frequencies and its document
        frequency as df.  The positional index is built lazily on the
        first phrase query (one extra pass over the corpus).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        return _plan([self], [self._phrase_rows(phrase)], n)[0].results()

    def _phrase_rows(self, phrase: str) -> _Rows:
        """The one row of ``phrase``'s postings (none if nothing matches).

        A one-term phrase is that term's own CSR row.
        """
        terms = self.index.analyzer.analyze(phrase)
        if len(terms) < 2:
            return self.index.term_rows(terms)
        if self._positional is None:
            self._positional = PositionalIndex(self.index.corpus, self.index.analyzer)
        posting = self._positional.phrase_postings(terms)
        if len(posting) == 0:
            return [], []
        return [posting.doc_indices], [posting.term_frequencies]

    def _hits(self, doc_indices: list[int], scores: list[float]) -> RankedHits:
        doc_ids = self._doc_ids
        return RankedHits([doc_ids[i] for i in doc_indices], scores, doc_indices)

    def fetch(self, doc_id: str) -> Document:
        """Return the full document for ``doc_id``."""
        return self.index.corpus.get(doc_id)


def search_databases(
    engines: Sequence[SearchEngine], query: str, n: int = 10
) -> list[RankedHits]:
    """Every engine's top ``n`` for ``query``, answered as one plan.

    Equal, hit for hit and bit for bit, to ``engine.search(query, n)``
    of each engine in turn (see the module docstring for the plan).  The
    query is analyzed once per group of equal analyzers.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    analyzed: list[tuple[Analyzer, list[str]]] = []
    row_lists = []
    for engine in engines:
        analyzer = engine.index.analyzer
        for seen, terms in analyzed:
            if seen is analyzer or seen == analyzer:
                break
        else:
            terms = _query_terms(analyzer, query)
            analyzed.append((analyzer, terms))
        row_lists.append(engine.index.term_rows(terms))
    return _plan(engines, row_lists, n)


def _query_terms(analyzer: Analyzer, query: str) -> list[str]:
    """The distinct index terms of ``query``, first occurrences in order."""
    terms = analyzer.analyze(query)
    return list(dict.fromkeys(terms)) if len(terms) > 1 else terms


def _plan(
    engines: Sequence[SearchEngine], row_lists: Sequence[_Rows], n: int
) -> list[RankedHits]:
    """Rank each engine's rows; one pass per distinct scorer.

    Engines are grouped by scorer — one group, and so one pass,
    whenever the databases score alike.  An engine without rows answers
    :data:`NO_HITS`.
    """
    hits = [NO_HITS] * len(engines)
    groups: list[tuple[Scorer, list[tuple[int, SearchEngine, _Rows]]]] = []
    for position, (engine, rows) in enumerate(zip(engines, row_lists)):
        if rows[0]:
            scorer = engine.scorer
            for seen, group in groups:
                if seen is scorer or seen == scorer:
                    group.append((position, engine, rows))
                    break
            else:
                groups.append((scorer, [(position, engine, rows)]))
    for scorer, group in groups:
        _rank_rows(scorer, group, n, hits)
    return hits


def _rank_rows(
    scorer: Scorer,
    group: list[tuple[int, SearchEngine, _Rows]],
    n: int,
    hits: list[RankedHits],
) -> None:
    """Gather, score, accumulate and order every row of ``group`` in one pass.

    ``group`` holds ``(position, engine, rows)``; each engine's hits
    land at its position in ``hits``.
    """
    doc_rows: list[np.ndarray] = []
    tf_rows: list[np.ndarray] = []
    length_rows: list[np.ndarray] = []
    collections: list[CollectionContext] = []
    row_sizes: list[int] = []
    element_bounds = [0]
    for _, engine, (engine_rows, engine_tf_rows) in group:
        engine_docs = np.concatenate(engine_rows) if len(engine_rows) > 1 else engine_rows[0]
        doc_rows.append(engine_docs)
        # Gathered per database, so no whole length column is copied.
        length_rows.append(engine._doc_lengths[engine_docs])
        tf_rows += engine_tf_rows
        row_sizes += map(len, engine_rows)
        collections += [engine._context] * len(engine_rows)
        element_bounds.append(element_bounds[-1] + engine_docs.size)
    if len(doc_rows) > 1:
        local_docs = np.concatenate(doc_rows)
        lengths = np.concatenate(length_rows)
    else:
        local_docs, lengths = doc_rows[0], length_rows[0]
    if len(tf_rows) > 1:
        tfs = np.concatenate(tf_rows, dtype=np.float64)
    else:
        tfs = tf_rows[0].astype(np.float64)
    # A row's df is its length.
    context = ElementContext(collections, row_sizes, row_sizes)
    element_scores = scorer.score_terms(tfs, lengths, context)
    if len(row_sizes) == len(group):
        # One row per database: its documents are distinct and ascending,
        # so every element already is a document's total.
        docs, scores, bounds = local_docs, element_scores, element_bounds
    else:
        # One scatter-add accumulates every element.  bincount adds in
        # element order — database-major, row-major, documents
        # ascending — which within each database is the addition order
        # of the scalar per-term loop, so totals match it bit for bit.
        doc_offsets = [0]
        for _, engine, _ in group:
            doc_offsets.append(doc_offsets[-1] + engine.index.num_documents)
        total = doc_offsets[-1]
        offsets = np.array(doc_offsets[:-1])
        global_docs = local_docs + offsets.repeat(np.diff(element_bounds))
        totals = np.bincount(global_docs, weights=element_scores, minlength=total)
        matched = np.zeros(total, dtype=bool)
        matched[global_docs] = True
        candidates = matched.nonzero()[0]
        scores = totals[candidates]
        bounds = candidates.searchsorted(doc_offsets).tolist()
        docs = candidates - offsets.repeat(np.diff(bounds))
    order, counts = _top_segments(scores, bounds, n)
    doc_list = docs[order].tolist()
    score_list = scores[order].tolist()
    start = 0
    for (position, engine, _), count in zip(group, counts):
        stop = start + count
        hits[position] = engine._hits(doc_list[start:stop], score_list[start:stop])
        start = stop


def _top_segments(scores: np.ndarray, bounds: list[int], n: int) -> tuple[np.ndarray, list[int]]:
    """Each segment's top ``n`` positions, in rank order; and how many.

    Segment ``i`` is ``[bounds[i], bounds[i + 1])`` of ``scores``, its
    positions in document order, and ranks by score descending, then
    document order.  A segment longer than ``n`` keeps only the
    candidates scoring at least its ``n``-th best score — ties at the
    cut included — and one stable ordering of what the segments kept,
    segment by segment, decides the cut: each segment's first ``n`` are
    its top ``n``.
    """
    sizes = [stop - start for start, stop in zip(bounds, bounds[1:])]
    chosen = None
    if max(sizes) > n:
        work = scores.copy()
        floors = []
        for start, size in zip(bounds, sizes):
            if size > n:
                segment = work[start : start + size]
                segment.partition(size - n)
                floors.append(segment[size - n])
            else:
                floors.append(-np.inf)
        chosen = (scores >= np.array(floors).repeat(sizes)).nonzero()[0]
        kept = chosen.searchsorted(bounds).tolist()
        sizes = [stop - start for start, stop in zip(kept, kept[1:])]
        scores = scores[chosen]
    order = np.lexsort((-scores, np.arange(len(sizes)).repeat(sizes)))
    if max(sizes) > n:  # ties at a cut
        starts = np.cumsum([0, *sizes[:-1]]).tolist()
        order = np.concatenate(
            [order[start : start + min(size, n)] for start, size in zip(starts, sizes)]
        )
    counts = [min(size, n) for size in sizes]
    return (order if chosen is None else chosen[order]), counts
