"""Ranked retrieval over an inverted index.

:class:`SearchEngine` analyzes the query with the *database's* analyzer
(so a raw query term like ``running`` matches the stemmed index term
``run``), scores each query term's postings with
:func:`~repro.index.scoring.score_terms`, accumulates scores across
terms, and returns the top-N documents with deterministic tie-breaking
(score descending, then document order).  Every document tied with the
N-th score is ordered before the list is cut, so which of several
equal-scoring documents make the list is decided by document order too
— never by how a partition happened to split them.

**Duplicate query terms are deduplicated** (first occurrence kept): a
query of ``"cat cat"`` scores identically to ``"cat"``.  Query-side tf
weighting, if ever wanted, should be an explicit scoring feature, not
an accident of tokenization.

Every query runs as one *plan* over any number of databases
(:func:`search_databases`; :meth:`SearchEngine.search` is the plan
over one).  What the plan ranks is *rows*: a query term's CSR row of
postings per database.  The query is analyzed once per group of equal
analyzers; every database's rows are gathered in one pass; all
elements are scored in one :func:`~repro.index.scoring.score_terms`
call, each row against its own database's statistics
(:class:`~repro.index.scoring.ElementContext`); one weighted
``bincount`` over database-offset document ids accumulates every
document's total; and each database's top N comes out of one segmented
ordering.  Elements are database-major, row-major, document-ascending,
so ``bincount`` adds each document's scores in query-term order, and a
database's hits are bit-identical whichever plan it was searched in.
When every database brings one row, a row's documents are distinct
already: nothing is accumulated and nothing sized by the collection is
allocated, so the query costs in proportion to its postings.

A one-term query to one database — every query the sampler and the
staleness probe send — is one posting row, and it skips the plan:
:meth:`SearchEngine.rank` hands the row to its own kernel, which scores
it with the plan's element-wise formula (in Python floats up to
``_SHORT_ROW`` postings, where numpy's cost per call outweighs its cost
per element; :func:`~repro.index.scoring.score_row`), orders it by score
descending, then document, and cuts it where the plan would, ties
included.  It answers ranked columns (:class:`RankedHits`), from which
``DatabaseServer.run_query`` reads each hit's document by its row.  The
scalar accumulation loop all of this replaced survives as
``search_scalar`` in ``tests/reference/index.py``, the oracle the
equivalence tests compare both paths against bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from repro.corpus.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.scoring import CollectionContext, ElementContext, score_row, score_terms
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

#: The longest posting row :meth:`SearchEngine._rank_row` scores and
#: sorts in Python floats, which beat numpy's fixed cost per call up to
#: about 40 postings.
_SHORT_ROW = 32

#: Rows to rank in one database: per row, its document indices
#: (ascending) and their term frequencies; a row's length is its df.
_Rows = tuple[list[np.ndarray], list[np.ndarray]]


class SearchEngine:
    """Ranked retrieval over one index (see the module docstring)."""

    def __init__(self, index: InvertedIndex) -> None:
        self.index = index
        self._context = CollectionContext(
            num_documents=index.num_documents,
            average_doc_length=index.average_doc_length,
        )
        # Per document, what scoring takes: 8 bytes a document, not a posting.
        self._doc_lengths = index.doc_lengths.astype(np.float64)
        self._doc_ids = index.corpus.doc_ids

    def search(self, query: str, n: int = 10) -> list[SearchResult]:
        """Return the top ``n`` documents for ``query``.

        The query text is analyzed by the database's own pipeline;
        query terms that are stopwords (to the database) or unindexed
        simply contribute nothing — a query of only such terms returns
        no documents, exactly the "failed query" the paper's Table 3
        counts.  Repeated query terms count once (see module docstring).
        """
        return self.rank(query, n).results()

    def rank(self, query: str, n: int = 10) -> RankedHits:
        """What :meth:`search` returns, as ranked columns.

        A query of one indexed term is one posting row, ranked by
        :meth:`_rank_row`; any other goes through the plan.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        doc_rows, tf_rows = self.index.term_rows(_query_terms(self.index.analyzer, query))
        if len(doc_rows) == 1:
            return self._rank_row(doc_rows[0], tf_rows[0], n)
        return _plan([self], [(doc_rows, tf_rows)], n)[0]

    def _rank_row(self, docs: np.ndarray, tfs: np.ndarray, n: int) -> RankedHits:
        """The plan's one-engine, one-row case: one term's postings, ranked.

        The row's documents are distinct and ascending, so its scores
        are the totals, and the cut is :func:`_top_segments`' for one
        segment: a row longer than ``n`` keeps the documents scoring at
        least its ``n``-th best score, ties at the cut included, and one
        stable sort by score descending leaves tied documents ascending.
        """
        size = docs.size
        if size <= _SHORT_ROW:
            scores = score_row(tfs.tolist(), self._doc_lengths[docs].tolist(), self._context)
            # A stable sort, reversed, keeps tied documents ascending.
            ranked = sorted(zip(scores, docs.tolist()), key=itemgetter(0), reverse=True)[:n]
            return self._hits([doc for _, doc in ranked], [score for score, _ in ranked])
        scores = score_terms(
            tfs.astype(np.float64),
            self._doc_lengths[docs],
            ElementContext([self._context], [size], [size]),
        )
        if size > n:
            floor = np.partition(scores, size - n)[size - n]
            kept = (scores >= floor).nonzero()[0]
            order = kept[np.argsort(-scores[kept], kind="stable")[:n]]
        else:
            order = np.argsort(-scores, kind="stable")
        return self._hits(docs[order].tolist(), scores[order].tolist())

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
    terms = analyzer.analyze_query(query)
    return list(dict.fromkeys(terms)) if len(terms) > 1 else terms


def _plan(
    engines: Sequence[SearchEngine], row_lists: Sequence[_Rows], n: int
) -> list[RankedHits]:
    """Gather, score, accumulate and order every engine's rows in one pass.

    An engine without rows answers :data:`NO_HITS`.
    """
    hits = [NO_HITS] * len(engines)
    group = [
        (position, engine, rows)
        for position, (engine, rows) in enumerate(zip(engines, row_lists))
        if rows[0]
    ]
    if not group:
        return hits
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
    element_scores = score_terms(tfs, lengths, context)
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
    return hits


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
