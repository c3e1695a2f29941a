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
query of ``"cat cat"`` scores identically to ``"cat"``.  This pins down
semantics that were previously inconsistent — the multi-term path used
to accumulate a repeated term's postings once per occurrence (silently
doubling its contribution) while the single-term fast path scored it
once.  Query-side tf weighting, if ever wanted, should be an explicit
scorer feature, not an accident of tokenization.

Multi-term queries run as one *plan* over any number of databases
(:func:`search_databases`; :meth:`SearchEngine.search` is the plan over
one).  The query is analyzed once per group of equal analyzers; every
database's query-term CSR rows are gathered in one pass; all elements
are scored in one vectorised
:meth:`~repro.index.scoring.Scorer.score_terms` call, each against its
own database's statistics
(:class:`~repro.index.scoring.ElementContext`); one weighted
``bincount`` over database-offset document ids accumulates every
document's total; and each database's top N comes out of one segmented
ordering.  Elements are database-major, term-major, document-ascending,
so ``bincount`` adds each document's scores in the order a
one-database search adds them, and a database's hits are bit-identical
whichever plan it was searched in.  The scalar accumulation loop all of
this replaced survives as ``search_scalar`` in
``tests/reference/index.py``, the oracle the equivalence tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from repro.corpus.document import Document
from repro.index.inverted import InvertedIndex, PostingList
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


class SearchEngine:
    """Ranked retrieval with pluggable scoring.

    The scorer must implement both halves of the
    :class:`~repro.index.scoring.Scorer` protocol: ``score_term`` (the
    one-term and phrase paths) and ``score_terms`` (every multi-term
    query is scored as one batch).
    """

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
        return _plan([self], [_query_terms(self.index.analyzer, query)], n)[0].results()

    def _rank_single_term(self, term: str, n: int) -> RankedHits:
        """Vectorised fast path for the sampler's one-term queries."""
        posting = self.index.postings(term)
        if posting is None:
            return NO_HITS
        return self._rank_posting(posting, n)

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
        terms = self.index.analyzer.analyze(phrase)
        if not terms:
            return []
        if len(terms) == 1:
            return self._rank_single_term(terms[0], n).results()
        if self._positional is None:
            self._positional = PositionalIndex(self.index.corpus, self.index.analyzer)
        posting = self._positional.phrase_postings(terms)
        if len(posting) == 0:
            return []
        return self._rank_posting(posting, n).results()

    def _rank_posting(self, posting: PostingList, n: int) -> RankedHits:
        scores = self.scorer.score_term(
            posting.term_frequencies.astype(np.float64),
            self._doc_lengths[posting.doc_indices],
            posting.document_frequency,
            self._context,
        )
        doc_indices = posting.doc_indices
        order, _ = _top_segments(scores, [0, scores.size], n)
        return self._hits(doc_indices[order].tolist(), scores[order].tolist())

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
    term_lists = []
    for engine in engines:
        analyzer = engine.index.analyzer
        for seen, terms in analyzed:
            if seen is analyzer or seen == analyzer:
                break
        else:
            terms = _query_terms(analyzer, query)
            analyzed.append((analyzer, terms))
        term_lists.append(terms)
    return _plan(engines, term_lists, n)


def _query_terms(analyzer: Analyzer, query: str) -> list[str]:
    """The distinct index terms of ``query``, first occurrences in order."""
    terms = analyzer.analyze(query)
    return list(dict.fromkeys(terms)) if len(terms) > 1 else terms


def _plan(
    engines: Sequence[SearchEngine], term_lists: Sequence[list[str]], n: int
) -> list[RankedHits]:
    """Rank each engine's analyzed query terms; one pass per distinct scorer.

    A one-term query takes its engine's single-term path (a scalar df,
    as :meth:`~repro.index.scoring.Scorer.score_term` wants); the
    multi-term ones are fused, one group per distinct scorer — one
    group, and so one pass, whenever the databases score alike.
    """
    hits = [NO_HITS] * len(engines)
    groups: list[tuple[Scorer, list[tuple[int, SearchEngine, list[str]]]]] = []
    for position, (engine, terms) in enumerate(zip(engines, term_lists)):
        if len(terms) == 1:
            hits[position] = engine._rank_single_term(terms[0], n)
        elif terms:
            scorer = engine.scorer
            for seen, group in groups:
                if seen is scorer or seen == scorer:
                    group.append((position, engine, terms))
                    break
            else:
                groups.append((scorer, [(position, engine, terms)]))
    for scorer, group in groups:
        _rank_fused(scorer, group, n, hits)
    return hits


def _rank_fused(
    scorer: Scorer,
    group: list[tuple[int, SearchEngine, list[str]]],
    n: int,
    hits: list[RankedHits],
) -> None:
    """Gather, score, accumulate and order multi-term queries in one pass.

    ``group`` holds ``(position, engine, terms)``; each engine's hits
    land at its position in ``hits``.
    """
    doc_rows: list[np.ndarray] = []
    tf_rows: list[np.ndarray] = []
    length_rows: list[np.ndarray] = []
    row_sizes: list[int] = []
    searched: list[tuple[int, SearchEngine]] = []
    element_counts: list[int] = []
    doc_offsets = [0]
    total = 0
    for position, engine, terms in group:
        docs, tfs = engine.index.term_rows(terms)
        if docs:
            engine_docs = np.concatenate(docs)
            doc_rows.append(engine_docs)
            # Gathered per database, so no whole length column is copied.
            length_rows.append(engine._doc_lengths[engine_docs])
            tf_rows += tfs
            row_sizes += [row.size for row in docs]
            searched.append((position, engine))
            element_counts.append(engine_docs.size)
            total += engine.index.num_documents
            doc_offsets.append(total)
    if not searched:
        return
    counts = np.array(element_counts)
    docs = np.concatenate(doc_rows) + np.array(doc_offsets[:-1]).repeat(counts)
    # A term's df is the length of its row.
    dfs = np.array(row_sizes, dtype=np.float64).repeat(row_sizes)
    element_scores = scorer.score_terms(
        np.concatenate(tf_rows, dtype=np.float64),
        np.concatenate(length_rows),
        dfs,
        ElementContext(tuple(engine._context for _, engine in searched), counts),
    )
    # One scatter-add accumulates every element.  bincount adds in
    # element order — database-major, term-major, documents ascending —
    # which within each database is the addition order of the scalar
    # per-term loop, so accumulated scores match it bit for bit.
    totals = np.bincount(docs, weights=element_scores, minlength=total)
    matched = np.zeros(total, dtype=bool)
    matched[docs] = True
    candidates = matched.nonzero()[0]
    scores = totals[candidates]
    order, counts = _top_segments(scores, candidates.searchsorted(doc_offsets).tolist(), n)
    doc_list = candidates[order].tolist()
    score_list = scores[order].tolist()
    start = 0
    for (position, engine), count, offset in zip(searched, counts, doc_offsets):
        stop = start + count
        hits[position] = engine._hits(
            [doc - offset for doc in doc_list[start:stop]], score_list[start:stop]
        )
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
