"""Ranked retrieval over an inverted index.

:class:`SearchEngine` analyzes the query with the *database's* analyzer
(so a raw query term like ``running`` matches the stemmed index term
``run``), scores each query term's postings with the configured scorer,
accumulates scores across terms, and returns the top-N documents with
deterministic tie-breaking (score descending, then document order).

**Duplicate query terms are deduplicated** (first occurrence kept): a
query of ``"cat cat"`` scores identically to ``"cat"``.  This pins down
semantics that were previously inconsistent — the multi-term path used
to accumulate a repeated term's postings once per occurrence (silently
doubling its contribution) while the single-term fast path scored it
once.  Query-side tf weighting, if ever wanted, should be an explicit
scorer feature, not an accident of tokenization.

Multi-term scoring is batched: the engine gathers every query term's
CSR postings rows in one scatter-gather
(:meth:`~repro.index.inverted.InvertedIndex.gather_postings`), scores
all elements in one vectorised :meth:`~repro.index.scoring.Scorer.score_terms`
call, and accumulates per-document totals with a single weighted
``bincount`` scatter-add.  The scalar accumulation loop this replaced
survives as ``search_scalar`` in ``tests/reference/index.py``, the
oracle the equivalence tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.document import Document
from repro.index.inverted import InvertedIndex, PostingList
from repro.index.positions import PositionalIndex
from repro.index.scoring import CollectionContext, Scorer, TfIdfScorer


@dataclass(frozen=True)
class SearchResult:
    """One ranked hit."""

    doc_id: str
    score: float
    doc_index: int


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
        terms = self.index.analyzer.analyze(query)
        if not terms:
            return []
        if len(terms) > 1:
            terms = list(dict.fromkeys(terms))
        if len(terms) == 1:
            return self._search_single_term(terms[0], n)
        ids = self.index.term_ids(terms)
        if ids.size == 0:
            return []
        docs, tfs, dfs = self.index.gather_postings(ids)
        if docs.size == 0:
            return []
        doc_lengths = self.index.doc_lengths[docs]
        element_scores = self.scorer.score_terms(
            tfs.astype(np.float64),
            doc_lengths.astype(np.float64),
            dfs.astype(np.float64),
            self._context,
        )
        # One scatter-add accumulates every (term, document) element.
        # bincount adds in element order — term-major, documents
        # ascending — the same addition order as the scalar per-term
        # loop, so accumulated scores match it bit for bit.
        num_documents = self.index.num_documents
        totals = np.bincount(docs, weights=element_scores, minlength=num_documents)
        matched = np.bincount(docs, minlength=num_documents)
        candidates = np.flatnonzero(matched)
        return self._top_n(candidates, totals[candidates], n)

    def _top_n(
        self, doc_indices: np.ndarray, scores: np.ndarray, n: int
    ) -> list[SearchResult]:
        """Rank candidate documents: score descending, then document order."""
        count = min(n, scores.size)
        if count < scores.size:
            candidates = np.argpartition(-scores, count - 1)[:count]
        else:
            candidates = np.arange(scores.size)
        order = candidates[np.lexsort((doc_indices[candidates], -scores[candidates]))]
        doc_ids = self._doc_ids
        return [
            SearchResult(
                doc_id=doc_ids[int(doc_indices[i])],
                score=float(scores[i]),
                doc_index=int(doc_indices[i]),
            )
            for i in order
        ]

    def _search_single_term(self, term: str, n: int) -> list[SearchResult]:
        """Vectorised fast path for the sampler's one-term queries."""
        posting = self.index.postings(term)
        if posting is None:
            return []
        doc_lengths = self.index.doc_lengths[posting.doc_indices]
        scores = self.scorer.score_term(
            posting.term_frequencies.astype(np.float64),
            doc_lengths.astype(np.float64),
            posting.document_frequency,
            self._context,
        )
        return self._top_n(posting.doc_indices, scores, n)

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
            return self._search_single_term(terms[0], n)
        if self._positional is None:
            self._positional = PositionalIndex(self.index.corpus, self.index.analyzer)
        posting = self._positional.phrase_postings(terms)
        return self._rank_posting(posting, n)

    def _rank_posting(self, posting: PostingList, n: int) -> list[SearchResult]:
        if len(posting) == 0:
            return []
        doc_lengths = self.index.doc_lengths[posting.doc_indices]
        scores = self.scorer.score_term(
            posting.term_frequencies.astype(np.float64),
            doc_lengths.astype(np.float64),
            posting.document_frequency,
            self._context,
        )
        return self._top_n(posting.doc_indices, scores, n)

    def fetch(self, doc_id: str) -> Document:
        """Return the full document for ``doc_id``."""
        return self.index.corpus.get(doc_id)
