"""Scalar reference implementations of the array-backed hot paths.

The array index core (:mod:`repro.index.inverted`), the batched
multi-term scorer (:mod:`repro.index.search`), and batched language
model ingestion (:meth:`repro.lm.model.LanguageModel.add_documents`)
all replaced straightforward pure-python loops.  Those loops are kept
here as the ground truth the property tests compare against:

* statistics (df, ctf, doc lengths, vocabulary) must match the array
  build **bit-identically**;
* search hits and their scores must match the search plan bit for bit;
* a model built by :func:`add_documents_scalar` must equal one built by
  the batched ``add_documents``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.corpus.collection import Corpus
from repro.index.inverted import InvertedIndex
from repro.index.scoring import CollectionContext, ElementContext, score_terms
from repro.index.search import SearchResult
from repro.lm.model import LanguageModel
from repro.text.analyzer import Analyzer

__all__ = [
    "ScalarIndexStatistics",
    "add_documents_scalar",
    "build_index_scalar",
    "search_scalar",
]


@dataclass(frozen=True)
class ScalarIndexStatistics:
    """Everything the scalar one-pass build produces, in plain dicts."""

    df: dict[str, int]
    ctf: dict[str, int]
    postings: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]
    doc_lengths: np.ndarray

    @property
    def vocabulary(self) -> list[str]:
        """Terms in accumulation (first-occurrence) order."""
        return list(self.postings)


def build_index_scalar(
    corpus: Corpus, analyzer: Analyzer | None = None
) -> ScalarIndexStatistics:
    """The pre-array index build: per-document Counter + dict-of-lists.

    This is the loop :class:`~repro.index.inverted.InvertedIndex`
    used before the CSR refactor, verbatim; term order (dict insertion
    order) and per-term document order (ascending) are exactly what the
    array build must reproduce.
    """
    analyzer = analyzer or Analyzer.inquery_style()
    _MISS = object()
    token_to_term: dict[str, str | None] = {}
    cache_get = token_to_term.get
    analyze_token = analyzer.analyze_token
    iter_tokens = analyzer.tokenizer.iter_tokens
    doc_lengths = np.zeros(len(corpus), dtype=np.int64)
    accumulator: dict[str, tuple[list[int], list[int]]] = {}
    for doc_index, document in enumerate(corpus):
        terms = []
        for token in iter_tokens(document.text):
            term = cache_get(token, _MISS)
            if term is _MISS:
                term = token_to_term[token] = analyze_token(token)
            if term is not None:
                terms.append(term)
        doc_lengths[doc_index] = len(terms)
        for term, tf in Counter(terms).items():
            if term not in accumulator:
                accumulator[term] = ([], [])
            docs, tfs = accumulator[term]
            docs.append(doc_index)
            tfs.append(tf)
    return ScalarIndexStatistics(
        df={term: len(docs) for term, (docs, _) in accumulator.items()},
        ctf={term: sum(tfs) for term, (_, tfs) in accumulator.items()},
        postings={
            term: (tuple(docs), tuple(tfs)) for term, (docs, tfs) in accumulator.items()
        },
        doc_lengths=doc_lengths,
    )


def search_scalar(index: InvertedIndex, query: str, n: int = 10) -> list[SearchResult]:
    """The pre-batching multi-term search: per-term scoring into a dict.

    Implements the engine's pinned semantics (duplicate query terms
    deduplicated, first occurrence kept) with the original scalar
    accumulation loop (:func:`_rank_scalar`).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rows = []
    for term in dict.fromkeys(index.analyzer.analyze(query)):
        posting = index.postings(term)
        if posting is not None:
            rows.append((posting.doc_indices, posting.term_frequencies))
    return _rank_scalar(index, rows, n)


def _rank_scalar(
    index: InvertedIndex,
    rows: list[tuple[np.ndarray, np.ndarray]],
    n: int,
) -> list[SearchResult]:
    """Score each row alone, add into a dict, sort everything.

    One ``score_terms`` call per row (df = the row's length), python
    dict scatter-add in row order, full sort with ``(-score,
    doc_index)`` tie-breaking.
    """
    context = CollectionContext(
        num_documents=index.num_documents,
        average_doc_length=index.average_doc_length,
    )
    scores: dict[int, float] = {}
    for doc_indices, term_frequencies in rows:
        size = len(doc_indices)
        term_scores = score_terms(
            term_frequencies.astype(np.float64),
            index.doc_lengths[doc_indices].astype(np.float64),
            ElementContext([context], [size], [size]),
        )
        for doc_index, score in zip(doc_indices, term_scores):
            key = int(doc_index)
            scores[key] = scores.get(key, 0.0) + float(score)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:n]
    doc_ids = index.corpus.doc_ids
    return [
        SearchResult(doc_id=doc_ids[doc_index], score=score, doc_index=doc_index)
        for doc_index, score in ranked
    ]


def add_documents_scalar(
    model: LanguageModel, documents: Iterable[Sequence[str]]
) -> None:
    """Fold documents one at a time — the batched ingestion's reference."""
    for terms in documents:
        model.add_document(terms)
