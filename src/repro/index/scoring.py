"""Document scoring functions.

Three classic ranked-retrieval scorers, all operating vectorised over a
term's posting list.  For the sampler's one-term queries any monotone
function of normalised term frequency produces the same ranking; the
multi-term machinery exists because the library's search engine is a
general substrate (the query-expansion experiments issue multi-term
queries).

Each scorer implements two entry points:

* :meth:`Scorer.score_term` — one query term's postings, with a scalar
  document frequency (the single-term fast path); and
* :meth:`Scorer.score_terms` — a *batch* of postings elements spanning
  several query terms, with a per-element document-frequency array, so
  the search engine can score an entire multi-term query in one
  vectorised pass and scatter-add the results per document.  Given an
  :class:`ElementContext` instead of a :class:`CollectionContext`, the
  batch may span several *collections* too: each element is scored
  against its own collection's size and average document length, and
  gets the very bits its collection's own call would give it (see
  :class:`ElementContext`).

All scorers return zeros for an empty collection
(``num_documents == 0``): the idf normalisations divide by
``log(num_documents + 1)``, which is 0 for an empty collection, and a
scorer constructed against an empty database is legal public API — it
must degrade to "nothing matches", not raise ``ZeroDivisionError``.

* :class:`TfIdfScorer` — INQUERY/CORI-style tf.idf: a saturating,
  length-normalised tf component times a scaled idf.
* :class:`Bm25Scorer` — Okapi BM25 with the usual k1/b parameters.
* :class:`InqueryScorer` — the INQUERY belief function
  ``0.4 + 0.6 * T * I``, matching the engine the paper's databases ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np


@dataclass(frozen=True)
class CollectionContext:
    """The collection-level statistics a scorer needs."""

    num_documents: int
    average_doc_length: float

    @property
    def is_empty(self) -> bool:
        """Whether the collection has no documents (every score is 0)."""
        return self.num_documents == 0

    def per_element(
        self, *statistics: Callable[["CollectionContext"], float]
    ) -> tuple[float, ...]:
        """Each of ``statistics`` of this collection: one value every element shares."""
        return tuple(statistic(self) for statistic in statistics)


@dataclass(frozen=True)
class ElementContext:
    """Collection statistics per element of a batch spanning collections.

    The batch is collection-major: its first ``counts[0]`` elements
    belong to ``collections[0]``, the next ``counts[1]`` to
    ``collections[1]``, and so on.  :meth:`per_element` computes each
    statistic once per collection, in Python, exactly as a
    :class:`CollectionContext` does (``math.log(N + 1)``, the floored
    average document length), and repeats it over that collection's
    elements.  Every numpy operation of a scorer is element-wise, so an
    element scored in such a batch gets the bits its collection's own
    ``score_terms`` call gives it.

    Every collection here has documents: one without has no postings,
    so it never contributes an element.
    """

    collections: tuple[CollectionContext, ...]
    counts: np.ndarray

    is_empty = False

    def per_element(
        self, *statistics: Callable[[CollectionContext], float]
    ) -> tuple[np.ndarray, ...]:
        """Each of ``statistics`` of each element's collection, one value per element."""
        counts = self.counts
        return tuple(
            np.array([statistic(c) for c in self.collections]).repeat(counts)
            for statistic in statistics
        )


class Scorer(Protocol):
    """Scores documents from posting-list arrays."""

    def score_term(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        document_frequency: int,
        context: CollectionContext,
    ) -> np.ndarray:
        """Return per-document scores for one query term."""
        ...  # pragma: no cover - protocol

    def score_terms(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        document_frequencies: np.ndarray,
        context: CollectionContext | ElementContext,
    ) -> np.ndarray:
        """Return per-element scores for a multi-term postings batch.

        ``document_frequencies`` carries each element's term's df, so
        elements of different query terms can be scored in one pass;
        an :class:`ElementContext` lets them come from different
        collections too.
        """
        ...  # pragma: no cover - protocol


def _tf_average(context: CollectionContext) -> float:
    """The average document length Robertson's tf divides by (floored at 1)."""
    average = context.average_doc_length
    return average if average > 0 else 1.0


def _bm25_average(context: CollectionContext) -> float:
    return context.average_doc_length or 1.0


def _size(context: CollectionContext) -> float:
    return float(context.num_documents)


def _log_size(context: CollectionContext) -> float:
    """The ``log(N + 1)`` that scales INQUERY's idf into [0, 1]."""
    return math.log(context.num_documents + 1.0)


def _robertson_tf(
    term_frequencies: np.ndarray,
    doc_lengths: np.ndarray,
    average_doc_length: float | np.ndarray,
) -> np.ndarray:
    """The saturating, length-normalised tf used by INQUERY.

    A collection's average document length counts as 1 when it is not
    positive; per-element averages arrive floored (:func:`_tf_average`).
    """
    if not isinstance(average_doc_length, np.ndarray) and average_doc_length <= 0:
        average_doc_length = 1.0
    return term_frequencies / (
        term_frequencies + 0.5 + 1.5 * doc_lengths / average_doc_length
    )


def _scaled_idf(document_frequency: int, num_documents: int) -> float:
    """INQUERY's idf, scaled to [0, 1] by ``log(N + 1)`` and floored at 0."""
    idf = math.log((num_documents + 0.5) / max(document_frequency, 1)) / math.log(
        num_documents + 1.0
    )
    return max(idf, 0.0)


def _robertson_tf_idf(
    term_frequencies: np.ndarray,
    doc_lengths: np.ndarray,
    document_frequencies: np.ndarray,
    context: CollectionContext | ElementContext,
) -> tuple[np.ndarray, np.ndarray]:
    """Robertson tf and scaled idf of every element (see :func:`_scaled_idf`)."""
    average, size, log_size = context.per_element(_tf_average, _size, _log_size)
    tf = _robertson_tf(term_frequencies, doc_lengths, average)
    idf = np.log((size + 0.5) / np.maximum(document_frequencies, 1.0)) / log_size
    return tf, np.maximum(idf, 0.0)


@dataclass(frozen=True)
class TfIdfScorer:
    """Robertson tf times scaled idf."""

    def score_term(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        document_frequency: int,
        context: CollectionContext,
    ) -> np.ndarray:
        """Score one term's postings: Robertson tf x scaled idf."""
        if context.num_documents == 0:
            return np.zeros_like(term_frequencies, dtype=np.float64)
        tf = _robertson_tf(term_frequencies, doc_lengths, context.average_doc_length)
        return tf * _scaled_idf(document_frequency, context.num_documents)

    def score_terms(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        document_frequencies: np.ndarray,
        context: CollectionContext | ElementContext,
    ) -> np.ndarray:
        """Score a multi-term postings batch in one vectorised pass."""
        if context.is_empty:
            return np.zeros_like(term_frequencies, dtype=np.float64)
        tf, idf = _robertson_tf_idf(term_frequencies, doc_lengths, document_frequencies, context)
        return tf * idf


@dataclass(frozen=True)
class Bm25Scorer:
    """Okapi BM25.

    Parameters are the conventional defaults; the idf uses the
    non-negative "plus one" form so rare terms never score negatively.
    """

    k1: float = 1.2
    b: float = 0.75

    def score_term(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        document_frequency: int,
        context: CollectionContext,
    ) -> np.ndarray:
        """Score one term's postings with Okapi BM25."""
        if context.num_documents == 0:
            return np.zeros_like(term_frequencies, dtype=np.float64)
        idf = math.log(
            1.0
            + (context.num_documents - document_frequency + 0.5)
            / (document_frequency + 0.5)
        )
        average = context.average_doc_length or 1.0
        denominator = term_frequencies + self.k1 * (
            1.0 - self.b + self.b * doc_lengths / average
        )
        return idf * term_frequencies * (self.k1 + 1.0) / denominator

    def score_terms(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        document_frequencies: np.ndarray,
        context: CollectionContext | ElementContext,
    ) -> np.ndarray:
        """Score a multi-term postings batch in one vectorised pass."""
        if context.is_empty:
            return np.zeros_like(term_frequencies, dtype=np.float64)
        size, average = context.per_element(_size, _bm25_average)
        idf = np.log(1.0 + (size - document_frequencies + 0.5) / (document_frequencies + 0.5))
        denominator = term_frequencies + self.k1 * (
            1.0 - self.b + self.b * doc_lengths / average
        )
        return idf * term_frequencies * (self.k1 + 1.0) / denominator


@dataclass(frozen=True)
class InqueryScorer:
    """The INQUERY belief function ``b + (1 - b) * T * I``."""

    default_belief: float = 0.4

    def score_term(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        document_frequency: int,
        context: CollectionContext,
    ) -> np.ndarray:
        """Score one term's postings with the INQUERY belief function."""
        if context.num_documents == 0:
            return np.zeros_like(term_frequencies, dtype=np.float64)
        tf = _robertson_tf(term_frequencies, doc_lengths, context.average_doc_length)
        idf = _scaled_idf(document_frequency, context.num_documents)
        return self.default_belief + (1.0 - self.default_belief) * tf * idf

    def score_terms(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        document_frequencies: np.ndarray,
        context: CollectionContext | ElementContext,
    ) -> np.ndarray:
        """Score a multi-term postings batch in one vectorised pass."""
        if context.is_empty:
            return np.zeros_like(term_frequencies, dtype=np.float64)
        tf, idf = _robertson_tf_idf(term_frequencies, doc_lengths, document_frequencies, context)
        return self.default_belief + (1.0 - self.default_belief) * tf * idf
