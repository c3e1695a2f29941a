"""Document scoring functions.

Three classic ranked-retrieval scorers, all operating vectorised over
posting-list arrays.  For the sampler's one-term queries any monotone
function of normalised term frequency produces the same ranking; the
multi-term machinery exists because the library's search engine is a
general substrate (the query-expansion experiments and the federation
issue multi-term queries).

Each scorer has one entry point, :meth:`Scorer.score_terms`: a batch of
postings elements made of *rows* — one query term's (or one phrase's)
postings in one collection — described by an :class:`ElementContext`.
A one-term query is a batch of one row; a multi-term query, or a query
over several databases, is a batch of many, scored in one vectorised
pass.  Every per-row statistic (the scaled idf, ``log(N + 1)``, the
floored average document length) is computed once per row in Python,
so an element gets the same bits whatever batch it is scored in.

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
from operator import attrgetter
from typing import Callable, NamedTuple, Protocol, Sequence

import numpy as np


@dataclass(frozen=True)
class CollectionContext:
    """The collection-level statistics a scorer needs."""

    num_documents: int
    average_doc_length: float


_num_documents = attrgetter("num_documents")


class ElementContext(NamedTuple):
    """What each element of a postings batch is scored against.

    The batch is row-major: its first ``sizes[0]`` elements are row 0,
    the next ``sizes[1]`` row 1, and so on.  Row ``i`` holds postings
    of a term (or phrase) with document frequency
    ``document_frequencies[i]`` in the collection ``collections[i]``.
    :meth:`per_row` computes a statistic once per row, in Python, and
    repeats it over the row's elements.  Every numpy operation of a
    scorer is element-wise, so an element scored in any batch gets the
    bits a batch of its row alone gives it.

    A collection without documents has no postings, so its rows appear
    only in a batch of nothing else (:attr:`is_empty`).
    """

    collections: Sequence[CollectionContext]
    document_frequencies: Sequence[int]
    sizes: Sequence[int]

    @property
    def is_empty(self) -> bool:
        """Whether no row's collection has documents (every score is 0)."""
        return not any(map(_num_documents, self.collections))

    def per_row(
        self, statistic: Callable[[CollectionContext, int], float]
    ) -> float | np.ndarray:
        """``statistic(collection, df)`` of each element's row.

        One row gives a scalar, which numpy broadcasts to the very bits
        the repeated value would give.
        """
        collections, dfs = self.collections, self.document_frequencies
        if len(dfs) == 1:
            return statistic(collections[0], dfs[0])
        values = [statistic(collection, df) for collection, df in zip(collections, dfs)]
        return np.array(values).repeat(self.sizes)


class Scorer(Protocol):
    """Scores documents from posting-list arrays."""

    def score_terms(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        context: ElementContext,
    ) -> np.ndarray:
        """Return per-element scores for a postings batch of one or more rows."""
        ...  # pragma: no cover - protocol


def _tf_average(collection: CollectionContext, df: int) -> float:
    """The average document length Robertson's tf divides by (floored at 1)."""
    average = collection.average_doc_length
    return average if average > 0 else 1.0


def _inquery_idf(collection: CollectionContext, df: int) -> float:
    """INQUERY's idf, scaled to [0, 1] by ``log(N + 1)`` and floored at 0."""
    size = collection.num_documents
    idf = math.log((size + 0.5) / max(df, 1)) / math.log(size + 1.0)
    return max(idf, 0.0)


def _bm25_idf(collection: CollectionContext, df: int) -> float:
    """BM25's non-negative "plus one" idf."""
    return math.log(1.0 + (collection.num_documents - df + 0.5) / (df + 0.5))


def _bm25_average(collection: CollectionContext, df: int) -> float:
    return collection.average_doc_length or 1.0


def _robertson_tf(
    term_frequencies: np.ndarray,
    doc_lengths: np.ndarray,
    average_doc_length: float | np.ndarray,
) -> np.ndarray:
    """The saturating, length-normalised tf used by INQUERY.

    The average arrives floored at 1 (:func:`_tf_average`).
    """
    return term_frequencies / (
        term_frequencies + 0.5 + 1.5 * doc_lengths / average_doc_length
    )


def _robertson_tf_idf(
    term_frequencies: np.ndarray, doc_lengths: np.ndarray, context: ElementContext
) -> tuple[np.ndarray, float | np.ndarray]:
    """Robertson tf and scaled idf of every element."""
    tf = _robertson_tf(term_frequencies, doc_lengths, context.per_row(_tf_average))
    return tf, context.per_row(_inquery_idf)


@dataclass(frozen=True)
class TfIdfScorer:
    """Robertson tf times scaled idf."""

    def score_terms(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        context: ElementContext,
    ) -> np.ndarray:
        """Score a postings batch: Robertson tf x scaled idf."""
        if context.is_empty:
            return np.zeros_like(term_frequencies, dtype=np.float64)
        tf, idf = _robertson_tf_idf(term_frequencies, doc_lengths, context)
        return tf * idf


@dataclass(frozen=True)
class Bm25Scorer:
    """Okapi BM25.

    Parameters are the conventional defaults; the idf uses the
    non-negative "plus one" form so rare terms never score negatively.
    """

    k1: float = 1.2
    b: float = 0.75

    def score_terms(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        context: ElementContext,
    ) -> np.ndarray:
        """Score a postings batch with Okapi BM25."""
        if context.is_empty:
            return np.zeros_like(term_frequencies, dtype=np.float64)
        idf = context.per_row(_bm25_idf)
        denominator = term_frequencies + self.k1 * (
            1.0 - self.b + self.b * doc_lengths / context.per_row(_bm25_average)
        )
        return idf * term_frequencies * (self.k1 + 1.0) / denominator


@dataclass(frozen=True)
class InqueryScorer:
    """The INQUERY belief function ``b + (1 - b) * T * I``."""

    default_belief: float = 0.4

    def score_terms(
        self,
        term_frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        context: ElementContext,
    ) -> np.ndarray:
        """Score a postings batch with the INQUERY belief function."""
        if context.is_empty:
            return np.zeros_like(term_frequencies, dtype=np.float64)
        tf, idf = _robertson_tf_idf(term_frequencies, doc_lengths, context)
        return self.default_belief + (1.0 - self.default_belief) * tf * idf
