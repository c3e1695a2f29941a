"""Document scoring: one INQUERY-style TF-IDF.

For the sampler's one-term queries any monotone function of normalised
term frequency produces the same ranking; the multi-term machinery
exists because the library's search engine is a general substrate (the
query-expansion experiments and the federation issue multi-term
queries).

:func:`score_terms` is the one formula: a batch of postings
elements made of *rows* — one query term's postings in one collection —
described by an :class:`ElementContext`.  A one-term query is a batch
of one row; a multi-term query, or a query over several databases, is
a batch of many, scored in one vectorised pass.  Every per-row
statistic (the scaled idf, ``log(N + 1)``, the floored average
document length) is computed once per row in Python, so an element
gets the same bits whatever batch it is scored in.
:func:`score_row` is the same formula over one short row in Python
floats: the same operations in the same order, so the same bits.

A score is a saturating, length-normalised (Robertson) tf component
times an idf scaled to [0, 1].  An empty collection
(``num_documents == 0``) scores zeros: the idf divides by
``log(num_documents + 1)``, which is 0 there, and searching an empty
database is legal public API — it must degrade to "nothing matches",
not raise ``ZeroDivisionError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np


@dataclass(frozen=True)
class CollectionContext:
    """The collection-level statistics scoring needs."""

    num_documents: int
    average_doc_length: float


_num_documents = attrgetter("num_documents")


class ElementContext(NamedTuple):
    """What each element of a postings batch is scored against.

    The batch is row-major: its first ``sizes[0]`` elements are row 0,
    the next ``sizes[1]`` row 1, and so on.  Row ``i`` holds postings
    of a term with document frequency ``document_frequencies[i]`` in
    the collection ``collections[i]``.  :meth:`per_row` computes a
    statistic once per row, in Python, and repeats it over the row's
    elements.  Every numpy operation of :func:`score_terms` is
    element-wise, so an element scored in any batch gets the bits a
    batch of its row alone gives it.

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


def _tf_average(collection: CollectionContext, df: int) -> float:
    """The average document length Robertson's tf divides by (floored at 1)."""
    average = collection.average_doc_length
    return average if average > 0 else 1.0


def _inquery_idf(collection: CollectionContext, df: int) -> float:
    """INQUERY's idf, scaled to [0, 1] by ``log(N + 1)`` and floored at 0."""
    size = collection.num_documents
    idf = math.log((size + 0.5) / max(df, 1)) / math.log(size + 1.0)
    return max(idf, 0.0)


def _robertson_tf(
    term_frequencies: Any,
    doc_lengths: Any,
    average_doc_length: float | np.ndarray,
) -> Any:
    """The saturating, length-normalised tf used by INQUERY.

    The average arrives floored at 1 (:func:`_tf_average`).  Arrays
    or Python numbers: every operation is element-wise.
    """
    return term_frequencies / (
        term_frequencies + 0.5 + 1.5 * doc_lengths / average_doc_length
    )


def score_terms(
    term_frequencies: np.ndarray,
    doc_lengths: np.ndarray,
    context: ElementContext,
) -> np.ndarray:
    """Per-element scores of a postings batch: Robertson tf x scaled idf."""
    if context.is_empty:
        return np.zeros_like(term_frequencies, dtype=np.float64)
    tf = _robertson_tf(term_frequencies, doc_lengths, context.per_row(_tf_average))
    return tf * context.per_row(_inquery_idf)


def score_row(
    term_frequencies: Sequence[int],
    doc_lengths: Sequence[float],
    collection: CollectionContext,
) -> list[float]:
    """:func:`score_terms` of one row of ``collection``, in Python floats.

    The same IEEE operations in the same order, so the same bits; for a
    row short enough that numpy's cost per call outweighs its cost per
    element.  The row is not empty, so neither is ``collection``.
    """
    df = len(term_frequencies)
    average = _tf_average(collection, df)
    idf = _inquery_idf(collection, df)
    return [
        _robertson_tf(tf, length, average) * idf
        for tf, length in zip(term_frequencies, doc_lengths)
    ]
