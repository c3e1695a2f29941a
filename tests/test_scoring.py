"""Unit tests for repro.index.scoring."""

from __future__ import annotations

import numpy as np

from repro.index.scoring import (
    CollectionContext,
    ElementContext,
    _robertson_tf,
    score_terms,
)

CONTEXT = CollectionContext(num_documents=1000, average_doc_length=100.0)


def _score(tfs, lengths, df, context=CONTEXT):
    """Scores of one row: one term's postings with document frequency ``df``."""
    return score_terms(
        np.asarray(tfs, dtype=np.float64),
        np.asarray(lengths, dtype=np.float64),
        ElementContext([context], [df], [len(tfs)]),
    )


class TestRobertsonTf:
    def test_increases_with_tf(self):
        values = _robertson_tf(np.array([1.0, 2.0, 5.0]), np.full(3, 100.0), 100.0)
        assert np.all(np.diff(values) > 0)

    def test_decreases_with_doc_length(self):
        values = _robertson_tf(np.array([3.0, 3.0]), np.array([50.0, 500.0]), 100.0)
        assert values[0] > values[1]

    def test_saturates_below_one(self):
        values = _robertson_tf(np.array([10_000.0]), np.array([100.0]), 100.0)
        assert values[0] < 1.0

    def test_zero_average_guarded(self):
        # A collection whose average length is 0 divides by 1 instead.
        flat = CollectionContext(num_documents=10, average_doc_length=0.0)
        values = _score([2.0], [10.0], df=3, context=flat)
        assert np.isfinite(values[0])
        assert values[0] == _score([2.0], [10.0], df=3, context=CollectionContext(10, 1.0))[0]


class TestScoreTerms:
    def test_higher_tf_scores_higher(self):
        scores = _score([1, 5], [100, 100], df=10)
        assert scores[1] > scores[0]

    def test_longer_doc_scores_lower_at_same_tf(self):
        scores = _score([3, 3], [50, 400], df=10)
        assert scores[0] > scores[1]

    def test_rare_term_scores_higher(self):
        rare = _score([3], [100], df=2)[0]
        common = _score([3], [100], df=900)[0]
        assert rare > common

    def test_scores_finite_and_nonnegative(self):
        scores = _score([1, 2, 100], [10, 100, 1000], df=500)
        assert np.all(np.isfinite(scores))
        assert np.all(scores >= 0)

    def test_empty_collection_scores_zero(self):
        # Scoring against an empty database must degrade to
        # "nothing matches", not raise ZeroDivisionError from the
        # log(N + 1) idf normalisation.
        empty = CollectionContext(num_documents=0, average_doc_length=0.0)
        scores = _score([1, 5], [100, 100], df=3, context=empty)
        assert scores.dtype == np.float64
        assert np.array_equal(scores, np.zeros(2))

    def test_empty_collection_scores_zero_batched(self):
        empty = CollectionContext(num_documents=0, average_doc_length=0.0)
        scores = score_terms(
            np.array([1.0, 5.0, 2.0]),
            np.array([100.0, 100.0, 50.0]),
            ElementContext([empty, empty], [3, 1], [2, 1]),
        )
        assert scores.dtype == np.float64
        assert np.array_equal(scores, np.zeros(3))

    def test_an_element_scores_alike_in_any_batch(self):
        # Rows of two collections in one batch: each element gets the
        # bits a batch of its own row gives it.
        other = CollectionContext(num_documents=37, average_doc_length=12.5)
        tfs = [1.0, 5.0, 2.0, 7.0, 1.0]
        lengths = [100.0, 40.0, 50.0, 9.0, 13.0]
        batch = score_terms(
            np.array(tfs),
            np.array(lengths),
            ElementContext([CONTEXT, other, CONTEXT], [10, 3, 999], [2, 2, 1]),
        )
        alone = np.concatenate(
            [
                _score(tfs[:2], lengths[:2], df=10),
                _score(tfs[2:4], lengths[2:4], df=3, context=other),
                _score(tfs[4:], lengths[4:], df=999),
            ]
        )
        assert batch.tobytes() == alone.tobytes()
