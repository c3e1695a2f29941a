"""Unit tests for repro.lm.model."""

from __future__ import annotations

import pytest

from repro.lm import LanguageModel
from repro.text import Analyzer


@pytest.fixture
def model() -> LanguageModel:
    built = LanguageModel(name="test")
    built.add_document(["apple", "apple", "banana"])
    built.add_document(["apple", "cherry"])
    built.add_document(["banana", "banana", "banana", "date"])
    return built


class TestIncrementalConstruction:
    def test_df_counts_documents(self, model):
        assert model.df("apple") == 2
        assert model.df("banana") == 2
        assert model.df("date") == 1

    def test_ctf_counts_occurrences(self, model):
        assert model.ctf("apple") == 3
        assert model.ctf("banana") == 4

    def test_unknown_term_zero(self, model):
        assert model.df("zzz") == 0
        assert model.ctf("zzz") == 0
        assert model.avg_tf("zzz") == 0.0

    def test_documents_and_tokens_seen(self, model):
        assert model.documents_seen == 3
        assert model.tokens_seen == 9

    def test_avg_tf(self, model):
        assert model.avg_tf("banana") == pytest.approx(2.0)
        assert model.avg_tf("apple") == pytest.approx(1.5)

    def test_len_and_contains_and_iter(self, model):
        assert len(model) == 4
        assert "apple" in model
        assert set(model) == {"apple", "banana", "cherry", "date"}

    def test_total_ctf(self, model):
        assert model.total_ctf == 9

    def test_stats(self, model):
        stats = model.stats("banana")
        assert (stats.df, stats.ctf, stats.avg_tf) == (2, 4, 2.0)


class TestAddTermValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LanguageModel().add_term("x", df=-1, ctf=2)

    def test_df_exceeding_ctf_rejected(self):
        with pytest.raises(ValueError):
            LanguageModel().add_term("x", df=3, ctf=2)

    def test_accumulates(self):
        model = LanguageModel()
        model.add_term("x", df=1, ctf=2)
        model.add_term("x", df=2, ctf=5)
        assert model.df("x") == 3
        assert model.ctf("x") == 7


class TestMergeAndCopy:
    def test_merge_adds_statistics(self, model):
        other = LanguageModel(name="other")
        other.add_document(["apple", "elderberry"])
        merged = model.merge(other)
        assert merged.df("apple") == 3
        assert merged.df("elderberry") == 1
        assert merged.documents_seen == 4
        assert merged.tokens_seen == 11

    def test_merge_leaves_originals_untouched(self, model):
        other = LanguageModel(name="other")
        other.add_document(["apple"])
        model.merge(other)
        assert model.df("apple") == 2

    def test_copy_is_deep(self, model):
        duplicate = model.copy()
        duplicate.add_document(["fig"])
        assert "fig" not in model
        assert duplicate.documents_seen == model.documents_seen + 1

    def test_copy_rename(self, model):
        assert model.copy(name="snap").name == "snap"


class TestProjection:
    def test_projection_stems_and_stops(self):
        model = LanguageModel()
        model.add_document(["the", "running", "dogs"])
        projected = model.project(Analyzer.inquery_style())
        assert "the" not in projected
        assert "run" in projected
        assert "dog" in projected

    def test_projection_conflates_variants(self):
        model = LanguageModel()
        model.add_document(["report"])
        model.add_document(["reports", "reporting"])
        projected = model.project(Analyzer.inquery_style())
        assert projected.ctf("report") == 3
        # df conflation sums (documented approximation).
        assert projected.df("report") == 3

    def test_projection_preserves_counters(self, model):
        projected = model.project(Analyzer.inquery_style())
        assert projected.documents_seen == model.documents_seen
        assert projected.tokens_seen == model.tokens_seen


class TestTopTerms:
    def test_by_ctf(self, model):
        assert [s.term for s in model.top_terms(2, key="ctf")] == ["banana", "apple"]

    def test_by_df_ties_alphabetical(self, model):
        top = model.top_terms(4, key="df")
        assert [s.term for s in top] == ["apple", "banana", "cherry", "date"]

    def test_by_avg_tf(self, model):
        assert model.top_terms(1, key="avg_tf")[0].term == "banana"

    def test_invalid_key(self, model):
        with pytest.raises(ValueError):
            model.top_terms(3, key="idf")

    def test_k_larger_than_vocabulary(self, model):
        assert len(model.top_terms(100)) == 4

    def test_avg_tf_with_zero_df_term(self, model):
        # add_term accepts df=0 (e.g. a term loaded from a serialized
        # model that only recorded collection frequency); ranking by
        # avg_tf must treat it as 0.0, not raise ZeroDivisionError.
        model.add_term("ghost", df=0, ctf=5)
        ranked = model.top_terms(100, key="avg_tf")
        assert ranked[0].term == "banana"
        assert ranked[-1].term == "ghost"  # avg_tf 0.0 ranks below any real term

    def test_avg_tf_accessor_with_zero_df_term(self, model):
        model.add_term("ghost", df=0, ctf=5)
        assert model.avg_tf("ghost") == 0.0
        assert model.stats("ghost").avg_tf == 0.0


class TestCachedTotalCtf:
    """total_ctf is a running total every mutator must maintain."""

    def _check(self, model: LanguageModel) -> None:
        assert model.total_ctf == sum(model.ctf(term) for term in model)

    def test_after_add_term_and_add_document(self, model):
        self._check(model)
        model.add_term("elderberry", df=2, ctf=5)
        model.add_term("apple", df=1, ctf=1)  # accumulate onto existing
        self._check(model)
        model.add_document(["fig", "fig", "apple"])
        self._check(model)

    def test_merge_and_copy_preserve_total(self, model):
        other = LanguageModel(name="other")
        other.add_document(["apple", "grape"])
        merged = model.merge(other)
        self._check(merged)
        assert merged.total_ctf == model.total_ctf + other.total_ctf
        self._check(model.copy())
        assert model.copy().total_ctf == model.total_ctf

    def test_project_and_restrict_recompute_totals(self, model):
        projected = model.project(Analyzer.inquery_style())
        self._check(projected)

    def test_empty_model(self):
        assert LanguageModel().total_ctf == 0


class TestTopTermsSelection:
    """Heap-based top_terms must match a full deterministic sort."""

    def _reference(self, model: LanguageModel, k: int, key: str):
        score = {
            "df": model.df,
            "ctf": model.ctf,
            "avg_tf": model.avg_tf,
        }[key]
        ranked = sorted(model, key=lambda term: (-score(term), term))
        return ranked[:k]

    def test_matches_sorted_reference_all_keys(self, model):
        for key in ("df", "ctf", "avg_tf"):
            for k in (1, 2, 3, 4, 100):
                assert [
                    s.term for s in model.top_terms(k, key=key)
                ] == self._reference(model, k, key)

    def test_ties_break_alphabetically(self):
        model = LanguageModel()
        for term in ("pear", "apple", "mango"):
            model.add_term(term, df=1, ctf=3)
        assert [s.term for s in model.top_terms(2, key="ctf")] == ["apple", "mango"]

    def test_nonpositive_k_empty(self, model):
        assert model.top_terms(0) == []
        assert model.top_terms(-5) == []
