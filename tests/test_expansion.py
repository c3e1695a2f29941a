"""Unit tests for repro.expansion (co-occurrence and query expansion)."""

from __future__ import annotations

import pytest

from repro.corpus import Document
from repro.expansion import QueryExpander, SampleCollection, expansion_bias
from repro.lm import LanguageModel


def doc(doc_id: str, text: str) -> Document:
    return Document(doc_id=doc_id, text=text)


@pytest.fixture
def collection() -> SampleCollection:
    sample = SampleCollection()
    sample.add_sample(
        [
            doc("p1", "president clinton oval office politics"),
            doc("p2", "president clinton white house politics"),
            doc("p3", "white house press briefing politics president"),
        ],
        source="politics-db",
    )
    sample.add_sample(
        [
            doc("h1", "white paint house renovation"),
            doc("h2", "garden house renovation project"),
        ],
        source="homes-db",
    )
    return sample


class TestSampleCollection:
    def test_document_count(self, collection):
        assert len(collection) == 5

    def test_df(self, collection):
        assert collection.df("president") == 3
        assert collection.df("renovation") == 2
        assert collection.df("zzz") == 0

    def test_stopwords_removed_by_default(self, collection):
        # "the" never enters the collection because the default analyzer stops it.
        sample = SampleCollection()
        sample.add_document(doc("x", "the cat"), source="db")
        assert sample.df("the") == 0
        assert sample.df("cat") == 1

    def test_sources(self, collection):
        assert collection.sources == {"politics-db", "homes-db"}

    def test_cooccurrence_counts(self, collection):
        counts = collection.cooccurrence_counts("clinton")
        assert counts["president"] == 2
        assert counts["oval"] == 1
        assert "clinton" not in counts  # self excluded


class TestQueryExpander:
    def test_expansion_reflects_cooccurrence(self, collection):
        expander = QueryExpander(collection, min_df=1)
        expanded = expander.expand("clinton", k=4)
        assert "president" in [e.term for e in expanded.expansions]

    def test_query_terms_not_suggested(self, collection):
        expanded = QueryExpander(collection, min_df=1).expand("president clinton", k=5)
        suggested = {e.term for e in expanded.expansions}
        assert "president" not in suggested
        assert "clinton" not in suggested

    def test_min_df_filters(self, collection):
        expanded = QueryExpander(collection, min_df=3).expand("clinton", k=10)
        for expansion in expanded.expansions:
            assert collection.df(expansion.term) >= 3

    def test_unknown_query_term(self, collection):
        expanded = QueryExpander(collection).expand("xylophone", k=5)
        assert expanded.expansions == ()

    def test_k_zero(self, collection):
        assert QueryExpander(collection).expand("clinton", k=0).expansions == ()

    def test_invalid_parameters(self, collection):
        with pytest.raises(ValueError):
            QueryExpander(collection, min_df=0)
        with pytest.raises(ValueError):
            QueryExpander(collection).expand("x", k=-1)

    def test_expanded_text(self, collection):
        expanded = QueryExpander(collection, min_df=1).expand("clinton", k=2)
        assert expanded.text.startswith("clinton ")
        assert len(expanded.text.split()) == 3

    def test_scores_descending(self, collection):
        expanded = QueryExpander(collection, min_df=1).expand("politics", k=5)
        scores = [e.score for e in expanded.expansions]
        assert scores == sorted(scores, reverse=True)


class TestExpansionBias:
    def test_single_db_expansion_biased(self, collection):
        # Expansion mined only from the politics sample favors the
        # politics database's vocabulary.
        politics_only = SampleCollection()
        politics_only.add_sample(
            [
                doc("p1", "president clinton oval office politics"),
                doc("p2", "president clinton politics speech"),
                doc("p3", "budget committee vote"),
            ],
            source="politics-db",
        )
        expanded = QueryExpander(politics_only, min_df=1).expand("president", k=3)
        assert expanded.expansions

        politics_model = LanguageModel()
        politics_model.add_document(["clinton", "oval", "office", "politics"])
        homes_model = LanguageModel()
        homes_model.add_document(["paint", "renovation", "garden"])

        bias = expansion_bias(
            expanded, {"politics": politics_model, "homes": homes_model}
        )
        assert bias["politics"] > bias["homes"]

    def test_zero_score_expansion(self):
        from repro.expansion.expand import ExpandedQuery

        bias = expansion_bias(
            ExpandedQuery("q", ()), {"a": LanguageModel(), "b": LanguageModel()}
        )
        assert bias == {"a": 0.0, "b": 0.0}
