"""Unit tests for repro.corpus.document and repro.corpus.collection."""

from __future__ import annotations

import pytest

from repro.corpus import Corpus, Document
from repro.text import Analyzer


class TestDocument:
    def test_basic_fields(self):
        doc = Document(doc_id="d1", text="hello world", title="greeting")
        assert doc.doc_id == "d1"
        assert doc.title == "greeting"
        assert doc.topic is None

    def test_empty_doc_id_rejected(self):
        with pytest.raises(ValueError, match="doc_id"):
            Document(doc_id="", text="x")

    def test_size_bytes_utf8(self):
        assert Document(doc_id="d", text="abc").size_bytes == 3
        assert Document(doc_id="d", text="café").size_bytes == 5

    def test_size_bytes_counts_utf8_bytes_not_characters(self):
        text = "naïve € 😀 x"  # 1- to 4-byte characters: 11 characters, 17 bytes
        assert len(text) == 11
        assert Document(doc_id="d", text=text).size_bytes == 17 == len(text.encode("utf-8"))
        assert Corpus([Document(doc_id="d", text=text)]).size_bytes == 17

    def test_len_is_text_length(self):
        assert len(Document(doc_id="d", text="abcd")) == 4

    def test_frozen(self):
        doc = Document(doc_id="d", text="x")
        with pytest.raises(AttributeError):
            doc.text = "y"  # type: ignore[misc]


class TestCorpus:
    def test_iteration_preserves_order(self, tiny_docs):
        corpus = Corpus(tiny_docs)
        assert [d.doc_id for d in corpus] == [d.doc_id for d in tiny_docs]

    def test_len(self, tiny_corpus):
        assert len(tiny_corpus) == 6

    def test_get_by_id(self, tiny_corpus):
        assert tiny_corpus.get("d3").doc_id == "d3"

    def test_get_missing_raises(self, tiny_corpus):
        with pytest.raises(KeyError):
            tiny_corpus.get("nope")

    def test_contains(self, tiny_corpus):
        assert "d1" in tiny_corpus
        assert "zzz" not in tiny_corpus

    def test_getitem_by_position(self, tiny_corpus):
        assert tiny_corpus[0].doc_id == "d1"

    def test_duplicate_id_rejected(self, tiny_docs):
        corpus = Corpus(tiny_docs)
        with pytest.raises(ValueError, match="duplicate"):
            corpus.add(Document(doc_id="d1", text="again"))

    def test_doc_ids(self, tiny_corpus):
        assert tiny_corpus.doc_ids == ["d1", "d2", "d3", "d4", "d5", "d6"]

    def test_topics_empty_when_unlabeled(self, tiny_corpus):
        assert tiny_corpus.topics() == set()

    def test_topics_collects_labels(self):
        corpus = Corpus(
            [
                Document(doc_id="a", text="x", topic="sports"),
                Document(doc_id="b", text="y", topic="finance"),
                Document(doc_id="c", text="z", topic="sports"),
            ]
        )
        assert corpus.topics() == {"sports", "finance"}


class TestCorpusStats:
    def test_raw_stats(self, tiny_corpus):
        stats = tiny_corpus.stats()
        assert stats.num_documents == 6
        assert stats.total_terms == sum(
            len(Analyzer.raw().analyze(d.text)) for d in tiny_corpus
        )
        assert stats.size_bytes == sum(d.size_bytes for d in tiny_corpus)

    def test_unique_terms_counts_distinct(self, tiny_corpus):
        stats = tiny_corpus.stats()
        vocabulary = set()
        for doc in tiny_corpus:
            vocabulary.update(Analyzer.raw().analyze(doc.text))
        assert stats.unique_terms == len(vocabulary)

    def test_indexed_stats_smaller_than_raw(self, tiny_corpus):
        raw = tiny_corpus.stats(Analyzer.raw())
        indexed = tiny_corpus.stats(Analyzer.inquery_style())
        assert indexed.total_terms < raw.total_terms  # stopwords removed
        assert indexed.unique_terms <= raw.unique_terms  # stemming conflates

    def test_empty_corpus(self):
        stats = Corpus(name="empty").stats()
        assert stats.num_documents == 0

    def test_as_row_keys(self, tiny_corpus):
        row = tiny_corpus.stats().as_row()
        assert row["name"] == "tiny"
        assert set(row) == {
            "name",
            "size_bytes",
            "size_documents",
            "size_unique_terms",
            "size_total_terms",
        }
