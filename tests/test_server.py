"""Unit tests for repro.index.server."""

from __future__ import annotations

import pytest

from repro.corpus import Corpus, Document
from repro.index import DatabaseServer
from repro.index.server import ServerPolicy


class TestRunQuery:
    def test_returns_full_documents(self, tiny_server):
        documents = tiny_server.run_query("apple", max_docs=3)
        assert documents
        assert all(isinstance(d, Document) for d in documents)
        assert all("apple" in d.text.lower() for d in documents)

    def test_respects_max_docs(self, tiny_server):
        assert len(tiny_server.run_query("apple", max_docs=1)) == 1

    def test_failed_query_returns_empty(self, tiny_server):
        assert tiny_server.run_query("zebra", max_docs=4) == []

    def test_stopword_query_fails(self, tiny_server):
        # "the" is a stopword to the server's (inquery-style) index.
        assert tiny_server.run_query("the", max_docs=4) == []

    def test_invalid_max_docs(self, tiny_server):
        with pytest.raises(ValueError):
            tiny_server.run_query("apple", max_docs=0)

    def test_results_cap_policy(self, tiny_corpus):
        server = DatabaseServer(tiny_corpus, policy=ServerPolicy(max_results_per_query=1))
        assert len(server.run_query("apple", max_docs=10)) == 1


class TestQuotedQueries:
    """A quoted query is a bag of terms: quotes are not token characters."""

    @pytest.fixture
    def server(self):
        texts = ["the white house", "a white cat", "my house", "white house white", "nothing"]
        return DatabaseServer(
            Corpus([Document(doc_id=f"d{i}", text=text) for i, text in enumerate(texts)])
        )

    def test_quoted_query_is_answered_as_its_terms(self, server):
        everything = len(server.index.corpus)
        quoted = server.run_query('"white house"', max_docs=everything)
        unquoted = server.run_query("white house", max_docs=everything)
        assert [d.doc_id for d in quoted] == [d.doc_id for d in unquoted]
        assert len(quoted) == server.hit_count('"white house"') == 4

    def test_empty_quotes_fail(self, server):
        assert server.run_query('""', max_docs=5) == []
        assert server.costs.queries_run == server.costs.failed_queries == 1


class TestCostAccounting:
    def test_queries_counted(self, tiny_corpus):
        server = DatabaseServer(tiny_corpus)
        server.run_query("apple", max_docs=2)
        server.run_query("zebra", max_docs=2)
        assert server.costs.queries_run == 2
        assert server.costs.failed_queries == 1

    def test_documents_and_bytes_counted(self, tiny_corpus):
        server = DatabaseServer(tiny_corpus)
        documents = server.run_query("apple", max_docs=3)
        assert server.costs.documents_returned == len(documents)
        assert server.costs.bytes_returned == sum(d.size_bytes for d in documents)

    def test_reset(self, tiny_corpus):
        server = DatabaseServer(tiny_corpus)
        server.run_query("apple", max_docs=2)
        server.reset_costs()
        assert server.costs.queries_run == 0
        assert server.costs.bytes_returned == 0

    def test_erroring_query_still_metered(self, tiny_corpus, monkeypatch):
        # A query that dies mid-execution was still attempted — the
        # meters must count it or retried queries look free (Ext-10).
        server = DatabaseServer(tiny_corpus)
        server.run_query("apple", max_docs=2)

        def explode(*args, **kwargs):
            raise RuntimeError("scorer blew up")

        monkeypatch.setattr(server.engine, "rank", explode)
        with pytest.raises(RuntimeError):
            server.run_query("honey", max_docs=2)
        assert server.costs.queries_run == 2
        # Errored and empty-result queries are metered separately.
        assert server.costs.failed_queries == 0
        assert server.costs.errored_queries == 1

    def test_failed_and_errored_meters_disjoint(self, tiny_corpus, monkeypatch):
        server = DatabaseServer(tiny_corpus)
        server.run_query("zebra", max_docs=2)  # completes, matches nothing
        assert (server.costs.failed_queries, server.costs.errored_queries) == (1, 0)

        def explode(*args, **kwargs):
            raise RuntimeError("scorer blew up")

        monkeypatch.setattr(server.engine, "rank", explode)
        with pytest.raises(RuntimeError):
            server.run_query("apple", max_docs=2)
        assert (server.costs.failed_queries, server.costs.errored_queries) == (1, 1)

    def test_invalid_max_docs_not_metered(self, tiny_corpus):
        # Client-side misuse is rejected before the query is attempted.
        server = DatabaseServer(tiny_corpus)
        with pytest.raises(ValueError):
            server.run_query("apple", max_docs=0)
        assert server.costs.queries_run == 0
        assert server.costs.errored_queries == 0


class TestGroundTruth:
    def test_actual_language_model_is_index_export(self, tiny_server):
        model = tiny_server.actual_language_model()
        assert len(model) == tiny_server.index.vocabulary_size
        assert model.documents_seen == tiny_server.num_documents

    def test_num_documents(self, tiny_server):
        assert tiny_server.num_documents == 6

    def test_name_defaults_to_corpus(self, tiny_server):
        assert tiny_server.name == "tiny"

    def test_explicit_name(self, tiny_corpus):
        assert DatabaseServer(tiny_corpus, name="alias").name == "alias"
