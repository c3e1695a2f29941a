"""Unit tests for repro.federation (testbed helpers and the service)."""

from __future__ import annotations

import pytest

from repro.corpus import Corpus, Document
from repro.dbselect.merge import MergedResult, RoundRobinMerger
from repro.federation import (
    FederatedSearchService,
    SearchRequest,
    World,
    build_skewed_partition,
    skewed_world,
    topical_queries,
)
from repro.index import DatabaseServer
from repro.sampling import RandomFromOther
from repro.synth import wsj88_like


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    return wsj88_like().build(seed=51, scale=0.08)


@pytest.fixture(scope="module")
def world(corpus):
    return skewed_world(corpus, num_databases=4, seed=2)


@pytest.fixture(scope="module")
def parts(world):
    return list(world.parts)


class TestSkewedPartition:
    def test_covers_all_documents(self, corpus, parts):
        assert sum(len(part) for part in parts) == len(corpus)

    def test_no_duplicates(self, parts):
        all_ids = [doc_id for part in parts for doc_id in part.doc_ids]
        assert len(all_ids) == len(set(all_ids))

    def test_skew_present(self, corpus, world, parts):
        # For each topic, its home database holds clearly more than a
        # uniform share of its documents.
        for topic in sorted(corpus.topics())[:4]:
            counts = world.relevant_counts(topic)
            total = sum(counts.values())
            if total < 20:
                continue
            assert max(counts.values()) / total > 1.5 / len(parts)

    def test_impure(self, parts):
        # Skewed, not pure: most databases hold several topics.
        multi_topic = sum(1 for part in parts if len(part.topics()) > 1)
        assert multi_topic >= len(parts) - 1

    def test_deterministic(self, corpus):
        first = build_skewed_partition(corpus, num_databases=4, seed=9)
        second = build_skewed_partition(corpus, num_databases=4, seed=9)
        assert [p.doc_ids for p in first] == [p.doc_ids for p in second]

    def test_validation(self, corpus):
        with pytest.raises(ValueError):
            build_skewed_partition(corpus, num_databases=0)
        with pytest.raises(ValueError):
            build_skewed_partition(corpus, num_databases=2, spillover=1.5)

    def test_every_database_receives_documents(self, corpus):
        # 12 topics, no spillover: only 12 of 20 databases are anyone's home.
        with pytest.raises(ValueError, match="20 databases requested but only 12 received"):
            build_skewed_partition(corpus, num_databases=20, spillover=0.0)

    def test_unlabeled_corpus_rejected(self):
        plain = Corpus([Document(doc_id="a", text="x")])
        with pytest.raises(ValueError, match="topic"):
            build_skewed_partition(plain, num_databases=2)


class TestWorld:
    @pytest.fixture(scope="class")
    def tied(self):
        # Topic "t" sits once in each database; "u" twice in beta, once in alpha.
        labels = {"d1": "t", "d2": "u", "d3": "u", "d4": "t", "d5": "u"}
        corpus = Corpus(
            Document(doc_id=doc_id, text=f"text of {doc_id}", topic=topic)
            for doc_id, topic in labels.items()
        )
        return World.of(corpus, [corpus.subset([0, 1, 2], "beta"), corpus.subset([3, 4], "alpha")])

    def test_relevant_counts(self, tied):
        assert tied.relevant_counts("t") == {"beta": 1, "alpha": 1}
        assert tied.relevant_counts("u") == {"beta": 2, "alpha": 1}
        assert tied.relevant_counts("absent") == {"beta": 0, "alpha": 0}

    def test_an_even_split_homes_in_the_alphabetically_first_database(self, tied):
        from repro.experiments.classify_bench import _plurality_homes

        assert _plurality_homes(tied) == {
            "beta": frozenset({"u"}),
            "alpha": frozenset({"t"}),
        }

    def test_precision_reads_the_generating_topic(self, tied):
        results = [MergedResult(doc_id, "beta", 1.0) for doc_id in ("d1", "d2", "d4")]
        assert tied.precision(results, "t") == pytest.approx(2 / 3)
        assert tied.precision(results, "u") == pytest.approx(1 / 3)
        assert tied.precision([], "t") == 0.0


class TestTopicalQueries:
    def test_one_query_per_topic(self, corpus, parts):
        queries = topical_queries(parts, max_topics=5)
        assert len(queries) == 5
        assert len({q.topic for q in queries}) == 5

    def test_queries_have_terms(self, parts):
        for query in topical_queries(parts, max_topics=3, terms_per_query=3):
            assert len(query.text.split()) == 3

    def test_query_terms_are_distinctive(self, corpus, parts):
        # A topic's own documents must contain its query terms much more
        # often than a uniform share.
        from collections import Counter

        from repro.text import Analyzer

        analyzer = Analyzer.inquery_style()
        queries = topical_queries(parts, max_topics=2)
        for query in queries:
            term = query.text.split()[0]
            in_topic = 0
            elsewhere = 0
            for part in parts:
                for document in part:
                    count = Counter(analyzer.analyze(document.text))[term]
                    if document.topic == query.topic:
                        in_topic += count
                    else:
                        elsewhere += count
            assert in_topic > elsewhere


class TestFederatedService:
    @pytest.fixture(scope="class")
    def service(self, parts):
        servers = {part.name: DatabaseServer(part) for part in parts}
        service = FederatedSearchService(servers, databases_per_query=2)
        service.learn_models(
            lambda name: RandomFromOther(servers[name].actual_language_model()),
            total_documents=240,
            seed=3,
        )
        return service

    def test_models_learned_for_all(self, service, parts):
        assert set(service.models) == {part.name for part in parts}

    def test_select_before_learning_raises(self, parts):
        servers = {part.name: DatabaseServer(part) for part in parts}
        empty_service = FederatedSearchService(servers)
        with pytest.raises(RuntimeError, match="learn_models"):
            empty_service.select("anything")

    def test_search_end_to_end(self, service, parts):
        queries = topical_queries(parts, max_topics=2)
        response = service.search(SearchRequest(query=queries[0].text, n=5))
        assert response.query == queries[0].text
        assert len(response.searched) == 2
        assert 0 < len(response.results) <= 5
        assert all(item.database in response.searched for item in response.results)

    def test_response_reports_timings_and_no_drops(self, service, parts):
        queries = topical_queries(parts, max_topics=1)
        response = service.search(SearchRequest(query=queries[0].text, n=5))
        assert response.dropped == ()
        assert set(response.timings) == set(response.searched)
        assert all(seconds >= 0 for seconds in response.timings.values())

    def test_databases_per_query_override(self, service):
        response = service.search(
            SearchRequest(query="the market report", databases_per_query=1)
        )
        assert len(response.searched) == 1

    def test_routing_finds_topical_database(self, service, world, parts):
        queries = topical_queries(parts, max_topics=4)
        hits = 0
        for query in queries:
            counts = world.relevant_counts(query.topic)
            best = max(counts, key=lambda name: counts[name])
            if service.select(query.text).names[0] == best:
                hits += 1
        assert hits >= len(queries) - 1

    def test_use_models_validates_coverage(self, service):
        with pytest.raises(ValueError, match="missing models"):
            service.use_models({})

    def test_use_actual_models(self, parts):
        servers = {part.name: DatabaseServer(part) for part in parts}
        service = FederatedSearchService(servers, merger=RoundRobinMerger())
        service.use_models(
            {name: server.actual_language_model() for name, server in servers.items()}
        )
        response = service.search(SearchRequest(query="the market report", n=3))
        assert response.results is not None

    def test_validation(self, parts):
        with pytest.raises(ValueError):
            FederatedSearchService({})
        servers = {part.name: DatabaseServer(part) for part in parts}
        with pytest.raises(ValueError):
            FederatedSearchService(servers, databases_per_query=0)
        with pytest.raises(ValueError):
            SearchRequest(query="x", n=0)
        with pytest.raises(ValueError):
            SearchRequest(query="x", docs_per_database=-1)


class TestBackendValidation:
    """Servers are validated against SearchableDatabase at construction."""

    def test_non_database_rejected_by_name(self, parts):
        servers = {part.name: DatabaseServer(part) for part in parts[:2]}
        servers["broken"] = object()
        with pytest.raises(TypeError) as excinfo:
            FederatedSearchService(servers)
        message = str(excinfo.value)
        assert "'broken'" in message
        assert "SearchableDatabase" in message
        assert "run_query" in message

    def test_query_only_server_accepted_for_sampling(self, parts):
        class QueryOnly:
            def __init__(self, inner):
                self._inner = inner

            def run_query(self, query, max_docs=10):
                return self._inner.run_query(query, max_docs=max_docs)

        servers = {part.name: QueryOnly(DatabaseServer(part)) for part in parts[:2]}
        service = FederatedSearchService(servers)
        assert set(service.servers) == set(servers)

    def test_retrieval_requires_engine(self, parts):
        class QueryOnly:
            def __init__(self, inner):
                self._inner = inner

            def run_query(self, query, max_docs=10):
                return self._inner.run_query(query, max_docs=max_docs)

        full = {part.name: DatabaseServer(part) for part in parts[:2]}
        servers = {name: QueryOnly(server) for name, server in full.items()}
        service = FederatedSearchService(servers, databases_per_query=1)
        service.use_models(
            {name: server.actual_language_model() for name, server in full.items()}
        )
        with pytest.raises(TypeError, match="RetrievableDatabase.*missing engine"):
            service.search(SearchRequest(query="market report", n=3))
