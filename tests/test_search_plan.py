"""The set-at-a-time search plan against its per-database oracles.

One differential property, over random small federations: the plan
answers every query shape — one term, a phrase, several terms — on one
database or many exactly as the scalar search of
``tests/reference/index.py`` does, hits and scores bit for bit; and the
frontend's merged answer is the serial
:meth:`~repro.federation.service.FederatedSearchService.search`'s and
the list-fed mergers' (``tests/reference/merge.py``).  Federations
hold one to eight databases (empty ones too), equal and differing
analyzers and scorers, Zipf-ish documents from a vocabulary small
enough that scores tie and ``doc_id``\\ s repeat across databases;
queries include empty, stop-word-only, unknown, repeated and
one-surviving-term text, and ``n`` beyond every candidate set.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.frontend as frontend_module
from repro.corpus import Corpus, Document
from repro.dbselect.base import finish_ranking
from repro.dbselect.merge import CoriMerger, RawScoreMerger, RoundRobinMerger
from repro.dbselect.vectorized import CoriScorer
from repro.federation import FederatedSearchService, SearchRequest
from repro.index import Bm25Scorer, DatabaseServer, InqueryScorer, TfIdfScorer
from repro.index.search import (
    RankedHits,
    SearchEngine,
    SearchResult,
    _plan,
    _query_terms,
    search_databases,
)
from repro.serving import FederationFrontend, LatencyInjected
from repro.text import Analyzer
from tests.reference import (
    cori_merge_eager,
    phrase_search_scalar,
    raw_score_merge_lists,
    round_robin_merge_lists,
    search_scalar,
)

#: Stemming folds "running"/"runs"/"run"; "the"/"and"/"of" are stop words.
WORDS = [
    "market", "stock", "bank", "trade", "rate", "price", "oil", "bond",
    "running", "runs", "run", "the", "and", "of",
]
#: Each word as often as a Zipf law over its rank says: draws are Zipf-ish.
ZIPF_WORDS = [word for rank, word in enumerate(WORDS) for _ in range(12 // (rank + 1) + 1)]
ANALYZERS = [Analyzer.inquery_style(), Analyzer.raw(), Analyzer.stopped()]
SCORERS = [TfIdfScorer(), Bm25Scorer(), InqueryScorer()]

_text = st.lists(st.sampled_from(WORDS), max_size=10).map(" ".join)


@st.composite
def _documents(draw) -> list[str]:
    """Zipf-ish texts, some repeated verbatim so that scores tie."""
    texts: list[str] = []
    for _ in range(draw(st.integers(0, 14))):
        if texts and draw(st.booleans()):
            texts.append(draw(st.sampled_from(texts)))
        else:
            texts.append(" ".join(draw(st.lists(st.sampled_from(ZIPF_WORDS), max_size=12))))
    return texts


@st.composite
def federations(draw) -> dict[str, DatabaseServer]:
    size = draw(st.integers(1, 8))
    same_analyzer = draw(st.booleans())
    same_scorer = draw(st.booleans())
    analyzer = draw(st.sampled_from(ANALYZERS))
    scorer = draw(st.sampled_from(SCORERS))
    servers = {}
    for position in range(size):
        name = f"db{position}"
        # Every database numbers its documents d0, d1, ...: ids repeat
        # across the federation, as replicated content does.
        corpus = Corpus(
            (Document(doc_id=f"d{i}", text=text) for i, text in enumerate(draw(_documents()))),
            name=name,
        )
        servers[name] = DatabaseServer(
            corpus,
            analyzer=analyzer if same_analyzer else draw(st.sampled_from(ANALYZERS)),
            scorer=scorer if same_scorer else draw(st.sampled_from(SCORERS)),
            name=name,
        )
    return servers


queries = st.one_of(
    _text,
    st.sampled_from(WORDS),
    st.just(""),
    st.just("the and of"),
    st.just("zzzunseen qqqunknown"),
    st.builds(lambda word: f"{word} {word} the zzzunseen", st.sampled_from(WORDS)),
    st.builds(lambda a, b: f"{a} {b} {a}", st.sampled_from(WORDS), st.sampled_from(WORDS)),
)


#: Phrases: adjacent words, one word, stop words only, unknown words.
phrases = st.one_of(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
    st.builds(lambda a, b: f"{a} {b}", st.sampled_from(WORDS[:4]), st.sampled_from(WORDS[:4])),
    st.just("the and"),
    st.just("zzzunseen market"),
)


def exact(results) -> list[tuple]:
    """Hits with their scores as bits."""
    return [(r.doc_id, r.doc_index, r.score.hex()) for r in results]


def merged(results) -> list[tuple]:
    return [(r.doc_id, r.database, r.score.hex()) for r in results]


class TestSearchPlan:
    @settings(max_examples=150, deadline=None)
    @given(servers=federations(), query=queries, n=st.integers(1, 20))
    def test_plan_answers_each_database_as_its_engine_does(self, servers, query, n):
        engines = [server.engine for server in servers.values()]
        plan = search_databases(engines, query, n)
        for engine, hits in zip(engines, plan):
            assert exact(hits.results()) == exact(engine.search(query, n))

    @settings(max_examples=150, deadline=None)
    @given(
        servers=federations(),
        query=queries,
        phrase=phrases,
        n=st.integers(1, 20),
        shapes=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_every_query_shape_is_the_scalar_search(self, servers, query, phrase, n, shapes):
        engines = [server.engine for server in servers.values()]
        terms = [search_scalar(e.index, e.scorer, query, n) for e in engines]
        phrased = [phrase_search_scalar(e.index, e.scorer, phrase, n) for e in engines]
        # One database at a time, and every database in one plan.
        for engine, want_terms, want_phrase in zip(engines, terms, phrased):
            assert exact(engine.search(query, n)) == exact(want_terms)
            assert exact(engine.search_phrase(phrase, n)) == exact(want_phrase)
        plan = search_databases(engines, query, n)
        assert [exact(hits.results()) for hits in plan] == [exact(want) for want in terms]
        # One plan whose databases are asked different shapes: a phrase
        # here, the query's terms there.
        rows = [
            engine._phrase_rows(phrase)
            if is_phrase
            else engine.index.term_rows(_query_terms(engine.index.analyzer, query))
            for engine, is_phrase in zip(engines, shapes)
        ]
        mixed = _plan(engines, rows, n)
        for hits, is_phrase, want_terms, want_phrase in zip(mixed, shapes, terms, phrased):
            assert exact(hits.results()) == exact(want_phrase if is_phrase else want_terms)

    @settings(max_examples=120, deadline=None)
    @given(
        servers=federations(),
        query=queries,
        n=st.integers(1, 20),
        docs_per_database=st.integers(1, 20),
        depth=st.integers(1, 8),
    )
    def test_frontend_answers_as_the_serial_service_and_the_eager_merge(
        self, servers, query, n, docs_per_database, depth
    ):
        models = {name: server.actual_language_model() for name, server in servers.items()}
        # One ranking for both sides: the serial service selects with
        # the compiled scorer too, so only retrieval and merging differ.
        service = FederatedSearchService(
            servers,
            selector=CoriScorer(models),
            databases_per_query=min(depth, len(servers)),
        )
        service.use_models(models)
        request = SearchRequest(query=query, n=n, docs_per_database=docs_per_database)
        with FederationFrontend(service) as frontend:
            response = frontend.search(request)
        serial = service.search(request)
        assert response.ranking == serial.ranking
        assert response.searched == serial.searched
        assert response.dropped == serial.dropped == ()
        assert merged(response.results) == merged(serial.results)
        per_database = {
            name: servers[name].engine.search(query, n=docs_per_database)
            for name in serial.searched
        }
        assert merged(response.results) == merged(
            cori_merge_eager(serial.ranking, per_database, n)
        )


class TestOneRowQueries:
    """A query of one row per database costs in proportion to its postings."""

    def test_nothing_sized_by_the_collection_is_allocated(self, monkeypatch):
        texts = ["market stock"] * 2000 + ["white house oil", "oil white house", "white house"]
        documents = [Document(doc_id=f"d{i}", text=text) for i, text in enumerate(texts)]
        engines = [
            DatabaseServer(Corpus(documents, name=name)).engine for name in ("a", "b")
        ]
        engines[0].search_phrase("white house")  # builds the positional index
        sizes: list[int] = []  # of every bincount and zeros array made
        for name in ("bincount", "zeros"):
            real = getattr(np, name)

            def watched(*args, real=real, name=name, **kwargs):
                sizes.append(kwargs["minlength"] if name == "bincount" else int(np.prod(args[0])))
                return real(*args, **kwargs)

            monkeypatch.setattr(np, name, watched)
        assert len(engines[0].search("oil", 10)) == 2
        assert len(engines[0].search_phrase("white house", 10)) == 3
        assert [len(hits.doc_ids) for hits in search_databases(engines, "oil", 10)] == [2, 2]
        assert all(size < len(texts) for size in sizes)
        # Several rows per database are accumulated over the collection.
        engines[0].search("oil white", 10)
        assert max(sizes) == len(texts)


#: Few distinct values and ids: merged scores tie within and across
#: databases, and one document turns up in several.
_hit = st.tuples(st.sampled_from([f"d{i}" for i in range(12)]), st.sampled_from([0.5, 1.0, 2.0]))
_result_lists = st.dictionaries(
    st.sampled_from([f"db{k}" for k in range(6)]), st.lists(_hit, max_size=8), max_size=6
)


class TestLazyMerge:
    @settings(max_examples=300, deadline=None)
    @given(
        lists=_result_lists,
        collection=st.lists(st.sampled_from([0.1, 0.4, 0.4, 0.9]), min_size=6, max_size=6),
        weight=st.sampled_from([0.0, 0.4, 1.0]),
        n=st.integers(1, 20),
        ranked=st.integers(1, 6),
    )
    def test_heap_merge_is_the_eager_merge(self, lists, collection, weight, n, ranked):
        # Lists in any order, some from databases the ranking lacks.
        ranking = finish_ranking(
            "q", {f"db{k}": score for k, score in enumerate(collection[:ranked])}
        )
        results = {
            name: [SearchResult(doc_id, score, i) for i, (doc_id, score) in enumerate(hits)]
            for name, hits in lists.items()
        }
        columns = {name: RankedHits.from_results(hits) for name, hits in results.items()}
        lazy = CoriMerger(collection_weight=weight).merge(ranking, columns, n)
        assert merged(lazy) == merged(cori_merge_eager(ranking, results, n, weight))


class TestColumnFedMergers:
    @settings(max_examples=300, deadline=None)
    @given(
        lists=_result_lists,
        collection=st.lists(st.sampled_from([0.1, 0.4, 0.4, 0.9]), min_size=6, max_size=6),
        n=st.integers(1, 20),
        ranked=st.integers(1, 6),
    )
    def test_raw_score_and_round_robin_read_columns_as_they_read_lists(
        self, lists, collection, n, ranked
    ):
        # Three score values, twelve ids, tied collection scores: hits
        # tie on score within and across databases, and copies collide.
        ranking = finish_ranking(
            "q", {f"db{k}": score for k, score in enumerate(collection[:ranked])}
        )
        columns = {
            name: RankedHits.from_results(
                [SearchResult(doc_id, score, i) for i, (doc_id, score) in enumerate(hits)]
            )
            for name, hits in lists.items()
        }
        results = {name: hits.results() for name, hits in columns.items()}

        raw = RawScoreMerger().merge(ranking, columns, n)
        assert merged(raw) == merged(raw_score_merge_lists(ranking, results, n))
        # Score descending, then database, then doc_id; each document once.
        keys = [(-item.score, item.database, item.doc_id) for item in raw]
        assert keys == sorted(keys)
        assert len({item.doc_id for item in raw}) == len(raw)

        robin = RoundRobinMerger().merge(ranking, columns, n)
        want = round_robin_merge_lists(ranking, results, n)
        assert [(r.doc_id, r.database, r.score) for r in robin] == [
            (r.doc_id, r.database, r.score) for r in want
        ]
        # Depth, then database rank: the score -(depth * k + rank) falls.
        ranks = {name: rank for rank, name in enumerate(ranking.names)}
        order = [
            (columns[item.database].doc_ids.index(item.doc_id), ranks[item.database])
            for item in robin
        ]
        assert order == sorted(order)
        assert all(a.score > b.score for a, b in zip(robin, robin[1:]))


class _WrappedEngine:
    """A computing backend's engine behind a proxy: not a plain SearchEngine."""

    def __init__(self, inner: SearchEngine) -> None:
        self.inner = inner
        self.calls = 0

    def search(self, query: str, n: int = 10):
        self.calls += 1
        return self.inner.search(query, n=n)


class _ComputingProxy:
    computes_in_process = True

    def __init__(self, inner: DatabaseServer) -> None:
        self.inner = inner
        self.name = inner.name
        self.engine = _WrappedEngine(inner.engine)

    def run_query(self, query: str, max_docs: int = 10):
        return self.inner.run_query(query, max_docs=max_docs)


class TestPlanRouting:
    """Only plain in-process engines join the plan; the rest go one by one."""

    @pytest.fixture()
    def servers(self):
        texts = [
            "market stock bank", "stock stock trade", "bank rate price",
            "oil bond market", "market market oil", "trade rate bond",
        ]
        servers = {}
        for k in range(4):
            rotated = texts[k:] + texts[:k]
            documents = (Document(doc_id=f"{k}-{i}", text=t) for i, t in enumerate(rotated))
            servers[f"db{k}"] = DatabaseServer(Corpus(documents, name=f"db{k}"), name=f"db{k}")
        return servers

    def test_wrapped_and_waiting_backends_are_searched_per_backend(
        self, servers, monkeypatch
    ):
        planned: list[list[str]] = []

        def watched(engines, query, n):
            planned.append([name for name, s in servers.items() if s.engine in engines])
            return search_databases(engines, query, n)

        monkeypatch.setattr(frontend_module, "search_databases", watched)
        mixed = dict(servers)
        mixed["db1"] = proxy = _ComputingProxy(servers["db1"])
        mixed["db2"] = LatencyInjected(servers["db2"], delay=0.0)
        models = {name: server.actual_language_model() for name, server in servers.items()}
        service = FederatedSearchService(mixed, databases_per_query=4)
        service.use_models(models)
        request = SearchRequest(query="market stock oil", n=5)
        with FederationFrontend(service, max_workers=1) as frontend:
            response = frontend.search(request)
        assert planned == [["db0", "db3"]]
        assert proxy.engine.calls == 1
        assert set(response.searched) == set(servers)
        serial = service.search(request)
        assert [(r.doc_id, r.database) for r in response.results] == [
            (r.doc_id, r.database) for r in serial.results
        ]

    @pytest.mark.parametrize(
        "merger_type",
        [CoriMerger, RawScoreMerger, RoundRobinMerger],
        ids=lambda merger_type: merger_type.__name__,
    )
    def test_every_merger_gets_columns(self, servers, merger_type):
        seen = []

        class WatchedMerger(merger_type):
            def merge(self, ranking, hits, n):
                seen.append({name: type(columns) for name, columns in hits.items()})
                return super().merge(ranking, hits, n)

        models = {name: server.actual_language_model() for name, server in servers.items()}
        service = FederatedSearchService(servers, merger=WatchedMerger(), databases_per_query=2)
        service.use_models(models)
        with FederationFrontend(service) as frontend:
            response = frontend.search(SearchRequest(query="market bank"))
        serial = service.search(SearchRequest(query="market bank"))
        assert len(seen) == 2
        assert all(kind is RankedHits for call in seen for kind in call.values())
        assert response.results == serial.results
