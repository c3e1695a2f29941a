"""The one-term query: its own ranking kernel, pinned end to end.

A query that analyzes to one indexed term is one posting row, ranked by
``SearchEngine._rank_row`` rather than the general plan.  These tests
hold it to ``search_scalar`` (``tests/reference/index.py``), hits and
score bits, on both of its branches (Python floats for short rows,
numpy past ``_SHORT_ROW``); check what ``DatabaseServer.run_query``
returns and meters from it; and pin, with a golden digest, every query
a :class:`~repro.sampling.pool.SamplingPool` sends and every document
it gets back, so that no sampled document can change unnoticed.
"""

from __future__ import annotations

import hashlib
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.search as search_module
from repro.corpus import Corpus, Document
from repro.federation.testbed import build_synthetic_federation
from repro.index.server import DatabaseServer, ServerPolicy
from repro.index.search import search_databases
from repro.sampling import RandomFromOther, SamplingPool
from tests.reference import search_scalar
from tests.test_search_plan import WORDS, federations

#: Row lengths: apple 45 and banana 43 (numpy branch), cherry 8, durian 3,
#: kiwi 6 (every kiwi score equal), run 4 (stemmed from three forms).
TEXTS = (
    ["apple banana"] * 40
    + ["apple apple cherry"] * 5
    + ["Cherry, BANANA! durian"] * 3
    + ["kiwi lime"] * 6
    + ["running runs", "run", "the runner ran", "runs"]
)

QUERIES = [
    "apple", "banana", "cherry", "durian", "kiwi", "lime", "run",
    # Case, punctuation, stemming and repeats analyze to one term.
    "APPLE", "'Apple.'", "  banana!!  ", "Running", "kiwi kiwi KIWI",
    # A stopword or an unindexed term beside it changes nothing.
    "the apple", "cherry zzzunseen", "of the durian and",
    # Nothing indexed: no hits.
    "the", "the and of", "zzzunseen", "", "!!!",
]


def exact(results) -> list[tuple]:
    """Hits with their scores as bits."""
    return [(r.doc_id, r.doc_index, r.score.hex()) for r in results]


@pytest.fixture(scope="module")
def server() -> DatabaseServer:
    documents = [Document(doc_id=f"d{i}", text=text) for i, text in enumerate(TEXTS)]
    return DatabaseServer(Corpus(documents, name="fruit"))


@pytest.fixture(params=["python", "numpy"])
def branch(request):
    """Rank every row with one branch of the kernel."""
    short_row = 10**6 if request.param == "python" else 0
    with mock.patch.object(search_module, "_SHORT_ROW", short_row):
        yield request.param


class TestKernelAgainstScalarSearch:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 10, 44, 45, 46, 100])
    @pytest.mark.parametrize("query", QUERIES)
    def test_hits_and_score_bits(self, server, branch, query, n):
        want = search_scalar(server.index, query, n)
        assert exact(server.engine.search(query, n)) == exact(want)
        hits = server.engine.rank(query, n)
        assert list(hits.doc_ids) == [r.doc_id for r in want]
        assert list(hits.doc_indices) == [r.doc_index for r in want]
        assert [score.hex() for score in hits.scores] == [r.score.hex() for r in want]

    def test_rows_shorter_than_n_return_every_posting(self, server, branch):
        assert len(server.engine.search("durian", 10)) == 3
        assert len(server.engine.search("apple", 100)) == 45

    def test_ties_at_the_cut_go_to_the_earlier_documents(self, server, branch):
        # Every kiwi document scores the same: the cut keeps the first.
        hits = server.engine.search("kiwi", 4)
        assert len({hit.score for hit in hits}) == 1
        assert [hit.doc_index for hit in hits] == [48, 49, 50, 51]
        # apple's 40 equal "apple banana" scores tie below the 5 others.
        apple = server.engine.search("apple", 7)
        assert [hit.doc_index for hit in apple] == [40, 41, 42, 43, 44, 0, 1]

    def test_n_must_be_positive(self, server):
        with pytest.raises(ValueError, match="n must be positive"):
            server.engine.rank("apple", 0)

    def test_an_empty_collection_has_no_hits(self, branch):
        empty = DatabaseServer(Corpus([], name="empty"))
        for query in ("apple", "the", ""):
            assert empty.engine.search(query, 3) == search_scalar(empty.index, query, 3) == []
            assert empty.run_query(query, 3) == []
        assert empty.costs.failed_queries == 3


class TestRunQuery:
    @pytest.mark.parametrize("query", QUERIES)
    def test_documents_are_the_scalar_hits(self, server, branch, query):
        want = search_scalar(server.index, query, 4)
        documents = server.run_query(query, max_docs=4)
        assert [document.doc_id for document in documents] == [r.doc_id for r in want]
        assert documents == [server.index.corpus.get(r.doc_id) for r in want]

    def test_a_result_cap_cuts_the_ranking(self, branch):
        documents = [Document(doc_id=f"d{i}", text=text) for i, text in enumerate(TEXTS)]
        capped = DatabaseServer(
            Corpus(documents, name="capped"), policy=ServerPolicy(max_results_per_query=3)
        )
        for query in ("apple", "kiwi", "durian"):
            want = search_scalar(capped.index, query, 3)
            got = capped.run_query(query, max_docs=10)
            assert [document.doc_id for document in got] == [r.doc_id for r in want]

    def test_query_costs_meter_every_document(self, branch):
        documents = [Document(doc_id=f"d{i}", text=text) for i, text in enumerate(TEXTS)]
        server = DatabaseServer(Corpus(documents, name="metered"))
        returned = []
        for query in ("apple", "zzzunseen", "durian", "the", "kiwi"):
            returned += server.run_query(query, max_docs=4)
        costs = server.costs
        assert (costs.queries_run, costs.failed_queries, costs.errored_queries) == (5, 2, 0)
        assert costs.documents_returned == len(returned) == 4 + 3 + 4
        assert costs.bytes_returned == sum(document.size_bytes for document in returned)


class TestRandomFederations:
    @settings(max_examples=100, deadline=None)
    @given(
        servers=federations(),
        word=st.sampled_from(WORDS + ["Market", "STOCK!", "'runs'", "zzzunseen"]),
        n=st.integers(1, 20),
        short_row=st.sampled_from([0, 10**6]),
    )
    def test_every_one_term_search_is_the_scalar_search(self, servers, word, n, short_row):
        with mock.patch.object(search_module, "_SHORT_ROW", short_row):
            for server in servers.values():
                assert exact(server.engine.search(word, n)) == exact(
                    search_scalar(server.index, word, n)
                )


class TestQueryAnalysisKeepsNothing:
    def test_fresh_query_tokens_leave_the_memo_unchanged(self, server):
        memo = server.index.analyzer._token_memo
        before = dict(memo)
        engines = [server.engine]
        for i in range(20_000):
            token = f"zq{i}x"
            server.run_query(token, max_docs=2)
            if i % 100 == 0:
                server.hit_count(f"{token} apples")
                search_databases(engines, f"Running {token}", 3)
        assert memo == before

    def test_queries_analyze_as_documents_do(self, server):
        analyzer = server.index.analyzer
        for text in QUERIES + ["The Runners' running, RAN!", "café naïve"]:
            assert analyzer.analyze_query(text) == analyzer.analyze(text)


class TestServerPolicy:
    @pytest.mark.parametrize("cap", [0, -1])
    def test_a_cap_below_one_is_refused_when_built(self, cap):
        with pytest.raises(ValueError, match="max_results_per_query must be at least 1"):
            ServerPolicy(max_results_per_query=cap)

    @pytest.mark.parametrize("cap", [None, 1, 10])
    def test_none_and_positive_caps_are_accepted(self, cap):
        assert ServerPolicy(max_results_per_query=cap).max_results_per_query == cap


class _Recorded:
    """A database that logs each ``run_query``'s query and returned doc ids."""

    def __init__(self, inner, log: list) -> None:
        self.inner = inner
        self.name = inner.name
        self._log = log

    def run_query(self, query: str, max_docs: int = 10):
        documents = self.inner.run_query(query, max_docs=max_docs)
        self._log.append([self.name, query, [document.doc_id for document in documents]])
        return documents

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


#: seed → SHA-256 of every (database, query, returned doc ids) a
#: ``SamplingPool.run(240)`` sends over a 4-database ``wsj88`` federation
#: (scale 0.05), in the order sent: 188 queries and 396 documents at
#: seed 0.  Recorded before one-term queries had their own kernel.
GOLDEN_QUERY_DIGESTS = {
    0: "c0d5e917e17cb2950b3fe259bb9b61aa23e8fd97aa5f13390a5131a2cb3bc950",
    1: "3bb84dccd5fd14820bb710378fd6502a28b74171b3a3c3f0cc82dc0dc09f63c5",
}


def query_digest(seed: int) -> str:
    servers = build_synthetic_federation(4, 0.05, seed=seed, profile="wsj88")
    log: list = []
    recorded = {name: _Recorded(server, log) for name, server in servers.items()}
    references = {name: server.actual_language_model() for name, server in servers.items()}
    pool = SamplingPool(
        recorded, lambda name: RandomFromOther(references[name]), seed=seed
    )
    pool.run(240)
    digest = hashlib.sha256()
    for record in log:
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class TestGoldenQueries:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_QUERY_DIGESTS))
    def test_every_sampler_query_and_its_documents_are_pinned(self, seed):
        assert query_digest(seed) == GOLDEN_QUERY_DIGESTS[seed]
