"""Scalar ↔ array equivalence sweep for the index/search/lm hot paths.

The array index core (:mod:`repro.index.inverted`), the batched
multi-term scorer (:class:`repro.index.search.SearchEngine`), and
batched language model ingestion
(:meth:`repro.lm.model.LanguageModel.add_documents`) all replaced
straightforward pure-python loops that survive in
:mod:`tests.reference.index`.  These tests pin the equivalence
contract:

* index statistics (df, ctf, postings, doc lengths, vocabulary
  *order*) match the scalar build **bit-identically**;
* search rankings match the scalar scatter-add search exactly, and
  so do their scores, bit for bit;
* a model built by batched ``add_documents`` equals one built by the
  one-document-at-a-time loop, counter for counter;
* the bytes tokenization used by the array build produces exactly the
  regex tokenizer's tokens, including on non-ASCII input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Corpus, Document
from repro.index import (
    Bm25Scorer,
    InqueryScorer,
    InvertedIndex,
    SearchEngine,
    TfIdfScorer,
)
from repro.lm import LanguageModel
from repro.synth import wsj88_like
from repro.text import Analyzer, Tokenizer
from tests.reference import add_documents_scalar, build_index_scalar, search_scalar


def _corpus(texts: list[str], name: str = "equiv") -> Corpus:
    corpus = Corpus(name=name)
    for i, text in enumerate(texts):
        corpus.add(Document(doc_id=f"d{i}", text=text))
    return corpus


@pytest.fixture(scope="module")
def synth_corpus() -> Corpus:
    return wsj88_like().build(seed=7, scale=0.02)


SMALL_TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "the dog barks at the quick fox and the fox runs",
    "",
    "numbers 123 456 and words mixed 7th heaven",
    "Repeated repeated REPEATED tokens tokens",
]


ANALYZERS = [Analyzer.inquery_style(), Analyzer.raw()]

#: Few words, so that documents and their scores repeat.
TIE_WORDS = ["ant", "bee", "cat", "dog"]


@pytest.mark.parametrize("analyzer", ANALYZERS, ids=["inquery", "raw"])
class TestIndexStatisticsBitIdentical:
    def _assert_equivalent(self, corpus: Corpus, analyzer: Analyzer) -> None:
        index = InvertedIndex(corpus, analyzer)
        scalar = build_index_scalar(corpus, analyzer)
        assert list(index.vocabulary) == scalar.vocabulary
        assert np.array_equal(index.doc_lengths, scalar.doc_lengths)
        for term in scalar.vocabulary:
            assert index.df(term) == scalar.df[term]
            assert index.ctf(term) == scalar.ctf[term]
            posting = index.postings(term)
            assert posting is not None
            docs, tfs = scalar.postings[term]
            assert tuple(posting.doc_indices.tolist()) == docs
            assert tuple(posting.term_frequencies.tolist()) == tfs

    def test_small_corpus(self, analyzer):
        self._assert_equivalent(_corpus(SMALL_TEXTS), analyzer)

    def test_synthetic_corpus(self, analyzer, synth_corpus):
        self._assert_equivalent(synth_corpus, analyzer)

    def test_empty_corpus(self, analyzer):
        index = InvertedIndex(_corpus([]), analyzer)
        assert index.num_documents == 0
        assert index.vocabulary_size == 0
        assert index.doc_lengths.size == 0

    def test_all_documents_empty(self, analyzer):
        self._assert_equivalent(_corpus(["", "   ", "..."]), analyzer)


@pytest.mark.parametrize(
    "scorer",
    [TfIdfScorer(), Bm25Scorer(), InqueryScorer()],
    ids=lambda scorer: type(scorer).__name__,
)
class TestSearchMatchesScalar:
    def _assert_same_ranking(self, engine, index, scorer, query, n=10):
        batched = engine.search(query, n=n)
        scalar = search_scalar(index, scorer, query, n=n)
        assert [r.doc_index for r in batched] == [r.doc_index for r in scalar]
        assert [r.doc_id for r in batched] == [r.doc_id for r in scalar]
        assert [r.score.hex() for r in batched] == [r.score.hex() for r in scalar]

    def test_single_and_multi_term_queries(self, scorer, synth_corpus):
        index = InvertedIndex(synth_corpus)
        engine = SearchEngine(index, scorer)
        model = index.language_model()
        frequent = [stats.term for stats in model.top_terms(12, key="ctf")]
        for term in frequent[:5]:
            self._assert_same_ranking(engine, index, scorer, term)
        for i in range(0, 9, 3):
            query = " ".join(frequent[i : i + 3])
            self._assert_same_ranking(engine, index, scorer, query)

    def test_query_with_unknown_terms(self, scorer, synth_corpus):
        index = InvertedIndex(synth_corpus)
        engine = SearchEngine(index, scorer)
        model = index.language_model()
        known = model.top_terms(1, key="ctf")[0].term
        self._assert_same_ranking(engine, index, scorer, f"{known} zzzunseenzzz")

    def test_empty_index_search(self, scorer):
        index = InvertedIndex(_corpus([]))
        engine = SearchEngine(index, scorer)
        assert engine.search("anything", n=5) == []

    @settings(max_examples=120, deadline=None)
    @given(
        texts=st.lists(
            st.lists(st.sampled_from(TIE_WORDS), min_size=1, max_size=4).map(" ".join),
            min_size=1,
            max_size=8,
        ),
        copies=st.lists(st.integers(1, 4), min_size=8, max_size=8),
        query=st.lists(st.sampled_from(TIE_WORDS), min_size=1, max_size=3).map(" ".join),
        n=st.integers(1, 6),
    )
    def test_ties_at_the_cut_go_to_document_order(self, scorer, texts, copies, query, n):
        # Every text several times over, in blocks: many documents score
        # alike, and the n-th place is usually one of several equals.
        corpus = _corpus([text for text, k in zip(texts, copies) for _ in range(k)])
        index = InvertedIndex(corpus, Analyzer.raw())
        self._assert_same_ranking(SearchEngine(index, scorer), index, scorer, query, n=n)


class TestDuplicateQueryTerms:
    """Pinned semantics: duplicate query terms are deduplicated.

    ``cat cat`` must score identically to ``cat`` — each distinct term
    contributes once, matching the scalar reference and most real
    retrieval engines' bag-of-*distinct*-terms treatment of short
    queries.
    """

    @pytest.fixture()
    def engine(self):
        corpus = _corpus(
            [
                "cat cat cat dog",
                "cat dog dog",
                "dog dog dog dog",
            ]
        )
        return SearchEngine(InvertedIndex(corpus, Analyzer.raw()))

    def test_duplicate_term_scores_once(self, engine):
        once = engine.search("cat", n=10)
        twice = engine.search("cat cat", n=10)
        assert [(r.doc_index, r.score) for r in twice] == [
            (r.doc_index, r.score) for r in once
        ]

    def test_duplicates_in_multi_term_query(self, engine):
        plain = engine.search("cat dog", n=10)
        doubled = engine.search("cat dog cat dog dog", n=10)
        assert [(r.doc_index, r.score) for r in doubled] == [
            (r.doc_index, r.score) for r in plain
        ]


class TestModelIngestionEquivalence:
    def _documents(self, corpus: Corpus, analyzer: Analyzer) -> list[list[str]]:
        return [analyzer.analyze(document.text) for document in corpus]

    def test_batched_equals_scalar(self, synth_corpus):
        documents = self._documents(synth_corpus, Analyzer.inquery_style())
        batched = LanguageModel("batched")
        batched.add_documents(documents)
        scalar = LanguageModel("scalar")
        add_documents_scalar(scalar, documents)
        assert len(batched) == len(scalar)
        # Batched ingestion sorts terms (np.unique), so insertion order
        # differs; the contract is on the statistics, not dict order.
        assert batched.vocabulary == scalar.vocabulary
        for term in scalar:
            assert batched.df(term) == scalar.df(term)
            assert batched.ctf(term) == scalar.ctf(term)
        assert batched.documents_seen == scalar.documents_seen
        assert batched.tokens_seen == scalar.tokens_seen
        assert batched.total_ctf == scalar.total_ctf

    def test_empty_documents_count(self):
        batched = LanguageModel("batched")
        batched.add_documents([[], ["alpha"], []])
        scalar = LanguageModel("scalar")
        add_documents_scalar(scalar, [[], ["alpha"], []])
        assert batched.documents_seen == scalar.documents_seen == 3
        assert batched.ctf("alpha") == scalar.ctf("alpha") == 1

    def test_empty_batch_is_noop(self):
        model = LanguageModel()
        model.add_documents([])
        assert model.documents_seen == 0
        assert len(model) == 0

    @staticmethod
    def _assert_same_model(batched: LanguageModel, scalar: LanguageModel) -> None:
        # Order first: terms_since, iteration and checkpoints depend on it.
        order = list(scalar)
        assert list(batched) == order
        for start in range(-1, len(order) + 2):
            assert batched.terms_since(start) == order[max(0, start):]
        for term in scalar:
            assert batched.df(term) == scalar.df(term)
            assert batched.ctf(term) == scalar.ctf(term)
        assert batched.total_ctf == scalar.total_ctf
        assert batched.documents_seen == scalar.documents_seen
        assert batched.tokens_seen == scalar.tokens_seen

    @staticmethod
    def _prepopulated(how: str) -> LanguageModel:
        if how == "from_statistics":
            return LanguageModel.from_statistics("m", ["t3", "zz", "t0"], [1, 2, 1], [4, 2, 1])
        model = LanguageModel("m")
        if how == "add_term":
            model.add_term("t3", df=1, ctf=4)
            model.add_term("zz", df=2, ctf=2)
            model.add_term("t0", df=1, ctf=1)
        return model

    @settings(max_examples=80, deadline=None)
    @given(
        how=st.sampled_from(["empty", "from_statistics", "add_term"]),
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.lists(st.sampled_from([f"t{i}" for i in range(8)]), max_size=7),
                    st.sampled_from(["list", "tuple", "generator"]),
                ),
                max_size=5,
            ),
            max_size=5,
        ),
    )
    def test_batches_equal_scalar_in_statistics_and_order(self, how, batches):
        shapes = {"list": list, "tuple": tuple, "generator": iter}
        batched = self._prepopulated(how)
        scalar = self._prepopulated(how)
        for batch in batches:
            # Empty documents, and documents that can be walked only once.
            batched.add_documents(shapes[shape](terms) for terms, shape in batch)
            add_documents_scalar(scalar, [terms for terms, _ in batch])
            self._assert_same_model(batched, scalar)


class TestBytesTokenizationEquivalence:
    """token_bytes must reproduce the regex tokenizer's runs exactly."""

    CASES = [
        "plain ascii words",
        "MiXeD CaSe AND digits 123abc",
        "punct,separated;tokens:here!",
        "Héllo wörld 123 The-End café naïve ٣٤ x",
        "tabs\tand\nnewlines\r\nsplit too",
        "",
        "...---...",
        "a" * 300 + " edge",
    ]

    @pytest.mark.parametrize("lowercase", [True, False])
    def test_matches_raw_tokens(self, lowercase):
        # The regex character class is ASCII-only, so every raw token is
        # ASCII and every non-ASCII character is a boundary — exactly
        # what encode("ascii", "replace") + translate reproduces.
        tokenizer = Tokenizer(lowercase=lowercase)
        for text in self.CASES:
            expected = [
                token.lower() if lowercase else token
                for token in tokenizer.raw_tokens(text)
            ]
            got = [token.decode("ascii") for token in tokenizer.token_bytes(text)]
            assert got == expected, text

    def test_non_ascii_is_boundary(self):
        tokenizer = Tokenizer()
        assert tokenizer.token_bytes("café naïve") == [b"caf", b"na", b"ve"]

    def test_index_build_on_unicode_text(self):
        corpus = _corpus(["Héllo wörld café", "hllo wrld caf"])
        index = InvertedIndex(corpus, Analyzer.raw())
        scalar = build_index_scalar(corpus, Analyzer.raw())
        assert list(index.vocabulary) == scalar.vocabulary
        for term in scalar.vocabulary:
            assert index.df(term) == scalar.df[term]
            assert index.ctf(term) == scalar.ctf[term]
