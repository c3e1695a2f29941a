"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lm import (
    LanguageModel,
    ctf_ratio,
    percentage_learned,
    rdiff,
    spearman_rank_correlation,
)
from repro.lm.compare import rank_values
from repro.text.stemmer import PorterStemmer
from repro.text.tokenizer import Tokenizer
from repro.utils.zipf import zipf_probabilities

_STEMMER = PorterStemmer()

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12)
documents = st.lists(words, min_size=1, max_size=30)
freq_tables = st.dictionaries(
    words, st.integers(min_value=1, max_value=50), min_size=1, max_size=40
)


def model_from(table: dict[str, int]) -> LanguageModel:
    model = LanguageModel()
    for term, freq in table.items():
        model.add_term(term, df=freq, ctf=freq)
    return model


class TestTokenizerProperties:
    @given(st.text(max_size=300))
    def test_tokens_are_lowercase_alnum(self, text):
        for token in Tokenizer().tokenize(text):
            assert token
            assert token == token.lower()
            assert token.isalnum()

    @given(st.text(max_size=300))
    def test_tokenizing_is_idempotent_on_joined_output(self, text):
        tokens = Tokenizer().tokenize(text)
        assert Tokenizer().tokenize(" ".join(tokens)) == tokens


class TestStemmerProperties:
    @given(words)
    def test_stem_never_longer(self, word):
        assert len(_STEMMER.stem(word)) <= len(word)

    @given(words)
    def test_stem_is_lowercase_nonempty(self, word):
        stemmed = _STEMMER.stem(word)
        assert stemmed
        assert stemmed == stemmed.lower()

    @given(words)
    def test_stem_deterministic(self, word):
        assert _STEMMER.stem(word) == _STEMMER.stem(word)


class TestLanguageModelProperties:
    @given(st.lists(documents, min_size=1, max_size=10))
    def test_counts_match_direct_computation(self, docs):
        model = LanguageModel()
        for doc in docs:
            model.add_document(doc)
        all_tokens = [token for doc in docs for token in doc]
        ctf_expected = Counter(all_tokens)
        df_expected = Counter(token for doc in docs for token in set(doc))
        for term, count in ctf_expected.items():
            assert model.ctf(term) == count
            assert model.df(term) == df_expected[term]
        assert model.tokens_seen == len(all_tokens)
        assert model.documents_seen == len(docs)

    @given(st.lists(documents, min_size=1, max_size=8))
    def test_df_never_exceeds_ctf_or_documents(self, docs):
        model = LanguageModel()
        for doc in docs:
            model.add_document(doc)
        for stats in model.items():
            assert 1 <= stats.df <= stats.ctf
            assert stats.df <= model.documents_seen

    @given(freq_tables, freq_tables)
    def test_merge_is_commutative_on_stats(self, table_a, table_b):
        left = model_from(table_a).merge(model_from(table_b))
        right = model_from(table_b).merge(model_from(table_a))
        assert left.vocabulary == right.vocabulary
        for term in left:
            assert left.df(term) == right.df(term)
            assert left.ctf(term) == right.ctf(term)


class TestMetricProperties:
    @given(freq_tables, freq_tables)
    def test_metric_ranges(self, table_a, table_b):
        learned, actual = model_from(table_a), model_from(table_b)
        assert 0.0 <= percentage_learned(learned, actual) <= 1.0
        assert 0.0 <= ctf_ratio(learned, actual) <= 1.0
        assert -1.0 <= spearman_rank_correlation(learned, actual) <= 1.0 + 1e-9
        assert 0.0 <= rdiff(learned, actual) <= 1.0

    @given(freq_tables)
    def test_self_comparison_is_perfect(self, table):
        model = model_from(table)
        assert percentage_learned(model, model) == 1.0
        assert ctf_ratio(model, model) == 1.0
        assert rdiff(model, model) == 0.0
        # All-tied rankings carry no ordering signal → defined as 0.
        distinct_freqs = len(set(table.values()))
        expected = 0.0 if (len(table) > 1 and distinct_freqs == 1) else 1.0
        assert abs(spearman_rank_correlation(model, model) - expected) < 1e-9

    @given(freq_tables, freq_tables)
    def test_rdiff_symmetric(self, table_a, table_b):
        a, b = model_from(table_a), model_from(table_b)
        assert rdiff(a, b) == rdiff(b, a)

    @given(freq_tables)
    def test_average_ranks_sum_preserved(self, table):
        # Fractional ranking preserves the total sum of ranks 1..n.
        ranks = rank_values(np.array(list(table.values()), dtype=np.float64), "average")
        n = len(table)
        assert np.isclose(ranks.sum(), n * (n + 1) / 2)


class TestZipfProperties:
    @settings(max_examples=25)
    @given(
        st.integers(min_value=1, max_value=5000),
        st.floats(min_value=0.0, max_value=2.5, allow_nan=False),
    )
    def test_probabilities_valid(self, size, exponent):
        probs = zipf_probabilities(size, exponent)
        assert probs.shape == (size,)
        assert np.all(probs > 0)
        assert probs.sum() == np.float64(1.0) or abs(probs.sum() - 1.0) < 1e-9
        assert np.all(np.diff(probs) <= 1e-15)
