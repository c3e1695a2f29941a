"""Unit tests for repro.text.tokenizer."""

from __future__ import annotations

import pytest

from repro.text.tokenizer import Tokenizer, tokenize


class TestTokenize:
    def test_basic_words(self):
        assert tokenize("Hello world") == ["hello", "world"]

    def test_punctuation_is_a_separator(self):
        assert tokenize("end.of,sentence!here") == ["end", "of", "sentence", "here"]

    def test_numbers_kept_by_default(self):
        assert tokenize("in 1988 the index") == ["in", "1988", "the", "index"]

    def test_mixed_alphanumerics_stay_together(self):
        assert tokenize("win32 api") == ["win32", "api"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_only_punctuation(self):
        assert tokenize("!!! ... ---") == []

    def test_case_folding(self):
        assert tokenize("Apple APPLE aPpLe") == ["apple"] * 3

    def test_unicode_is_not_matched(self):
        # The tokenizer is ASCII-only by design; accented characters split tokens.
        assert tokenize("café") == ["caf"]


class TestTokenizerOptions:
    def test_no_lowercase(self):
        tokenizer = Tokenizer(lowercase=False)
        assert tokenizer.tokenize("Apple Pie") == ["Apple", "Pie"]

    def test_min_length_filters_short_tokens(self):
        tokenizer = Tokenizer(min_length=3)
        assert tokenizer.tokenize("a an the cat") == ["the", "cat"]

    def test_drop_numeric(self):
        tokenizer = Tokenizer(drop_numeric=True)
        assert tokenizer.tokenize("year 1988 report 2") == ["year", "report"]

    def test_drop_numeric_keeps_alphanumerics(self):
        tokenizer = Tokenizer(drop_numeric=True)
        assert tokenizer.tokenize("win32") == ["win32"]

    def test_iter_tokens_is_lazy(self):
        tokenizer = Tokenizer()
        iterator = tokenizer.iter_tokens("one two")
        assert next(iterator) == "one"
        assert next(iterator) == "two"
        with pytest.raises(StopIteration):
            next(iterator)


class TestClassifiers:
    @pytest.mark.parametrize("token", ["123", "0", "9999"])
    def test_is_numeric_true(self, token):
        assert Tokenizer.is_numeric(token)

    @pytest.mark.parametrize("token", ["a1", "apple", "1a", "", "12\n"])
    def test_is_numeric_false(self, token):
        assert not Tokenizer.is_numeric(token)

    def test_drop_numeric_keeps_a_number_with_a_trailing_newline(self):
        # "$" also matches before a final newline; a whole-token match does not.
        assert Tokenizer(drop_numeric=True).normalize("12\n") == "12\n"

    @pytest.mark.parametrize("token", ["apple", "win32", "A"])
    def test_is_word_true(self, token):
        assert Tokenizer.is_word(token)

    @pytest.mark.parametrize("token", ["two words", "", "semi-colon", "dot."])
    def test_is_word_false(self, token):
        assert not Tokenizer.is_word(token)
