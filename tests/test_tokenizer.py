"""Unit tests for repro.text.tokenizer."""

from __future__ import annotations

import pytest

from repro.text.tokenizer import NUMERIC_PATTERN, TOKEN_PATTERN, Tokenizer, tokenize


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
    def test_iter_tokens_is_lazy(self):
        tokenizer = Tokenizer()
        iterator = tokenizer.iter_tokens("one two")
        assert next(iterator) == "one"
        assert next(iterator) == "two"
        with pytest.raises(StopIteration):
            next(iterator)


class TestClassifiers:
    """The module's token and number definitions, applied whole."""

    @pytest.mark.parametrize("token", ["123", "0", "9999"])
    def test_is_numeric_true(self, token):
        assert NUMERIC_PATTERN.fullmatch(token)

    @pytest.mark.parametrize("token", ["a1", "apple", "1a", "", "12\n"])
    def test_is_numeric_false(self, token):
        assert not NUMERIC_PATTERN.fullmatch(token)

    @pytest.mark.parametrize("token", ["apple", "win32", "A"])
    def test_is_word_true(self, token):
        assert TOKEN_PATTERN.fullmatch(token)

    @pytest.mark.parametrize("token", ["two words", "", "semi-colon", "dot."])
    def test_is_word_false(self, token):
        assert not TOKEN_PATTERN.fullmatch(token)
