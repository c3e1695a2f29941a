"""The two C-level predicates equal the regex definitions they replaced.

``Tokenizer.tokenize`` finds tokens with a byte translate table and
``is_eligible_query_term`` screens terms with ``str`` methods; what a
token and an eligible term *are* is still said by
:data:`TOKEN_PATTERN` and :data:`NUMERIC_PATTERN`.  Unicode is where
the two could part: characters that lower-case or case-fold into ASCII
(``İ``, the Kelvin sign, ``ſ``), digits and letters that ``isalnum`` /
``isdigit`` accept but ``[A-Za-z0-9]`` does not, the separators
``str.split`` honours, and what ``encode`` cannot encode.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sampling.selection import is_eligible_query_term
from repro.text.tokenizer import NUMERIC_PATTERN, TOKEN_PATTERN, Tokenizer

_AWKWARD = "İKKſ²³４ǆ\0\x1c\x1d\x1e\x1f\x85 𐏿Az09 \n"
_texts = st.text(alphabet=st.characters() | st.sampled_from(_AWKWARD), max_size=40)


class TestTokenizeEqualsTheRegexReference:
    @settings(max_examples=400, deadline=None)
    @given(_texts)
    @example("İstanbul Kelvin Maſt x²y 4４ ǆ a\0b c\x1cd e\x1fg 12 ab\ud800cd")
    @example("ABC abc 007 a1 1a A")
    @example("")
    def test_every_configuration(self, text):
        tokenizer = Tokenizer()
        assert tokenizer.tokenize(text) == list(tokenizer.iter_tokens(text))

    @settings(max_examples=400, deadline=None)
    @given(_texts)
    @example("İKKſ ²ǆ A\x1cB")
    def test_token_bytes_are_the_unfiltered_tokens(self, text):
        tokenizer = Tokenizer()
        assert [token.decode() for token in tokenizer.token_bytes(text)] == (
            tokenizer.tokenize(text)
        )


class TestEligibilityEqualsItsDefinition:
    @staticmethod
    def definition(term: str, min_length: int) -> bool:
        return (
            len(term) >= min_length
            and TOKEN_PATTERN.fullmatch(term) is not None
            and NUMERIC_PATTERN.fullmatch(term) is None
        )

    @settings(max_examples=600, deadline=None)
    @given(_texts | st.text(alphabet="abzAZ019", max_size=6))
    @example("12\n")
    @example("abc\n")
    @example("²³４")
    @example("ǆǆǆ")
    @example("")
    @example("abc")
    @example("123")
    @example("a1")
    def test_every_minimum_length(self, term):
        for min_length in range(5):
            result = is_eligible_query_term(term, min_length)
            assert result is self.definition(term, min_length), (term, min_length)
