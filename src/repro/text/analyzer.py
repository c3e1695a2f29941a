"""The :class:`Analyzer` pipeline: tokenize → stop → stem.

An analyzer turns raw document text into the index terms a particular
system would store.  The library instantiates at least two per
experiment:

* ``Analyzer.inquery_style()`` — stopword removal + Porter stemming,
  used by :class:`repro.index.DatabaseServer` to build each database's
  *actual* index and language model, mimicking the paper's Inquery
  configuration (Section 4.1); and
* ``Analyzer.raw()`` — case-folded tokens only, used by the sampling
  client to build the *learned* language model from retrieved text
  ("Stopwords were not discarded … Suffixes were not removed").

:meth:`Analyzer.project_term` supports the paper's comparison protocol:
before scoring, learned terms are stemmed and server-side stopwords are
dropped so both models speak the same vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.text.stemmer import stem as _cached_stem
from repro.text.stopwords import INQUERY_STOPWORDS
from repro.text.tokenizer import Tokenizer

#: Sentinel distinguishing "never analyzed" from a memoized ``None``.
_UNSEEN: Any = object()


@dataclass(frozen=True)
class Analyzer:
    """A text-to-index-terms pipeline.

    Parameters
    ----------
    tokenizer:
        The tokenizer producing candidate terms.
    stopwords:
        Terms removed after tokenization (empty set disables stopping).
    stem:
        Apply the Porter stemmer to surviving terms.
    """

    tokenizer: Tokenizer = field(default_factory=Tokenizer)
    stopwords: frozenset[str] = frozenset()
    stem: bool = False

    # Memo of token -> analyzed term (None: stopped), shared across all
    # analyze() calls on this instance.  Stopping and stemming depend
    # only on the token, so entries never change once computed; a
    # concurrent duplicate computation is benign (idempotent value).
    _token_memo: dict[str, str | None] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def inquery_style(cls) -> "Analyzer":
        """Stopping + stemming, as the paper's databases index."""
        return cls(stopwords=INQUERY_STOPWORDS, stem=True)

    @classmethod
    def raw(cls) -> "Analyzer":
        """Case-folded tokens only — the sampling client's view."""
        return cls()

    @classmethod
    def stopped(cls) -> "Analyzer":
        """Stopword removal without stemming (used by summarization)."""
        return cls(stopwords=INQUERY_STOPWORDS)

    def analyze(self, text: str) -> list[str]:
        """Return the index terms of ``text``.

        Tokenization is one C-level pass (:meth:`Tokenizer.tokenize`);
        with neither stopping nor stemming — :meth:`raw` — that is all
        of it.  Otherwise each token is mapped through a memo, so
        stopping and stemming run once per *distinct* token.
        """
        tokens = self.tokenizer.tokenize(text)
        if not self.stopwords and not self.stem:
            # The raw pipeline is the identity on tokens — the sampling
            # client's hot path costs one translate pass, nothing per token.
            return tokens
        memo = self._token_memo
        memo_get = memo.get
        terms = []
        append = terms.append
        for token in tokens:
            term = memo_get(token, _UNSEEN)
            if term is _UNSEEN:
                term = memo[token] = self.analyze_token(token)
            if term is not None:
                append(term)
        return terms

    def analyze_query(self, text: str) -> list[str]:
        """The index terms of ``text``, as :meth:`analyze` gives them, memoizing nothing.

        For text whose tokens are mostly seen once — queries: a
        long-running server that memoized them would keep every distinct
        token it was ever asked for.  Each token takes
        :meth:`analyze_token`: the stopword set, then the stemmer's
        cache, which the index build has already filled.
        """
        tokens = self.tokenizer.tokenize(text)
        if not self.stopwords and not self.stem:
            return tokens  # the raw pipeline, as in analyze()
        return [term for term in map(self.analyze_token, tokens) if term is not None]

    def analyze_token(self, token: str) -> str | None:
        """Map one token already produced by this analyzer's tokenizer.

        Exactly the per-token step of :meth:`analyze` (no case folding
        — the tokenizer owns that); ``None`` if the token is stopped.
        Lets batch consumers like the index builder analyze each
        distinct token once instead of once per occurrence.
        """
        if token in self.stopwords:
            return None
        if self.stem:
            return _cached_stem(token)
        return token

    def project_term(self, term: str) -> str | None:
        """Map a single already-tokenized ``term`` through this pipeline.

        Returns ``None`` if the term would be discarded (stopword).  Used
        to project a learned vocabulary into a database's term space for
        fair comparison (paper Section 4.1).
        """
        term = term.lower()
        if term in self.stopwords:
            return None
        if self.stem:
            term = _cached_stem(term)
        return term
