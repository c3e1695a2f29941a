"""Kullback-Leibler divergence database ranking.

A language-modeling selector that post-dates the paper but became a
standard baseline (e.g. Xu & Croft, SIGIR 1999; Si et al., CIKM 2002):
score database ``i`` by the query likelihood under the database's
smoothed unigram model,

.. code-block:: text

    score(q, i) = Σ_t log( λ · p(t | db_i) + (1 - λ) · p(t | G) )

where ``p(t | db_i) = ctf_t / tokens_i`` and ``G`` is the union of all
database models (the background).  Ranking by query log-likelihood is
rank-equivalent to ranking by negative KL divergence from the query's
empirical distribution, hence the name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.dbselect.base import DatabaseRanking, analyze_query, finish_ranking
from repro.lm.model import LanguageModel
from repro.text.analyzer import Analyzer


@dataclass(frozen=True)
class KlParameters:
    """The KL selector's constants, in the shared parameter-dataclass idiom.

    Parameters
    ----------
    smoothing:
        ``λ`` — the mixture weight of the database model against the
        background model (Jelinek-Mercer smoothing).
    """

    smoothing: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 < self.smoothing < 1.0:
            raise ValueError("smoothing must be in (0, 1)")


class KlSelector:
    """Smoothed query-likelihood (negative-KL) ranking.

    Parameters
    ----------
    params:
        The selector constants (default :class:`KlParameters`).
    analyzer:
        Query analysis pipeline (raw tokens if ``None``).
    """

    def __init__(
        self,
        params: KlParameters | None = None,
        *,
        analyzer: Analyzer | None = None,
    ) -> None:
        self.params = params or KlParameters()
        self.analyzer = analyzer

    def rank(self, query: str, models: Mapping[str, LanguageModel]) -> DatabaseRanking:
        """Rank ``models`` for ``query`` by smoothed query likelihood."""
        if not models:
            raise ValueError("no database models to rank")
        terms = analyze_query(query, self.analyzer)
        background_tokens = sum(model.tokens_seen for model in models.values())
        background_ctf = {
            term: sum(model.ctf(term) for model in models.values()) for term in set(terms)
        }
        floor = 1.0 / max(background_tokens, 1) / 10.0
        smoothing = self.params.smoothing
        scores: dict[str, float] = {}
        for name, model in models.items():
            if not terms:
                scores[name] = 0.0
                continue
            tokens = model.tokens_seen or 1
            log_likelihood = 0.0
            for term in terms:
                p_db = model.ctf(term) / tokens
                p_background = (
                    background_ctf[term] / background_tokens if background_tokens else 0.0
                )
                probability = smoothing * p_db + (1.0 - smoothing) * p_background
                log_likelihood += math.log(max(probability, floor))
            scores[name] = log_likelihood
        return finish_ranking(query, scores)
