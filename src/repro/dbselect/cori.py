"""The CORI database selection algorithm.

CORI (Callan, Lu & Croft, "Searching Distributed Collections with
Inference Networks", SIGIR 1995) ranks database ``i`` for query term
``t`` with an INQUERY-style belief:

.. code-block:: text

    T = df / (df + 50 + 150 * cw_i / mean_cw)
    I = log((C + 0.5) / cf_t) / log(C + 1.0)
    belief(t, i) = b + (1 - b) * T * I

where ``df`` is the term's document frequency in database ``i``,
``cw_i`` the database's total word count, ``mean_cw`` the mean word
count over all ``C`` databases, ``cf_t`` the number of databases whose
model contains ``t``, and ``b`` the default belief (0.4).  A query's
score is the mean belief over its terms.

The statistics CORI consumes — df per term and total word count — are
exactly what a learned language model provides (``df`` and
``tokens_seen``), which is why query-based sampling plugs straight into
it.  When models are learned from samples of different sizes, the
``cw`` statistics are sample sizes rather than collection sizes; the
paper (Section 3) argues the resulting scaling is comparable, and the
Ext-1 experiment measures how well that holds.

A learned model is already the index a selection query reads — a
term → ``df`` table — so :class:`CoriSelector` reads it directly and
keeps no state derived from the models: per query it counts each
term's ``cf`` once, then asks every database's model for the terms'
``df``.  Nothing is compiled, and nothing grows with databases ×
vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.dbselect.base import DatabaseRanking, analyze_query, finish_ranking
from repro.lm.model import LanguageModel
from repro.text.analyzer import Analyzer


@dataclass(frozen=True)
class CoriParameters:
    """The CORI belief-formula constants, shared by every implementation.

    Parameters
    ----------
    default_belief:
        ``b`` — the belief assigned to a term absent from a database's
        model (and the floor every present term builds on).
    df_base, df_scale:
        The ``50`` and ``150`` of the T-component denominator
        ``df + df_base + df_scale * cw / mean_cw``.
    """

    default_belief: float = 0.4
    df_base: float = 50.0
    df_scale: float = 150.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.default_belief < 1.0:
            raise ValueError("default_belief must be in [0, 1)")
        if self.df_base < 0 or self.df_scale < 0:
            raise ValueError("df_base and df_scale must be non-negative")


def mean_collection_weight(models: Mapping[str, LanguageModel]) -> float:
    """Mean ``tokens_seen`` over the models (1.0 if degenerate).

    Shared with the reference selector under ``tests/reference/`` so
    both derive bit-identical ``mean_cw`` values from the same models.
    """
    mean_cw = sum(model.tokens_seen for model in models.values()) / len(models)
    if mean_cw <= 0:
        return 1.0
    return mean_cw


class CoriSelector:
    """CORI ranking over per-database language models.

    Parameters
    ----------
    params:
        The belief-formula constants (default :class:`CoriParameters`).
    analyzer:
        Query analysis pipeline (raw tokens if ``None``).
    """

    def __init__(
        self,
        params: CoriParameters | None = None,
        *,
        analyzer: Analyzer | None = None,
    ) -> None:
        self.params = params or CoriParameters()
        self.analyzer = analyzer

    def rank(self, query: str, models: Mapping[str, LanguageModel]) -> DatabaseRanking:
        """Rank ``models`` for ``query``; empty queries score all zero.

        O(databases · terms): each query term's ``cf`` and I component
        are computed once, each database's ``df_scale * cw / mean_cw``
        once, and the inner loop is one ``df`` lookup and one belief.
        The beliefs are added in query-term order, grouped as the
        module docstring writes them.
        """
        if not models:
            raise ValueError("no database models to rank")
        terms = analyze_query(query, self.analyzer)
        if not terms:
            return finish_ranking(query, dict.fromkeys(models, 0.0))
        params = self.params
        default_belief = params.default_belief
        present_scale = 1.0 - default_belief
        df_base = params.df_base
        num_databases = len(models)
        mean_cw = mean_collection_weight(models)
        log_databases = math.log(num_databases + 1.0)
        # (term, I component) per query term.  A term no model holds
        # has df 0 everywhere, so its placeholder 0.0 is never read.
        weighted = []
        for term in terms:
            cf = sum(1 for model in models.values() if term in model)
            i_component = math.log((num_databases + 0.5) / cf) / log_databases if cf else 0.0
            weighted.append((term, i_component))
        scores: dict[str, float] = {}
        for name, model in models.items():
            extra = params.df_scale * (model.tokens_seen or 1) / mean_cw
            df_of = model.df
            beliefs = [
                default_belief
                if (df := df_of(term)) == 0
                else default_belief + present_scale * (df / (df + df_base + extra)) * i_component
                for term, i_component in weighted
            ]
            scores[name] = sum(beliefs) / len(beliefs)
        return finish_ranking(query, scores)
