"""The CORI selector as it was before ``cf`` was hoisted: the referee.

:func:`cori_rank_scalar` is :class:`~repro.dbselect.cori.CoriSelector`'s
``rank`` and ``_belief`` as they stood when each database's loop
recounted every query term's ``cf`` over all models — O(databases² ·
terms) per query, and obviously the formula of the module docstring.
``tests/test_cori.py`` asserts the selector's scores equal these to the
bit; ``benchmarks/test_bench_floors.py`` times the selector against it.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.dbselect.base import DatabaseRanking, analyze_query, finish_ranking
from repro.dbselect.cori import CoriParameters, mean_collection_weight
from repro.lm.model import LanguageModel
from repro.text.analyzer import Analyzer


def cori_rank_scalar(
    query: str,
    models: Mapping[str, LanguageModel],
    params: CoriParameters | None = None,
    *,
    analyzer: Analyzer | None = None,
) -> DatabaseRanking:
    """Rank ``models`` for ``query``; empty queries score all zero."""
    params = params or CoriParameters()
    if not models:
        raise ValueError("no database models to rank")
    terms = analyze_query(query, analyzer)
    num_databases = len(models)
    mean_cw = mean_collection_weight(models)
    scores: dict[str, float] = {}
    for name, model in models.items():
        if not terms:
            scores[name] = 0.0
            continue
        beliefs = []
        for term in terms:
            cf = sum(1 for m in models.values() if term in m)
            beliefs.append(_belief(params, term, model, cf, num_databases, mean_cw))
        scores[name] = sum(beliefs) / len(beliefs)
    return finish_ranking(query, scores)


def _belief(
    params: CoriParameters,
    term: str,
    model: LanguageModel,
    cf: int,
    num_databases: int,
    mean_cw: float,
) -> float:
    df = model.df(term)
    if df == 0 or cf == 0:
        return params.default_belief
    cw = model.tokens_seen or 1
    t_component = df / (df + params.df_base + params.df_scale * cw / mean_cw)
    i_component = math.log((num_databases + 0.5) / cf) / math.log(num_databases + 1.0)
    return params.default_belief + (1.0 - params.default_belief) * t_component * i_component
