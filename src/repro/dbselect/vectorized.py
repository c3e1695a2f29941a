"""Vectorized CORI: the database-selection hot path, compiled to numpy.

The scalar :class:`~repro.dbselect.cori.CoriSelector` re-walks every
model for every query — O(databases² · terms) per query because the
``cf`` statistic (how many databases contain a term) is itself a scan.
A selection *service* answers the same formula over the same models
thousands of times between model refreshes, so :class:`CoriScorer`
compiles the models once per model epoch into term-statistics arrays:

* ``df`` — a ``databases × vocabulary`` document-frequency matrix;
* ``cf`` — per-term database frequency (one ``(df > 0).sum`` at
  compile time);
* ``cw`` — per-database token counts and their mean.

Scoring a query is then a gather of the query terms' columns plus a
handful of array operations, independent of how the models are stored.
The formula constants come from the same
:class:`~repro.dbselect.cori.CoriParameters` the scalar selector uses,
and ``tests/test_cori_scorer.py`` sweeps random synthetic model sets
asserting both implementations produce identical rankings with scores
within 1e-9 — the speedup is never bought with changed results.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.dbselect.base import DatabaseRanking, analyze_query, finish_ranking
from repro.dbselect.cori import CoriParameters, mean_collection_weight
from repro.lm.model import LanguageModel
from repro.text.analyzer import Analyzer

__all__ = ["CoriScorer"]


class CoriScorer:
    """CORI ranking over models compiled to term-statistics matrices.

    Construction is the per-model-epoch compile step; :meth:`rank` (and
    the allocation-light :meth:`score_terms`) are the per-query hot
    path.  A scorer is immutable after construction — when models
    change, compile a fresh scorer (the serving frontend does this
    whenever the service's model epoch moves).

    Parameters
    ----------
    models:
        Name → language model, as handed to any selector's ``rank``.
    params:
        Belief-formula constants (default :class:`CoriParameters`),
        shared with the scalar :class:`~repro.dbselect.cori.CoriSelector`.
    analyzer:
        Query analysis pipeline (raw tokens if ``None``).
    """

    def __init__(
        self,
        models: Mapping[str, LanguageModel],
        params: CoriParameters | None = None,
        *,
        analyzer: Analyzer | None = None,
    ) -> None:
        if not models:
            raise ValueError("no database models to rank")
        self.params = params or CoriParameters()
        self.analyzer = analyzer
        self.names: tuple[str, ...] = tuple(models)
        self.num_databases = len(models)
        mean_cw = mean_collection_weight(models)
        # Column index per known term, over the union vocabulary.
        self._column: dict[str, int] = {}
        for model in models.values():
            for term in model:
                if term not in self._column:
                    self._column[term] = len(self._column)
        df = np.zeros((self.num_databases, len(self._column)), dtype=np.float64)
        column_of = self._column.__getitem__
        for row, model in enumerate(models.values()):
            # Two passes over the model's terms, no per-term object.
            columns = np.fromiter(map(column_of, model), dtype=np.intp, count=len(model))
            df[row, columns] = np.fromiter(
                map(model.df, model), dtype=np.float64, count=len(model)
            )
        self._df = df
        self._cf = (df > 0).sum(axis=0).astype(np.float64)
        cw = np.array(
            [model.tokens_seen or 1 for model in models.values()], dtype=np.float64
        )
        # The T-component denominator's per-database constant,
        # df_base + df_scale * cw / mean_cw, grouped exactly as the
        # scalar selector computes it so results stay bit-comparable.
        self._t_denominator_base = (
            self.params.df_base + self.params.df_scale * cw / mean_cw
        )[:, np.newaxis]
        self._i_scale = 1.0 / math.log(self.num_databases + 1.0)
        self._i_numerator = self.num_databases + 0.5

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct terms across all compiled models."""
        return len(self._column)

    def score_terms(self, terms: Sequence[str]) -> np.ndarray:
        """Scores for every database given pre-analyzed query ``terms``.

        Returns a float64 vector aligned with :attr:`names`.  Terms no
        model contains contribute the default belief to every database,
        exactly like the scalar path's ``df == 0 or cf == 0`` branch.
        """
        params = self.params
        if not terms:
            return np.zeros(self.num_databases, dtype=np.float64)
        columns = [self._column.get(term, -1) for term in terms]
        known = [column for column in columns if column >= 0]
        if not known:
            return np.full(self.num_databases, params.default_belief, dtype=np.float64)
        df = self._df[:, known]
        t_component = df / (df + self._t_denominator_base)
        i_component = np.log(self._i_numerator / self._cf[known]) * self._i_scale
        beliefs = np.where(
            df > 0,
            params.default_belief
            + (1.0 - params.default_belief) * t_component * i_component,
            params.default_belief,
        )
        # Unknown terms contribute default_belief to every database;
        # fold them in as a constant instead of materializing columns.
        unknown = len(columns) - len(known)
        total = beliefs.sum(axis=1) + params.default_belief * unknown
        return total / len(columns)

    def rank(
        self, query: str, models: Mapping[str, LanguageModel] | None = None
    ) -> DatabaseRanking:
        """Rank the compiled databases for ``query``.

        ``models`` is accepted (and ignored) so the scorer satisfies the
        :class:`~repro.dbselect.base.DatabaseSelector` protocol and can
        replace a scalar selector anywhere — its models are the ones it
        was compiled from.
        """
        scores = self.score_terms(analyze_query(query, self.analyzer))
        return finish_ranking(query, dict(zip(self.names, scores.tolist())))
