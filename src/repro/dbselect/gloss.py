"""The GlOSS family of database selection algorithms.

GlOSS (Gravano, García-Molina & Tomasic — the "Glossary-of-Servers
Server") estimates, from per-database term statistics, how *good* each
database is for a query:

* **bGlOSS** (boolean model): under a term-independence assumption, the
  expected number of documents in database ``i`` matching *all* query
  terms is ``|db_i| · Π_t (df_t / |db_i|)``.
* **vGlOSS** (vector-space model, the ``Max(0)`` estimator): the
  goodness of a database is the total similarity mass its documents are
  expected to contribute, estimated as ``Σ_t df_t · avg_w(t)`` where we
  use the term's average within-document frequency as its average
  weight.

Both consume nothing beyond df/ctf and a document count — the document
count of a *learned* model being the number of documents sampled, the
same sample-size scaling argument the paper makes in Section 3.
"""

from __future__ import annotations

from typing import Mapping

from repro.dbselect.base import DatabaseRanking, analyze_query, finish_ranking
from repro.lm.model import LanguageModel
from repro.text.analyzer import Analyzer


class BGlossSelector:
    """bGlOSS: expected number of documents matching all query terms.

    Parameters
    ----------
    analyzer:
        Query analysis pipeline (raw tokens if ``None``).
    """

    def __init__(self, *, analyzer: Analyzer | None = None) -> None:
        self.analyzer = analyzer

    def rank(self, query: str, models: Mapping[str, LanguageModel]) -> DatabaseRanking:
        """Rank ``models`` for ``query`` by estimated conjunctive matches."""
        if not models:
            raise ValueError("no database models to rank")
        terms = analyze_query(query, self.analyzer)
        scores: dict[str, float] = {}
        for name, model in models.items():
            num_docs = model.documents_seen
            if not terms or num_docs == 0:
                scores[name] = 0.0
                continue
            estimate = float(num_docs)
            for term in terms:
                estimate *= model.df(term) / num_docs
            scores[name] = estimate
        return finish_ranking(query, scores)


class VGlossSelector:
    """vGlOSS Max(0): total expected similarity mass for the query.

    Parameters
    ----------
    analyzer:
        Query analysis pipeline (raw tokens if ``None``).
    """

    def __init__(self, *, analyzer: Analyzer | None = None) -> None:
        self.analyzer = analyzer

    def rank(self, query: str, models: Mapping[str, LanguageModel]) -> DatabaseRanking:
        """Rank ``models`` for ``query`` by ``Σ_t df_t · avg_tf_t``."""
        if not models:
            raise ValueError("no database models to rank")
        terms = analyze_query(query, self.analyzer)
        scores: dict[str, float] = {}
        for name, model in models.items():
            scores[name] = sum(model.df(term) * model.avg_tf(term) for term in terms)
        return finish_ranking(query, scores)
