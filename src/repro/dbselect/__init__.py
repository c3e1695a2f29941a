"""Database selection algorithms — the consumers of language models.

The paper's motivation (Sections 1-2): given language models for many
databases, a selection algorithm ranks the databases by their likelihood
of satisfying a query.  This package implements the era's standard
algorithms so the repo can demonstrate, end to end, that *learned*
language models drive selection about as well as *actual* ones (the
claim the paper defers to follow-on work, reproduced here as extension
experiment Ext-1):

* :class:`CoriSelector` — the CORI inference-net ranking (Callan,
  Lu & Croft, SIGIR 1995), the algorithm behind the paper's own group,
  reading each model's ``df`` table directly (constants in
  :class:`CoriParameters`);
* :class:`BGlossSelector` / :class:`VGlossSelector` — boolean and
  vector-space GlOSS (Gravano, García-Molina & Tomasic);
* :class:`KlSelector` — Kullback-Leibler divergence ranking, a later
  standard baseline;
* :class:`ReddeSelector` — ReDDE (Si & Callan, SIGIR 2003), ranking by
  relevant-document estimates off a central index of the samples;
* :func:`recall_at_n` and :class:`SelectionEvaluation` — the R_n
  evaluation methodology comparing a ranking to the best possible one.

Each selector is built from its class; those with constants take them
as one frozen parameter dataclass (:class:`CoriParameters`,
:class:`KlParameters`, :class:`ReddeParameters`).
"""

from repro.dbselect.base import DatabaseRanking, DatabaseSelector, RankedDatabase
from repro.dbselect.cori import CoriParameters, CoriSelector
from repro.dbselect.evaluate import SelectionEvaluation, evaluate_rankings, recall_at_n
from repro.dbselect.gloss import BGlossSelector, VGlossSelector
from repro.dbselect.kl import KlParameters, KlSelector
from repro.dbselect.redde import ReddeParameters, ReddeSelector

__all__ = [
    "BGlossSelector",
    "CoriParameters",
    "CoriSelector",
    "DatabaseRanking",
    "DatabaseSelector",
    "KlParameters",
    "KlSelector",
    "RankedDatabase",
    "ReddeParameters",
    "ReddeSelector",
    "SelectionEvaluation",
    "VGlossSelector",
    "evaluate_rankings",
    "recall_at_n",
]
