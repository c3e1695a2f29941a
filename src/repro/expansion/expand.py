"""EMIM-weighted co-occurrence query expansion."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.expansion.cooccurrence import SampleCollection
from repro.lm.model import LanguageModel


@dataclass(frozen=True)
class ExpansionTerm:
    """One candidate expansion term with its association score."""

    term: str
    score: float


@dataclass(frozen=True)
class ExpandedQuery:
    """A query plus its expansion terms."""

    original: str
    expansions: tuple[ExpansionTerm, ...]

    @property
    def text(self) -> str:
        """The expanded query string (original terms first)."""
        return " ".join([self.original, *(e.term for e in self.expansions)])


class QueryExpander:
    """Expands queries from a sample collection's co-occurrence patterns.

    Candidate terms are scored by **EMIM** (expected mutual information
    measure) against each query term:

    .. code-block:: text

        emim(q, u) = n(q, u) · log( N · n(q, u) / (n(q) · n(u)) )

    where ``n(·)`` are document frequencies within the collection and
    ``N`` its size.  Scores sum over query terms; negative associations
    are clamped to zero.
    """

    def __init__(self, collection: SampleCollection, min_df: int = 2) -> None:
        if min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {min_df}")
        self.collection = collection
        self.min_df = min_df

    def expand(self, query: str, k: int = 5) -> ExpandedQuery:
        """Return ``query`` with its top ``k`` expansion terms."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        query_terms = self.collection.analyzer.analyze_query(query)
        total = len(self.collection)
        scores: Counter = Counter()
        for query_term in query_terms:
            n_q = self.collection.df(query_term)
            if n_q == 0:
                continue
            for term, n_qu in self.collection.cooccurrence_counts(query_term).items():
                n_u = self.collection.df(term)
                if n_u < self.min_df or len(term) < 3 or term.isdigit():
                    continue
                association = n_qu * math.log(total * n_qu / (n_q * n_u))
                if association > 0:
                    scores[term] += association
        for term in query_terms:
            scores.pop(term, None)
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
        return ExpandedQuery(
            original=query,
            expansions=tuple(ExpansionTerm(term=t, score=s) for t, s in ranked),
        )


def expansion_bias(
    expanded: ExpandedQuery, models: dict[str, LanguageModel]
) -> dict[str, float]:
    """How strongly an expansion favors each database.

    Each expansion term's occurrence mass is split across the databases
    in proportion to its ctf in their language models; a database's
    bias is the score-weighted average of those shares.  Values sum to
    ~1 across databases (terms unknown everywhere contribute nothing).
    An expansion mined from a single database's sample concentrates on
    vocabulary characteristic of that database (its share exceeds
    1/|databases|); an expansion mined from the union of samples
    spreads more evenly — the effect extension experiment Ext-2
    measures.
    """
    total = sum(e.score for e in expanded.expansions)
    bias = {name: 0.0 for name in models}
    if total == 0:
        return bias
    for expansion in expanded.expansions:
        term_mass = sum(model.ctf(expansion.term) for model in models.values())
        if term_mass == 0:
            continue
        for name, model in models.items():
            share = model.ctf(expansion.term) / term_mass
            bias[name] += (expansion.score / total) * share
    return bias
