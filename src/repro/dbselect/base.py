"""Common types for database selection."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Protocol, Sequence

from repro.lm.model import LanguageModel
from repro.text.analyzer import Analyzer


@dataclass(frozen=True)
class RankedDatabase:
    """One entry of a database ranking."""

    name: str
    score: float


@dataclass(frozen=True)
class DatabaseRanking:
    """A full ranking of databases for one query."""

    query: str
    entries: tuple[RankedDatabase, ...]

    @property
    def names(self) -> list[str]:
        """Database names in rank order."""
        return [entry.name for entry in self.entries]

    def top(self, n: int) -> list[str]:
        """The top ``n`` database names."""
        return self.names[:n]


class DatabaseSelector(Protocol):
    """Ranks databases, given per-database language models."""

    def rank(
        self, query: str, models: Mapping[str, LanguageModel]
    ) -> DatabaseRanking:
        """Rank the databases in ``models`` for ``query``."""
        ...  # pragma: no cover - protocol


#: The pipeline of a selector given none (raw tokens keep no state).
_RAW = Analyzer.raw()


def analyze_query(query: str, analyzer: Analyzer | None) -> Sequence[str]:
    """Analyze a query with ``analyzer`` (raw tokens if ``None``), memoizing nothing."""
    return (analyzer or _RAW).analyze_query(query)


def finish_ranking(query: str, scores: Mapping[str, float]) -> DatabaseRanking:
    """Build a deterministic ranking: score desc, then name asc."""
    # Two stable sorts on C-level keys: by name, then by score with
    # ``reverse``, which keeps equal scores in name order.
    ordered = sorted(scores.items(), key=itemgetter(0))
    ordered.sort(key=itemgetter(1), reverse=True)
    return DatabaseRanking(query, tuple([RankedDatabase(name, score) for name, score in ordered]))
