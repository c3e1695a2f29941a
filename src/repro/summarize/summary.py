"""Top-term summaries of a (learned) language model."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from repro.lm.model import LanguageModel, TermStats
from repro.text.stopwords import INQUERY_STOPWORDS


@dataclass(frozen=True)
class DatabaseSummary:
    """The top terms of one database under one ranking metric."""

    database: str
    rank_by: str
    terms: tuple[TermStats, ...]

    @property
    def words(self) -> list[str]:
        """Just the term strings, in rank order."""
        return [stats.term for stats in self.terms]


def summarize(
    model: LanguageModel,
    k: int = 50,
    rank_by: str = "avg_tf",
    stopwords: frozenset[str] = INQUERY_STOPWORDS,
    min_df: int = 2,
    min_length: int = 3,
) -> DatabaseSummary:
    """Summarize ``model`` by its top ``k`` content terms.

    Follows the paper's Table 4 method: discard stopwords, rank the
    rest by ``rank_by`` (df, ctf, or avg-tf; the paper found avg-tf the
    most informative).  ``min_df`` guards against hapax noise — a term
    seen once in one sampled document has an avg-tf as high as a term
    seen often in every document, so unfiltered avg-tf rankings degrade
    to noise.  ``min_length`` mirrors the index-term conventions used
    throughout the paper.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    ranked = (
        stats
        for stats in model.top_terms(len(model), rank_by)
        if stats.term not in stopwords
        and stats.df >= min_df
        and len(stats.term) >= min_length
        and not stats.term.isdigit()
    )
    return DatabaseSummary(
        database=model.name, rank_by=rank_by, terms=tuple(islice(ranked, k))
    )


def format_summary_grid(summary: DatabaseSummary, columns: int = 5) -> str:
    """Render a summary as the paper's Table 4-style multi-column grid."""
    if columns <= 0:
        raise ValueError(f"columns must be positive, got {columns}")
    rows_per_column = -(-len(summary.terms) // columns) if summary.terms else 0
    lines = [
        f"Top {len(summary.terms)} terms of {summary.database!r} (ranked by {summary.rank_by})"
    ]
    value = {
        "df": lambda s: f"{s.df}",
        "ctf": lambda s: f"{s.ctf}",
        "avg_tf": lambda s: f"{s.avg_tf:.2f}",
    }[summary.rank_by]
    for row in range(rows_per_column):
        cells = []
        for column in range(columns):
            index = column * rows_per_column + row
            if index < len(summary.terms):
                stats = summary.terms[index]
                cells.append(f"{stats.term:<14}{value(stats):>8}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
