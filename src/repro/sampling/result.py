"""Result and state types for sampling runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from repro.corpus.document import Document
from repro.lm.compare import Join, metric_values, rdiff
from repro.lm.model import LanguageModel


class Snapshot:
    """The learned model at a document-count boundary, kept as columns.

    ``Snapshot(documents_examined, queries_run, model)`` records
    ``model`` as it is now without copying its dicts: the vocabulary
    size, the df and ctf columns as narrow read-only arrays (one row
    per term, in the model's term order), ``documents_seen``,
    ``tokens_seen`` and the name.  The terms themselves are not copied
    either.  A model's vocabulary only grows and keeps its order, so
    the snapshot's terms are the first :attr:`vocabulary_size` keys of
    the model's own term table, which the snapshot holds a reference
    to.  Every snapshot of one sampling run therefore shares the live
    model's table, and its terms keep the live model's insertion order;
    a snapshot restored from a checkpoint holds the sorted table of its
    own text.

    :attr:`model` builds an equal :class:`LanguageModel` (in dicts) on
    every access and caches nothing; the learning curves
    (:func:`repro.experiments.runner.measure_run`) and rdiff
    (:func:`snapshot_rdiff`) read the columns instead.
    """

    __slots__ = (
        "documents_examined",
        "queries_run",
        "name",
        "documents_seen",
        "tokens_seen",
        "vocabulary_size",
        "df",
        "ctf",
        "_table",
    )

    def __init__(self, documents_examined: int, queries_run: int, model: LanguageModel) -> None:
        self.documents_examined = documents_examined
        self.queries_run = queries_run
        self.name = model.name
        self.documents_seen = model.documents_seen
        self.tokens_seen = model.tokens_seen
        # A model's two tables list the same terms in the same order.
        self.df, self.ctf = model.count_columns()
        self.vocabulary_size = self.df.size
        self._table: Iterable[str] = model._df

    def terms(self) -> Iterator[str]:
        """This snapshot's terms, in the order of its :attr:`df` / :attr:`ctf` rows."""
        return islice(self._table, self.vocabulary_size)

    def shares_terms_with(self, other: "Snapshot") -> bool:
        """True when both snapshots' terms are prefixes of one term table."""
        return self._table is other._table

    def values(self, metric: str) -> np.ndarray:
        """``metric`` (df, ctf or avg_tf) per row, as float64 (see :func:`metric_values`)."""
        return metric_values(metric, self.df, self.ctf)

    @property
    def model(self) -> LanguageModel:
        """The model at this snapshot, built from the columns on each access."""
        model = LanguageModel.from_statistics(self.name, list(self.terms()), self.df, self.ctf)
        model.documents_seen = self.documents_seen
        model.tokens_seen = self.tokens_seen
        return model

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot(documents_examined={self.documents_examined}, "
            f"queries_run={self.queries_run}, terms={self.vocabulary_size})"
        )


def snapshot_rdiff(first: Snapshot, second: Snapshot, metric: str = "df") -> float:
    """``rdiff(first.model, second.model, metric)``, read off the columns where it can.

    Two snapshots of one run share a term table, so their common terms
    are the shorter prefix and the join is a slice of each column (in
    the run's term order, which rdiff does not depend on).  A snapshot
    restored from a checkpoint goes through :func:`~repro.lm.compare.rdiff`'s
    join by term, on the models.
    """
    if first.shares_terms_with(second):
        common = min(first.vocabulary_size, second.vocabulary_size)
        return Join(
            first.df[:common], first.ctf[:common], second.df[:common], second.ctf[:common]
        ).rdiff(metric)
    return rdiff(first.model, second.model, metric)


@dataclass(frozen=True)
class QueryRecord:
    """What one query contributed to the run."""

    term: str
    documents_returned: int
    new_documents: int
    #: Transport error class name when the query was abandoned by the
    #: retry layer (None for queries that executed normally).
    error: str | None = None

    @property
    def failed(self) -> bool:
        """A failed query returned no documents (paper Section 5.2)."""
        return self.documents_returned == 0

    @property
    def abandoned(self) -> bool:
        """True when the query died in transport rather than returning."""
        return self.error is not None


@dataclass
class SamplerState:
    """The sampler's observable state, visible to stopping criteria.

    Everything here is information a real sampling client possesses:
    its own learned model, its own counters, and its own snapshots.
    Nothing refers to database ground truth.
    """

    model: LanguageModel
    documents_examined: int = 0
    queries_run: int = 0
    failed_queries: int = 0
    snapshots: list[Snapshot] = field(default_factory=list)
    #: (metric, id(first), id(second)) -> (first, second, rdiff); each
    #: entry holds its pair, so no id is reused while it is here.
    _rdiffs: dict[tuple[str, int, int], tuple[Snapshot, Snapshot, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def recent_rdiffs(self, count: int, metric: str = "df") -> list[float]:
        """rdiff of each of the last ``count`` consecutive snapshot pairs, oldest first.

        Fewer when there are fewer pairs.  Each pair is computed once,
        the first time it is asked for after its later snapshot is
        taken, and remembered for the life of this state.
        """
        recent = self.snapshots[-(count + 1) :]
        values = []
        for first, second in zip(recent, recent[1:]):
            key = (metric, id(first), id(second))
            entry = self._rdiffs.get(key)
            if entry is None:
                entry = self._rdiffs[key] = (first, second, snapshot_rdiff(first, second, metric))
            values.append(entry[2])
        return values


@dataclass
class SamplingRun:
    """The complete outcome of one query-based sampling run.

    Attributes
    ----------
    model:
        The final learned language model (raw client-side terms).
    snapshots:
        The model every ``snapshot_interval`` documents and at the
        run's end, ordered by documents examined, each kept as columns
        (:class:`Snapshot`); the learning curves of Figures 1-4 and the
        rdiff series are computed from these.
    queries:
        Per-query records in execution order.
    stop_reason:
        Which condition ended the run (a criterion description,
        ``"vocabulary_exhausted"``, ``"query_budget_guard"``, or
        ``"database_unreachable"`` when the transport layer's circuit
        breaker gave up on the database).
    documents:
        The sampled documents themselves (when the sampler is
        configured to keep them — the default).  The paper's Sections
        7-8 build summarization and query-expansion capabilities
        directly on this sample.
    """

    model: LanguageModel
    snapshots: list[Snapshot]
    queries: list[QueryRecord]
    stop_reason: str
    documents: list[Document] = field(default_factory=list)

    @property
    def documents_examined(self) -> int:
        """Unique documents folded into the model."""
        return self.model.documents_seen

    @property
    def queries_run(self) -> int:
        """Total queries issued, including failed ones."""
        return len(self.queries)

    @property
    def failed_queries(self) -> int:
        """Queries that returned no documents."""
        return sum(1 for record in self.queries if record.failed)

    @property
    def abandoned_queries(self) -> int:
        """Queries the transport layer abandoned after exhausting retries."""
        return sum(1 for record in self.queries if record.abandoned)

    @property
    def query_terms(self) -> list[str]:
        """The query terms in execution order."""
        return [record.term for record in self.queries]

    def snapshot_at(self, documents: int) -> Snapshot:
        """The snapshot taken at exactly ``documents`` examined.

        Raises ``KeyError`` if the run never crossed that boundary.
        """
        for snapshot in self.snapshots:
            if snapshot.documents_examined == documents:
                return snapshot
        raise KeyError(f"no snapshot at {documents} documents")
