"""Result and state types for sampling runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.document import Document
from repro.lm.model import LanguageModel


@dataclass(frozen=True)
class Snapshot:
    """A frozen copy of the learned model at a document-count boundary."""

    documents_examined: int
    queries_run: int
    model: LanguageModel


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


@dataclass
class SamplingRun:
    """The complete outcome of one query-based sampling run.

    Attributes
    ----------
    model:
        The final learned language model (raw client-side terms).
    snapshots:
        Periodic model copies, ordered by documents examined, and one
        at the run's end; the learning curves of Figures 1-4 are
        computed from these.
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
