"""The query-based sampler (paper Section 3).

:class:`QueryBasedSampler` drives the run-query / retrieve / update
loop against any object exposing the minimal database surface
(``run_query(query, max_docs) -> list[Document]``).  Configuration
captures every parameter the paper studies:

* ``docs_per_query`` — N, the documents examined per query (Section
  5.1; paper baseline 4);
* the term-selection ``strategy`` (Section 5.2; paper baseline random
  from the learned model);
* a ``bootstrap`` selector supplying the initial query term (and any
  term needed while the learned model is empty — the paper draws it at
  random from a reference language model);
* the ``stopping`` criterion (Section 6);
* ``unique_documents`` — whether a document retrieved twice counts
  once (the paper's accounting) or every time (ablation Ext-3).

The sampler is **resumable**: :meth:`QueryBasedSampler.run` continues
from wherever the previous call stopped, so the multi-database
:class:`~repro.sampling.pool.SamplingPool` grows a model past its share
by calling ``run`` with a larger budget, and a checkpointed run
(:meth:`QueryBasedSampler.state_dict`) picks up where a killed one
stopped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Mapping, Protocol

from repro.backend import SearchableDatabase
from repro.corpus.document import Document
from repro.lm.io import dumps_language_model, loads_language_model
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.result import QueryRecord, SamplerState, SamplingRun, Snapshot
from repro.sampling.selection import QueryTermSelector, RandomFromLearned
from repro.sampling.stopping import MaxDocuments, StoppingCriterion
from repro.sampling.transport import CircuitOpenError, ServerError
from repro.text.analyzer import Analyzer
from repro.utils.rand import ensure_rng

__all__ = [
    "CheckpointSink",
    "QueryBasedSampler",
    "SamplerConfig",
    "SearchableDatabase",
]


class CheckpointSink(Protocol):
    """Receives run state at safe boundaries for durable persistence.

    Implemented by :class:`repro.store.SamplerCheckpointer`; the
    sampler calls :meth:`maybe_save` after every completed query and
    :meth:`save` when a run ends, always at a consistent state
    boundary (never mid-query).  Whoever builds the sampler calls
    :meth:`resume` once before running it.
    """

    def resume(self, sampler: "QueryBasedSampler") -> bool:
        """Restore a saved state into ``sampler``; ``True`` if there was one."""
        ...  # pragma: no cover - protocol

    def maybe_save(self, sampler: "QueryBasedSampler") -> None:
        """Persist if the sink's cadence says it is time."""
        ...  # pragma: no cover - protocol

    def save(self, sampler: "QueryBasedSampler") -> None:
        """Persist unconditionally."""
        ...  # pragma: no cover - protocol


def _document_to_dict(document: Document) -> dict[str, Any]:
    return {
        "doc_id": document.doc_id,
        "text": document.text,
        "title": document.title,
        "topic": document.topic,
    }


def _document_from_dict(data: Mapping[str, Any]) -> Document:
    return Document(
        doc_id=data["doc_id"],
        text=data["text"],
        title=data.get("title", ""),
        topic=data.get("topic"),
    )


@dataclass(frozen=True)
class SamplerConfig:
    """Tunable parameters of a sampling run.

    Parameters
    ----------
    docs_per_query:
        N, the number of top documents examined per query.
    snapshot_interval:
        Take a model snapshot every this many documents (50 in the
        paper's convergence analysis).
    unique_documents:
        Skip documents already examined (paper accounting).
    max_total_queries:
        Hard safety budget: the run always ends after this many
        queries even if no stopping criterion fired (prevents runaway
        loops against tiny or hostile databases).
    keep_documents:
        Retain the sampled documents on the :class:`SamplingRun` (the
        paper's summarization and query-expansion capabilities consume
        them); disable to minimise memory on very large samples.
    """

    docs_per_query: int = 4
    snapshot_interval: int = 50
    unique_documents: bool = True
    max_total_queries: int = 5_000
    keep_documents: bool = True

    def __post_init__(self) -> None:
        if self.docs_per_query <= 0:
            raise ValueError("docs_per_query must be positive")
        if self.snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        if self.max_total_queries <= 0:
            raise ValueError("max_total_queries must be positive")


class QueryBasedSampler:
    """Learns a database's language model by sampling it with queries.

    Parameters
    ----------
    database:
        Anything satisfying :class:`SearchableDatabase`.
    strategy:
        Query-term selector for steady state (default: the paper's
        baseline, random from the learned model).
    bootstrap:
        Selector used for the first query and whenever ``strategy``
        cannot produce a term (e.g. the learned model is empty or
        exhausted).  Required because the learned model starts empty.
    stopping:
        Default stopping criterion for :meth:`run` (the paper's
        300-document budget if omitted).
    analyzer:
        The *client's* text pipeline applied to retrieved documents
        (default: raw case-folded tokens, as in the paper).
    config:
        See :class:`SamplerConfig`.
    seed:
        Seed for the strategy's random choices.
    recorder:
        Observability sink (:mod:`repro.obs`): one span per
        :meth:`run` call and per query.  The default no-op recorder
        keeps the sampling loop overhead-free.
    """

    def __init__(
        self,
        database: SearchableDatabase,
        bootstrap: QueryTermSelector,
        strategy: QueryTermSelector | None = None,
        stopping: StoppingCriterion | None = None,
        analyzer: Analyzer | None = None,
        config: SamplerConfig = SamplerConfig(),
        seed: int = 0,
        name: str | None = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.database = database
        self.recorder = recorder
        self.bootstrap = bootstrap
        self.strategy = strategy or RandomFromLearned()
        self.stopping = stopping or MaxDocuments(300)
        self.analyzer = analyzer or Analyzer.raw()
        self.config = config
        self.seed = seed
        self.name = name or getattr(database, "name", "database")
        # Mutable run state, created on first run() so the sampler is
        # resumable across calls.
        self._rng = ensure_rng(seed)
        self._model = LanguageModel(name=f"{self.name}-learned")
        self._state = SamplerState(model=self._model)
        self._queries: list[QueryRecord] = []
        self._used_terms: set[str] = set()
        self._seen_doc_ids: set[str] = set()
        self._kept_documents: list[Document] = []
        self._next_snapshot = config.snapshot_interval
        self._exhausted = False
        # Unconsumed tail of a query truncated by a mid-query budget
        # stop; consumed first on resume so stepped runs match one-shot
        # runs exactly.
        self._pending: list[Document] = []
        self._pending_query_index: int = -1

    # -- observable progress ----------------------------------------------

    @property
    def documents_examined(self) -> int:
        """Unique documents folded into the model so far."""
        return self._state.documents_examined

    @property
    def queries_run(self) -> int:
        """Queries issued so far (failed queries included)."""
        return self._state.queries_run

    @property
    def model(self) -> LanguageModel:
        """The learned model (live — snapshot via ``model.copy()``)."""
        return self._model

    @property
    def snapshots(self) -> list[Snapshot]:
        """Snapshots taken so far, one every ``snapshot_interval`` documents."""
        return self._state.snapshots

    # -- the sampling loop ---------------------------------------------------

    def run(
        self,
        stopping: StoppingCriterion | None = None,
        *,
        checkpoint: CheckpointSink | None = None,
    ) -> SamplingRun:
        """Sample until ``stopping`` (or the default criterion) fires.

        Resumable: a second call continues from the current state, so
        ``run(MaxDocuments(100))`` followed by ``run(MaxDocuments(200))``
        is equivalent to a single 200-document run.

        ``checkpoint`` (a :class:`CheckpointSink`, e.g.
        :class:`repro.store.SamplerCheckpointer`) is offered the run
        state after every completed query and once when the run ends;
        a process killed mid-run resumes bit-identically from the last
        persisted boundary via :meth:`load_state_dict`.
        """
        criterion = stopping or self.stopping
        with self.recorder.span("sample_run", database=self.name) as run_span:
            result = self._run(criterion, checkpoint)
            run_span.set(
                documents_examined=result.documents_examined,
                queries_run=result.queries_run,
                stop_reason=result.stop_reason,
            )
        return result

    def _run(
        self, criterion: StoppingCriterion, checkpoint: CheckpointSink | None = None
    ) -> SamplingRun:
        state = self._state
        recorder = self.recorder
        stop_reason: str | None = None

        if criterion.should_stop(state):
            stop_reason = criterion.describe()
        elif self._exhausted:
            stop_reason = "vocabulary_exhausted"
        elif self._pending:
            # Finish the query a previous run truncated mid-results.  That
            # query is already counted in queries_run, so snapshots taken
            # while absorbing the tail must not add an in-flight +1.
            new_documents, budget_hit, rest = self._absorb(
                self._pending, criterion, query_counted=True
            )
            self._pending = rest
            if new_documents:
                record = self._queries[self._pending_query_index]
                self._queries[self._pending_query_index] = replace(
                    record, new_documents=record.new_documents + new_documents
                )
            if budget_hit:
                stop_reason = criterion.describe()

        while stop_reason is None:
            term = self._next_term()
            if term is None:
                self._exhausted = True
                stop_reason = "vocabulary_exhausted"
                break
            self._used_terms.add(term)
            error_name: str | None = None
            unreachable = False
            with recorder.span("query", database=self.name, term=term) as query_span:
                try:
                    documents = self.database.run_query(
                        term, max_docs=self.config.docs_per_query
                    )
                except ServerError as error:
                    # An abandoned query costs its term and counts as failed,
                    # but never crashes the run (transport contract).
                    documents = []
                    error_name = type(error).__name__
                    unreachable = isinstance(error, CircuitOpenError) or bool(
                        getattr(self.database, "unreachable", False)
                    )
                new_documents, budget_hit, rest = self._absorb(documents, criterion)
                if recorder.enabled:
                    query_span.set(
                        documents_returned=len(documents),
                        new_documents=new_documents,
                        bytes_returned=sum(d.size_bytes for d in documents),
                    )
                    if error_name is not None:
                        query_span.set(error=error_name)
            self._queries.append(
                QueryRecord(
                    term=term,
                    documents_returned=len(documents),
                    new_documents=new_documents,
                    error=error_name,
                )
            )
            state.queries_run += 1
            if not documents:
                state.failed_queries += 1
            if budget_hit:
                self._pending = rest
                self._pending_query_index = len(self._queries) - 1
                stop_reason = criterion.describe()
            elif unreachable:
                stop_reason = "database_unreachable"
            elif criterion.should_stop(state):
                stop_reason = criterion.describe()
            elif state.queries_run >= self.config.max_total_queries:
                stop_reason = "query_budget_guard"
            if checkpoint is not None:
                checkpoint.maybe_save(self)

        if checkpoint is not None:
            checkpoint.save(self)
        return self.current_run(stop_reason)

    def current_run(self, stop_reason: str) -> SamplingRun:
        """The sampler's accumulated state packaged as a run result.

        Exactly what :meth:`run` would return had it just stopped with
        ``stop_reason``; the pool uses it to take up a share this
        sampler already filled.  The snapshots end with one at the
        current document count, so curves always include the end point;
        it is the run's alone, not the sampler's (:attr:`snapshots`), so
        a run continued later snapshots where a single run would.
        """
        snapshots = list(self._state.snapshots)
        if not snapshots or snapshots[-1].documents_examined != self.documents_examined:
            snapshots.append(
                Snapshot(
                    documents_examined=self.documents_examined,
                    queries_run=self.queries_run,
                    model=self._model.copy(),
                )
            )
        return SamplingRun(
            model=self._model,
            snapshots=snapshots,
            queries=list(self._queries),
            stop_reason=stop_reason,
            documents=list(self._kept_documents),
        )

    def _absorb(
        self,
        documents: list[Document],
        criterion: StoppingCriterion,
        query_counted: bool = False,
    ) -> tuple[int, bool, list[Document]]:
        """Fold documents into the model until the criterion fires.

        Returns (new documents absorbed, whether the criterion fired
        mid-list, the unconsumed tail).  Stopping the moment the
        criterion is met keeps runs at exact document budgets; the tail
        is preserved so a resumed run loses nothing.  ``query_counted``
        marks the pending tail of a previous run, whose query is
        already in ``queries_run`` — snapshots then skip the in-flight
        +1 so stepped and one-shot runs report identical counts.

        Model updates are folded in batches via
        :meth:`~repro.lm.model.LanguageModel.add_documents`: documents
        accumulate between snapshot/stop boundaries and are flushed
        before any snapshot is copied and before returning, so
        snapshots and results always see a fully up-to-date model.
        (State *counters* are exact per document; only the live model's
        term statistics lag by at most one sub-batch while this method
        runs, which the built-in criteria — budget counters and
        snapshot rdiff — never observe.)
        """
        state = self._state
        analyze = self.analyzer.analyze
        new_documents = 0
        batch: list[list[str]] = []
        for index, document in enumerate(documents):
            if self.config.unique_documents and document.doc_id in self._seen_doc_ids:
                continue
            self._seen_doc_ids.add(document.doc_id)
            if self.config.keep_documents:
                self._kept_documents.append(document)
            batch.append(analyze(document.text))
            new_documents += 1
            state.documents_examined += 1
            if state.documents_examined >= self._next_snapshot:
                self._model.add_documents(batch)
                batch.clear()
                self._take_snapshot(in_flight_query=not query_counted)
            if criterion.should_stop(state):
                if batch:
                    self._model.add_documents(batch)
                return new_documents, True, list(documents[index + 1 :])
        if batch:
            self._model.add_documents(batch)
        return new_documents, False, []

    def _take_snapshot(self, in_flight_query: bool) -> None:
        state = self._state
        state.snapshots.append(
            Snapshot(
                documents_examined=state.documents_examined,
                queries_run=state.queries_run + (1 if in_flight_query else 0),
                model=self._model.copy(),
            )
        )
        while self._next_snapshot <= state.documents_examined:
            self._next_snapshot += self.config.snapshot_interval

    def _next_term(self) -> str | None:
        """Pick the next query term: strategy first, bootstrap fallback."""
        if len(self._model) > 0:
            term = self.strategy.select(self._model, self._used_terms, self._rng)
            if term is not None:
                return term
        return self.bootstrap.select(self._model, self._used_terms, self._rng)

    # -- checkpoint / resume ----------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the complete resumable state.

        Captures everything a future process needs to continue this
        run bit-identically: the learned model, counters, snapshots,
        query history, the used-term and seen-document sets, any
        pending mid-query document tail, and the exact RNG state (the
        library's default PCG64 generator state serializes to plain
        integers).  Selector objects are *not* captured — they are
        deterministic functions of this state, so reconstructing the
        sampler with the same configuration and calling
        :meth:`load_state_dict` resumes the identical trajectory.
        """
        state = self._state
        return {
            "name": self.name,
            "seed": self.seed,
            "config": asdict(self.config),
            "strategy": getattr(self.strategy, "name", type(self.strategy).__name__),
            "bootstrap": getattr(self.bootstrap, "name", type(self.bootstrap).__name__),
            "rng": self._rng.bit_generator.state,
            "model": dumps_language_model(self._model),
            "documents_examined": state.documents_examined,
            "queries_run": state.queries_run,
            "failed_queries": state.failed_queries,
            "snapshots": [
                {
                    "documents_examined": snapshot.documents_examined,
                    "queries_run": snapshot.queries_run,
                    "model": dumps_language_model(snapshot.model),
                }
                for snapshot in state.snapshots
            ],
            "queries": [
                {
                    "term": record.term,
                    "documents_returned": record.documents_returned,
                    "new_documents": record.new_documents,
                    "error": record.error,
                }
                for record in self._queries
            ],
            "used_terms": sorted(self._used_terms),
            "seen_doc_ids": sorted(self._seen_doc_ids),
            "kept_documents": [_document_to_dict(d) for d in self._kept_documents],
            "pending": [_document_to_dict(d) for d in self._pending],
            "pending_query_index": self._pending_query_index,
            "next_snapshot": self._next_snapshot,
            "exhausted": self._exhausted,
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot into this sampler.

        The sampler must have been constructed with the same name,
        seed, configuration, and selector types as the one that was
        checkpointed — resuming under different parameters would
        silently diverge, so any mismatch raises ``ValueError``
        instead.
        """
        mismatches = []
        for field_name, current in (
            ("name", self.name),
            ("seed", self.seed),
            ("config", asdict(self.config)),
            ("strategy", getattr(self.strategy, "name", type(self.strategy).__name__)),
            ("bootstrap", getattr(self.bootstrap, "name", type(self.bootstrap).__name__)),
        ):
            saved = state.get(field_name)
            if saved != current:
                mismatches.append(f"{field_name}: checkpoint {saved!r} != sampler {current!r}")
        if mismatches:
            raise ValueError(
                "checkpoint does not match this sampler's construction: "
                + "; ".join(mismatches)
            )
        self._rng = ensure_rng(self.seed)
        self._rng.bit_generator.state = state["rng"]
        self._model = loads_language_model(state["model"])
        self._state = SamplerState(
            model=self._model,
            documents_examined=int(state["documents_examined"]),
            queries_run=int(state["queries_run"]),
            failed_queries=int(state["failed_queries"]),
            snapshots=[
                Snapshot(
                    documents_examined=int(snapshot["documents_examined"]),
                    queries_run=int(snapshot["queries_run"]),
                    model=loads_language_model(snapshot["model"]),
                )
                for snapshot in state["snapshots"]
            ],
        )
        self._queries = [
            QueryRecord(
                term=record["term"],
                documents_returned=int(record["documents_returned"]),
                new_documents=int(record["new_documents"]),
                error=record.get("error"),
            )
            for record in state["queries"]
        ]
        self._used_terms = set(state["used_terms"])
        self._seen_doc_ids = set(state["seen_doc_ids"])
        self._kept_documents = [_document_from_dict(d) for d in state["kept_documents"]]
        self._pending = [_document_from_dict(d) for d in state["pending"]]
        self._pending_query_index = int(state["pending_query_index"])
        self._next_snapshot = int(state["next_snapshot"])
        self._exhausted = bool(state["exhausted"])
