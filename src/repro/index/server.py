"""The remote database abstraction.

:class:`DatabaseServer` models the paper's minimal assumption about a
searchable text database: *"each database is capable of running queries
and returning documents that match the queries"* (Section 3).  The
sampling client may only call :meth:`run_query`; everything else a
cooperative protocol like STARTS would expose (vocabulary, frequencies,
corpus size) is deliberately absent from that surface.

For evaluation the server also exposes ground truth —
:meth:`actual_language_model` and :attr:`num_documents` — which the
experiment harness uses to score learned models but a sampler must
never touch.

Every query and returned document is metered in :class:`QueryCosts`,
supporting the paper's resource accounting (queries run, documents
examined, bytes transferred).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.corpus.collection import Corpus
from repro.corpus.document import Document
from repro.index.inverted import InvertedIndex, build_indexes
from repro.index.search import SearchEngine
from repro.lm.model import LanguageModel
from repro.text.analyzer import Analyzer


@dataclass
class QueryCosts:
    """Cumulative cost of interacting with one database.

    The failure meters are disjoint: ``failed_queries`` counts queries
    that *completed* but matched nothing (empty result list, the
    paper's Section 5.2 notion of a failed query), while
    ``errored_queries`` counts queries that *died mid-execution*
    (transport or engine errors).
    """

    queries_run: int = 0
    failed_queries: int = 0
    errored_queries: int = 0
    documents_returned: int = 0
    bytes_returned: int = 0
    hit_count_queries: int = 0

    def record(self, documents: list[Document]) -> None:
        """Account for one executed query and its results."""
        self.queries_run += 1
        if not documents:
            self.failed_queries += 1
        self.documents_returned += len(documents)
        self.bytes_returned += sum(document.size_bytes for document in documents)

    def record_error(self) -> None:
        """Account for a query that raised instead of returning results.

        An attempted query consumed server work even when it died
        mid-execution, so the meters must see it — otherwise retried
        queries look free and experiment accounting undercounts cost.
        Errored queries are *not* folded into ``failed_queries``, so
        empty-result and transport-errored queries stay distinguishable
        in reports.
        """
        self.queries_run += 1
        self.errored_queries += 1

    def __sub__(self, earlier: QueryCosts) -> QueryCosts:
        """The meters' growth since ``earlier``, a copy of these taken before."""
        return QueryCosts(*(getattr(self, m) - getattr(earlier, m) for m in _METERS))

    def __iadd__(self, growth: QueryCosts) -> QueryCosts:
        """Fold in growth metered elsewhere (another process's copy of the server)."""
        for meter in _METERS:
            setattr(self, meter, getattr(self, meter) + getattr(growth, meter))
        return self

    def __isub__(self, growth: QueryCosts) -> QueryCosts:
        """Take out growth folded in earlier."""
        self += QueryCosts() - growth
        return self


_METERS = tuple(meter.name for meter in fields(QueryCosts))


@dataclass(frozen=True)
class ServerPolicy:
    """Knobs modelling real-world server behaviour.

    Parameters
    ----------
    max_results_per_query:
        Hard cap the server imposes on any single query (many web
        databases return at most 10 results); ``None`` means uncapped.
    """

    max_results_per_query: int | None = None


class DatabaseServer:
    """A searchable text database with a query-only public surface."""

    #: A ranked search is CPU work over this process's own index: it
    #: never waits (see :func:`repro.backend.may_wait`).
    computes_in_process = True

    def __init__(
        self,
        corpus: Corpus,
        analyzer: Analyzer | None = None,
        policy: ServerPolicy | None = None,
        name: str | None = None,
    ) -> None:
        self._serve(InvertedIndex(corpus, analyzer), policy, name)

    def _serve(
        self,
        index: InvertedIndex,
        policy: ServerPolicy | None = None,
        name: str | None = None,
    ) -> None:
        self.name = name or index.corpus.name
        self.policy = policy or ServerPolicy()
        self.index = index
        self.engine = SearchEngine(index)
        self.costs = QueryCosts()

    # -- the public (sampler-visible) surface ----------------------------------

    def run_query(self, query: str, max_docs: int = 10) -> list[Document]:
        """Run ``query`` and return up to ``max_docs`` full documents.

        This is the *only* operation the paper assumes of a database.
        The query is a bag of terms: quotes and other punctuation are
        not token characters, so a quoted query is answered as its
        terms — the documents :meth:`hit_count` counts for it.
        """
        if max_docs <= 0:
            raise ValueError(f"max_docs must be positive, got {max_docs}")
        if self.policy.max_results_per_query is not None:
            max_docs = min(max_docs, self.policy.max_results_per_query)
        try:
            results = self.engine.search(query, n=max_docs)
            documents = [self.engine.fetch(result.doc_id) for result in results]
        except Exception:
            # A query that dies mid-execution was still attempted; meter
            # it before propagating so cost accounting stays honest.
            self.costs.record_error()
            raise
        self.costs.record(documents)
        return documents

    def hit_count(self, query: str) -> int:
        """Number of documents matching ``query`` ("about N results").

        Most real search services report a match count alongside
        results; it is part of the observable search surface, not
        ground-truth access.  The sample-resample size estimator
        (:mod:`repro.sizeest`) is built on it.  For a multi-term query
        the count is of documents matching *any* term (the engine's
        candidate set).
        """
        terms = self.index.analyzer.analyze(query)
        self.costs.hit_count_queries += 1
        doc_rows, _ = self.index.term_rows(dict.fromkeys(terms))
        if not doc_rows:
            return 0
        return int(np.unique(np.concatenate(doc_rows)).size)

    # -- ground truth (evaluation only) ----------------------------------------

    def actual_language_model(self) -> LanguageModel:
        """The database's true language model (its index). Evaluation only."""
        return self.index.language_model()

    @property
    def num_documents(self) -> int:
        """True corpus size. Evaluation only — samplers cannot observe this."""
        return self.index.num_documents

    def reset_costs(self) -> None:
        """Zero the cost meters (e.g. between experimental runs)."""
        self.costs = QueryCosts()


def build_servers(corpora: Sequence[Corpus]) -> list[DatabaseServer]:
    """``[DatabaseServer(corpus) for corpus in corpora]``, indexed on every usable CPU.

    The indexes come from :func:`~repro.index.inverted.build_indexes`,
    so they equal serially built ones, column for column.
    """
    servers = []
    for index in build_indexes(corpora):
        server = DatabaseServer.__new__(DatabaseServer)
        server._serve(index)
        servers.append(server)
    return servers
