"""The federated search service.

Owns the databases, their (acquired) language models, a selector, and a
merger; answers queries end to end.  The acquisition step is pluggable
so the same service can run on sampled models (the paper's proposal),
trusted STARTS exports (the cooperative baseline), or ground-truth
models (the evaluation upper bound).

Databases are held behind the :mod:`repro.backend` protocols: anything
:class:`~repro.backend.SearchableDatabase` can be sampled, and the
subset actually selected for retrieval must additionally be
:class:`~repro.backend.RetrievableDatabase` (expose a ranked-retrieval
engine).  Conformance to the sampling surface is validated at
construction, so a misconfigured service fails with a clear
``TypeError`` instead of deep inside a query.

The query-answering surface is a :class:`SearchRequest` →
:class:`FederatedResponse` pair.  Installed model sets are versioned by
:attr:`FederatedSearchService.model_epoch`, which moves whenever
:meth:`~FederatedSearchService.learn_models`,
:meth:`~FederatedSearchService.use_models`, or a staleness-driven
:meth:`~FederatedSearchService.refresh_stale_models` installs new
models — the serving layer (:mod:`repro.serving`) keys its compiled
scorers and caches on that epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro.backend import RetrievableDatabase, SearchableDatabase, require_searchable
from repro.classify.router import RequestRouting, RoutingDecision, TopicRouter
from repro.dbselect.base import DatabaseRanking, DatabaseSelector
from repro.dbselect.merge import CoriMerger, MergedResult, ResultMerger
from repro.dbselect.registry import make_selector
from repro.index.search import RankedHits
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.pool import SamplingPool
from repro.sampling.sampler import SamplerConfig
from repro.sampling.selection import QueryTermSelector
from repro.sampling.staleness import RefreshPolicy, StalenessReport
from repro.sampling.transport import ServerError
from repro.store.sharded import ShardedModelStore
from repro.text.analyzer import Analyzer


@dataclass(frozen=True)
class SearchRequest:
    """One federated query, fully specified.

    Parameters
    ----------
    query:
        The user's query text.
    n:
        Size of the merged result list.
    docs_per_database:
        Results requested from each searched database before merging.
    deadline:
        Wall-clock budget in seconds for the retrieval fan-out, or
        ``None`` for no limit.  Backends that miss the deadline, or
        fail with a :class:`~repro.sampling.transport.ServerError`, are
        *dropped* from the merge and reported in
        :attr:`FederatedResponse.dropped`, never raised.
    databases_per_query:
        Override of the service's configured selection depth for this
        request (``None`` keeps the service default).
    routing:
        Optional topic-routing instructions
        (:class:`~repro.classify.router.RequestRouting`): restrict the
        fan-out to databases classified into the given topics, or
        adjust the broadcast-fallback confidence floor.  ``None`` (the
        default, and what every pre-routing client sends) leaves the
        decision to the service's router — or to plain broadcast when
        no router is installed.
    """

    query: str
    n: int = 10
    docs_per_database: int = 10
    deadline: float | None = None
    databases_per_query: int | None = None
    routing: RequestRouting | None = None

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.docs_per_database <= 0:
            raise ValueError(
                f"docs_per_database must be positive, got {self.docs_per_database}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.databases_per_query is not None and self.databases_per_query <= 0:
            raise ValueError(
                f"databases_per_query must be positive, got {self.databases_per_query}"
            )


@dataclass(frozen=True)
class FederatedResponse:
    """Everything a federated query produced.

    ``searched`` lists the databases whose results made the merge;
    ``dropped`` the selected databases that missed the request deadline
    or failed (degradation, not an error); ``timings`` the per-database
    retrieval wall time in seconds for every backend that completed.
    ``routing`` reports what the topic router did with the query
    (:class:`~repro.classify.router.RoutingDecision`) — ``None`` when
    no router was consulted, exactly the pre-routing response shape.
    """

    query: str
    ranking: DatabaseRanking
    searched: tuple[str, ...]
    results: tuple[MergedResult, ...]
    dropped: tuple[str, ...] = ()
    timings: Mapping[str, float] = field(default_factory=dict)
    routing: RoutingDecision | None = None


class FederatedSearchService:
    """Selects, searches, and merges across many databases.

    Parameters
    ----------
    servers:
        Name → database.  Every entry must satisfy
        :class:`~repro.backend.SearchableDatabase` (validated here);
        entries routed to retrieval by :meth:`search` must also satisfy
        :class:`~repro.backend.RetrievableDatabase`.
    selector:
        Database selection algorithm (default CORI).
    merger:
        Result merging strategy (default the CORI merge).
    databases_per_query:
        How many top-ranked databases to actually search.
    router:
        Optional :class:`~repro.classify.router.TopicRouter`; when
        installed, every query passes through
        :meth:`resolve_candidates`' routing stage, which can restrict
        the fan-out to topically matching databases (falling back to
        broadcast on low confidence).
    recorder:
        Observability sink (:mod:`repro.obs`): spans over acquisition
        (``pool_run`` and below) and per federated query
        (``federated_search`` with a nested ``search`` span per
        database retrieved from).
    """

    def __init__(
        self,
        servers: Mapping[str, SearchableDatabase],
        selector: DatabaseSelector | None = None,
        merger: ResultMerger | None = None,
        databases_per_query: int = 3,
        router: TopicRouter | None = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if not servers:
            raise ValueError("need at least one database server")
        if databases_per_query <= 0:
            raise ValueError("databases_per_query must be positive")
        self.servers: dict[str, SearchableDatabase] = {
            name: require_searchable(server, name)
            for name, server in servers.items()
        }
        self.selector = selector or make_selector("cori")
        self.merger = merger or CoriMerger()
        self.databases_per_query = databases_per_query
        self.router = router
        self.recorder = recorder
        self.models: dict[str, LanguageModel] = {}
        self._model_epoch = 0
        self._retrievable: dict[str, RetrievableDatabase] = {}

    # -- acquisition -------------------------------------------------------

    @property
    def model_epoch(self) -> int:
        """Version of the installed model set (0 = nothing installed).

        Moves by one every time a full or partial model set is
        installed; consumers that compile or cache anything derived
        from the models (the serving frontend) invalidate on change.
        """
        return self._model_epoch

    def _install_models(self, models: Mapping[str, LanguageModel]) -> None:
        self.models = dict(models)
        self._model_epoch += 1

    def learn_models(
        self,
        bootstrap_factory: Callable[[str], QueryTermSelector],
        total_documents: int,
        config: SamplerConfig = SamplerConfig(),
        seed: int = 0,
    ) -> None:
        """Acquire every model by query-based sampling (via a pool).

        With in-process :class:`~repro.index.server.DatabaseServer`
        databases and the recorder off, the pool's initial shares are
        sampled on every usable CPU, one forked child per group of
        databases (:meth:`~repro.sampling.pool.SamplingPool.learn`).
        The installed models, every server's :attr:`costs` and any
        exception are those of the serial
        :meth:`~repro.sampling.pool.SamplingPool.run`, which is what
        every other federation gets.
        """
        pool = SamplingPool(
            self.servers,
            bootstrap_factory,
            config=config,
            seed=seed,
            recorder=self.recorder,
        )
        self._install_models(pool.learn(total_documents))

    def use_models(self, models: Mapping[str, LanguageModel]) -> None:
        """Install externally acquired models (STARTS, ground truth, …)."""
        missing = set(self.servers) - set(models)
        if missing:
            raise ValueError(f"missing models for databases: {sorted(missing)}")
        self._install_models(models)

    # -- durable persistence -----------------------------------------------

    def save_models(self, store: ShardedModelStore | str | Path) -> None:
        """Persist the installed model set (with its epoch) durably.

        A path means ``ShardedModelStore(path)``.  Each shard is written
        crash-safely as a unit (see :class:`~repro.store.ModelStore`);
        a killed save never corrupts a previously saved set.
        """
        if not self.models:
            raise RuntimeError("no language models acquired yet; call learn_models()")
        if isinstance(store, (str, Path)):
            store = ShardedModelStore(store)
        store.save(self.models, model_epoch=self._model_epoch)

    def load_models(self, store: ShardedModelStore | str | Path) -> None:
        """Warm-start from a durable store instead of re-sampling.

        Every server must have a model in the store (extra models are
        ignored).  Every shard's manifest is read (the coverage check
        and the stored epoch need them all), model files only for this
        federation's names.  :attr:`model_epoch` always moves *forward*:
        it becomes the stored epoch or the current epoch plus one,
        whichever is larger, so serving caches keyed on the epoch
        (:class:`~repro.serving.frontend.FederationFrontend`) can never
        confuse warm-started models with a superseded in-memory set.
        """
        resolved = ShardedModelStore(store) if isinstance(store, (str, Path)) else store
        missing = set(self.servers) - set(resolved.model_names())
        if missing:
            raise ValueError(
                f"store at {resolved.root} is missing models for databases: "
                f"{sorted(missing)}"
            )
        self.models = {name: resolved.load_model(name) for name in self.servers}
        self._model_epoch = max(self._model_epoch + 1, resolved.model_epoch())

    def refresh_stale_models(
        self,
        bootstrap_factory: Callable[[str], QueryTermSelector],
        policy: RefreshPolicy | None = None,
        seed: int = 0,
        *,
        num_workers: int = 4,
        analyzer: Analyzer | None = None,
    ) -> dict[str, StalenessReport]:
        """Probe every model for staleness; re-sample only the drifted ones.

        A thin enqueue-and-await wrapper over the fleet sweep
        (:func:`repro.fleet.run_refresh_sweep`): every database becomes
        a job on a durable queue, drained on the calling
        thread when every server is an in-process index and by
        ``num_workers`` worker threads when any may wait
        (:func:`repro.backend.may_wait`).  Every database is probed at a
        seed derived from ``seed`` and its name, stale ones are
        re-sampled, and if any model was actually refreshed the new set
        is installed and :attr:`model_epoch` moves once (so serving
        caches invalidate).
        ``analyzer`` is the installed models' text pipeline, threaded
        through every probe and refresh so a refreshed model speaks the
        same vocabulary as the one it replaces.  Returns the
        per-database staleness reports either way.
        """
        if not self.models:
            raise RuntimeError("no language models acquired yet; call learn_models()")
        from repro.fleet.sweep import run_refresh_sweep

        result = run_refresh_sweep(
            self.servers,
            self.models,
            bootstrap_factory,
            policy=policy,
            seed=seed,
            num_workers=num_workers,
            analyzer=analyzer,
            recorder=self.recorder,
        )
        if result.failed_jobs:
            details = "; ".join(
                f"{job.database}: {job.error}" for job in result.failed_jobs
            )
            raise RuntimeError(f"refresh sweep failed for some databases: {details}")
        if result.outcome.refreshed:
            self._install_models(result.outcome.models)
        return dict(result.outcome.reports)

    # -- query answering ----------------------------------------------------

    def select(self, query: str) -> DatabaseRanking:
        """Rank the databases for ``query`` using the acquired models."""
        if not self.models:
            raise RuntimeError("no language models acquired yet; call learn_models()")
        return self.selector.rank(query, self.models)

    def resolve_candidates(
        self, request: SearchRequest, ranking: DatabaseRanking
    ) -> tuple[tuple[str, ...], RoutingDecision | None]:
        """The fan-out set for ``request``, given a selector ranking.

        This is the *one* place the selection depth and the topic
        router apply — the serial :meth:`search` path and the
        concurrent serving frontend
        (:meth:`~repro.serving.frontend.FederationFrontend.search_incremental`)
        both call it, so routing behaviour can never diverge between
        them.  Without a router (and without a requested topic
        restriction) it is the classic top-``depth`` cut and the
        decision is ``None`` — the pre-routing response shape.
        """
        depth = request.databases_per_query or self.databases_per_query
        if self.router is None:
            if request.routing is not None and request.routing.topics:
                # The client asked for topics but this service has no
                # classification data: honour the contract by reporting
                # an explicit fallback instead of guessing.
                decision = RoutingDecision(
                    mode="broadcast",
                    topics=request.routing.topics,
                    confidence=0.0,
                    candidates=len(ranking.entries),
                    fell_back=True,
                    reason="no_router",
                )
                return tuple(ranking.top(depth)), decision
            return tuple(ranking.top(depth)), None
        selected, decision = self.router.route(
            request.query, ranking, depth, requested=request.routing
        )
        if self.recorder.enabled:
            if decision.mode == "routed":
                self.recorder.count("serving.routed_queries")
            if decision.fell_back:
                self.recorder.count("serving.routing_fallbacks")
        return selected, decision

    def require_retrievable(self, name: str) -> RetrievableDatabase:
        """The named server, validated for ranked retrieval.

        Validated the first time a server is selected, not per request
        (a runtime protocol check walks the protocol's members); a
        server swapped into :attr:`servers` afterwards is a different
        object and is validated again.
        """
        server = self._retrievable.get(name)
        if server is None or server is not self.servers[name]:
            candidate = self.servers[name]
            if not isinstance(candidate, RetrievableDatabase):
                raise TypeError(
                    f"database {name!r} ({type(candidate).__name__}) was selected "
                    "for retrieval but does not satisfy RetrievableDatabase: "
                    "missing engine"
                )
            server = self._retrievable[name] = candidate
        return server

    def search(self, request: SearchRequest) -> FederatedResponse:
        """Answer a :class:`SearchRequest`: select, search, merge.

        One backend after another on the calling thread, with the
        scalar selector: the reference that the concurrent frontend
        (:mod:`repro.serving`) is tested and benchmarked against.
        """
        with self.recorder.span("federated_search", query=request.query) as federated_span:
            ranking = self.select(request.query)
            selected, routing = self.resolve_candidates(request, ranking)
            per_database: dict[str, RankedHits] = {}
            timings: dict[str, float] = {}
            dropped: list[str] = []
            started = time.perf_counter()
            for name in selected:
                # Serial retrieval can only honour the deadline *between*
                # backends; the concurrent frontend (repro.serving)
                # enforces it per backend.
                if (
                    request.deadline is not None
                    and time.perf_counter() - started >= request.deadline
                ):
                    dropped.append(name)
                    self.recorder.event(
                        "backend_dropped", database=name, reason="deadline"
                    )
                    continue
                server = self.require_retrievable(name)
                with self.recorder.span("search", database=name) as search_span:
                    backend_started = time.perf_counter()
                    try:
                        results = server.engine.search(
                            request.query, n=request.docs_per_database
                        )
                    except ServerError as error:
                        dropped.append(name)
                        self.recorder.event(
                            "backend_dropped", database=name, reason=type(error).__name__
                        )
                    else:
                        per_database[name] = RankedHits.from_results(results)
                        search_span.set(results=len(results))
                    timings[name] = time.perf_counter() - backend_started
            searched = tuple(name for name in selected if name in per_database)
            if self.recorder.enabled:
                # Per-database serving traffic, for observability.
                for name in searched:
                    self.recorder.count(f"serving.db.{name}.searched")
            merged = self.merger.merge(ranking, per_database, n=request.n)
            federated_span.set(
                searched=list(searched), results=len(merged), dropped=list(dropped)
            )
        return FederatedResponse(
            query=request.query,
            ranking=ranking,
            searched=searched,
            results=tuple(merged),
            dropped=tuple(dropped),
            timings=timings,
            routing=routing,
        )
