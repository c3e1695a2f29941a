"""The federation frontend: fast, concurrent federated query serving.

:class:`FederationFrontend` wraps a
:class:`~repro.federation.service.FederatedSearchService` and makes its
query path production-shaped without changing a single answer:

1. **Selection is the service's** — a ranking is exactly what
   ``service.select`` returns, whatever the selector: the frontend
   compiles nothing and keeps no state derived from the models.
2. **Caching** — one LRU over selection rankings, keyed by the query
   text and the *model epoch*.  A ranking is stored on its key's second
   miss (the first is only remembered), so queries that never repeat
   take no memory.  It is emptied whenever the service
   installs new models (``learn_models`` / ``use_models`` / a
   staleness refresh), observed through
   :attr:`~repro.federation.service.FederatedSearchService.model_epoch`.
3. **Topic-aware routing** — when the wrapped service carries a
   :class:`~repro.classify.TopicRouter`, the CORI candidate set is
   restricted to databases classified under the query's topics before
   fan-out (service method
   :meth:`~repro.federation.service.FederatedSearchService.resolve_candidates`
   — one shared routing point for both the service and this frontend),
   with the decision reported in
   :attr:`~repro.federation.service.FederatedResponse.routing`.
4. **Fan-out that computes here and waits elsewhere** — a selected
   backend either *computes* (an in-process
   :class:`~repro.index.server.DatabaseServer`: CPU work over local
   columns, which threads sharing one interpreter lock cannot speed up)
   or *may wait* (anything else — :func:`repro.backend.may_wait`).
   Backends that may wait go to a bounded
   :class:`~concurrent.futures.ThreadPoolExecutor` first so they
   overlap; the computing ones are searched on the calling thread
   meanwhile; then the pooled ones are collected.  A federation of
   in-process indexes never starts the pool.  A backend that misses the
   deadline or raises from the transport error taxonomy
   (:class:`~repro.sampling.transport.ServerError`) is *dropped* from
   the merge and reported in
   :attr:`~repro.federation.service.FederatedResponse.dropped` — one
   slow or failing database degrades the answer, never the service.
5. **One plan for the in-process databases** — the computing backends
   whose engine is exactly a :class:`~repro.index.search.SearchEngine`
   are answered together by
   :func:`~repro.index.search.search_databases`: the query analyzed
   once per analyzer, every database's rows gathered, scored and
   accumulated in one pass, each database's top hits taken from one
   ordering — the very hits, bit for bit, that one ``engine.search``
   per database gives.  Those columns go to the service's merger as
   they are — every merger reads
   :class:`~repro.index.search.RankedHits` — and the CORI merger's lazy
   heap builds a result object only for what the response returns.  A
   wrapped engine (a timing proxy, a test double) is searched on its
   own, ``engine.search`` per backend, the deadline checked before
   each, and its list is converted to columns once.
6. **One clock** — deadline checks and ``timings`` read
   ``recorder.clock`` (:mod:`repro.obs.clock`), except that pooled
   backends are collected by a real-time ``concurrent.futures.wait``.

Everything is instrumented through :mod:`repro.obs`: a
``frontend_search`` span per query, ``serving.*`` cache hit/miss
counters, a ``serving.db.<name>.searched`` counter per database
answered from (per-database traffic), a
``backend_search`` latency timer per backend, and ``backend_dropped``
events for degradations.
"""

from __future__ import annotations

from concurrent.futures import (
    ALL_COMPLETED,
    FIRST_COMPLETED,
    Future,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from repro.backend import (
    EvaluableDatabase,
    RetrievableDatabase,
    SearchableDatabase,
    may_wait,
)
from repro.corpus.document import Document
from repro.dbselect.base import DatabaseRanking
from repro.dbselect.merge import MergedResult
from repro.federation.service import (
    FederatedResponse,
    FederatedSearchService,
    SearchRequest,
)
from repro.index.search import RankedHits, SearchEngine, search_databases
from repro.lm.model import LanguageModel
from repro.obs.clock import SYSTEM_CLOCK
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.transport import ServerError
from repro.serving.cache import LruCache
from repro.store.model_store import StoreManifest
from repro.store.sharded import ShardedModelStore

__all__ = [
    "FederationFrontend",
    "LatencyInjected",
    "PartialUpdate",
    "frontend_from_servers",
]

#: Entry budget of the selection cache.  A ranking is cached on its
#: query's second miss: a stream of distinct queries leaves it empty.
_SELECTION_CACHE_SIZE = 4096

#: One backend retrieval's outcome: (hits, elapsed seconds, error name).
_BackendOutcome = tuple[RankedHits | None, float, str | None]


@dataclass(frozen=True)
class PartialUpdate:
    """An early merged result set, flushed before slow backends finish.

    Produced by :meth:`FederationFrontend.search_incremental` when it
    is about to wait on an unanswered backend and one or more backends
    have answered (or failed) since the last flush: ``results`` is the
    merge over every backend answered *so far*, ``searched`` those
    backends, and ``pending`` the ones still outstanding (each of which
    will either make the final response or land in its ``dropped``).
    ``sequence`` counts partials within one request, starting at 1.  A
    request that never waits — every selected backend in-process —
    produces none.
    """

    query: str
    sequence: int
    results: tuple[MergedResult, ...]
    searched: tuple[str, ...]
    pending: tuple[str, ...]


class FederationFrontend:
    """High-throughput query serving over a federated search service.

    The frontend holds no model state of its own — it observes the
    service's :attr:`~repro.federation.service.FederatedSearchService.model_epoch`
    and empties its selection cache whenever the epoch moves, so it can
    never serve rankings from a superseded model set.

    Parameters
    ----------
    service:
        The wrapped service (owns servers, models, selector, merger).
    max_workers:
        Bound of the fan-out thread pool, which serves the backends
        that may wait (:func:`repro.backend.may_wait`); created on the
        first such backend selected.
    recorder:
        Observability sink; defaults to the service's recorder.

    The frontend is a context manager; leaving the ``with`` block (or
    calling :meth:`close`) shuts the thread pool down.
    """

    def __init__(
        self,
        service: FederatedSearchService,
        *,
        max_workers: int = 8,
        recorder: Recorder | None = None,
    ) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.service = service
        self.recorder = recorder if recorder is not None else service.recorder
        self.max_workers = max_workers
        self.selections: LruCache[tuple[str, int], DatabaseRanking] = LruCache(
            _SELECTION_CACHE_SIZE, name="serving.selection", recorder=self.recorder
        )
        self._selection_epoch = -1
        self._executor: ThreadPoolExecutor | None = None
        self._warm_store: ShardedModelStore | None = None
        self._store_epochs: dict[str, int] = {}
        # name -> (manifest sha256, the model object loaded under it)
        self._store_loaded: dict[str, tuple[str, LanguageModel]] = {}

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def from_store(
        cls,
        service: FederatedSearchService,
        store: ShardedModelStore | str | Path,
        *,
        max_workers: int = 8,
        recorder: Recorder | None = None,
    ) -> "FederationFrontend":
        """Boot a frontend warm-started from a durable model store.

        Loads the store's model set into ``service`` (bumping its
        model epoch — see
        :meth:`~repro.federation.service.FederatedSearchService.load_models`),
        so no stale cache entry can survive the restart.  A path means
        ``ShardedModelStore(path)``; the store's per-shard epochs and
        each model's manifest fingerprint are remembered for
        :meth:`refresh_from_store`.

        If the store carries persisted topic classifications (written
        by :func:`repro.classify.save_router`) and the service has no
        router yet, a :class:`~repro.classify.TopicRouter` is rebuilt
        from them, so topic-aware routing warm-starts together with the
        models.
        """
        resolved = ShardedModelStore(store) if isinstance(store, (str, Path)) else store
        service.load_models(resolved)
        if service.router is None:
            from repro.classify.persist import load_router

            service.router = load_router(resolved)
        frontend = cls(service, max_workers=max_workers, recorder=recorder)
        frontend._warm_store = resolved
        frontend._store_epochs, manifests = frontend._moved_shards(resolved)
        for manifest in manifests.values():
            for name, entry in manifest.models.items():
                if name in service.models:
                    frontend._store_loaded[name] = (entry.sha256, service.models[name])
        frontend._ensure_current()
        return frontend

    def _moved_shards(
        self, store: ShardedModelStore
    ) -> tuple[dict[str, int], dict[str, StoreManifest]]:
        """Every shard's epoch, and the manifests of those not at the
        epoch last seen — each shard manifest read once."""
        epochs: dict[str, int] = {}
        moved: dict[str, StoreManifest] = {}
        for shard_id in store.shard_ids():
            manifest = store.shard(shard_id).read_manifest()
            epochs[shard_id] = manifest.model_epoch
            if self._store_epochs.get(shard_id) != manifest.model_epoch:
                moved[shard_id] = manifest
        return epochs, moved

    def refresh_from_store(self) -> tuple[str, ...]:
        """Reload only the models whose shard moved since the last load.

        Compares the store's per-shard epochs against those seen at
        :meth:`from_store` / the last refresh, reads back *only* the
        databases living in shards that moved, and installs the merged
        set (one service epoch bump, so the selection cache empties
        once).  Within a moved shard, a model whose manifest fingerprint
        is the one it was last loaded under — and which the service
        still holds — is kept as it is: no read, no checksum, no parse.
        Returns the names living in the moved shards — empty means the
        store hasn't moved and nothing was touched, not even the cache.

        This is the serving half of the fleet refresh loop: workers
        fold refreshed models into the sharded store shard by shard
        (:meth:`~repro.store.ShardedModelStore.update`), and a serving
        process polls this method to pick changes up without re-reading
        the untouched majority of the fleet.
        """
        resolved = self._warm_store
        if resolved is None:
            raise RuntimeError("no store to refresh from; boot with from_store()")
        current, moved = self._moved_shards(resolved)
        if not moved:
            return ()
        service = self.service
        affected = []
        merged = dict(service.models)
        for name in sorted(service.servers):
            shard = resolved.shard_for(name)
            manifest = moved.get(shard.root.name)
            if manifest is None:
                continue
            affected.append(name)
            entry = manifest.models.get(name)
            sha256, model = self._store_loaded.get(name, (None, None))
            if entry is not None and entry.sha256 == sha256 and model is merged.get(name):
                continue
            # A name the shard lacks is load_model's KeyError to raise.
            merged[name] = shard.load_model(name, manifest)
            self._store_loaded[name] = (manifest.models[name].sha256, merged[name])
        service.use_models(merged)
        self._store_epochs = current
        self.recorder.count("serving.shard_reloads", len(moved))
        self._ensure_current()
        return tuple(affected)

    def close(self) -> None:
        """Shut the fan-out pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "FederationFrontend":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- model-epoch tracking ----------------------------------------------

    @property
    def selection_epoch(self) -> int:
        """Model epoch the selection cache holds rankings for."""
        return self._selection_epoch

    def invalidate(self) -> None:
        """Empty the selection cache; the next query re-reads the epoch."""
        self.selections.clear()
        self._selection_epoch = -1

    def _ensure_current(self) -> None:
        """Empty the selection cache if new models landed."""
        service = self.service
        if not service.models:
            raise RuntimeError("no language models acquired yet; call learn_models()")
        epoch = service.model_epoch
        if epoch == self._selection_epoch:
            return
        self.selections.clear()
        self._selection_epoch = epoch

    # -- selection ---------------------------------------------------------

    def select(self, query: str) -> DatabaseRanking:
        """Rank the databases for ``query``: ``service.select``, cached
        per (query, model epoch)."""
        self._ensure_current()
        key = (query, self._selection_epoch)
        ranking = self.selections.get(key)
        if ranking is None:
            ranking = self.service.select(query)
            self.selections.put(key, ranking)
        return ranking

    # -- query answering ---------------------------------------------------

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="serving-fanout"
            )
        return self._executor

    def _search_backend(
        self, server: RetrievableDatabase, request: SearchRequest
    ) -> _BackendOutcome:
        """Run one backend retrieval; never raises transport errors
        (they become a drop, not a crash)."""
        clock = self.recorder.clock
        started = clock.now
        try:
            results = server.engine.search(request.query, n=request.docs_per_database)
        except ServerError as error:
            return None, clock.now - started, type(error).__name__
        return RankedHits.from_results(results), clock.now - started, None

    def search(self, request: SearchRequest) -> FederatedResponse:
        """Answer ``request`` with cached selection and the fan-out of
        :meth:`search_incremental` (no partials).

        A backend that misses ``request.deadline`` (or raises a
        :class:`~repro.sampling.transport.ServerError`) is dropped from
        the merge and listed in ``response.dropped``.
        """
        return self.search_incremental(request)

    def search_incremental(
        self,
        request: SearchRequest,
        on_partial: Callable[[PartialUpdate], None] | None = None,
    ) -> FederatedResponse:
        """Answer ``request``, flushing an early merge before every wait.

        The fan-out asks one thing of a selected backend — does it
        *compute* or may it *wait* (:func:`repro.backend.may_wait`):

        1. backends that may wait are submitted to the pool first, each
           holding the full ``request.deadline`` budget, so they overlap
           with each other and with step 2;
        2. in-process backends are searched right here on the calling
           thread: those whose engine is a plain
           :class:`~repro.index.search.SearchEngine` as one plan
           (:func:`~repro.index.search.search_databases`), the deadline
           checked once before it; any other, one after another in
           selection order, the deadline checked before each.  A
           backend not reached in time is dropped like one that timed
           out.  Every database of the plan reports the plan's elapsed
           time in ``timings``;
        3. the pooled ones are collected as they complete.

        The deadline budget runs from the end of selection, so a
        request whose budget is already spent (the gateway floors what
        queueing left at a microsecond) touches no in-process engine.

        When ``on_partial`` is given it is called with a
        :class:`PartialUpdate` whenever this thread is about to wait on
        an unanswered backend while something has been answered since
        the last flush: the hits of the fast and the local backends
        reach the caller before the slowest (or the deadline) is waited
        out.  The network gateway (:mod:`repro.gateway`) turns these
        into streamed partial frames.  A request whose selected backends
        are all in-process never waits: no partial, one merge, no pool
        thread.

        ``on_partial`` runs on the calling thread, between fan-out
        waits; a slow callback delays later partials but never the
        pooled backends themselves.
        """
        recorder = self.recorder
        clock = recorder.clock
        with recorder.span("frontend_search", query=request.query) as span:
            ranking = self.select(request.query)
            started = clock.now
            selected, routing = self.service.resolve_candidates(request, ranking)
            # Misconfiguration (a selected backend with no retrieval
            # engine) stays a hard error; only runtime failures degrade.
            backends = [self.service.require_retrievable(name) for name in selected]
            futures: dict[Future[_BackendOutcome], str] = {}
            planned: list[tuple[str, SearchEngine]] = []
            local: list[tuple[str, RetrievableDatabase]] = []
            for name, backend in zip(selected, backends):
                if may_wait(backend):
                    future = self._pool().submit(self._search_backend, backend, request)
                    futures[future] = name
                elif type(backend.engine) is SearchEngine:
                    planned.append((name, backend.engine))
                else:
                    local.append((name, backend))
            deadline = request.deadline
            merger = self.service.merger
            per_database: dict[str, RankedHits] = {}
            timings: dict[str, float] = {}
            failures: dict[str, str] = {}

            def settle(name: str, outcome: _BackendOutcome) -> None:
                hits, elapsed, error = outcome
                timings[name] = elapsed
                recorder.observe("backend_search", elapsed)
                if error is not None or hits is None:
                    failures[name] = error or "unknown"
                    recorder.event(
                        "backend_dropped", database=name, reason=error or "unknown"
                    )
                else:
                    per_database[name] = hits

            def out_of_time() -> bool:
                return deadline is not None and clock.now - started >= deadline

            timed_out: set[str] = set()
            if planned and out_of_time():
                timed_out.update(name for name, _ in planned)
            elif planned:
                plan_started = clock.now
                answers = search_databases(
                    [engine for _, engine in planned],
                    request.query,
                    request.docs_per_database,
                )
                elapsed = clock.now - plan_started
                for (name, _), hits in zip(planned, answers):
                    settle(name, (hits, elapsed, None))
            for name, backend in local:
                if out_of_time():
                    timed_out.add(name)
                else:
                    settle(name, self._search_backend(backend, request))
            pending = set(futures)
            unflushed = bool(timings)
            sequence = 0
            while pending:
                if on_partial is not None and unflushed and per_database:
                    unflushed = False
                    sequence += 1
                    early = merger.merge(ranking, per_database, request.n)
                    recorder.count("serving.partial_flushes")
                    on_partial(
                        PartialUpdate(
                            query=request.query,
                            sequence=sequence,
                            results=tuple(early),
                            searched=tuple(
                                name for name in selected if name in per_database
                            ),
                            pending=tuple(
                                sorted(futures[future] for future in pending)
                            ),
                        )
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - (clock.now - started)
                    if remaining <= 0:
                        break
                done, pending = wait(
                    pending,
                    timeout=remaining,
                    return_when=FIRST_COMPLETED if on_partial else ALL_COMPLETED,
                )
                if not done:  # deadline ran out with backends still pending
                    break
                for future in done:
                    settle(futures[future], future.result())
                unflushed = True
            for future in pending:
                timed_out.add(futures[future])
                future.cancel()
            for name in sorted(timed_out):
                recorder.event("backend_dropped", database=name, reason="deadline")
            searched = tuple(name for name in selected if name in per_database)
            dropped = tuple(
                name for name in selected if name in failures or name in timed_out
            )
            merged = merger.merge(ranking, per_database, request.n)
            recorder.count("serving.queries")
            if dropped:
                recorder.count("serving.degraded_queries")
            if recorder.enabled:
                for name in searched:
                    recorder.count(f"serving.db.{name}.searched")
                span.set(searched=list(searched), dropped=list(dropped), results=len(merged))
        return FederatedResponse(
            query=request.query,
            ranking=ranking,
            searched=searched,
            results=tuple(merged),
            dropped=dropped,
            timings=timings,
            routing=routing,
        )


def frontend_from_servers(
    servers: Mapping[str, SearchableDatabase],
    *,
    models: Mapping[str, LanguageModel] | None = None,
    databases_per_query: int = 3,
    workers: int = 8,
    recorder: Recorder = NULL_RECORDER,
) -> FederationFrontend:
    """A serving frontend over ``servers`` with their actual models.

    ``models`` defaults to each database's ground-truth language model
    (the gateway serves; it does not re-acquire).  Raises
    :class:`TypeError` if a database is not evaluable and no model was
    supplied for it.
    """
    if models is None:
        models = {
            name: server.actual_language_model()
            for name, server in servers.items()
            if isinstance(server, EvaluableDatabase)
        }
        if set(models) != set(servers):
            missing = sorted(set(servers) - set(models))
            raise TypeError(
                "cannot derive models: databases are not evaluable "
                f"(no actual_language_model): {missing}"
            )
    service = FederatedSearchService(
        servers,
        databases_per_query=min(databases_per_query, len(servers)),
        recorder=recorder,
    )
    service.use_models(models)
    return FederationFrontend(service, max_workers=workers, recorder=recorder)


class _DelayedEngine:
    """Engine proxy that sleeps before every search (simulated RTT)."""

    def __init__(self, inner, delay: float) -> None:
        self._inner = inner
        self._delay = delay

    def search(self, query: str, n: int = 10):
        SYSTEM_CLOCK.sleep(self._delay)
        return self._inner.search(query, n=n)


class LatencyInjected:
    """A retrievable database whose every search pays a fixed latency.

    ``repro serve --slow-backend`` wraps one backend in it.  Unlike the
    transport layer's fault injector (which perturbs *sampling*
    queries), this wrapper targets the ranked-retrieval engine the
    federated fan-out calls — the serving-side analogue of a slow
    remote backend.
    """

    def __init__(self, inner: SearchableDatabase, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.inner = inner
        self.name = getattr(inner, "name", "database")
        self.engine = _DelayedEngine(inner.engine, delay)  # type: ignore[attr-defined]

    def run_query(self, query: str, max_docs: int = 10) -> list[Document]:
        """Delegate sampling queries unchanged."""
        return self.inner.run_query(query, max_docs=max_docs)
