"""Unit tests for repro.serving (frontend, caches, fan-out, fixtures)."""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.corpus import Document
from repro.dbselect import KlSelector
from repro.federation import (
    FederatedSearchService,
    SearchRequest,
    build_skewed_partition,
    build_synthetic_federation,
    queries_from_models,
)
from repro.index import DatabaseServer
from repro.lm import dumps_language_model
from repro.obs import NULL_RECORDER, SimulatedClock, TraceRecorder
from repro.sampling import RandomFromOther, RefreshPolicy
from repro.sampling.transport import TransientServerError
from repro.serving import FederationFrontend, LatencyInjected, LruCache
from repro.synth import wsj88_like


@pytest.fixture(scope="module")
def servers() -> dict[str, DatabaseServer]:
    corpus = wsj88_like().build(seed=23, scale=0.06)
    parts = build_skewed_partition(corpus, num_databases=3, seed=5)
    return {part.name: DatabaseServer(part) for part in parts}


@pytest.fixture(scope="module")
def models(servers):
    return {name: server.actual_language_model() for name, server in servers.items()}


@pytest.fixture
def service(servers, models) -> FederatedSearchService:
    service = FederatedSearchService(servers, databases_per_query=2)
    service.use_models(models)
    return service


@pytest.fixture(scope="module")
def queries(models) -> list[str]:
    return queries_from_models(models, 6)


class TestSearchRequest:
    def test_defaults(self):
        request = SearchRequest(query="market")
        assert request.n == 10
        assert request.docs_per_database == 10
        assert request.deadline is None
        assert request.databases_per_query is None

    def test_frozen(self):
        request = SearchRequest(query="market")
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.n = 5  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": -1},
            {"docs_per_database": 0},
            {"docs_per_database": -3},
            {"deadline": 0.0},
            {"deadline": -1.0},
            {"databases_per_query": 0},
        ],
    )
    def test_non_positive_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            SearchRequest(query="market", **kwargs)


class TestLruCache:
    @staticmethod
    def admit(cache: LruCache, key, value) -> None:
        """Put ``key`` twice: the cache stores a key on its second put."""
        cache.put(key, value)
        cache.put(key, value)

    def test_basic_hit_miss_counters(self):
        cache: LruCache[str, int] = LruCache(4)
        assert cache.get("a") is None
        self.admit(cache, "a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_evicts_least_recently_used(self):
        cache: LruCache[str, int] = LruCache(2)
        self.admit(cache, "a", 1)
        self.admit(cache, "b", 2)
        cache.get("a")  # refresh "a": "b" becomes the LRU entry
        self.admit(cache, "c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache: LruCache[str, int] = LruCache(2)
        self.admit(cache, "a", 1)
        self.admit(cache, "b", 2)
        cache.put("a", 10)  # refresh, not insert: no eviction
        self.admit(cache, "c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_a_key_is_stored_on_its_second_put(self):
        cache: LruCache[str, int] = LruCache(2)
        cache.put("a", 1)
        assert "a" not in cache and cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        cache.put("b", 2)
        cache.put("c", 3)
        cache.put("d", 4)  # the record holds 2 keys: "b" is forgotten
        cache.put("c", 3)
        assert "c" in cache
        cache.put("b", 2)
        assert "b" not in cache

    def test_clear_keeps_history(self):
        cache: LruCache[str, int] = LruCache(4)
        self.admit(cache, "a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_clear_forgets_keys_seen_once(self):
        cache: LruCache[str, int] = LruCache(4)
        cache.put("a", 1)
        cache.clear()
        cache.put("a", 1)
        assert "a" not in cache

    def test_cached_falsy_values_are_hits(self):
        cache: LruCache[str, int] = LruCache(4)
        self.admit(cache, "zero", 0)
        assert cache.get("zero") == 0
        assert cache.hits == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_counts_flow_to_recorder(self):
        recorder = TraceRecorder(clock=SimulatedClock())
        cache: LruCache[str, int] = LruCache(4, name="test", recorder=recorder)
        cache.get("a")
        self.admit(cache, "a", 1)
        cache.get("a")
        assert recorder.metrics.counter("test.miss").value == 1
        assert recorder.metrics.counter("test.hit").value == 1

    def test_concurrent_hammer(self):
        """8 threads × 400 mixed operations against a 32-entry cache.

        The cache sits behind the frontend's thread-pool fan-out, so
        every operation (including the OrderedDict recency moves, which
        are not atomic) must hold up under contention: no lost entries,
        no corrupted counters, no exceptions.
        """
        from concurrent.futures import ThreadPoolExecutor

        cache: LruCache[int, int] = LruCache(32)
        threads, rounds = 8, 400

        def worker(thread_id: int) -> None:
            for i in range(rounds):
                key = (thread_id * 131 + i) % 100
                cache.put(key, key)
                value = cache.get(key)
                assert value is None or value == key
                if i % 7 == 0:
                    len(cache)
                    key in cache
                if i % 97 == 0:
                    cache.clear()

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(worker, t) for t in range(threads)]:
                future.result()  # re-raises any worker assertion/corruption

        assert len(cache) <= 32
        assert cache.hits + cache.misses == threads * rounds


class TestFrontendSelection:
    def test_matches_scalar_service_select(self, service, queries):
        with FederationFrontend(service) as frontend:
            for query in queries:
                scalar = service.select(query)
                fast = frontend.select(query)
                assert scalar.names == fast.names
                for left, right in zip(scalar.entries, fast.entries):
                    assert left.score == pytest.approx(right.score, abs=1e-9)

    def test_repeat_queries_hit_the_cache(self, service, queries):
        with FederationFrontend(service) as frontend:
            first = frontend.select(queries[0])
            assert len(frontend.selections) == 0  # a query seen once takes no entry
            second = frontend.select(queries[0])  # the second miss is stored
            assert len(frontend.selections) == 1
            hits_before = frontend.selections.hits
            third = frontend.select(queries[0])
            assert frontend.selections.hits == hits_before + 1
            assert (frontend.selections.hits, frontend.selections.misses) == (1, 2)
            assert second == first == third

    def test_distinct_queries_leave_the_cache_empty(self, service):
        with FederationFrontend(service) as frontend:
            for number in range(10_000):
                frontend.select(f"market q{number}")
            assert len(frontend.selections) == 0
            assert frontend.selections.misses == 10_000
            # The record of keys seen once is bounded: the first query has
            # left it, so coming again it is only remembered again.
            frontend.select("market q0")
            assert len(frontend.selections) == 0

    def test_same_terms_different_spelling_share_entry(self, service):
        with FederationFrontend(service) as frontend:
            original = frontend.select("market  report")
            frontend.select("market  report")
            assert len(frontend.selections) == 1
            respelled = frontend.select("market report")
            frontend.select("market report")
            # The cache is keyed by the query text: each spelling has its
            # own entry, and the two rankings agree.
            assert len(frontend.selections) == 2
            assert respelled.query == "market report"
            assert respelled.entries == original.entries

    def test_non_cori_selector_falls_back_to_service(self, servers, models, queries):
        service = FederatedSearchService(
            servers, selector=KlSelector(), databases_per_query=2
        )
        service.use_models(models)
        with FederationFrontend(service) as frontend:
            assert frontend.select(queries[0]) == service.select(queries[0])
            frontend.select(queries[0])
            hits_before = frontend.selections.hits
            frontend.select(queries[0])
            assert frontend.selections.hits == hits_before + 1

    def test_select_without_models_raises(self, servers):
        service = FederatedSearchService(servers)
        with FederationFrontend(service) as frontend:
            with pytest.raises(RuntimeError, match="learn_models"):
                frontend.select("anything")

    def test_max_workers_validated(self, service):
        with pytest.raises(ValueError):
            FederationFrontend(service, max_workers=0)


class TestEpochInvalidation:
    def test_use_models_moves_the_epoch(self, servers, models):
        service = FederatedSearchService(servers)
        assert service.model_epoch == 0
        service.use_models(models)
        assert service.model_epoch == 1
        service.use_models(models)
        assert service.model_epoch == 2

    def test_learn_models_moves_the_epoch(self, servers):
        service = FederatedSearchService(servers)
        service.learn_models(
            lambda name: RandomFromOther(servers[name].actual_language_model()),
            total_documents=90,
            seed=3,
        )
        assert service.model_epoch == 1

    def test_new_models_invalidate_frontend_caches(self, servers, models, queries):
        service = FederatedSearchService(servers, databases_per_query=2)
        service.use_models(models)
        with FederationFrontend(service) as frontend:
            frontend.select(queries[0])
            frontend.select(queries[0])
            assert frontend.selection_epoch == 1
            assert len(frontend.selections) == 1
            service.use_models(models)
            frontend.select(queries[0])
            assert len(frontend.selections) == 0  # the new epoch's first miss
            ranking = frontend.select(queries[0])
            assert frontend.selection_epoch == 2
            # The old epoch's entry is gone; only the recomputed one remains.
            assert len(frontend.selections) == 1
            assert ranking.names == service.select(queries[0]).names

    def test_manual_invalidate_forces_recompile(self, service, queries):
        with FederationFrontend(service) as frontend:
            frontend.select(queries[0])
            frontend.invalidate()
            assert frontend.selection_epoch == -1
            assert len(frontend.selections) == 0
            frontend.select(queries[0])
            assert frontend.selection_epoch == service.model_epoch

    def test_forced_staleness_refresh_moves_the_epoch(self, servers, models):
        service = FederatedSearchService(servers)
        service.use_models(models)
        bootstrap = lambda name: RandomFromOther(models[name])  # noqa: E731
        # Impossible spearman floor: every probe looks stale, every
        # model is re-sampled, so a new set must be installed.
        reports = service.refresh_stale_models(
            bootstrap,
            policy=RefreshPolicy(spearman_floor=1.1, refresh_documents=30),
            seed=11,
        )
        assert set(reports) == set(servers)
        assert service.model_epoch == 2

    def test_fresh_models_keep_the_epoch(self, servers, models):
        service = FederatedSearchService(servers)
        service.use_models(models)
        bootstrap = lambda name: RandomFromOther(models[name])  # noqa: E731
        # Thresholds that can never trip: nothing refreshed, epoch parked.
        reports = service.refresh_stale_models(
            bootstrap,
            policy=RefreshPolicy(rdiff_threshold=2.0, spearman_floor=-2.0),
            seed=11,
        )
        assert set(reports) == set(servers)
        assert service.model_epoch == 1


class _FailingEngine:
    def search(self, query: str, n: int = 10):
        raise TransientServerError("injected backend failure")


class FailingServer:
    """A retrievable database whose engine always fails."""

    def __init__(self, inner: DatabaseServer) -> None:
        self.inner = inner
        self.name = inner.name
        self.engine = _FailingEngine()

    def run_query(self, query: str, max_docs: int = 10) -> list[Document]:
        return self.inner.run_query(query, max_docs=max_docs)


class TestConcurrentFanout:
    def test_matches_serial_service_search(self, service, queries):
        request = SearchRequest(query=queries[0], n=5)
        serial = service.search(request)
        with FederationFrontend(service) as frontend:
            concurrent = frontend.search(request)
        assert concurrent.searched == serial.searched
        assert concurrent.results == serial.results
        assert concurrent.dropped == ()
        assert set(concurrent.timings) == set(concurrent.searched)

    def test_slow_backend_dropped_not_fatal(self, servers, models, queries):
        slowed = dict(servers)
        slow_name = sorted(servers)[0]
        slowed[slow_name] = LatencyInjected(servers[slow_name], delay=0.75)
        service = FederatedSearchService(slowed, databases_per_query=len(slowed))
        service.use_models(models)
        with FederationFrontend(service) as frontend:
            started = time.perf_counter()
            response = frontend.search(SearchRequest(query=queries[0], deadline=0.2))
            elapsed = time.perf_counter() - started
        assert slow_name in response.dropped
        assert slow_name not in response.searched
        assert len(response.searched) == len(servers) - 1
        assert response.results  # degraded answer, not an empty one
        assert elapsed < 0.7  # did not wait out the slow backend

    def test_failing_backend_dropped_not_fatal(self, servers, models, queries):
        broken = dict(servers)
        broken_name = sorted(servers)[-1]
        broken[broken_name] = FailingServer(servers[broken_name])
        service = FederatedSearchService(broken, databases_per_query=len(broken))
        service.use_models(models)
        with FederationFrontend(service) as frontend:
            response = frontend.search(SearchRequest(query=queries[0]))
        assert response.dropped == (broken_name,)
        assert broken_name not in response.searched
        assert broken_name in response.timings  # it completed (with an error)
        assert response.results

    def test_serial_search_drops_a_failing_backend_too(self, servers, models, queries):
        broken = dict(servers)
        broken_name = sorted(servers)[-1]
        broken[broken_name] = FailingServer(servers[broken_name])
        recorder = TraceRecorder()
        service = FederatedSearchService(
            broken, databases_per_query=len(broken), recorder=recorder
        )
        service.use_models(models)
        request = SearchRequest(query=queries[0])
        serial = service.search(request)
        with FederationFrontend(service) as frontend:
            concurrent = frontend.search(request)
        assert serial.dropped == concurrent.dropped == (broken_name,)
        assert serial.searched == concurrent.searched
        assert serial.results == concurrent.results
        drops = [e["attributes"] for e in recorder.events if e["name"] == "backend_dropped"]
        assert drops == [{"database": broken_name, "reason": "TransientServerError"}] * 2

    def test_degradations_are_observable(self, servers, models, queries):
        slowed = dict(servers)
        slow_name = sorted(servers)[0]
        slowed[slow_name] = LatencyInjected(servers[slow_name], delay=0.75)
        recorder = TraceRecorder()
        service = FederatedSearchService(
            slowed, databases_per_query=len(slowed), recorder=recorder
        )
        service.use_models(models)
        with FederationFrontend(service) as frontend:
            frontend.search(SearchRequest(query=queries[0], deadline=0.2))
        drops = [e for e in recorder.events if e["name"] == "backend_dropped"]
        assert len(drops) == 1
        assert drops[0]["attributes"]["database"] == slow_name
        assert drops[0]["attributes"]["reason"] == "deadline"
        assert recorder.metrics.counter("serving.degraded_queries").value == 1
        spans = [s for s in recorder.spans if s.name == "frontend_search"]
        assert len(spans) == 1
        assert spans[0].attributes["dropped"] == [slow_name]

    def test_missing_engine_stays_a_hard_error(self, servers, models, queries):
        class QueryOnly:
            def __init__(self, inner):
                self._inner = inner

            def run_query(self, query, max_docs=10):
                return self._inner.run_query(query, max_docs=max_docs)

        partial = dict(servers)
        name = sorted(servers)[0]
        partial[name] = QueryOnly(servers[name])
        service = FederatedSearchService(partial, databases_per_query=len(partial))
        service.use_models(models)
        with FederationFrontend(service) as frontend:
            with pytest.raises(TypeError, match="RetrievableDatabase"):
                frontend.search(SearchRequest(query=queries[0]))

    def test_databases_per_query_override(self, service, queries):
        with FederationFrontend(service) as frontend:
            response = frontend.search(
                SearchRequest(query=queries[0], databases_per_query=1)
            )
        assert len(response.searched) == 1

    def test_search_many_aligns_and_warms_cache(self, service, queries):
        requests = [
            SearchRequest(query=queries[0], n=5),
            SearchRequest(query=queries[1], n=5),
            SearchRequest(query=queries[0], n=5),
            SearchRequest(query=queries[0], n=5),
        ]
        with FederationFrontend(service) as frontend:
            responses = [frontend.search(request) for request in requests]
            assert responses[0].results == responses[2].results == responses[3].results
            assert frontend.selections.hits >= 1

    def test_search_many_survives_mid_batch_deadline_expiry(
        self, servers, models, queries
    ):
        slowed = dict(servers)
        slow_name = sorted(servers)[0]
        slowed[slow_name] = LatencyInjected(servers[slow_name], delay=0.4)
        service = FederatedSearchService(slowed, databases_per_query=len(slowed))
        service.use_models(models)
        requests = [
            SearchRequest(query=queries[0]),
            SearchRequest(query=queries[1], deadline=0.1),  # expires mid-batch
            SearchRequest(query=queries[2]),
        ]
        with FederationFrontend(service) as frontend:
            responses = [frontend.search(request) for request in requests]
        # Only the deadline-carrying request drops the slow backend; the
        # one after it gets the full fan-out back.
        assert slow_name in responses[1].dropped
        assert slow_name not in responses[1].searched
        assert responses[1].results  # fast backends still answered
        for response in (responses[0], responses[2]):
            assert response.dropped == ()
            assert slow_name in response.searched

    def test_close_is_idempotent(self, service, queries):
        frontend = FederationFrontend(service)
        frontend.search(SearchRequest(query=queries[0]))
        frontend.close()
        frontend.close()


class _CountingEngine:
    """Counts ranked searches; each may advance a simulated clock."""

    def __init__(self, inner, clock: SimulatedClock | None = None, cost: float = 0.0) -> None:
        self.inner = inner
        self.clock = clock
        self.cost = cost
        self.calls = 0

    def search(self, query: str, n: int = 10):
        self.calls += 1
        if self.clock is not None:
            self.clock.sleep(self.cost)  # stands in for slow *computation*
        return self.inner.search(query, n=n)


class ComputingServer:
    """An in-process backend (it says so) whose engine can be watched.

    Given a clock, every search costs ``cost`` seconds on it.
    """

    computes_in_process = True

    def __init__(
        self, inner: DatabaseServer, clock: SimulatedClock | None = None, cost: float = 0.0
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self.engine = _CountingEngine(inner.engine, clock, cost)

    def run_query(self, query: str, max_docs: int = 10) -> list[Document]:
        return self.inner.run_query(query, max_docs=max_docs)


def hits(response) -> list[tuple[str, str, float]]:
    """The merged answer, scores included: the frontend selects exactly
    as the serial service does, so they agree to the bit."""
    return [(result.database, result.doc_id, result.score) for result in response.results]


def fanout_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("serving-fanout", "gateway-exec"))
    ]


class TestComputeOrWait:
    """The fan-out's one distinction: does a backend compute or wait."""

    def full_service(self, servers, models, recorder=NULL_RECORDER):
        service = FederatedSearchService(
            servers, databases_per_query=len(servers), recorder=recorder
        )
        service.use_models(models)
        return service

    def test_all_in_process_never_waits(self, servers, models, queries):
        service = self.full_service(servers, models)
        partials = []
        with FederationFrontend(service) as frontend:
            for query in queries:
                request = SearchRequest(query=query, n=5)
                response = frontend.search_incremental(request, partials.append)
                serial = service.search(request)
                assert [entry.name for entry in response.ranking.entries] == [
                    entry.name for entry in serial.ranking.entries
                ]
                assert response.searched == serial.searched
                assert hits(response) == hits(serial)
                assert response.dropped == serial.dropped == ()
                assert tuple(response.timings) == response.searched
            # No wait, so nothing to flush early and no pool to start.
            assert partials == []
            assert frontend._executor is None
            assert fanout_threads() == []

    def test_mixed_flushes_once_before_the_wait(self, servers, models, queries):
        slow_name = sorted(servers)[1]
        mixed = dict(servers)
        mixed[slow_name] = LatencyInjected(servers[slow_name], delay=0.3)
        service = self.full_service(mixed, models)
        request = SearchRequest(query=queries[0], n=5)
        flushed = []
        with FederationFrontend(service) as frontend:
            started = time.perf_counter()
            response = frontend.search_incremental(
                request,
                lambda update: flushed.append((time.perf_counter() - started, update)),
            )
            elapsed = time.perf_counter() - started
        assert len(flushed) == 1
        first_partial_after, partial = flushed[0]
        selected = tuple(response.ranking.top(len(mixed)))
        assert partial.sequence == 1
        assert partial.searched == tuple(name for name in selected if name != slow_name)
        assert partial.pending == (slow_name,)
        assert elapsed >= 0.28
        assert first_partial_after < elapsed / 2
        serial = service.search(request)
        assert response.searched == serial.searched == selected
        assert hits(response) == hits(serial)
        assert response.dropped == ()

    def test_mixed_deadline_drops_only_the_waiting_backend(
        self, servers, models, queries
    ):
        slow_name = sorted(servers)[1]
        mixed = dict(servers)
        mixed[slow_name] = LatencyInjected(servers[slow_name], delay=0.3)
        service = self.full_service(mixed, models)
        partials = []
        with FederationFrontend(service) as frontend:
            response = frontend.search_incremental(
                SearchRequest(query=queries[0], deadline=0.1), partials.append
            )
        assert response.dropped == (slow_name,)
        assert response.searched == tuple(
            name for name in response.ranking.top(len(mixed)) if name != slow_name
        )
        assert len(partials) == 1
        assert partials[0].results == response.results

    def test_all_waiting_streams_a_partial_per_completion(
        self, servers, models, queries
    ):
        names = sorted(servers)
        waiting = {
            name: LatencyInjected(servers[name], delay=0.08 * position)
            for position, name in enumerate(names)
        }
        service = self.full_service(waiting, models)
        partials = []
        with FederationFrontend(service, max_workers=len(names)) as frontend:
            response = frontend.search_incremental(
                SearchRequest(query=queries[0]), partials.append
            )
        # A partial whenever a completion leaves others pending.
        assert [update.sequence for update in partials] == [1, 2]
        assert [update.pending for update in partials] == [
            tuple(names[1:]),
            tuple(names[2:]),
        ]
        assert set(response.searched) == set(names)
        assert hits(response) == hits(service.search(SearchRequest(query=queries[0])))

    def test_spent_budget_touches_no_engine(self, servers, models, queries):
        watched = {name: ComputingServer(server) for name, server in servers.items()}
        recorder = TraceRecorder()
        service = self.full_service(watched, models, recorder)
        partials = []
        with FederationFrontend(service) as frontend:
            response = frontend.search_incremental(
                SearchRequest(query=queries[0], deadline=1e-6), partials.append
            )
        selected = tuple(response.ranking.top(len(watched)))
        assert [server.engine.calls for server in watched.values()] == [0, 0, 0]
        assert response.query == queries[0]
        assert response.dropped == selected
        assert response.searched == () and response.results == ()
        assert response.timings == {}
        assert partials == []
        drops = [e["attributes"] for e in recorder.events if e["name"] == "backend_dropped"]
        assert drops == [
            {"database": name, "reason": "deadline"} for name in sorted(selected)
        ]
        assert recorder.metrics.counter("serving.degraded_queries").value == 1

    def test_deadline_is_checked_between_in_process_searches(
        self, servers, models, queries
    ):
        clock = SimulatedClock()
        watched = {
            name: ComputingServer(server, clock, cost=0.25) for name, server in servers.items()
        }
        recorder = TraceRecorder(clock=clock)
        service = self.full_service(watched, models, recorder)
        with FederationFrontend(service) as frontend:
            response = frontend.search(SearchRequest(query=queries[0], deadline=0.1))
            assert frontend._executor is None
        selected = tuple(response.ranking.top(len(watched)))
        # The first search overran the budget on its own; a computation
        # cannot be abandoned, so it counts, and nothing after it runs.
        assert response.searched == selected[:1]
        assert response.dropped == selected[1:]
        assert response.timings == {selected[0]: 0.25}
        assert [watched[name].engine.calls for name in selected] == [1, 0, 0]
        assert clock.now == 0.25
        drops = [e["attributes"] for e in recorder.events if e["name"] == "backend_dropped"]
        assert drops == [
            {"database": name, "reason": "deadline"} for name in sorted(selected[1:])
        ]

    def test_serial_search_checks_the_deadline_between_backends(
        self, servers, models, queries
    ):
        clock = SimulatedClock()
        watched = {
            name: ComputingServer(server, clock, cost=0.25) for name, server in servers.items()
        }
        recorder = TraceRecorder(clock=clock)
        service = self.full_service(watched, models, recorder)
        generous = service.search(SearchRequest(query=queries[0], deadline=0.6))
        selected = tuple(generous.ranking.top(len(watched)))
        # 0, 0.25 and 0.5 s are spent before the three backends, all
        # under 0.6: each runs, the last one ending past the budget.
        assert generous.searched == selected and generous.dropped == ()
        assert generous.timings == {name: 0.25 for name in selected}
        tight = service.search(SearchRequest(query=queries[0], deadline=0.1))
        assert tight.searched == selected[:1]
        assert tight.dropped == selected[1:]
        assert tight.timings == {selected[0]: 0.25}
        assert [watched[name].engine.calls for name in selected] == [2, 1, 1]
        assert clock.now == 1.0
        drops = [e["attributes"] for e in recorder.events if e["name"] == "backend_dropped"]
        assert drops == [{"database": name, "reason": "deadline"} for name in selected[1:]]

    def test_retrievability_is_validated_once_per_server(
        self, servers, models, queries, monkeypatch
    ):
        from repro.federation import service as service_module

        checked = []

        class Watching(type):
            def __instancecheck__(cls, obj):
                checked.append(obj.name)
                return hasattr(obj, "engine")

        class WatchedProtocol(metaclass=Watching):
            pass

        monkeypatch.setattr(service_module, "RetrievableDatabase", WatchedProtocol)
        service = self.full_service(servers, models)
        with FederationFrontend(service) as frontend:
            for query in queries:
                frontend.search(SearchRequest(query=query))
            assert sorted(checked) == sorted(servers)
            # A server swapped in afterwards is a different object: it
            # is validated again, and still refused if it cannot retrieve.
            name = sorted(servers)[0]
            service.servers[name] = LatencyInjected(servers[name], delay=0.0)
            frontend.search(SearchRequest(query=queries[0]))
            assert sorted(checked) == sorted([*servers, name])


class TestFromStore:
    def test_warm_start_matches_in_memory_service(
        self, servers, models, service, queries, tmp_path
    ):
        service.save_models(tmp_path / "store")

        cold = FederatedSearchService(servers, databases_per_query=2)
        with FederationFrontend.from_store(cold, tmp_path / "store") as warm:
            # The selection cache is keyed to the warm-started epoch.
            assert warm.selection_epoch == cold.model_epoch > 0
            with FederationFrontend(service) as reference:
                for query in queries:
                    request = SearchRequest(query=query, n=5)
                    warm_response = warm.search(request)
                    reference_response = reference.search(request)
                    assert (
                        warm_response.ranking.entries
                        == reference_response.ranking.entries
                    )
                    assert warm_response.results == reference_response.results

    def test_warm_start_requires_complete_store(self, servers, models, tmp_path):
        some_name = next(iter(servers))
        partial = {some_name: models[some_name]}
        from repro.store import ShardedModelStore

        ShardedModelStore(tmp_path / "store").save(partial)
        cold = FederatedSearchService(servers, databases_per_query=2)
        with pytest.raises(ValueError, match="missing models"):
            FederationFrontend.from_store(cold, tmp_path / "store")

    def test_warm_start_from_sharded_store(self, servers, models, service, tmp_path):
        from repro.store import ShardedModelStore

        ShardedModelStore(tmp_path / "sharded", num_shards=4).save(models)
        cold = FederatedSearchService(servers, databases_per_query=2)
        with FederationFrontend.from_store(cold, tmp_path / "sharded") as warm:
            assert warm.selection_epoch == cold.model_epoch > 0
            with FederationFrontend(service) as reference:
                request = SearchRequest(query="market bank stock", n=5)
                assert (
                    warm.search(request).ranking.entries
                    == reference.search(request).ranking.entries
                )

    def test_refresh_reloads_only_the_moved_shard(self, servers, models, tmp_path):
        from repro.lm import dumps_language_model
        from repro.store import ShardedModelStore

        store = ShardedModelStore(tmp_path / "sharded", num_shards=4)
        store.save(models)
        cold = FederatedSearchService(servers, databases_per_query=2)
        with FederationFrontend.from_store(cold, store) as frontend:
            # Swap one database's model for another's, touching only
            # its shard; the frontend must reload exactly the names
            # that live in that shard.
            target, donor = sorted(servers)[:2]
            store.update({target: models[donor]})
            shard_id = store.shard_for(target).root.name
            expected = sorted(
                name
                for name in servers
                if store.shard_for(name).root.name == shard_id
            )
            assert list(frontend.refresh_from_store()) == expected
            assert dumps_language_model(cold.models[target]) == (
                dumps_language_model(models[donor])
            )
            # The store hasn't moved since: a second poll is a no-op.
            assert frontend.refresh_from_store() == ()

    def test_refresh_parses_only_the_model_that_changed(
        self, servers, models, queries, tmp_path
    ):
        from repro.store import ShardedModelStore

        recorder = TraceRecorder()
        # One shard, so all three models are neighbours.
        store = ShardedModelStore(tmp_path / "sharded", num_shards=1, recorder=recorder)
        store.save(models)
        reads = recorder.metrics.counter("store.models_read")
        cold = FederatedSearchService(servers, databases_per_query=2)
        with FederationFrontend.from_store(cold, store) as frontend:
            target, donor = sorted(servers)[:2]
            kept = {name: cold.models[name] for name in servers if name != target}
            before = reads.value
            store.update({target: models[donor]})
            # The whole shard moved, and says so; one model is parsed.
            assert list(frontend.refresh_from_store()) == sorted(servers)
            assert reads.value - before == 1
            for name, model in kept.items():
                assert cold.models[name] is model
            assert frontend.selection_epoch == cold.model_epoch

            fresh_service = FederatedSearchService(servers, databases_per_query=2)
            with FederationFrontend.from_store(fresh_service, store) as fresh:
                for query in queries:
                    request = SearchRequest(query=query, n=5)
                    served, expected = frontend.search(request), fresh.search(request)
                    assert served.ranking.entries == expected.ranking.entries
                    assert served.results == expected.results

            # A model installed behind the frontend's back is not the one
            # the fingerprint vouches for: the next moved shard reloads it.
            cold.use_models(dict(cold.models, **{donor: models[target]}))
            before = reads.value
            store.update({target: models[target]})
            frontend.refresh_from_store()
            assert reads.value - before == 2
            assert {
                name: dumps_language_model(model) for name, model in cold.models.items()
            } == {name: dumps_language_model(model) for name, model in store.iter_models()}

    def test_refresh_without_warm_store_raises(self, service):
        with FederationFrontend(service) as frontend:
            with pytest.raises(RuntimeError, match="no store to refresh from"):
                frontend.refresh_from_store()


class TestServeBench:
    def test_synthetic_federation_builds(self):
        servers = build_synthetic_federation(num_databases=2, scale=0.03, seed=1)
        assert len(servers) == 2

    def test_latency_injection_validated(self, servers):
        name = sorted(servers)[0]
        with pytest.raises(ValueError):
            LatencyInjected(servers[name], delay=-0.1)

    def test_queries_from_models_validated(self, models):
        with pytest.raises(ValueError):
            queries_from_models(models, 0)
