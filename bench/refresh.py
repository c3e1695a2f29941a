"""Workload ``refresh``: keep served models fresh while they are being read.

Eight ``cacm`` databases serve from a 4-shard model store.  One round
drifts three of them to a ``wsj88`` profile and back; each half-round is
``run_refresh_sweep`` through a ``DurableJobQueue`` with two workers,
``ShardedModelStore.update`` with the re-sampled models,
``FederationFrontend.refresh_from_store`` and then 64 in-process
searches against the new epoch.  Both halves make one round, so that
round times are alike.  An op is one database checked.
"""

from __future__ import annotations

import os
import random
import shutil
import time

from repro.corpus import Corpus
from repro.federation.service import FederatedSearchService, SearchRequest
from repro.fleet.queue import DurableJobQueue
from repro.fleet.sweep import run_refresh_sweep
from repro.index.server import DatabaseServer
from repro.sampling.selection import RandomFromOther
from repro.sampling.staleness import RefreshPolicy
from repro.serving.frontend import FederationFrontend
from repro.store.sharded import ShardedModelStore
from repro.synth import cacm_like, wsj88_like
from repro.utils.rand import derive_seed

import measure
from fixtures import NUM_DATABASES, NUM_SHARDS, SETUP_REPEATS, distinct_queries, query_vocabulary
from measure import Options, Outcome, SpanLog
from proxies import Scope, TimedDatabase, TimedMerger

DRIFTED_DATABASES = 3
BATCH_REQUESTS = 64
FANOUT = 3
WORKERS = 2

#: The traced run's counts come from its first rounds, so that they
#: repeat exactly for a seed however many rounds the window holds.
COUNTED_ROUNDS = 2


class _Half:
    """What one half-round did."""

    def __init__(self, round_index: int, traced: bool) -> None:
        self.round = round_index
        self.traced = traced
        self.wall = 0.0
        self.cpu = 0.0
        self.latencies_ms: list[float] = []
        self.refreshed = 0
        self.resampled_documents = 0
        self.probe_documents = 0
        self.sweep_span: int | None = None


class _Refresh:
    def __init__(self, options: Options) -> None:
        self.options = options
        self.sizes = options.sizes
        self.outcome = Outcome()
        self.log = SpanLog() if options.traced else None
        self.scope = Scope()
        self.policy = RefreshPolicy(refresh_documents=self.sizes.refresh_documents)
        self.names = [f"db{index:02d}" for index in range(NUM_DATABASES)]
        self.drifted = sorted(
            random.Random(derive_seed(options.seed, "drifted")).sample(
                self.names, DRIFTED_DATABASES
            )
        )
        self.variants: dict[tuple[str, str], object] = {}
        self.references: dict[tuple[str, str], object] = {}
        self.current = {name: "base" for name in self.names}
        self.halves = 0

    # -- set-up ----------------------------------------------------------------

    def set_up(self) -> None:
        seconds = []
        for attempt in range(SETUP_REPEATS):
            started = time.perf_counter()
            self._build(os.path.join(self.options.workdir, f"store-{attempt}"))
            seconds.append(time.perf_counter() - started)
        self.outcome.end_to_end["setup_s"] = measure.median(seconds)
        self.outcome.timings["setup_s"] = (seconds, "s")
        vocabulary = query_vocabulary(
            {name: self.variants[name, "base"] for name in self.names},
            self.sizes.query_min_df,
        )
        queries = distinct_queries(
            vocabulary, random.Random(derive_seed(self.options.seed, "queries")), 3
        )
        self.requests = [
            SearchRequest(query=next(queries)) for _ in range(BATCH_REQUESTS)
        ]

    def _build(self, store_root: str) -> None:
        seed, sizes = self.options.seed, self.sizes
        for name in self.names:
            corpus = cacm_like().build(
                seed=derive_seed(seed, "fleet", name), scale=sizes.refresh_scale
            )
            self.variants[name, "base"] = DatabaseServer(Corpus(corpus, name=name))
        for name in self.drifted:
            corpus = wsj88_like().build(
                seed=derive_seed(seed, "drift", name), scale=sizes.drift_scale
            )
            self.variants[name, "drifted"] = DatabaseServer(Corpus(corpus, name=name))
        self.references = {
            key: server.actual_language_model() for key, server in self.variants.items()
        }
        servers = {name: self._server(name, "base") for name in self.names}
        learner = FederatedSearchService(servers)
        learner.learn_models(
            self._bootstrap, sizes.refresh_documents * NUM_DATABASES,
            seed=derive_seed(seed, "initial"),
        )
        self.store = ShardedModelStore(store_root, num_shards=NUM_SHARDS)
        learner.save_models(self.store)
        self.service = FederatedSearchService(servers, databases_per_query=FANOUT)
        if self.log is not None:
            self.service.merger = TimedMerger(self.service.merger, self.log, self.scope)
        self.frontend = FederationFrontend.from_store(
            self.service, self.store, max_workers=WORKERS
        )

    def _server(self, name: str, variant: str):
        server = self.variants[name, variant]
        if self.log is not None:
            return TimedDatabase(server, self.log, self.scope)
        return server

    def _bootstrap(self, name: str) -> RandomFromOther:
        return RandomFromOther(self.references[name, self.current[name]])

    # -- one half-round ----------------------------------------------------------

    def half(self, round_index: int, *, traced: bool) -> _Half:
        record = _Half(round_index, traced)
        index = self.halves
        self.halves += 1
        variant = "drifted" if index % 2 == 0 else "base"
        for name in self.drifted:
            self.current[name] = variant
            self.service.servers[name] = self._server(name, variant)
        if self.log is not None:
            self.log.enabled = traced
        queue_root = os.path.join(self.options.workdir, f"queue-{index}")
        wall = time.perf_counter()
        cpu = time.process_time()
        with measure.optional_span(self.log, traced, "sweep", "fleet") as sweep_span:
            record.sweep_span = self.scope.shared = sweep_span
            result = run_refresh_sweep(
                self.service.servers,
                self.service.models,
                self._bootstrap,
                policy=self.policy,
                seed=derive_seed(self.options.seed, "sweep", index),
                queue=DurableJobQueue(queue_root),
                num_workers=WORKERS,
            )
            self.scope.shared = None
        refreshed = {name: result.outcome.models[name] for name in result.outcome.refreshed}
        reloaded: tuple[str, ...] = ()
        if refreshed:
            with measure.optional_span(self.log, traced, "store_update", "store"):
                self.store.update(refreshed)
            with measure.optional_span(self.log, traced, "refresh_from_store", "serving"):
                reloaded = self.frontend.refresh_from_store()
        responses = []
        for request in self.requests:
            with measure.optional_span(
                self.log, traced, "search", "serving", query=request.query
            ) as span:
                self.scope.current = span
                started = time.perf_counter()
                responses.append(self.frontend.search(request))
                record.latencies_ms.append((time.perf_counter() - started) * 1000.0)
        self.scope.current = None
        record.wall = time.perf_counter() - wall
        record.cpu = time.process_time() - cpu
        shutil.rmtree(queue_root)
        self.last_responses = responses

        outcome = self.outcome
        outcome.attempted += NUM_DATABASES
        outcome.failed += NUM_DATABASES - len(result.outcome.reports)
        for job in result.failed_jobs:
            outcome.problem(f"half {index}: job for {job.database} failed: {job.error}")
        if sorted(refreshed) != self.drifted:
            outcome.problem(
                f"half {index}: refreshed {sorted(refreshed)}, drifted {self.drifted}"
            )
        if not set(self.drifted) <= set(reloaded):
            outcome.problem(f"half {index}: frontend reloaded only {sorted(reloaded)}")
        record.refreshed = len(refreshed)
        record.resampled_documents = sum(m.documents_seen for m in refreshed.values())
        record.probe_documents = sum(
            report.probe_documents for report in result.outcome.reports.values()
        )
        return record

    def check_state(self, label: str) -> None:
        """The store is intact and the frontend answers as a freshly booted one."""
        damage = self.store.verify()
        if damage:
            self.outcome.problem(f"{label}: store.verify() reported {damage}")
        servers = {name: self.variants[name, self.current[name]] for name in self.names}
        service = FederatedSearchService(servers, databases_per_query=FANOUT)
        with FederationFrontend.from_store(service, self.store, max_workers=WORKERS) as fresh:
            for request, served in zip(self.requests, self.last_responses):
                expected = fresh.search(request)
                if _hits(served) != _hits(expected) or served.dropped:
                    self.outcome.problem(
                        f"{label}: {request.query!r} answered differently from a fresh frontend"
                    )

    # -- the run -------------------------------------------------------------------

    def run(self) -> Outcome:
        options, outcome = self.options, self.outcome
        self.set_up()
        for _ in range(2):  # warm-up round, untimed, fully checked
            self.half(-1, traced=False)
        self.check_state("warm-up")
        outcome.attempted = outcome.failed = 0
        rounds: list[tuple[_Half, _Half]] = []
        started = time.perf_counter()
        while time.perf_counter() - started < options.seconds:
            index = len(rounds)
            # The traced run alternates traced and plain rounds, so the
            # price of tracing is measured inside one process state.
            traced = options.traced and index % 2 == 0
            rounds.append((self.half(index, traced=traced), self.half(index, traced=traced)))
        self.check_state("after the window")
        self.frontend.close()
        halves = [half for pair in rounds for half in pair]
        outcome.phases.append(
            f"window: {len(rounds)} rounds, {outcome.attempted} databases checked, "
            f"{sum(h.refreshed for h in halves)} refreshed, "
            f"{len(halves) * BATCH_REQUESTS} searches, {len(outcome.problems)} gate misses"
        )
        if options.traced:
            self._layers(rounds)
        else:
            # Per round, then the quartile on the good side (measure.fast_quartile).
            outcome.end_to_end["ops_per_s"] = measure.fast_quartile(
                [_round_rate(pair) for pair in rounds], "higher"
            )
            outcome.end_to_end["peak_rss_mb"] = measure.peak_rss_mb(os.getpid())
            outcome.timings["latency_ms (one search after an epoch)"] = (
                [ms for h in halves for ms in h.latencies_ms], "ms"
            )
            outcome.timings["cpu_ms_per_op (per round)"] = (
                [_round_cpu_ms(pair) for pair in rounds], "ms"
            )
            outcome.timings["round_ms"] = (
                [(a.wall + b.wall) * 1000.0 for a, b in rounds], "ms"
            )
        outcome.log = self.log
        return outcome

    def _layers(self, rounds: list[tuple[_Half, _Half]]) -> None:
        log, outcome, layers = self.log, self.outcome, self.outcome.layers
        assert log is not None
        traced = [half for pair in rounds if pair[0].traced for half in pair]
        counted = [half for half in traced if half.round < 2 * COUNTED_ROUNDS]
        counted_sweeps = {half.sweep_span for half in counted}
        queries = log.named("run_query")
        counted_queries = [row for row in queries if row["parent"] in counted_sweeps]

        layers["index.run_query_ms"] = measure.median(log.durations_ms("run_query"))
        layers["index.queries"] = len(counted_queries)
        layers["index.docs_returned"] = sum(row["documents"] for row in counted_queries)
        layers["index.search_ms"] = measure.median(log.durations_ms("backend_search"))
        searches = max(1, len(log.named("search")))
        layers["index.search_calls_per_request"] = len(log.named("backend_search")) / searches
        outcome.timings["index.search_ms"] = (log.durations_ms("backend_search"), "ms")

        learned = sum(h.probe_documents + h.resampled_documents for h in counted)
        layers["sampling.queries_per_doc"] = len(counted_queries) / max(1, learned)

        layers["store.update_ms"] = measure.median(log.durations_ms("store_update"))
        layers["store.bytes_per_model"] = (
            measure.directory_bytes(str(self.store.root)) / NUM_DATABASES
        )

        checked = max(1, len(traced) * NUM_DATABASES)
        layers["fleet.sweep_ms_per_db"] = sum(log.durations_ms("sweep")) / checked
        fresh_queries = [
            row for row in counted_queries if row["database"] not in self.drifted
        ]
        layers["fleet.probe_queries_per_db"] = len(fresh_queries) / max(
            1, len(counted) * (NUM_DATABASES - DRIFTED_DATABASES)
        )
        layers["fleet.resampled_docs"] = sum(h.resampled_documents for h in counted)
        layers["fleet.refreshed_share"] = sum(h.refreshed for h in counted) / max(
            1, len(counted) * NUM_DATABASES
        )
        layers["fleet.queue_ms_per_job"] = _queue_ms_per_job(
            os.path.join(self.options.workdir, "queue-replay")
        )

        layers["serving.refresh_from_store_ms"] = measure.median(
            log.durations_ms("refresh_from_store")
        )
        layers["serving.first_search_after_epoch_ms"] = measure.median(
            [half.latencies_ms[0] for half in traced]
        )
        layers["serving.search_ms"] = measure.median(log.durations_ms("search"))
        # Backend searches run on pool threads; requests run one at a time
        # here, so the join by query and containment is never ambiguous.
        measure.join_spans(log, "backend_search", "search")
        children = measure.children_by_parent(log.rows)
        layers["serving.self_ms"] = measure.median(
            [
                measure.self_seconds(row, children.get(row["id"], ())) * 1000.0
                for row in log.named("search")
            ]
        )
        merges = log.durations_ms("merge")
        layers["dbselect.merge_us"] = measure.median(merges) * 1000.0
        layers["dbselect.merge_calls_per_request"] = len(merges) / searches

        selections = self.frontend.selections
        layers["serving.select_hit_share"] = selections.hit_rate

        plain = [pair for pair in rounds if not pair[0].traced]
        layers["total.cpu_ms_per_op"] = measure.fast_quartile(
            [_round_cpu_ms(pair) for pair in plain]
        )
        layers["total.latency_p50_ms"] = measure.fast_quartile(
            [measure.median(half.latencies_ms) for pair in plain for half in pair]
        )
        if traced and plain:
            traced_rate = measure.fast_quartile(
                [_round_rate(pair) for pair in rounds if pair[0].traced], "higher"
            )
            plain_rate = measure.fast_quartile([_round_rate(pair) for pair in plain], "higher")
            layers["obs.trace_overhead_share"] = (plain_rate - traced_rate) / plain_rate


def _round_rate(pair: tuple[_Half, _Half]) -> float:
    """Databases checked per second over one round (both halves)."""
    return 2 * NUM_DATABASES / (pair[0].wall + pair[1].wall)


def _round_cpu_ms(pair: tuple[_Half, _Half]) -> float:
    """CPU milliseconds per database checked over one round."""
    return (pair[0].cpu + pair[1].cpu) * 1000.0 / (2 * NUM_DATABASES)


def _hits(response) -> list[tuple[str, str]]:
    return [(result.database, result.doc_id) for result in response.results]


def _queue_ms_per_job(root: str) -> float:
    """Milliseconds per job of ``submit -> claim -> complete`` on a queue alone."""
    queue = DurableJobQueue(root)
    jobs = NUM_DATABASES
    started = time.perf_counter()
    for index in range(jobs):
        queue.submit("refresh_check", f"db{index:02d}")
    for _ in range(jobs):
        job = queue.claim("replay")
        queue.complete(job.job_id, job.lease.token, {})
    elapsed = time.perf_counter() - started
    shutil.rmtree(root)
    return elapsed * 1000.0 / jobs


def run(options: Options) -> Outcome:
    """Run the workload once."""
    return _Refresh(options).run()
