"""Tests for fleet workers, the scheduler, and the orchestrated sweep."""

from __future__ import annotations

import functools

import pytest

from repro.corpus import Corpus
from repro.fleet import (
    DurableJobQueue,
    FleetScheduler,
    FleetWorker,
    JobState,
    RefreshOutcome,
    RefreshRunner,
    popularity_from_metrics,
    run_refresh_sweep,
    run_workers,
)
from repro.index import DatabaseServer
from repro.lm import dumps_language_model
from repro.obs import TraceRecorder
from repro.sampling import (
    MaxDocuments,
    QueryBasedSampler,
    RandomFromOther,
    RefreshPolicy,
)
from repro.sampling.staleness import StalenessReport
from repro.sampling.transport import CircuitBreaker, ServerTimeout, SimulatedClock
from repro.store import SamplerCheckpointer
from repro.synth import cacm_like, wsj88_like
from repro.utils.rand import derive_seed


@pytest.fixture(scope="module")
def federation():
    """Three small databases; 'drifty' has been silently replaced."""
    servers = {
        "alpha": DatabaseServer(cacm_like().build(seed=11, scale=0.15)),
        "beta": DatabaseServer(cacm_like().build(seed=22, scale=0.15)),
        "drifty": DatabaseServer(cacm_like().build(seed=33, scale=0.15)),
    }
    models = {}
    for name, server in servers.items():
        sampler = QueryBasedSampler(
            server,
            bootstrap=RandomFromOther(server.actual_language_model()),
            stopping=MaxDocuments(80),
            seed=7,
        )
        models[name] = sampler.run().model
    # Replace drifty's content after its model was learned.
    replacement = Corpus(wsj88_like().build(seed=99, scale=0.05), name="drifty")
    servers = dict(servers, drifty=DatabaseServer(replacement))
    return servers, models


def bootstrap_factory_for(servers):
    return lambda name: RandomFromOther(servers[name].actual_language_model())


class TestSweepEquivalence:
    """The queued sweep is a loop of ``maybe_refresh``, query for query."""

    @pytest.mark.parametrize("num_workers", [1, 3])
    def test_sweep_matches_refresh_all(self, federation, num_workers):
        servers, models = federation
        policy = RefreshPolicy(refresh_documents=60)
        bootstrap = bootstrap_factory_for(servers)
        expected_models, expected_reports, expected_refreshed = {}, {}, []
        for name, server in servers.items():
            expected_models[name], expected_reports[name], refreshed = policy.maybe_refresh(
                server, models[name], bootstrap(name), seed=derive_seed(13, "staleness", name)
            )
            if refreshed:
                expected_refreshed.append(name)
        assert expected_refreshed  # the drifted database takes the re-sample branch
        result = run_refresh_sweep(
            servers,
            models,
            bootstrap_factory_for(servers),
            policy=policy,
            seed=13,
            num_workers=num_workers,
        )
        assert result.outcome.reports == expected_reports
        assert sorted(result.outcome.refreshed) == expected_refreshed
        for name in servers:
            assert dumps_language_model(result.outcome.models[name]) == (
                dumps_language_model(expected_models[name])
            )
        assert not result.failed_jobs

    def test_missing_model_rejected(self, federation):
        servers, models = federation
        partial = {name: models[name] for name in list(models)[:-1]}
        with pytest.raises(ValueError, match="missing stored models"):
            run_refresh_sweep(servers, partial, bootstrap_factory_for(servers))

    def test_budget_limits_the_round(self, federation, tmp_path):
        servers, models = federation
        scheduler = FleetScheduler()
        queue = DurableJobQueue(tmp_path / "q", backoff_base=0.01)
        result = run_refresh_sweep(
            servers,
            models,
            bootstrap_factory_for(servers),
            policy=RefreshPolicy(refresh_documents=40),
            queue=queue,
            scheduler=scheduler,
            budget=1,
            num_workers=1,
        )
        assert len(result.outcome.reports) == 1
        assert len(result.jobs) == 1


class TestWorker:
    def test_worker_drains_queue(self, tmp_path):
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        for name in ["a", "b", "c"]:
            queue.submit("noop", name)
        worker = FleetWorker("w1", queue, lambda job: {"db": job.database})
        stats = worker.run(poll_interval=0.0)
        assert stats.completed == 3
        assert queue.drained()
        assert queue.get("noop--a").result == {"db": "a"}

    def test_handler_error_is_retried_then_parked(self, tmp_path):
        clock = SimulatedClock()
        queue = DurableJobQueue(
            tmp_path / "q", clock=clock, backoff_base=0.0, lease_seconds=10.0
        )
        queue.submit("noop", "a", max_attempts=2)

        def explode(job):
            raise ValueError("bad job payload")

        worker = FleetWorker("w1", queue, explode)
        stats = worker.run(poll_interval=0.0)
        assert stats.failed == 2
        job = next(iter(queue.jobs()))
        assert job.state == JobState.FAILED
        assert "bad job payload" in job.error

    def test_retryable_errors_open_the_breaker(self, tmp_path):
        clock = SimulatedClock()
        queue = DurableJobQueue(
            tmp_path / "q", clock=clock, backoff_base=0.0, lease_seconds=10.0
        )
        for index in range(4):
            queue.submit("noop", f"db{index}", max_attempts=1)

        def timeout(job):
            raise ServerTimeout("backend stuck")

        breaker = CircuitBreaker(failure_threshold=2, cooldown=60.0, clock=clock)
        worker = FleetWorker("w1", queue, timeout, breaker=breaker)
        stats = worker.run(poll_interval=0.0)
        # First two jobs hit the backend and trip the breaker; the rest
        # are rejected without touching it.
        assert breaker.state == CircuitBreaker.OPEN
        assert stats.rejected_by_breaker == 2
        assert stats.failed == 4

    def test_pool_scales_out(self, tmp_path):
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        for index in range(8):
            queue.submit("noop", f"db{index}")
        stats = run_workers(queue, lambda job: {}, num_workers=4)
        assert len(stats) == 4
        assert sum(s.completed for s in stats) == 8
        assert queue.drained()

    def test_on_job_done_hook_fires(self, tmp_path):
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        queue.submit("noop", "a")
        queue.submit("noop", "b")
        seen = []
        worker = FleetWorker(
            "w1", queue, lambda job: {}, on_job_done=seen.append
        )
        worker.run(poll_interval=0.0)
        assert seen == [1, 2]


class TestRefreshRunner:
    def test_rejects_unknown_kind_and_database(self, federation):
        servers, models = federation
        runner = RefreshRunner(
            servers,
            models,
            bootstrap_factory_for(servers),
            RefreshPolicy(),
            RefreshOutcome(),
        )
        from repro.fleet.queue import Job

        with pytest.raises(ValueError, match="job kind"):
            runner(Job(job_id="x", kind="wrong", database="alpha"))
        with pytest.raises(KeyError, match="unknown database"):
            runner(Job(job_id="x", kind="refresh_check", database="nope"))

    def test_checkpointed_refresh_matches_plain(self, federation, tmp_path):
        """A checkpointing runner produces the same refreshed model."""
        servers, models = federation
        policy = RefreshPolicy(refresh_documents=50)
        bootstrap = bootstrap_factory_for(servers)
        expected, _, refreshed = policy.maybe_refresh(
            servers["drifty"], models["drifty"], bootstrap("drifty"), seed=21
        )
        assert refreshed

        from repro.fleet.queue import Job

        outcome = RefreshOutcome()
        runner = RefreshRunner(
            servers,
            models,
            bootstrap,
            policy,
            outcome,
            checkpoint_root=tmp_path / "ckpt",
        )
        result = runner(
            Job(job_id="j1", kind="refresh_check", database="drifty", payload={"seed": 21})
        )
        assert result["refreshed"] is True
        assert dumps_language_model(outcome.models["drifty"]) == (
            dumps_language_model(expected)
        )
        # The checkpointer left its per-job directory behind.
        assert (tmp_path / "ckpt" / "j1" / "sampler.json").is_file()

    def test_killed_refresh_resumes_to_the_same_model(self, federation, tmp_path):
        servers, models = federation
        refresh = functools.partial(
            RefreshPolicy(refresh_documents=50).maybe_refresh,
            servers["drifty"],
            models["drifty"],
            bootstrap_factory_for(servers)("drifty"),
            seed=21,
        )
        expected, _, _ = refresh()

        class Killed(Exception):
            pass

        class DiesAfterQueries(SamplerCheckpointer):
            def maybe_save(self, sampler):
                super().maybe_save(sampler)
                if sampler.queries_run >= 7:
                    raise Killed

        with pytest.raises(Killed):
            refresh(checkpoint=DiesAfterQueries(tmp_path, every_queries=3))
        recorder = TraceRecorder()
        resumed, _, refreshed = refresh(
            checkpoint=SamplerCheckpointer(tmp_path, every_queries=3, recorder=recorder)
        )
        assert refreshed
        restored = [e for e in recorder.events if e["name"] == "checkpoint_resumed"]
        assert [e["attributes"]["queries_run"] for e in restored] == [6]
        assert dumps_language_model(resumed) == dumps_language_model(expected)


class TestScheduler:
    def make_report(self, spearman: float) -> StalenessReport:
        return StalenessReport(rdiff_score=0.1, spearman=spearman, probe_documents=50)

    def test_score_formula(self):
        scheduler = FleetScheduler()
        scheduler.observe_report("a", self.make_report(spearman=0.8))
        rows = scheduler.priorities(["a"], popularity={"a": 10.0})
        row = rows[0]
        assert row.staleness == pytest.approx(0.2)
        assert row.score == pytest.approx(0.2 * 10.0 / 1.0)

    def test_unknown_database_assumed_stale(self):
        scheduler = FleetScheduler()
        assert scheduler.staleness_estimate("never-probed") == 1.0

    def test_ranking_blends_staleness_and_popularity(self):
        scheduler = FleetScheduler()
        scheduler.observe_report("fresh-popular", self.make_report(0.9))
        scheduler.observe_report("stale-unpopular", self.make_report(0.0))
        scheduler.observe_report("stale-popular", self.make_report(0.0))
        popularity = {"fresh-popular": 100.0, "stale-popular": 50.0, "stale-unpopular": 1.0}
        names = [
            row.name
            for row in scheduler.priorities(sorted(popularity), popularity=popularity)
        ]
        assert names[0] == "stale-popular"

    def test_refreshed_database_scores_zero_staleness(self):
        scheduler = FleetScheduler()
        scheduler.observe_report("a", self.make_report(0.0))
        scheduler.observe_refreshed("a")
        assert scheduler.staleness_estimate("a") == 0.0

    def test_cost_divides_score(self):
        scheduler = FleetScheduler(cost_estimator=lambda name: 4.0 if name == "pricey" else 1.0)
        rows = {row.name: row for row in scheduler.priorities(["pricey", "cheap"])}
        assert rows["pricey"].score == pytest.approx(rows["cheap"].score / 4.0)

    def test_bad_cost_rejected(self):
        scheduler = FleetScheduler(cost_estimator=lambda name: 0.0)
        with pytest.raises(ValueError, match="cost"):
            scheduler.priorities(["a"])

    def test_enqueue_sets_priorities_and_seeds(self, tmp_path):
        scheduler = FleetScheduler()
        scheduler.observe_report("fresh", self.make_report(0.9))
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        jobs = scheduler.enqueue(queue, ["fresh", "unknown"], seed=42)
        assert [job.database for job in jobs] == ["unknown", "fresh"]
        assert jobs[0].priority > jobs[1].priority
        assert jobs[0].payload["seed"] == derive_seed(42, "staleness", "unknown")

    def test_enqueue_budget_truncates(self, tmp_path):
        scheduler = FleetScheduler()
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        jobs = scheduler.enqueue(queue, ["a", "b", "c"], budget=2)
        assert len(jobs) == 2
        with pytest.raises(ValueError):
            scheduler.enqueue(queue, ["a"], budget=0)

    def test_scored_round_beats_uniform_on_weighted_staleness(self):
        """One budget-3 round over a fleet where three of six databases
        drifted (two hot, one cold): ranking by staleness x popularity
        must leave users with fresher models than picking three blind."""
        from random import Random

        from repro.federation.service import FederatedSearchService, SearchRequest
        from repro.lm.compare import spearman_rank_correlation
        from repro.serving import queries_from_models

        names = [f"db{index:02d}" for index in range(6)]

        def server(name, profile, label):
            corpus = profile().build(seed=derive_seed(0, label, name), scale=0.03)
            return DatabaseServer(Corpus(corpus, name=name))

        servers = {name: server(name, cacm_like, "fleet") for name in names}
        models = {
            name: QueryBasedSampler(
                servers[name],
                bootstrap=RandomFromOther(servers[name].actual_language_model()),
                stopping=MaxDocuments(60),
                seed=derive_seed(0, "learn", name),
            ).run().model
            for name in names
        }
        for name in (names[0], names[1], names[-1]):
            servers[name] = server(name, wsj88_like, "drift")

        # Popularity is what real serving traffic left in the counters.
        recorder = TraceRecorder()
        service = FederatedSearchService(servers, databases_per_query=2, recorder=recorder)
        service.use_models(models)
        for name, rounds in zip(names, (8, 6, 4, 1, 1, 1)):
            for query in queries_from_models({name: models[name]}, rounds * 2):
                service.search(SearchRequest(query=query, n=5))
        popularity = popularity_from_metrics(recorder.metrics, names)

        def staleness_after(chosen, **sweep_options):
            outcome = run_refresh_sweep(
                {name: servers[name] for name in chosen},
                {name: models[name] for name in chosen},
                bootstrap_factory_for(servers),
                policy=RefreshPolicy(refresh_documents=60),
                seed=0,
                **sweep_options,
            ).outcome
            served = {**models, **{n: outcome.models[n] for n in outcome.refreshed}}
            stale = {
                name: 1.0 - spearman_rank_correlation(
                    served[name].project(servers[name].index.analyzer),
                    servers[name].actual_language_model(),
                )
                for name in names
            }
            return sum(popularity[n] * stale[n] for n in names) / sum(popularity.values())

        scored = staleness_after(names, budget=3, popularity=popularity)
        uniform = [
            staleness_after(Random(derive_seed(0, "uniform-pick", str(draw))).sample(names, 3))
            for draw in range(3)
        ]
        assert scored < sum(uniform) / len(uniform)


class TestPopularityCounters:
    def test_service_search_counts_selected_databases(self, federation):
        from repro.federation.service import FederatedSearchService, SearchRequest

        servers, models = federation
        recorder = TraceRecorder()
        service = FederatedSearchService(
            servers, databases_per_query=2, recorder=recorder
        )
        service.use_models(models)
        response = service.search(SearchRequest(query="algorithm system", n=5))
        assert response.searched
        for name in response.searched:
            assert recorder.metrics.counter(f"serving.db.{name}.searched").value >= 1

    def test_frontend_traffic_reaches_the_scheduler(self, federation):
        from repro.federation.service import FederatedSearchService, SearchRequest
        from repro.serving import FederationFrontend

        servers, models = federation
        recorder = TraceRecorder()
        service = FederatedSearchService(servers, databases_per_query=2, recorder=recorder)
        service.use_models(models)
        with FederationFrontend(service) as frontend:
            response = frontend.search(SearchRequest(query="algorithm system", n=5))
        assert len(response.searched) == 2
        popularity = popularity_from_metrics(recorder.metrics, sorted(servers))
        assert {name for name, value in popularity.items() if value > 1.0} == set(
            response.searched
        )

    def test_popularity_from_metrics_smoothing(self):
        recorder = TraceRecorder()
        recorder.count("serving.db.hot.searched", 9)
        popularity = popularity_from_metrics(recorder.metrics, ["hot", "cold"])
        assert popularity == {"hot": 10.0, "cold": 1.0}
