"""Tests for fleet workers, the scheduler, and the orchestrated sweep.

What runs where, and what a job costs, is pinned by counts (threads
started, seconds slept on a simulated clock, job files opened), never
by wall-clock time.
"""

from __future__ import annotations

import builtins
import functools
import json
import os
from pathlib import Path

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
from repro.serving import LatencyInjected
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

    def test_reports_only_the_jobs_it_submitted(self, federation, tmp_path):
        servers, models = federation
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock(), backoff_base=0.0)
        stale = queue.submit("refresh_check", "gone-db", max_attempts=1)
        queue.fail(stale.job_id, queue.claim("w0").lease.token, "boom")
        for budget in (None, 1):
            result = run_refresh_sweep(
                servers, models, bootstrap_factory_for(servers),
                policy=RefreshPolicy(refresh_documents=40),
                queue=queue, budget=budget, num_workers=1,
            )
            assert not result.failed_jobs
            assert len(result.jobs) == len(result.outcome.reports)
            assert {job.database for job in result.jobs} == set(result.outcome.reports)
            assert all(job.state == JobState.DONE for job in result.jobs)


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


class TestComputeOrWait:
    """``run_workers`` asks ``may_wait(handler)`` once: a handler that
    computes drains on the calling thread, any other gets the threads."""

    def plain_loop(self, servers, models, policy, seed):
        bootstrap = bootstrap_factory_for(servers)
        expected = {}
        for name, server in servers.items():
            model, report, refreshed = policy.maybe_refresh(
                server, models[name], bootstrap(name), seed=derive_seed(seed, "staleness", name)
            )
            expected[name] = (dumps_language_model(model), report, refreshed)
        return expected

    def swept(self, result):
        return {
            name: (
                dumps_language_model(result.outcome.models[name]),
                result.outcome.reports[name],
                name in result.outcome.refreshed,
            )
            for name in result.outcome.models
        }

    def test_in_process_sweep_starts_no_thread(self, federation, thread_starts):
        servers, models = federation
        policy = RefreshPolicy(refresh_documents=60)
        result = run_refresh_sweep(
            servers, models, bootstrap_factory_for(servers),
            policy=policy, seed=13, num_workers=4,
        )
        assert thread_starts == []
        assert not result.failed_jobs
        assert self.swept(result) == self.plain_loop(servers, models, policy, 13)

    def test_waiting_backends_keep_their_threads(self, federation, thread_starts):
        servers, models = federation
        policy = RefreshPolicy(refresh_documents=60)
        # A wrapper forwards no attribute, so what it wraps may wait.
        remote = {name: LatencyInjected(server, 0.0) for name, server in servers.items()}
        result = run_refresh_sweep(
            remote, models, bootstrap_factory_for(servers),
            policy=policy, seed=13, num_workers=4,
        )
        assert thread_starts == [f"worker-{index}" for index in range(4)]
        assert not result.failed_jobs
        # Same probes, same re-samples, byte for byte, on either path.
        assert self.swept(result) == self.plain_loop(servers, models, policy, 13)

    def test_the_runner_declares_it_and_one_wrapper_undoes_it(self, federation):
        servers, models = federation

        def runner(databases):
            return RefreshRunner(
                databases, models, bootstrap_factory_for(servers),
                RefreshPolicy(), RefreshOutcome(),
            )

        assert runner(servers).computes_in_process is True
        one_remote = dict(servers, alpha=LatencyInjected(servers["alpha"], 0.0))
        assert runner(one_remote).computes_in_process is False

    def test_one_worker_whatever_num_workers_says(self, federation, tmp_path, thread_starts):
        servers, models = federation
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        FleetScheduler().enqueue(queue, sorted(servers), seed=13)
        runner = RefreshRunner(
            servers, models, bootstrap_factory_for(servers),
            RefreshPolicy(refresh_documents=60), RefreshOutcome(),
        )
        stats = run_workers(queue, runner, num_workers=4)
        assert [s.worker_id for s in stats] == ["worker-0"]
        assert stats[0].completed == len(servers)
        assert thread_starts == []
        assert queue.drained()


class TestIdleTail:
    """A drained queue is left at once; an undrained one is polled."""

    def test_drain_ends_with_the_clock_where_it_started(self, tmp_path):
        clock = SimulatedClock()
        queue = DurableJobQueue(tmp_path / "q", clock=clock)
        for name in ["a", "b", "c"]:
            queue.submit("noop", name)
        stats = FleetWorker("w1", queue, lambda job: {}).run(poll_interval=0.5)
        assert stats.completed == 3
        assert clock.now == 0.0

    def test_a_peers_lease_is_polled_for(self, tmp_path):
        clock = SimulatedClock()
        queue = DurableJobQueue(tmp_path / "q", clock=clock, lease_seconds=60.0)
        queue.submit("noop", "mine")
        queue.submit("noop", "theirs", priority=1.0)
        assert queue.claim("peer").database == "theirs"
        stats = FleetWorker("w1", queue, lambda job: {}).run(
            poll_interval=0.5, idle_polls=3
        )
        assert stats.completed == 1
        assert clock.now == 1.5  # three polls, then it gives up
        assert queue.counts()[JobState.LEASED] == 1

    def test_a_backoff_gate_is_polled_for(self, tmp_path):
        clock = SimulatedClock()
        queue = DurableJobQueue(tmp_path / "q", clock=clock, backoff_base=1.0)
        queue.submit("noop", "flaky", max_attempts=2)
        attempts = []

        def fails_once(job):
            attempts.append(job.attempts)
            if job.attempts == 1:
                raise ValueError("first attempt")
            return {}

        stats = FleetWorker("w1", queue, fails_once).run(poll_interval=0.5)
        # Two polls carry the clock past the 1 s gate; the retry then
        # drains the queue and the worker leaves without a third.
        assert attempts == [1, 2]
        assert (stats.failed, stats.completed) == (1, 1)
        assert clock.now == 1.0


@pytest.fixture
def job_file_reads(monkeypatch) -> list[str]:
    """Names of the job files opened for reading, however they are opened."""
    reads: list[str] = []

    def note(path, mode) -> None:
        path = Path(os.fspath(path)) if not isinstance(path, int) else None
        if path is not None and path.parent.name == "jobs" and "r" in mode:
            reads.append(path.name)

    real_open, real_path_open = builtins.open, Path.open

    def counting_open(file, mode="r", *args, **kwargs):
        note(file, mode)
        return real_open(file, mode, *args, **kwargs)

    def counting_path_open(self, mode="r", *args, **kwargs):
        note(self, mode)
        return real_path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(Path, "open", counting_path_open)
    return reads


class TestQueueIndex:
    """The in-memory index: bounded reads, and nothing another process
    wrote is missed."""

    @pytest.mark.parametrize("jobs", [8, 64, 512])
    def test_reads_per_drained_job_do_not_grow_with_the_queue(
        self, tmp_path, monkeypatch, job_file_reads, jobs
    ):
        # The test counts reads; what an fsync costs is not its subject.
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        submitter = DurableJobQueue(tmp_path / "q")
        for index in range(jobs):
            submitter.submit("noop", f"db{index:04d}", priority=float(index % 7))
        assert job_file_reads == []  # own writes enter the index unread
        # A second object over the directory starts with an empty index.
        queue = DurableJobQueue(tmp_path / "q")
        stats = FleetWorker("w1", queue, lambda job: {}).run()
        assert stats.completed == jobs
        assert queue.drained()
        assert len(job_file_reads) <= 2 * jobs
        # In fact one read each, to learn of the job at all.
        assert sorted(job_file_reads) == sorted(f"noop--db{i:04d}.json" for i in range(jobs))

    def test_another_objects_writes_are_seen(self, tmp_path):
        clock = SimulatedClock()
        ours = DurableJobQueue(tmp_path / "q", clock=clock)
        theirs = DurableJobQueue(tmp_path / "q", clock=clock)
        assert ours.drained() and ours.claim("w") is None

        theirs.submit("noop", "a", priority=1.0)
        assert ours.counts()[JobState.PENDING] == 1
        assert not ours.drained()

        taken = theirs.claim("them")
        assert ours.get("noop--a").state == JobState.LEASED
        assert ours.claim("us") is None  # their lease holds

        theirs.complete(taken.job_id, taken.lease.token, {"by": "them"})
        assert ours.get("noop--a").result == {"by": "them"}
        assert ours.drained()

        # A foreign write, then an own write, before the next read: the
        # own write must not vouch for files it did not touch.
        ours.submit("noop", "b")
        theirs.submit("noop", "c", priority=5.0)
        ours.submit("noop", "d")
        assert ours.counts()[JobState.PENDING] == 3
        assert ours.claim("us").database == "c"
        theirs_b = theirs.claim("them")
        assert theirs_b.database == "b"
        ours.submit("noop", "e")
        assert ours.claim("us").database == "d"

        theirs.jobs_dir.joinpath("noop--e.json").unlink()
        assert [job.database for job in ours.jobs()] == ["a", "b", "c", "d"]
        with pytest.raises(KeyError):
            ours.get("noop--e")
        # A job deleted behind its back can be submitted afresh.
        assert ours.submit("noop", "e").state == JobState.PENDING

    def test_a_rewritten_file_is_reread_even_within_one_tick(self, tmp_path):
        """Each write is a fresh inode: no mtime resolution is relied on."""
        ours = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        theirs = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        ours.submit("noop", "a")
        path = ours.jobs_dir / "noop--a.json"
        stamp = path.stat().st_mtime_ns
        claimed = theirs.claim("them")
        os.utime(path, ns=(stamp, stamp))  # as if written in the same tick
        assert ours.get("noop--a").lease == claimed.lease

    def test_a_corrupt_job_file_still_raises(self, tmp_path):
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        queue.submit("noop", "a")
        queue.submit("noop", "b")
        assert queue.counts()[JobState.PENDING] == 2
        path = queue.jobs_dir / "noop--b.json"
        path.write_text("{ torn")
        for read in (queue.counts, lambda: queue.claim("w"),
                     lambda: queue.get("noop--b"), lambda: list(queue.jobs())):
            with pytest.raises(json.JSONDecodeError):
                read()
        data = json.loads((queue.jobs_dir / "noop--a.json").read_text())
        path.write_text(json.dumps(dict(data, schema="repro-fleet-queue/0")))
        with pytest.raises(ValueError, match="unsupported queue schema"):
            queue.counts()


class TestWorkerOutlivesItsHandler:
    """Whatever a handler raises, the job goes back through the queue's
    bounded retry — a lease is never left to age out."""

    @pytest.mark.parametrize("error", [RuntimeError, TypeError, AttributeError])
    def test_unexpected_error_is_retried_then_parked(self, tmp_path, error):
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock(), backoff_base=0.0)
        queue.submit("noop", "a", max_attempts=2)

        def explode(job):
            raise error("handler bug")

        recorder = TraceRecorder()
        worker = FleetWorker("w1", queue, explode, recorder=recorder)
        stats = worker.run(poll_interval=0.0)
        assert stats.failed == 2
        job = queue.get("noop--a")
        assert job.state == JobState.FAILED
        assert job.error == f"{error.__name__}: handler bug"
        assert worker.breaker.state == CircuitBreaker.CLOSED  # the backend answered
        # Where it was raised goes to the recorder, once per attempt.
        tracebacks = [
            e["attributes"]["traceback"] for e in recorder.events if e["name"] == "job_error"
        ]
        assert len(tracebacks) == 2 and all("in explode" in text for text in tracebacks)

    def test_worker_threads_survive_it(self, tmp_path):
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock(), backoff_base=0.0)
        for name in ["a", "b"]:
            queue.submit("noop", name, max_attempts=1)

        def explode(job):
            raise RuntimeError("handler bug")

        stats = run_workers(queue, explode, num_workers=2, poll_interval=0.0)
        assert sum(s.failed for s in stats) == 2
        assert queue.counts() == {
            JobState.PENDING: 0, JobState.LEASED: 0, JobState.DONE: 0, JobState.FAILED: 2,
        }

    def test_the_sweep_returns_it_in_failed_jobs(self, federation, tmp_path):
        servers, models = federation

        class Broken:
            computes_in_process = True

            def run_query(self, query, max_docs=10):
                raise RuntimeError("index unreadable")

        broken = dict(servers, beta=Broken())
        result = run_refresh_sweep(
            broken, models, bootstrap_factory_for(servers),
            policy=RefreshPolicy(refresh_documents=40),
            queue=DurableJobQueue(tmp_path / "q", clock=SimulatedClock(), backoff_base=0.0),
            num_workers=1,
        )
        assert [job.database for job in result.failed_jobs] == ["beta"]
        assert result.failed_jobs[0].error == "RuntimeError: index unreadable"
        assert sorted(result.outcome.reports) == ["alpha", "drifty"]


class TestLeaseExpiryIsBounded:
    def test_last_attempts_expired_lease_parks_the_job(self, tmp_path):
        clock = SimulatedClock()
        recorder = TraceRecorder()
        queue = DurableJobQueue(
            tmp_path / "q", clock=clock, lease_seconds=10.0, recorder=recorder
        )
        queue.submit("noop", "killer", priority=2.0, max_attempts=2)
        queue.submit("noop", "bystander", priority=1.0)
        attempts = []
        for _ in range(2):  # each claimant dies holding the lease
            attempts.append(queue.claim("doomed").attempts)
            clock.sleep(10.0)
        assert attempts == [1, 2]
        # The third claim finds the lease expired on the last attempt:
        # it parks the job and moves on to the next eligible one.
        survivor = queue.claim("w3")
        assert survivor.database == "bystander"
        assert queue.complete(survivor.job_id, survivor.lease.token)
        parked = queue.get("noop--killer")
        assert parked.state == JobState.FAILED
        assert parked.attempts == 2 and parked.lease is None
        assert "lease expired on the last attempt" in parked.error
        metrics = recorder.metrics
        assert metrics.counter("fleet.leases_expired").value == 2
        assert metrics.counter("fleet.jobs_dead").value == 1
        assert metrics.counter("fleet.jobs_claimed").value == 3
        failed = [e for e in recorder.events if e["name"] == "job_failed"]
        assert [e["attributes"]["job_id"] for e in failed] == ["noop--killer"]
        clock.sleep(100.0)
        assert queue.claim("w4") is None  # parked for good
        assert queue.drained()


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
