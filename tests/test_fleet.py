"""Tests for fleet workers, the refresh enqueue, and the orchestrated sweep.

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
    FleetWorker,
    JobState,
    RefreshOutcome,
    RefreshRunner,
    enqueue_refresh,
    run_refresh_sweep,
    run_workers,
)
from repro.index import DatabaseServer
from repro.lm import dumps_language_model
from repro.obs import SimulatedClock, TraceRecorder
from repro.sampling import (
    MaxDocuments,
    QueryBasedSampler,
    RandomFromOther,
    RefreshPolicy,
)
from repro.sampling.transport import ServerTimeout
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

    def test_reports_only_the_jobs_it_submitted(self, federation, tmp_path):
        servers, models = federation
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock(), backoff_base=0.0)
        stale = queue.submit("refresh_check", "gone-db", max_attempts=1)
        queue.fail(stale.job_id, queue.claim("w0").lease.token, "boom")
        result = run_refresh_sweep(
            servers, models, bootstrap_factory_for(servers),
            policy=RefreshPolicy(refresh_documents=40),
            queue=queue, num_workers=1,
        )
        assert not result.failed_jobs
        assert len(result.jobs) == len(result.outcome.reports) == len(servers)
        assert {job.database for job in result.jobs} == set(result.outcome.reports)
        assert all(job.state == JobState.DONE for job in result.jobs)


class TestWorker:
    def test_worker_drains_queue(self, tmp_path):
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        for name in ["a", "b", "c"]:
            queue.submit("noop", name)
        worker = FleetWorker("w1", queue, lambda job: {"db": job.database})
        stats = worker.run()
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
        stats = worker.run()
        assert stats.failed == 2
        job = next(iter(queue.jobs()))
        assert job.state == JobState.FAILED
        assert "bad job payload" in job.error

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
        enqueue_refresh(queue, servers, seed=13)
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
    """``run_workers`` leaves a drained queue at once and otherwise sleeps
    on the queue's clock exactly until the next job is claimable."""

    def test_drain_ends_with_the_clock_where_it_started(self, tmp_path):
        clock = SimulatedClock()
        queue = DurableJobQueue(tmp_path / "q", clock=clock)
        for name in ["a", "b", "c"]:
            queue.submit("noop", name)
        (stats,) = run_workers(queue, lambda job: {}, num_workers=1)
        assert stats.completed == 3
        assert clock.now == 0.0

    def test_a_peers_lease_is_polled_for(self, tmp_path):
        clock = SimulatedClock()
        queue = DurableJobQueue(tmp_path / "q", clock=clock, lease_seconds=60.0)
        queue.submit("noop", "theirs")
        queue.submit("noop", "yours")
        assert queue.claim("peer").database == "theirs"
        (stats,) = run_workers(queue, lambda job: {}, num_workers=1)
        assert stats.completed == 2
        assert clock.now == 60.0  # one sleep, to the lease's expiry
        assert queue.get("noop--theirs").attempts == 2
        assert queue.drained()

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

        (stats,) = run_workers(queue, fails_once, num_workers=1)
        assert attempts == [1, 2]
        assert (stats.failed, stats.completed) == (1, 1)
        assert clock.now == 1.0

    def test_a_timeout_short_of_the_lease_returns_without_sleeping(self, tmp_path):
        clock = SimulatedClock()
        queue = DurableJobQueue(tmp_path / "q", clock=clock, lease_seconds=60.0)
        queue.submit("noop", "theirs")
        queue.submit("noop", "yours")
        queue.claim("peer")
        clock.sleep(20.0)
        (stats,) = run_workers(queue, lambda job: {}, num_workers=1, timeout=30.0)
        assert stats.completed == 1
        assert clock.now == 20.0
        assert queue.get("noop--theirs").state == JobState.LEASED
        assert not queue.drained()

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
    def test_a_timeout_must_be_positive(self, tmp_path, timeout):
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        with pytest.raises(ValueError, match="timeout must be positive"):
            run_workers(queue, lambda job: {}, timeout=timeout)


class TestOneRetryPolicy:
    """The queue's bounded retry is a failed job's only retry policy: no
    worker-side gate turns one job's failures into another's."""

    @pytest.mark.parametrize("num_workers", [1, 3])
    def test_healthy_jobs_behind_failing_ones_run_once(self, tmp_path, num_workers):
        clock = SimulatedClock()
        queue = DurableJobQueue(tmp_path / "q", clock=clock, backoff_base=1.0)
        for name in ["a", "b", "c", "d", "e"]:
            queue.submit("noop", name, max_attempts=3)
        ran: list[str] = []

        def handler(job):
            ran.append(job.database)
            if job.database in ("a", "b", "c"):
                raise ServerTimeout("backend stuck")
            return {"db": job.database}

        stats = run_workers(queue, handler, num_workers=num_workers)
        assert sum(s.completed for s in stats) == 2
        assert sum(s.failed for s in stats) == 9
        jobs = {job.database: job for job in queue.jobs()}
        for name in ["d", "e"]:
            assert (jobs[name].state, jobs[name].attempts) == (JobState.DONE, 1)
            assert jobs[name].result == {"db": name}
        for name in ["a", "b", "c"]:
            assert (jobs[name].state, jobs[name].attempts) == (JobState.FAILED, 3)
            assert jobs[name].error == "ServerTimeout: backend stuck"
        assert sorted(ran) == ["a"] * 3 + ["b"] * 3 + ["c"] * 3 + ["d", "e"]
        assert clock.now == 3.0  # slept to the 1 s gates, then the 2 s ones


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
            submitter.submit("noop", f"db{index:04d}")
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

        theirs.submit("noop", "a")
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
        ours.submit("noop", "c")
        theirs.submit("noop", "b")
        ours.submit("noop", "d")
        assert ours.counts()[JobState.PENDING] == 3
        assert ours.claim("us").database == "b"
        assert theirs.claim("them").database == "c"
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
        stats = worker.run()
        assert stats.failed == 2
        job = queue.get("noop--a")
        assert job.state == JobState.FAILED
        assert job.error == f"{error.__name__}: handler bug"
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

        stats = run_workers(queue, explode, num_workers=2)
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
        queue.submit("noop", "killer", max_attempts=2)
        queue.submit("noop", "witness")
        attempts = []
        for _ in range(2):  # each claimant dies holding the lease
            attempts.append(queue.claim("doomed").attempts)
            clock.sleep(10.0)
        assert attempts == [1, 2]
        # The third claim finds the lease expired on the last attempt:
        # it parks the job and moves on to the next eligible one.
        survivor = queue.claim("w3")
        assert survivor.database == "witness"
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


class TestEnqueueRefresh:
    def test_name_order_and_per_name_seeds(self, tmp_path):
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        jobs = enqueue_refresh(queue, ["gamma", "alpha", "beta"], seed=42)
        names = ["alpha", "beta", "gamma"]
        assert [job.database for job in jobs] == names
        assert [job.payload for job in jobs] == [
            {"seed": derive_seed(42, "staleness", name)} for name in names
        ]
        assert [queue.claim("w").database for _ in jobs] == names

    def test_budget_keeps_the_first_names(self, tmp_path):
        queue = DurableJobQueue(tmp_path / "q", clock=SimulatedClock())
        jobs = enqueue_refresh(queue, ["c", "a", "b"], budget=2)
        assert [job.database for job in jobs] == ["a", "b"]
        assert [job.database for job in queue.jobs()] == ["a", "b"]
        for budget in (0, -1):
            with pytest.raises(ValueError, match="budget must be positive"):
                enqueue_refresh(queue, ["a"], budget=budget)


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

    def test_frontend_traffic_reaches_the_counters(self, federation):
        from repro.federation.service import FederatedSearchService, SearchRequest
        from repro.serving import FederationFrontend

        servers, models = federation
        recorder = TraceRecorder()
        service = FederatedSearchService(servers, databases_per_query=2, recorder=recorder)
        service.use_models(models)
        with FederationFrontend(service) as frontend:
            response = frontend.search(SearchRequest(query="algorithm system", n=5))
        assert len(response.searched) == 2
        counted = {
            name
            for name in servers
            if recorder.metrics.counter(f"serving.db.{name}.searched").value > 0
        }
        assert counted == set(response.searched)
