"""Fleet workers: drain the durable queue, refresh models, survive crashes.

A :class:`FleetWorker` is one claim-execute-complete loop over a
:class:`~repro.fleet.queue.DurableJobQueue`.  The execution side reuses
the repo's existing resilience pieces rather than reinventing them:

* a per-worker :class:`~repro.sampling.transport.CircuitBreaker` (PR 1)
  gates every job — a database that keeps failing permanently stops
  being hammered, and jobs it would have run fail fast back into the
  queue's retry/backoff machinery;
* an optional per-job :class:`~repro.store.SamplerCheckpointer` (PR 5)
  rides under the refresh re-sample, so a worker killed mid-refresh
  resumes the sampling run bit-identically instead of restarting it.

:class:`RefreshRunner` is the standard job handler: it executes a
``refresh_check`` job by calling
:meth:`repro.sampling.staleness.RefreshPolicy.maybe_refresh` at the
job's seed, installing the result into a lock-guarded sink.

:func:`run_workers` drains the queue, and asks the handler one thing
first — does it *compute* or may it *wait*
(:func:`repro.backend.may_wait`, the rule the serving fan-out applies
per backend).  A runner whose databases are all in-process indexes
computes: threads sharing one interpreter lock cannot speed that up, so
the queue is drained on the calling thread, in job-id order.  Any
other handler may wait on a remote database, so it gets the
``num_workers`` threads whose waits overlap.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.backend import SearchableDatabase, may_wait
from repro.fleet.queue import DurableJobQueue, Job, LeaseLostError
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.selection import QueryTermSelector
from repro.sampling.staleness import RefreshPolicy, StalenessReport
from repro.sampling.transport import RETRYABLE_ERRORS, CircuitBreaker
from repro.store.checkpoint import SamplerCheckpointer
from repro.text.analyzer import Analyzer

__all__ = [
    "FleetWorker",
    "RefreshOutcome",
    "RefreshRunner",
    "WorkerStats",
    "run_workers",
]

#: The job kind RefreshRunner understands.
REFRESH_JOB_KIND = "refresh_check"

#: Empty claims a worker retries, ``poll_interval`` apart, before it exits.
_IDLE_POLLS = 3


@dataclass
class RefreshOutcome:
    """Everything a completed refresh sweep produced, thread-safely.

    Workers append under one lock; the orchestration layer reads the
    dicts once every worker has joined.
    """

    models: dict[str, LanguageModel] = field(default_factory=dict)
    reports: dict[str, StalenessReport] = field(default_factory=dict)
    refreshed: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(
        self, name: str, model: LanguageModel, report: StalenessReport, refreshed: bool
    ) -> None:
        """Install one database's sweep result."""
        with self._lock:
            self.models[name] = model
            self.reports[name] = report
            if refreshed:
                self.refreshed.append(name)


class RefreshRunner:
    """Executes ``refresh_check`` jobs through ``RefreshPolicy.maybe_refresh``.

    Parameters
    ----------
    databases:
        Install name → live database handle.
    stored_models:
        Install name → the currently served model (the probe baseline).
    bootstrap_factory:
        Install name → bootstrap selector for that database's sampler.
    policy:
        Thresholds and refresh sample size.
    outcome:
        Shared sink the runner records results into.
    analyzer:
        The text pipeline the stored models were built with (``None``
        = raw tokens), passed to every
        :meth:`RefreshPolicy.maybe_refresh`, which says why it matters.
    checkpoint_root:
        When set, each refresh re-sample runs under a per-job
        :class:`SamplerCheckpointer` in ``checkpoint_root/<job_id>/`` —
        a worker killed mid-refresh resumes the run bit-identically.
    recorder:
        Observability sink (spans from the underlying sampler plus
        ``fleet.models_refreshed`` / ``fleet.probes_run`` counters).
    """

    def __init__(
        self,
        databases: Mapping[str, SearchableDatabase],
        stored_models: Mapping[str, LanguageModel],
        bootstrap_factory: Callable[[str], QueryTermSelector],
        policy: RefreshPolicy,
        outcome: RefreshOutcome,
        *,
        analyzer: Analyzer | None = None,
        checkpoint_root: Any | None = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.databases = databases
        self.stored_models = stored_models
        self.bootstrap_factory = bootstrap_factory
        self.policy = policy
        self.outcome = outcome
        self.analyzer = analyzer
        self.checkpoint_root = checkpoint_root
        self.recorder = recorder

    @property
    def computes_in_process(self) -> bool:
        """Whether no database of this runner may wait.

        What :func:`repro.backend.may_wait` reads off a handler: true
        when every job is computation over local columns, so that
        :func:`run_workers` drains on the calling thread.  One wrapped
        or remote database makes the whole runner one that may wait.
        """
        return not any(may_wait(database) for database in self.databases.values())

    def __call__(self, job: Job) -> dict[str, Any]:
        """Probe one database; re-sample if stale.  Returns the job result."""
        if job.kind != REFRESH_JOB_KIND:
            raise ValueError(f"RefreshRunner cannot execute job kind {job.kind!r}")
        name = job.database
        if name not in self.databases:
            raise KeyError(f"job {job.job_id!r} names unknown database {name!r}")
        checkpoint = None
        if self.checkpoint_root is not None:
            checkpoint = SamplerCheckpointer(
                Path(self.checkpoint_root) / job.job_id, recorder=self.recorder
            )
        model, report, refreshed = self.policy.maybe_refresh(
            self.databases[name],
            self.stored_models[name],
            self.bootstrap_factory(name),
            seed=int(job.payload.get("seed", 0)),
            analyzer=self.analyzer,
            recorder=self.recorder,
            checkpoint=checkpoint,
        )
        self.recorder.count("fleet.probes_run")
        if refreshed:
            self.recorder.count("fleet.models_refreshed")
        self.outcome.record(name, model, report, refreshed)
        return {"refreshed": refreshed, "spearman": report.spearman}


@dataclass
class WorkerStats:
    """One worker's tally after :meth:`FleetWorker.run` returns."""

    worker_id: str
    completed: int = 0
    failed: int = 0
    rejected_by_breaker: int = 0
    lost_leases: int = 0


class FleetWorker:
    """One claim → execute → complete loop over the durable queue.

    Parameters
    ----------
    worker_id:
        Stable identity stamped into leases (and lease-expiry events).
    queue:
        The shared durable queue.
    handler:
        ``Job -> result dict``; raising any :class:`Exception` marks
        the attempt failed (the queue retries with backoff until
        attempts exhaust) — the lease is never left to age out.
    breaker:
        Circuit breaker consulted before every job; opened by
        *retryable* server errors (the transient kind worth pausing
        on), so a flapping backend stops being hammered.  A rejected
        job is failed back to the queue without touching the backend.
        Defaults to one whose cooldown runs on the queue's clock.
    """

    def __init__(
        self,
        worker_id: str,
        queue: DurableJobQueue,
        handler: Callable[[Job], Mapping[str, Any]],
        *,
        breaker: CircuitBreaker | None = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.worker_id = worker_id
        self.queue = queue
        self.handler = handler
        self.breaker = breaker or CircuitBreaker(clock=queue.clock)
        self.recorder = recorder
        self.stats = WorkerStats(worker_id=worker_id)

    def run_one(self) -> bool:
        """Claim and process one job.  False means nothing was claimable."""
        job = self.queue.claim(self.worker_id)
        if job is None:
            return False
        assert job.lease is not None
        token = job.lease.token
        with self.recorder.span(
            "fleet_job", job_id=job.job_id, database=job.database, worker=self.worker_id
        ) as span:
            if not self.breaker.allow():
                self.stats.rejected_by_breaker += 1
                self.recorder.count("fleet.breaker_rejected")
                self._fail(job, token, "circuit breaker open")
                span.set(outcome="breaker_rejected")
                return True
            try:
                result = self.handler(job)
            except RETRYABLE_ERRORS as error:
                self.breaker.record_failure()
                self._fail(job, token, f"{type(error).__name__}: {error}")
                span.set(outcome="retryable_error")
            except Exception as error:
                # Anything else — a permanent server error, a bad
                # payload, a bug in the handler — still goes through
                # the queue's bounded retry (the next attempt may hit a
                # healthier replica or a fixed config) but does not open
                # the breaker: the backend itself answered.  The worker
                # must outlive it, or the lease is held until it expires.
                if self.recorder.enabled:
                    self.recorder.event(
                        "job_error", job_id=job.job_id, traceback=traceback.format_exc()
                    )
                self._fail(job, token, f"{type(error).__name__}: {error}")
                span.set(outcome="error")
            else:
                self.breaker.record_success()
                self._complete(job, token, result)
                span.set(outcome="done")
        return True

    def _complete(self, job: Job, token: str, result: Mapping[str, Any]) -> None:
        try:
            if self.queue.complete(job.job_id, token, result):
                self.stats.completed += 1
            else:
                self.stats.lost_leases += 1
        except LeaseLostError:
            self.stats.lost_leases += 1

    def _fail(self, job: Job, token: str, error: str) -> None:
        try:
            self.queue.fail(job.job_id, token, error)
            self.stats.failed += 1
        except LeaseLostError:
            self.stats.lost_leases += 1

    def run(self, *, poll_interval: float = 0.02) -> WorkerStats:
        """Drain the queue: loop until nothing is left to claim.

        An empty claim on a drained queue ends the loop at once.  While
        a job is still leased elsewhere or waiting behind a backoff gate
        (another worker may fail its job back into pending, gates open
        over time) the claim is retried three times,
        ``poll_interval`` apart, before the worker exits.
        """
        idle = 0
        while idle <= _IDLE_POLLS:
            if self.run_one():
                idle = 0
                continue
            if self.queue.drained():
                break
            idle += 1
            if idle <= _IDLE_POLLS:
                self.queue.clock.sleep(poll_interval)
        return self.stats


def run_workers(
    queue: DurableJobQueue,
    handler: Callable[[Job], Mapping[str, Any]],
    *,
    num_workers: int = 4,
    recorder: Recorder = NULL_RECORDER,
    poll_interval: float = 0.02,
) -> list[WorkerStats]:
    """Drain the queue; returns one :class:`WorkerStats` per worker used.

    The handler is asked once, here, whether it may wait
    (:func:`repro.backend.may_wait`).  One that declares
    ``computes_in_process`` — a :class:`RefreshRunner` over in-process
    indexes — is run by a single worker on the calling thread: no thread
    is started, and jobs run in job-id order.  Any other
    handler gets ``num_workers`` worker threads, which share the queue
    object (its internal lock makes claims race-free) and the handler,
    which must therefore be thread-safe — :class:`RefreshRunner` is.
    Each worker gets its own circuit breaker so one worker's bad luck
    does not trip the others.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    workers = [
        FleetWorker(f"worker-{index}", queue, handler, recorder=recorder)
        for index in range(num_workers if may_wait(handler) else 1)
    ]
    if len(workers) == 1:
        return [workers[0].run(poll_interval=poll_interval)]
    threads = [
        threading.Thread(
            target=worker.run,
            kwargs={"poll_interval": poll_interval},
            name=worker.worker_id,
        )
        for worker in workers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [worker.stats for worker in workers]
