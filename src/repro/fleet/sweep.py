"""The orchestrated refresh sweep: enqueue → drain → collect.

:func:`run_refresh_sweep` is the entry point of
:meth:`FederatedSearchService.refresh_stale_models` and of
``bench/refresh.py``; ``repro fleet run-workers`` calls
:func:`enqueue_refresh` and :func:`~repro.fleet.worker.run_workers`
itself, with a ``timeout``.  It wires the pieces of the fleet package
together:

1. :func:`enqueue_refresh` submits one ``refresh_check`` job per
   database, in name order, to a
   :class:`~repro.fleet.queue.DurableJobQueue` (a caller-supplied
   durable directory, or a private temporary one for inline sweeps);
2. one :func:`~repro.fleet.worker.run_workers` call drains the queue,
   probing and re-sampling through
   :class:`~repro.fleet.worker.RefreshRunner` — on the calling thread
   when every database is an in-process index (the sweep then starts no
   thread and, once drained, sleeps for nothing), on ``num_workers``
   :class:`~repro.fleet.worker.FleetWorker` threads when any database
   may wait (:func:`repro.backend.may_wait`) — and sleeps on the
   queue's clock only until a failed job's backoff gate opens;
3. the collected :class:`~repro.fleet.worker.RefreshOutcome` is
   returned once every job reaches a terminal state.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.backend import SearchableDatabase
from repro.fleet.queue import DurableJobQueue, Job, JobState
from repro.fleet.worker import REFRESH_JOB_KIND, RefreshOutcome, RefreshRunner, run_workers
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.selection import QueryTermSelector
from repro.sampling.staleness import RefreshPolicy
from repro.text.analyzer import Analyzer
from repro.utils.rand import derive_seed

__all__ = ["SweepResult", "enqueue_refresh", "run_refresh_sweep"]


@dataclass
class SweepResult:
    """Everything one orchestrated sweep produced."""

    outcome: RefreshOutcome
    jobs: list[Job]

    @property
    def failed_jobs(self) -> list[Job]:
        """Jobs that exhausted their retries."""
        return [job for job in self.jobs if job.state == JobState.FAILED]


def enqueue_refresh(
    queue: DurableJobQueue,
    names: Iterable[str],
    *,
    seed: int = 0,
    budget: int | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> list[Job]:
    """Submit one ``refresh_check`` job per database, in name order.

    ``budget`` keeps the first ``budget`` names; ``None`` submits them
    all.  A job's seed is ``derive_seed(seed, "staleness", name)`` — a
    function of the database's name alone, so its probe and refresh
    query sequences do not depend on which other databases are in the
    round.
    """
    ordered = sorted(names)
    if budget is not None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        ordered = ordered[:budget]
    with recorder.span("fleet_schedule", databases=len(ordered)) as span:
        jobs = [
            queue.submit(
                REFRESH_JOB_KIND, name, payload={"seed": derive_seed(seed, "staleness", name)}
            )
            for name in ordered
        ]
        span.set(budget=budget if budget is not None else len(jobs))
    return jobs


def run_refresh_sweep(
    databases: Mapping[str, SearchableDatabase],
    stored_models: Mapping[str, LanguageModel],
    bootstrap_factory: Callable[[str], QueryTermSelector],
    *,
    policy: RefreshPolicy | None = None,
    seed: int = 0,
    queue: DurableJobQueue | None = None,
    num_workers: int = 4,
    analyzer: Analyzer | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> SweepResult:
    """Probe every database (and refresh the stale) via the queue and its workers.

    The result is what a loop of :meth:`RefreshPolicy.maybe_refresh`
    at ``derive_seed(seed, "staleness", name)`` returns, at any worker
    count and on either side of the compute-or-wait rule
    (``num_workers`` counts threads for databases that may wait; see
    :func:`~repro.fleet.worker.run_workers`), because each job carries
    its own derived seed.

    ``analyzer`` is the stored models' text pipeline, threaded into
    every probe and refresh so refreshed models stay
    vocabulary-consistent with the set they join (see
    :meth:`RefreshPolicy.maybe_refresh`).

    The call blocks until the queue drains.  Jobs that exhaust their
    retries surface in ``SweepResult.failed_jobs`` — the caller
    decides whether that is fatal (the service wrapper raises).
    """
    missing = set(databases) - set(stored_models)
    if missing:
        raise ValueError(f"missing stored models for databases: {sorted(missing)}")
    policy = policy or RefreshPolicy()

    def sweep(active_queue: DurableJobQueue) -> SweepResult:
        submitted = enqueue_refresh(active_queue, databases, seed=seed, recorder=recorder)
        outcome = RefreshOutcome()
        runner = RefreshRunner(
            databases,
            stored_models,
            bootstrap_factory,
            policy,
            outcome,
            analyzer=analyzer,
            recorder=recorder,
        )
        with recorder.span(
            "fleet_sweep", databases=len(submitted), workers=num_workers
        ) as span:
            run_workers(active_queue, runner, num_workers=num_workers, recorder=recorder)
            span.set(refreshed=len(outcome.refreshed))
        # This call's jobs only, in their drained state: the queue may
        # also hold other rounds' jobs.
        jobs = sorted(submitted, key=lambda job: job.job_id)
        return SweepResult(
            outcome=outcome, jobs=[active_queue.get(job.job_id) for job in jobs]
        )

    if queue is not None:
        return sweep(queue)
    # Inline sweeps get a private durable queue for the duration of the
    # call — crash recovery across calls is the caller-supplied-queue
    # mode; the inline mode just wants the workers and the ordering.
    with tempfile.TemporaryDirectory(prefix="repro-fleet-queue-") as tmp:
        return sweep(
            DurableJobQueue(tmp, backoff_base=0.05, recorder=recorder)
        )
