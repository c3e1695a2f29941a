"""The orchestrated refresh sweep: schedule → enqueue → drain → collect.

:func:`run_refresh_sweep` is the entry point of
:meth:`FederatedSearchService.refresh_stale_models` (budget-less, all
databases) and of ``bench/refresh.py``; ``repro fleet run-workers``
drives :func:`~repro.fleet.worker.run_workers` itself, to wait out dead
leases.  It wires the pieces of the fleet package together:

1. the :class:`~repro.fleet.scheduler.FleetScheduler` ranks databases
   and submits prioritized ``refresh_check`` jobs to a
   :class:`~repro.fleet.queue.DurableJobQueue` (a caller-supplied
   durable directory, or a private temporary one for inline sweeps);
2. :func:`~repro.fleet.worker.run_workers` drains the queue, probing
   and re-sampling through :class:`~repro.fleet.worker.RefreshRunner`
   — on the calling thread when every database is an in-process index
   (the sweep then starts no thread and, once drained, sleeps for
   nothing), on ``num_workers`` :class:`~repro.fleet.worker.FleetWorker`
   threads when any database may wait (:func:`repro.backend.may_wait`);
3. probe reports flow back into the scheduler's staleness estimates,
   and the collected :class:`~repro.fleet.worker.RefreshOutcome` is
   returned once every job reaches a terminal state.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.backend import SearchableDatabase
from repro.fleet.queue import DurableJobQueue, Job, JobState
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.worker import RefreshOutcome, RefreshRunner, run_workers
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.selection import QueryTermSelector
from repro.sampling.staleness import RefreshPolicy
from repro.text.analyzer import Analyzer

__all__ = ["SweepResult", "run_refresh_sweep"]


@dataclass
class SweepResult:
    """Everything one orchestrated sweep produced."""

    outcome: RefreshOutcome
    jobs: list[Job]

    @property
    def failed_jobs(self) -> list[Job]:
        """Jobs that exhausted their retries."""
        return [job for job in self.jobs if job.state == JobState.FAILED]


def run_refresh_sweep(
    databases: Mapping[str, SearchableDatabase],
    stored_models: Mapping[str, LanguageModel],
    bootstrap_factory: Callable[[str], QueryTermSelector],
    *,
    policy: RefreshPolicy | None = None,
    seed: int = 0,
    queue: DurableJobQueue | None = None,
    scheduler: FleetScheduler | None = None,
    budget: int | None = None,
    popularity: Mapping[str, float] | None = None,
    num_workers: int = 4,
    analyzer: Analyzer | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> SweepResult:
    """Probe (and refresh where stale) via the queue and its workers.

    With ``budget=None`` every database is probed: the result is what
    a loop of :meth:`RefreshPolicy.maybe_refresh` at
    ``derive_seed(seed, "staleness", name)`` returns, at any worker
    count and on either side of the compute-or-wait rule
    (``num_workers`` counts threads for databases that may wait; see
    :func:`~repro.fleet.worker.run_workers`), because each job carries
    its own derived seed.  With a budget, only the top-scoring
    databases are examined this round (the fleet-scale mode); the
    remaining databases keep their stored models and simply do not
    appear in the outcome's reports.

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
    scheduler = scheduler or FleetScheduler(recorder=recorder)

    def sweep(active_queue: DurableJobQueue) -> SweepResult:
        submitted = scheduler.enqueue(
            active_queue,
            sorted(databases),
            seed=seed,
            budget=budget,
            popularity=popularity,
        )
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
            # Workers exit when nothing is claimable; a retry whose
            # backoff gate has not opened yet is not claimable, so
            # keep draining until every job is terminal.
            while True:
                run_workers(active_queue, runner, num_workers=num_workers, recorder=recorder)
                if active_queue.drained():
                    break
                active_queue.clock.sleep(active_queue.backoff_base)
            for name, report in outcome.reports.items():
                scheduler.observe_report(name, report)
            for name in outcome.refreshed:
                scheduler.observe_refreshed(name)
            span.set(refreshed=len(outcome.refreshed))
        # This call's jobs only, in their drained state: the queue may
        # also hold other rounds' jobs (a budget's left-outs, strays).
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
