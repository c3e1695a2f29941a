"""Fleet-scale model lifecycle: durable queue, workers, and scheduling.

The paper discovers one language model per text database; keeping
*tens of thousands* of discovered models fresh is an orchestration
problem this package owns:

* :mod:`repro.fleet.queue` — a durable, file-backed job queue with
  priorities, worker leases, bounded retry, and exactly-once
  completion; a crashed worker's jobs outlive it, and an in-memory
  index of the job files keeps a claim from re-reading them all;
* :mod:`repro.fleet.worker` — claim/execute/complete workers that
  refresh models through
  :meth:`~repro.sampling.staleness.RefreshPolicy.maybe_refresh`,
  behind a per-worker circuit breaker and optional per-job sampler
  checkpoints — one worker on the calling thread when every database
  computes in process, ``num_workers`` threads when any may wait
  (:func:`repro.backend.may_wait`);
* :mod:`repro.fleet.scheduler` — staleness × popularity / cost budget
  allocation (Gupta & Bhatia-style) that turns scores into queue
  priorities;
* :mod:`repro.fleet.sweep` — the orchestrated sweep tying the three
  together, used by the federated service (``repro fleet run-workers``
  drives :func:`run_workers` itself).

The storage side lives in :mod:`repro.store`
(:class:`~repro.store.ShardedModelStore`).
"""

from repro.fleet.queue import (
    QUEUE_SCHEMA,
    DurableJobQueue,
    Job,
    JobState,
    Lease,
    LeaseLostError,
    SystemClock,
)
from repro.fleet.scheduler import DatabasePriority, FleetScheduler, popularity_from_metrics
from repro.fleet.sweep import SweepResult, run_refresh_sweep
from repro.fleet.worker import (
    REFRESH_JOB_KIND,
    FleetWorker,
    RefreshOutcome,
    RefreshRunner,
    WorkerStats,
    run_workers,
)

__all__ = [
    "DatabasePriority",
    "DurableJobQueue",
    "FleetScheduler",
    "FleetWorker",
    "Job",
    "JobState",
    "Lease",
    "LeaseLostError",
    "QUEUE_SCHEMA",
    "REFRESH_JOB_KIND",
    "RefreshOutcome",
    "RefreshRunner",
    "SweepResult",
    "SystemClock",
    "WorkerStats",
    "popularity_from_metrics",
    "run_refresh_sweep",
    "run_workers",
]
