"""Fleet-scale model lifecycle: durable queue, workers, and the refresh sweep.

The paper discovers one language model per text database; keeping
*tens of thousands* of discovered models fresh is an orchestration
problem this package owns:

* :mod:`repro.fleet.queue` — a durable, file-backed job queue with
  worker leases, bounded retry, and exactly-once completion, claimed in
  job-id order; a crashed worker's jobs outlive it, and an in-memory
  index of the job files keeps a claim from re-reading them all;
* :mod:`repro.fleet.worker` — claim/execute/complete workers that
  refresh models through
  :meth:`~repro.sampling.staleness.RefreshPolicy.maybe_refresh`, with
  optional per-job sampler checkpoints, and :func:`run_workers`, the
  one place the fleet waits (on the queue's clock, until the next job
  is claimable) — one worker on the calling thread when every database
  computes in process, ``num_workers`` threads when any may wait
  (:func:`repro.backend.may_wait`).  The queue's bounded retry is a
  failed job's only retry policy;
* :mod:`repro.fleet.sweep` — :func:`enqueue_refresh` (one job per
  database, in name order) and the orchestrated sweep tying the queue
  and the workers together, used by the federated service (``repro
  fleet run-workers`` enqueues and calls :func:`run_workers` itself).

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
)
from repro.fleet.sweep import SweepResult, enqueue_refresh, run_refresh_sweep
from repro.fleet.worker import (
    REFRESH_JOB_KIND,
    FleetWorker,
    RefreshOutcome,
    RefreshRunner,
    WorkerStats,
    run_workers,
)

__all__ = [
    "DurableJobQueue",
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
    "WorkerStats",
    "enqueue_refresh",
    "run_refresh_sweep",
    "run_workers",
]
