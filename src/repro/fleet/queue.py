"""A durable, file-backed job queue for fleet maintenance work.

Model refresh at fleet scale is long-running, interruptible work:
probes and re-samples take hundreds of remote queries, workers die,
and the paper's whole premise — that a discovered model is expensive
accumulated state — applies equally to the *work list* that maintains
it.  So the queue is durable by construction: every job is one JSON
file under ``queue_dir/jobs/``, written with the same atomic primitive
as every other artifact in the repo, and a restarted process sees
exactly the jobs the dead one left.

Job lifecycle::

    submit ──> pending ──claim──> leased ──complete──> done
                  ^                  │
                  │   fail (attempts left, backoff)
                  └──────────────────┤
                                     │   fail (attempts exhausted)
                                     └──────────────────────────> failed
               pending <──lease expires (worker died)── leased

* **Order** — :meth:`DurableJobQueue.claim` hands out the eligible job
  with the smallest job id, so a round submitted in name order runs in
  name order.
* **Leases** — a claim stamps the job with a worker id, an opaque
  lease token, and an absolute expiry.  A worker that dies mid-job
  never reports back; once the lease expires the job is claimable
  again.  Expiries are epoch timestamps off the queue's clock, so they
  hold *across* processes (a restarted worker pool observes the dead
  pool's leases aging out).
* **Exactly-once completion** — :meth:`DurableJobQueue.complete`
  requires the claim's lease token.  A worker that lost its lease (it
  stalled, the job was re-claimed and finished by someone else) gets
  :class:`LeaseLostError` or an ``already done`` no-op instead of
  double-applying its result.
* **Bounded retry with backoff** — :meth:`DurableJobQueue.fail`
  returns the job to pending with an exponential ``not_before`` gate,
  until ``max_attempts`` is exhausted and the job parks as failed.

Concurrency model: worker *threads* in one process share one queue
object (an internal lock makes claim/complete/fail atomic).  Across
processes the queue supports crash-restart recovery — the CI smoke
kills a worker mid-lease and restarts — via durable files, lease
expiry, and token-checked completion; it is not a distributed lock
manager, so two *simultaneously live* processes should not share one
queue directory.

The files are the only durable truth; what a queue object keeps in
memory is an *index* of them, ``job_id → (file signature, Job)``, so
that a claim does not re-read and re-parse every job file there is.
A signature is the file's ``(st_ino, st_mtime_ns, st_size)``: every
write is an ``os.replace`` of a fresh temporary file, so any write —
this object's or another process's — gives the job file a new inode.
Reads of the whole queue (:meth:`~DurableJobQueue.claim`,
:meth:`~DurableJobQueue.jobs`, :meth:`~DurableJobQueue.counts`,
:meth:`~DurableJobQueue.drained`) list the directory and re-read only
the files whose signature moved; reads of one job stat that one file.
An own write enters the index as it is written, without a re-read.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, Mapping
from urllib.parse import quote

from repro.obs.clock import SYSTEM_CLOCK, Clock
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.utils.atomic import atomic_write_text

__all__ = [
    "DurableJobQueue",
    "Job",
    "JobState",
    "Lease",
    "LeaseLostError",
    "QUEUE_SCHEMA",
]

#: Job-file schema identifier, bumped on breaking changes.
QUEUE_SCHEMA = "repro-fleet-queue/1"

_JOBS_DIR = "jobs"
_JOB_SUFFIX = ".json"

#: One generation of a job file: ``(st_ino, st_mtime_ns, st_size)``.
_Signature = tuple[int, int, int]


def _signature(stat: os.stat_result) -> _Signature:
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


class JobState:
    """The four durable job states (plain strings in the job files)."""

    PENDING = "pending"
    LEASED = "leased"
    DONE = "done"
    FAILED = "failed"

    ALL = (PENDING, LEASED, DONE, FAILED)


class LeaseLostError(RuntimeError):
    """The caller's lease token no longer owns the job.

    Raised when a worker tries to complete or fail a job after its
    lease expired and the job moved on (re-claimed by another worker,
    or already finished).  The correct reaction is to discard the
    local result — the queue's answer is authoritative.
    """


@dataclass(frozen=True)
class Lease:
    """One worker's time-bounded claim on a job."""

    worker: str
    token: str
    expires: float

    def expired(self, now: float) -> bool:
        """Whether the lease has aged out (the worker presumably died)."""
        return now >= self.expires


@dataclass(frozen=True)
class Job:
    """One durable unit of fleet work (immutable snapshot of its file).

    The queue hands the same snapshot to every reader until the file
    changes, so ``payload`` and ``result`` are to be read, not edited.
    """

    job_id: str
    kind: str
    database: str
    state: str = JobState.PENDING
    attempts: int = 0
    max_attempts: int = 3
    not_before: float = 0.0
    lease: Lease | None = None
    payload: dict[str, Any] = field(default_factory=dict)
    result: dict[str, Any] | None = None
    error: str | None = None

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form for JSON emission."""
        data: dict[str, object] = {
            "schema": QUEUE_SCHEMA,
            "job_id": self.job_id,
            "kind": self.kind,
            "database": self.database,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "not_before": self.not_before,
            "payload": self.payload,
            "result": self.result,
            "error": self.error,
        }
        if self.lease is not None:
            data["lease"] = {
                "worker": self.lease.worker,
                "token": self.lease.token,
                "expires": self.lease.expires,
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], source: str) -> "Job":
        """Parse a job file dict, validating schema, state and times (the
        ``priority`` key of an older job file is ignored).

        Every pending job's gate and every leased job's expiry is a
        finite time, so :meth:`DurableJobQueue.next_claim_at` has an
        answer exactly when the queue is not drained.
        """
        schema = data.get("schema")
        if schema != QUEUE_SCHEMA:
            raise ValueError(
                f"{source}: unsupported queue schema {schema!r} (expected {QUEUE_SCHEMA!r})"
            )
        state = str(data.get("state", JobState.PENDING))
        if state not in JobState.ALL:
            raise ValueError(f"{source}: unknown job state {state!r}")
        lease = None
        raw_lease = data.get("lease")
        if raw_lease is not None:
            lease = Lease(
                worker=str(raw_lease["worker"]),
                token=str(raw_lease["token"]),
                expires=float(raw_lease["expires"]),
            )
        not_before = float(data.get("not_before", 0.0))
        expires = lease.expires if lease is not None else 0.0
        if not (math.isfinite(not_before) and math.isfinite(expires)):
            raise ValueError(f"{source}: malformed job file: a time is not finite")
        if state == JobState.LEASED and lease is None:
            raise ValueError(f"{source}: malformed job file: leased without a lease")
        return cls(
            job_id=str(data["job_id"]),
            kind=str(data["kind"]),
            database=str(data["database"]),
            state=state,
            attempts=int(data.get("attempts", 0)),
            max_attempts=int(data.get("max_attempts", 3)),
            not_before=not_before,
            lease=lease,
            payload=dict(data.get("payload") or {}),
            result=data.get("result"),
            error=data.get("error"),
        )


def _job_id(kind: str, database: str) -> str:
    # Percent-escaping keeps any database name a safe filename chunk
    # and makes the id injective in (kind, database) — which is what
    # makes re-submitting the same logical work idempotent.
    return f"{quote(kind, safe='')}--{quote(database, safe='')}"


class DurableJobQueue:
    """File-per-job durable queue with leases and retry.

    Parameters
    ----------
    root:
        Queue directory; ``root/jobs/<job_id>.json`` holds each job.
    lease_seconds:
        How long a claim holds before a dead worker's job is
        reclaimable.
    backoff_base:
        A failed attempt re-enters pending no earlier than
        ``backoff_base * 2 ** (attempts - 1)`` seconds later.
    clock:
        Time source; :data:`~repro.obs.clock.SYSTEM_CLOCK` by default
        (absolute timestamps, so leases survive process boundaries).
    recorder:
        Observability sink for ``fleet.*`` counters and queue events.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        lease_seconds: float = 120.0,
        backoff_base: float = 1.0,
        clock: Clock = SYSTEM_CLOCK,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if not 0 < lease_seconds < math.inf:
            raise ValueError("lease_seconds must be finite and positive")
        if not 0 <= backoff_base < math.inf:
            raise ValueError("backoff_base must be finite and >= 0")
        self.root = Path(root)
        self.lease_seconds = lease_seconds
        self.backoff_base = backoff_base
        self.clock = clock
        self.recorder = recorder
        self._lock = threading.Lock()
        self._claim_counter = 0
        self._index: dict[str, tuple[_Signature, Job]] = {}

    # -- files -------------------------------------------------------------

    @property
    def jobs_dir(self) -> Path:
        """Directory holding one JSON file per job."""
        return self.root / _JOBS_DIR

    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}{_JOB_SUFFIX}"

    # The helpers below read and write the index, so the caller holds
    # ``self._lock``.

    def _write(self, job: Job) -> None:
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        path = self._job_path(job.job_id)
        atomic_write_text(path, json.dumps(job.as_dict(), indent=2, sort_keys=True) + "\n")
        self._index[job.job_id] = (_signature(os.stat(path)), job)

    def _load(self, job_id: str, path: str | Path, stat: os.stat_result) -> Job:
        """The indexed job if its file is the one indexed, else a re-read."""
        signature = _signature(stat)
        indexed = self._index.get(job_id)
        if indexed is not None and indexed[0] == signature:
            return indexed[1]
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:  # the same error, naming the file
            raise json.JSONDecodeError(f"{path}: {error.msg}", error.doc, error.pos) from None
        job = Job.from_dict(data, str(path))
        self._index[job_id] = (signature, job)
        return job

    def _read(self, job_id: str) -> Job:
        path = self._job_path(job_id)
        try:
            stat = os.stat(path)
        except FileNotFoundError:
            self._index.pop(job_id, None)
            raise KeyError(f"no job {job_id!r} in queue {self.root}") from None
        return self._load(job_id, path, stat)

    def _sync(self) -> None:
        """Bring the index in line with ``jobs/``: one listing, one stat
        per job file, one read per file written since it was indexed."""
        listed = set()
        try:
            with os.scandir(self.jobs_dir) as entries:
                for entry in entries:
                    if entry.name.endswith(_JOB_SUFFIX):
                        job_id = entry.name[: -len(_JOB_SUFFIX)]
                        self._load(job_id, entry.path, entry.stat())
                        listed.add(job_id)
        except FileNotFoundError:  # nothing submitted yet
            pass
        for job_id in self._index.keys() - listed:
            del self._index[job_id]

    def jobs(self) -> Iterator[Job]:
        """Every job currently in the queue, in job-id order."""
        with self._lock:
            self._sync()
            return iter([job for _, (_, job) in sorted(self._index.items())])

    def get(self, job_id: str) -> Job:
        """The current durable state of one job."""
        with self._lock:
            return self._read(job_id)

    # -- submitting --------------------------------------------------------

    def submit(
        self,
        kind: str,
        database: str,
        *,
        payload: Mapping[str, Any] | None = None,
        max_attempts: int = 3,
    ) -> Job:
        """Add one job (idempotent per ``(kind, database)``).

        Re-submitting a job that is already pending/leased returns the
        existing job unchanged — callers can blindly enqueue a sweep
        without double-scheduling work a crashed run already queued.  A
        done or failed job under the same id is replaced (a new round
        of the same logical work).
        """
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        job_id = _job_id(kind, database)
        with self._lock:
            try:
                existing = self._read(job_id)
            except KeyError:
                existing = None
            if existing is not None and existing.state in (JobState.PENDING, JobState.LEASED):
                return existing
            job = Job(
                job_id=job_id,
                kind=kind,
                database=database,
                payload=dict(payload or {}),
                max_attempts=max_attempts,
            )
            self._write(job)
        self.recorder.count("fleet.jobs_submitted")
        return job

    # -- claiming ----------------------------------------------------------

    def _eligible(self, job: Job, now: float) -> bool:
        if job.state == JobState.PENDING:
            return now >= job.not_before
        if job.state == JobState.LEASED:
            return job.lease is not None and job.lease.expired(now)
        return False

    def claim(self, worker_id: str) -> Job | None:
        """Lease the first eligible job to ``worker_id`` (None = nothing to do).

        Eligible means pending with its backoff gate passed, or leased
        with an expired lease (the previous worker died mid-job — the
        re-claim is counted as ``fleet.leases_expired``).  The smallest
        job id wins, so the order is deterministic.

        An expired lease on a job's *last* attempt is not handed out
        again: by the rule :meth:`fail` applies (``attempts >=
        max_attempts``) the job parks as failed and the next eligible
        job is considered — a job that kills its worker every time is
        retried ``max_attempts`` times, not for ever.
        """
        expired: list[Job] = []
        parked: list[Job] = []
        claimed = None
        with self._lock:
            now = self.clock.now
            self._sync()
            eligible = [
                job for _, (_, job) in sorted(self._index.items()) if self._eligible(job, now)
            ]
            for best in eligible:
                if best.state == JobState.LEASED:
                    expired.append(best)
                    if best.attempts >= best.max_attempts:
                        dead = replace(
                            best,
                            state=JobState.FAILED,
                            lease=None,
                            error=f"lease expired on the last attempt "
                            f"({best.attempts} of {best.max_attempts}): "
                            "the worker never reported back",
                        )
                        self._write(dead)
                        parked.append(dead)
                        continue
                self._claim_counter += 1
                lease = Lease(
                    worker=worker_id,
                    token=f"{worker_id}:{best.attempts + 1}:{self._claim_counter}",
                    expires=now + self.lease_seconds,
                )
                claimed = replace(
                    best, state=JobState.LEASED, attempts=best.attempts + 1, lease=lease
                )
                self._write(claimed)
                break
        for job in expired:
            assert job.lease is not None  # _eligible guarantees it
            self.recorder.count("fleet.leases_expired")
            self.recorder.event(
                "lease_expired", job_id=job.job_id, previous_worker=job.lease.worker
            )
        for job in parked:
            self._report_dead(job)
        if claimed is not None:
            self.recorder.count("fleet.jobs_claimed")
        return claimed

    def _checked(self, job_id: str, token: str) -> Job:
        """The job, if and only if ``token`` still owns its lease."""
        job = self._read(job_id)
        if job.state != JobState.LEASED or job.lease is None or job.lease.token != token:
            raise LeaseLostError(
                f"job {job_id!r} is not held under this lease "
                f"(state={job.state}, the job moved on without this worker)"
            )
        return job

    # -- finishing ---------------------------------------------------------

    def complete(self, job_id: str, token: str, result: Mapping[str, Any] | None = None) -> bool:
        """Mark a leased job done — exactly once.

        Returns True if this call completed the job.  If the job is
        *already done* (this worker's lease expired and a re-claimant
        finished first) returns False so the caller discards its
        duplicate result.  Any other lease mismatch raises
        :class:`LeaseLostError`.
        """
        with self._lock:
            job = self._read(job_id)
            if job.state == JobState.DONE:
                self.recorder.count("fleet.duplicate_completions")
                return False
            job = self._checked(job_id, token)
            done = replace(
                job, state=JobState.DONE, lease=None, result=dict(result or {}), error=None
            )
            self._write(done)
        self.recorder.count("fleet.jobs_completed")
        return True

    def fail(self, job_id: str, token: str, error: str) -> Job:
        """Record a failed attempt: retry with backoff, or park as failed."""
        with self._lock:
            job = self._checked(job_id, token)
            if job.attempts >= job.max_attempts:
                parked = replace(job, state=JobState.FAILED, lease=None, error=error)
                self._write(parked)
                outcome = parked
            else:
                delay = self.backoff_base * 2.0 ** (job.attempts - 1)
                retried = replace(
                    job,
                    state=JobState.PENDING,
                    lease=None,
                    error=error,
                    not_before=self.clock.now + delay,
                )
                self._write(retried)
                outcome = retried
        if outcome.state == JobState.FAILED:
            self._report_dead(outcome)
        else:
            self.recorder.count("fleet.jobs_retried")
        return outcome

    def _report_dead(self, job: Job) -> None:
        self.recorder.count("fleet.jobs_dead")
        self.recorder.event("job_failed", job_id=job.job_id, error=job.error)

    # -- inspection --------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Job counts by state (all four states always present)."""
        counts = {state: 0 for state in JobState.ALL}
        for job in self.jobs():
            counts[job.state] += 1
        return counts

    def drained(self) -> bool:
        """Whether every job has reached a terminal state (done/failed)."""
        return all(job.state in (JobState.DONE, JobState.FAILED) for job in self.jobs())

    def next_claim_at(self) -> float | None:
        """When, on :attr:`clock`, the next job becomes claimable.

        The earliest backoff gate of a pending job or lease expiry of a
        leased one — possibly already past — or ``None`` when the queue
        is drained.
        """
        times = []
        for job in self.jobs():
            if job.state == JobState.PENDING:
                times.append(job.not_before)
            elif job.state == JobState.LEASED:
                assert job.lease is not None  # Job.from_dict guarantees it
                times.append(job.lease.expires)
        return min(times, default=None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DurableJobQueue(root={str(self.root)!r})"
