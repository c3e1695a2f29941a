"""Stored models: ``store``, ``fleet status``, ``fleet migrate``,
``fleet run-workers``.

``repro store DIR`` inspects a durable model store (``--verify``
re-reads every model, ``--prune`` deletes crash-leftover orphans after
a clean verify).  ``fleet migrate`` re-homes a store into new shards —
and is the one command that reads a flat directory written before
sharding; ``fleet status`` shows the shard table and refresh-queue
depth; ``fleet run-workers`` drains a durable refresh queue,
crash-tolerantly (``--workers`` threads only for databases that may
wait).
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

from repro.cli import (
    _default_bootstrap,
    _federation_servers,
    _open_store,
    _simulated_crash,
    _UsageError,
)
from repro.store import ModelStore, ShardedModelStore, StoreIntegrityError
from repro.utils.table import format_table


def cmd_store(args) -> int:
    store, _ = _open_store(args.directory)
    try:
        fleet = store.read_fleet_manifest()
        rows = [
            {
                "name": name,
                "shard": shard_id,
                "file": entry.file,
                "terms": entry.terms,
                "documents_seen": entry.documents_seen,
                "tokens_seen": entry.tokens_seen,
                "sha256": entry.sha256[:12],
            }
            for shard_id in sorted(fleet.shards)
            for name, entry in sorted(store.shard(shard_id).read_manifest().models.items())
        ]
    except (FileNotFoundError, StoreIntegrityError) as exc:
        print(f"corrupt store manifest: {exc}", file=sys.stderr)
        return 1
    print(
        format_table(
            rows,
            title=f"Model store {args.directory} ({len(fleet.shards)} of "
            f"{fleet.num_shards} shards occupied, {len(rows)} models, "
            f"epoch {fleet.model_epoch})",
        )
    )
    orphans = store.orphans()
    if orphans:
        print(f"orphan files (unreferenced, safe to delete): {', '.join(orphans)}")
    if args.verify or args.prune:
        problems = store.verify()
        if problems:
            for problem in problems:
                print(f"INTEGRITY: {problem}", file=sys.stderr)
            if args.prune:
                print(
                    "refusing to prune an unhealthy store: fix the integrity "
                    "problems first",
                    file=sys.stderr,
                )
            return 1
        print("store ok: every model matches its manifest checksum")
    if args.prune:
        removed = store.prune_orphans()
        if removed:
            print(f"pruned {len(removed)} orphan files: {', '.join(removed)}")
        else:
            print("nothing to prune")
    return 0


def cmd_fleet_status(args) -> int:
    store, _ = _open_store(args.directory)
    try:
        fleet = store.read_fleet_manifest()
    except StoreIntegrityError as exc:
        print(f"corrupt fleet manifest: {exc}", file=sys.stderr)
        return 1
    rows = [
        {"shard": shard_id, "models": summary.models, "epoch": summary.model_epoch}
        for shard_id, summary in sorted(fleet.shards.items())
    ]
    print(
        format_table(
            rows,
            title=f"Sharded model store {args.directory} "
            f"({fleet.num_shards} shards, {fleet.total_models} models, "
            f"epoch {fleet.model_epoch})",
        )
    )
    if args.queue:
        from repro.fleet import DurableJobQueue, JobState

        counts = DurableJobQueue(args.queue).counts()
        summary = ", ".join(f"{state}={counts[state]}" for state in JobState.ALL)
        print(f"refresh queue {args.queue}: {summary}")
    return 0


def cmd_fleet_migrate(args) -> int:
    from repro.classify import load_router, save_router

    # The one place that opens a flat directory (written before sharding).
    source: ModelStore | ShardedModelStore = ModelStore(args.source)
    if not source.exists():
        source = ShardedModelStore(args.source)
        if not source.exists():
            raise _UsageError(f"no model store at {args.source}")
    try:
        router = load_router(args.source)  # fails before anything is written
        target = ShardedModelStore.migrate(source, args.dest, num_shards=args.num_shards)
        if router is not None:
            save_router(router, target)
    except (StoreIntegrityError, ValueError) as exc:
        print(f"migration failed: {exc}", file=sys.stderr)
        return 1
    fleet = target.read_fleet_manifest()
    print(
        f"migrated {fleet.total_models} models into {len(fleet.shards)} occupied "
        f"shards (of {fleet.num_shards}) at {args.dest}, epoch {fleet.model_epoch}"
    )
    return 0


class _CrashDuringJob:
    """Job-handler wrapper simulating a hard kill while a lease is held.

    Lets ``after`` jobs finish, then dies via ``os._exit`` at the start
    of the next claim's execution — no cleanup, no completion, exactly
    like a SIGKILL.  The queue is left with a live lease owned by a
    dead process, which is the situation the lease-expiry machinery
    exists for: drive the crash-resume smoke test with it.
    """

    def __init__(self, handler, after: int) -> None:
        self.handler = handler
        self.after = after
        self._done = 0
        self._lock = threading.Lock()

    def __call__(self, job):
        with self._lock:
            if self._done >= self.after:
                _simulated_crash(f"simulated crash holding the lease on {job.job_id}")
        result = self.handler(job)
        with self._lock:
            self._done += 1
        return result


def cmd_fleet_run_workers(args) -> int:
    import time

    from repro.fleet import (
        REFRESH_JOB_KIND,
        DurableJobQueue,
        FleetScheduler,
        JobState,
        RefreshOutcome,
        RefreshRunner,
        run_workers,
    )
    from repro.sampling.staleness import RefreshPolicy

    if args.workers <= 0 or args.lease_seconds <= 0 or args.timeout <= 0:
        raise _UsageError("--workers, --lease-seconds, and --timeout must be positive")
    servers = _federation_servers(args)
    store, stored = _open_store(args.models, servers)

    queue = DurableJobQueue(args.queue, lease_seconds=args.lease_seconds)
    # Only databases without a job on file are (re-)enqueued: a restart
    # resumes the existing round — done jobs stay done (exactly-once),
    # pending and expired-lease jobs get picked back up.
    existing = {job.database for job in queue.jobs() if job.kind == REFRESH_JOB_KIND}
    fresh = [name for name in sorted(servers) if name not in existing]
    if fresh:
        FleetScheduler().enqueue(queue, fresh, seed=args.seed, budget=args.budget)
    counts = queue.counts()
    print(
        f"queue {args.queue}: "
        + ", ".join(f"{state}={counts[state]}" for state in JobState.ALL)
    )

    outcome = RefreshOutcome()
    runner = RefreshRunner(
        servers,
        stored,
        lambda name: _default_bootstrap(servers[name]),
        RefreshPolicy(refresh_documents=args.refresh_docs),
        outcome,
        checkpoint_root=Path(args.queue) / "checkpoints",
    )
    execute = (
        _CrashDuringJob(runner, args.crash_after_jobs)
        if args.crash_after_jobs is not None
        else runner
    )
    install_lock = threading.Lock()

    def handler(job):
        result = execute(job)
        # Fold a refreshed model into the store *before* the job
        # completes, so its effect is durable even if this process dies
        # the next instant.  A replayed job (crash between install and
        # complete) re-probes against the already-refreshed set and
        # comes back fresh — the install is effectively exactly-once.
        if result.get("refreshed"):
            with install_lock:
                store.update({job.database: outcome.models[job.database]})
        return result

    # The wrapper computes or waits exactly as the runner it wraps:
    # run_workers reads the declaration off the handler it is given.
    handler.computes_in_process = runner.computes_in_process

    deadline = time.monotonic() + args.timeout
    completed = failed = 0
    while True:
        for stats in run_workers(
            queue, handler, num_workers=args.workers, poll_interval=0.05
        ):
            completed += stats.completed
            failed += stats.failed
        if queue.drained():
            break
        if time.monotonic() > deadline:
            print(
                "timed out waiting for the queue to drain "
                "(a dead worker's lease may still be held)",
                file=sys.stderr,
            )
            return 1
        # Leased jobs belong to a dead process; wait out the lease.
        time.sleep(min(1.0, max(0.1, args.lease_seconds / 4)))

    refreshed = sorted(outcome.refreshed)
    print(
        f"drained: {completed} jobs completed, {failed} attempts failed, "
        f"{len(refreshed)} models refreshed"
        + (f" ({', '.join(refreshed)})" if refreshed else "")
    )
    final = queue.counts()
    if final[JobState.FAILED]:
        print(f"{final[JobState.FAILED]} jobs exhausted their retries", file=sys.stderr)
        return 1
    return 0
