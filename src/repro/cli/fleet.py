"""Stored models: ``store``, ``fleet status``, ``fleet migrate``,
``fleet run-workers``.

``repro store DIR`` inspects a durable model store (``--verify``
re-reads every model, ``--prune`` deletes crash-leftover orphans after
a clean verify).  ``fleet migrate`` re-homes a store into new shards —
and is the one command that reads a flat directory written before
sharding; ``fleet status`` shows each shard's model count and epoch,
read off its own manifest, and the refresh-queue depth; ``fleet
run-workers`` drains a durable refresh queue, crash-tolerantly, on the
calling thread (its databases are in-process indexes).  A torn or
malformed job file is one ``corrupt refresh queue: FILE: …`` line and
exit 1.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.cli import (
    _default_bootstrap,
    _federation_servers,
    _open_store,
    _simulated_crash,
    _UsageError,
)
from repro.store import ModelStore, ShardedModelStore, StoreIntegrityError, StoreManifest
from repro.utils.table import format_table


def _shard_manifests(store: ShardedModelStore) -> dict[str, StoreManifest]:
    """Every listed shard's manifest, by shard id, in shard order."""
    return {shard_id: store.shard(shard_id).read_manifest() for shard_id in store.shard_ids()}


def cmd_store(args) -> int:
    store, _ = _open_store(args.directory)
    try:
        manifests = _shard_manifests(store)
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
            for shard_id, manifest in manifests.items()
            for name, entry in sorted(manifest.models.items())
        ]
    except (FileNotFoundError, StoreIntegrityError) as exc:
        print(f"corrupt store manifest: {exc}", file=sys.stderr)
        return 1
    print(
        format_table(
            rows,
            title=f"Model store {args.directory} ({len(manifests)} of "
            f"{store.num_shards} shards occupied, {len(rows)} models, "
            f"epoch {store.model_epoch()})",
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
        manifests = _shard_manifests(store)
    except StoreIntegrityError as exc:
        print(f"corrupt store manifest: {exc}", file=sys.stderr)
        return 1
    rows = [
        {"shard": shard_id, "models": len(manifest.models), "epoch": manifest.model_epoch}
        for shard_id, manifest in manifests.items()
    ]
    print(
        format_table(
            rows,
            title=f"Sharded model store {args.directory} "
            f"({store.num_shards} shards, {sum(row['models'] for row in rows)} models, "
            f"epoch {store.model_epoch()})",
        )
    )
    if args.queue:
        from repro.fleet import DurableJobQueue, JobState

        try:
            counts = DurableJobQueue(args.queue).counts()
        except ValueError as exc:  # a torn or malformed job file (JSONDecodeError too)
            print(f"corrupt refresh queue: {exc}", file=sys.stderr)
            return 1
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
    manifests = _shard_manifests(target)
    print(
        f"migrated {sum(len(m.models) for m in manifests.values())} models into "
        f"{len(manifests)} occupied shards (of {target.num_shards}) at {args.dest}, "
        f"epoch {target.model_epoch()}"
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

    def __call__(self, job):
        if self._done >= self.after:
            _simulated_crash(f"simulated crash holding the lease on {job.job_id}")
        result = self.handler(job)
        self._done += 1
        return result


def cmd_fleet_run_workers(args) -> int:
    from repro.fleet import DurableJobQueue

    servers = _federation_servers(args)
    store, stored = _open_store(args.models, servers)
    queue = DurableJobQueue(args.queue, lease_seconds=args.lease_seconds)
    try:
        return _drain(args, queue, servers, store, stored)
    except ValueError as exc:  # a torn or malformed job file (JSONDecodeError too)
        print(f"corrupt refresh queue: {exc}", file=sys.stderr)
        return 1


def _drain(args, queue, servers, store, stored) -> int:
    """Resume or start the round on ``queue`` and run it on this thread."""
    from repro.fleet import (
        REFRESH_JOB_KIND,
        JobState,
        RefreshOutcome,
        RefreshRunner,
        enqueue_refresh,
        run_workers,
    )
    from repro.sampling.staleness import RefreshPolicy

    # Only databases without a job on file are (re-)enqueued: a restart
    # resumes the existing round — done jobs stay done (exactly-once),
    # pending and expired-lease jobs get picked back up.
    existing = {job.database for job in queue.jobs() if job.kind == REFRESH_JOB_KIND}
    fresh = [name for name in sorted(servers) if name not in existing]
    if fresh:
        enqueue_refresh(queue, fresh, seed=args.seed, budget=args.budget)
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

    def handler(job):
        result = execute(job)
        # Fold a refreshed model into the store *before* the job
        # completes, so its effect is durable even if this process dies
        # the next instant.  A replayed job (crash between install and
        # complete) re-probes against the already-refreshed set and
        # comes back fresh — the install is effectively exactly-once.
        if result.get("refreshed"):
            store.update({job.database: outcome.models[job.database]})
        return result

    # One worker, on this thread: it waits out a dead worker's lease on
    # the queue's clock, for as long as --timeout allows.
    (stats,) = run_workers(queue, handler, num_workers=1, timeout=args.timeout)
    if not queue.drained():
        print(
            "timed out waiting for the queue to drain "
            "(a dead worker's lease may still be held)",
            file=sys.stderr,
        )
        return 1

    refreshed = sorted(outcome.refreshed)
    print(
        f"drained: {stats.completed} jobs completed, {stats.failed} attempts failed, "
        f"{len(refreshed)} models refreshed"
        + (f" ({', '.join(refreshed)})" if refreshed else "")
    )
    final = queue.counts()
    if final[JobState.FAILED]:
        print(f"{final[JobState.FAILED]} jobs exhausted their retries", file=sys.stderr)
        return 1
    return 0
