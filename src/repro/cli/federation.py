"""Many databases: ``federate``, ``serve``, ``load-bench``.

``federate --save-models DIR`` persists the learned model set to a
durable store and ``--models DIR`` warm-starts from one; ``serve`` and
``load-bench`` serve from such a store with ``--models`` instead of the
databases' ground truth.  ``--route-topics`` restricts each query's
fan-out to the databases classified under its topics.  ``load-bench``
is the package's one timing command, because it can drive a *remote*
``repro serve``; everything else is timed by ``python3 bench/run.py``.
"""

from __future__ import annotations

from repro.cli import (
    _default_bootstrap,
    _federation_servers,
    _open_store,
    _require_positive,
    _UsageError,
)
from repro.federation.service import FederatedSearchService, SearchRequest
from repro.obs import TraceRecorder
from repro.obs.trace import NULL_RECORDER
from repro.store import ShardedModelStore, StoreIntegrityError
from repro.synth.profiles import PROFILES_BY_NAME
from repro.utils.table import format_table


def _topic_router_for(servers, args):
    """Build or load the topic router ``--route-topics`` asked for.

    Persisted classifications in the ``--models`` store win; otherwise
    a synthetic federation is classified live — the probe set derives
    from the same profile/scale/seed that generated the corpora, so the
    topic vocabulary matches.  Without either, it is a usage error.
    """
    from repro.classify import (
        ClassifyParameters,
        QueryProbeClassifier,
        TopicRouter,
        build_probe_set,
        load_router,
    )

    if args.models:
        try:
            router = load_router(args.models)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        if router is not None:
            return router
    if args.corpora:
        raise _UsageError(
            "--route-topics over corpus files needs a --models store holding "
            "persisted classifications (see `repro classify probe --save-router`)"
        )
    space = PROFILES_BY_NAME["wsj88"]().topic_space(seed=args.seed, scale=args.scale)
    probe_set = build_probe_set(space, seed=args.seed)
    classifier = QueryProbeClassifier(probe_set, ClassifyParameters())
    return TopicRouter.from_probes(probe_set, classifier.classify_all(servers))


def cmd_federate(args) -> int:
    if len(args.corpora) < 2:
        raise _UsageError("federate needs at least two corpora")
    if args.route_topics and not args.models:
        raise _UsageError(
            "--route-topics needs a --models store holding persisted "
            "classifications (see `repro classify probe --save-router`)"
        )
    _require_positive(args, "n", "sample_docs", "databases_per_query")
    servers = _federation_servers(args)
    recorder = TraceRecorder() if args.trace else NULL_RECORDER
    service = FederatedSearchService(
        servers,
        databases_per_query=min(args.databases_per_query, len(servers)),
        recorder=recorder,
    )
    if args.models:
        try:
            store, _ = _open_store(args.models, recorder=recorder)
            service.load_models(store)
        except (_UsageError, FileNotFoundError, StoreIntegrityError, ValueError) as exc:
            raise _UsageError(f"cannot load models from {args.models}: {exc}") from exc
        print(
            f"warm-started {len(service.models)} models from {args.models} "
            f"(epoch {service.model_epoch})"
        )
        if args.route_topics:
            service.router = _topic_router_for(servers, args)
            print(f"topic routing over {len(service.router.topics)} topics")
    else:
        service.learn_models(
            lambda name: _default_bootstrap(servers[name]),
            total_documents=args.sample_docs * len(servers),
            seed=args.seed,
        )
        if args.save_models:
            try:
                service.save_models(ShardedModelStore(args.save_models, recorder=recorder))
            except StoreIntegrityError as exc:
                raise _UsageError(
                    f"cannot save models to {args.save_models}: {exc}"
                ) from exc
            print(f"saved {len(service.models)} models to {args.save_models}")
    response = service.search(SearchRequest(query=args.query, n=args.n))
    if args.trace:
        lines = recorder.write_jsonl(args.trace)
        print(f"trace: {lines} records -> {args.trace}")
    ranking_rows = [
        {"rank": i, "database": entry.name, "score": round(entry.score, 4),
         "searched": entry.name in response.searched}
        for i, entry in enumerate(response.ranking.entries, start=1)
    ]
    print(format_table(ranking_rows, title=f"Database ranking for {args.query!r}"))
    if response.routing is not None:
        decision = response.routing
        detail = (
            f"topics={','.join(decision.topics) or '-'} "
            f"confidence={decision.confidence:.2f}"
        )
        if decision.fell_back:
            detail += f" fell_back={decision.reason}"
        print(f"routing: {decision.mode} ({detail})")
    if not response.results:
        print("no results")
        return 1
    result_rows = [
        {"rank": i, "database": item.database, "doc_id": item.doc_id,
         "score": round(item.score, 4)}
        for i, item in enumerate(response.results, start=1)
    ]
    print(format_table(result_rows, title="Merged results"))
    return 0


def _gateway_frontend(args):
    """Build the serving frontend a gateway subcommand asked for.

    Returns ``(frontend, num_databases)``.  Flags are checked before
    any corpus is read or generated.
    """
    from repro.gateway import frontend_from_servers
    from repro.serving.bench import LatencyInjected

    if args.slow_backend < 0:
        raise _UsageError("--slow-backend must be non-negative")
    servers = _federation_servers(args)
    models = None
    if args.models:
        _, models = _open_store(args.models, servers)
    # Classify before any latency wrapping: LatencyInjected proxies
    # retrieval only and exposes no hit_count for probes.
    router = _topic_router_for(servers, args) if args.route_topics else None
    if args.slow_backend > 0:
        # Models come from the store or the unwrapped servers; the
        # injected latency slows retrieval only, so streaming has a
        # straggler to beat.
        if models is None:
            models = {
                name: server.actual_language_model()
                for name, server in servers.items()
            }
        slowest = sorted(servers)[0]
        servers[slowest] = LatencyInjected(servers[slowest], args.slow_backend)
    try:
        frontend = frontend_from_servers(
            servers,
            models=models,
            databases_per_query=args.databases_per_query,
            workers=args.workers,
        )
    except TypeError as exc:
        raise _UsageError(f"cannot serve this federation: {exc}") from exc
    except ValueError as exc:  # --workers, --databases-per-query out of range
        raise _UsageError(str(exc)) from exc
    frontend.service.router = router
    return frontend, len(servers)


def cmd_serve(args) -> int:
    import asyncio
    import contextlib
    import signal

    from repro.gateway import GatewayServer

    if args.queue_limit <= 0 or args.concurrency <= 0:
        raise _UsageError("--queue-limit and --concurrency must be positive")
    frontend, num_databases = _gateway_frontend(args)
    server = GatewayServer(
        frontend,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        concurrency=args.concurrency,
    )

    async def run() -> None:
        async with server:
            print(
                f"gateway listening on {server.host}:{server.port} "
                f"({num_databases} databases, queue limit {server.queue_limit}, "
                f"concurrency {server.concurrency})",
                flush=True,
            )
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except NotImplementedError:  # pragma: no cover - non-unix
                    pass
            await stop.wait()

    # A KeyboardInterrupt can still race the signal handlers' install.
    with frontend, contextlib.suppress(KeyboardInterrupt):
        asyncio.run(run())
    stats = server.stats
    print(
        f"gateway stopped: {stats.completed} served, {stats.shed} shed, "
        f"{stats.errors} errors, {stats.streamed_partials} streamed partials, "
        f"max queue depth {stats.max_queue_depth}"
    )
    return 0


def cmd_load_bench(args) -> int:
    from repro.gateway import format_load_bench, run_load_bench, write_load_bench
    from repro.gateway.client import GatewayError
    from repro.serving.bench import queries_from_models

    _require_positive(args, "duration")
    if any(qps <= 0 for qps in args.qps):
        raise _UsageError("--qps rates must be positive")
    frontend, _ = _gateway_frontend(args)
    try:
        queries = queries_from_models(frontend.service.models, args.queries)
        remote = args.host is not None
        if remote:
            # Remote mode: the local federation only supplied the
            # query vocabulary; the sweep hits the running gateway.
            frontend.close()
        report = run_load_bench(
            address=(args.host, args.port) if remote else None,
            frontend=None if remote else frontend,
            queries=queries,
            qps_levels=args.qps,
            duration=args.duration,
            pool_size=args.pool,
            n=args.n,
            deadline=args.deadline,
            queue_limit=args.queue_limit,  # the self-hosted gateway's only
            concurrency=args.concurrency,
            seed=args.seed,
        )
    except GatewayError as exc:
        raise _UsageError(f"load-bench failed: {exc}") from exc
    finally:
        frontend.close()
    print(format_load_bench(report))
    write_load_bench(report, args.output)
    print(f"\nwrote {args.output}")
    return 0
