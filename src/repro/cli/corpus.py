"""One corpus, one model: ``generate``, ``stats``, ``search``, ``sample``,
``compare``, ``summarize``, ``estimate-size``.

Corpora are JSONL files (``{"doc_id", "text", ...}`` per line); models
are written in the library's text format and read from it or from a
model store's columnar files (:mod:`repro.lm.io`).  ``sample
--checkpoint DIR`` makes a sampling run crash-safe: rerunning the same
command resumes it, bit-identically.
"""

from __future__ import annotations

import sys

from repro.cli import _default_bootstrap, _simulated_crash, _UsageError
from repro.corpus.readers import read_jsonl, write_jsonl
from repro.index.server import DatabaseServer
from repro.lm.compare import ctf_ratio, percentage_learned, spearman_rank_correlation
from repro.lm.io import load_language_model, save_language_model
from repro.obs import TraceRecorder
from repro.obs.trace import NULL_RECORDER
from repro.sampling.sampler import QueryBasedSampler, SamplerConfig
from repro.sampling.selection import FrequencyFromLearned, ListBootstrap, RandomFromLearned
from repro.sampling.stopping import MaxDocuments
from repro.sampling.transport import (
    ResilientDatabase,
    RetryPolicy,
    SimulatedClock,
    UnreliableServer,
)
from repro.sizeest.orchestrate import estimate_database_size
from repro.store import SamplerCheckpointer
from repro.summarize.summary import format_summary_grid, summarize
from repro.synth.profiles import PROFILES_BY_NAME
from repro.text.analyzer import Analyzer
from repro.utils.rand import derive_seed
from repro.utils.table import format_table


class _CrashAfterQueries:
    """Checkpoint wrapper simulating a hard kill after N queries.

    Drives the interrupt-and-resume smoke test deterministically:
    checkpoints pass through to the real checkpointer, and once the
    sampler has run ``queries`` queries the process dies via
    ``os._exit`` — no cleanup, no final save, exactly like a SIGKILL
    at a query boundary.
    """

    def __init__(self, inner: SamplerCheckpointer, queries: int) -> None:
        self.inner = inner
        self.queries = queries

    def maybe_save(self, sampler) -> None:
        self.inner.maybe_save(sampler)
        if sampler.queries_run >= self.queries:
            _simulated_crash(f"simulated crash after {sampler.queries_run} queries")

    def save(self, sampler) -> None:
        self.inner.save(sampler)


def cmd_generate(args) -> int:
    corpus = PROFILES_BY_NAME[args.profile]().scaled(args.scale).build(seed=args.seed)
    write_jsonl(corpus, args.output)
    print(f"wrote {len(corpus):,} documents to {args.output}")
    return 0


def cmd_stats(args) -> int:
    corpus = read_jsonl(args.corpus)
    analyzer = Analyzer.inquery_style() if args.indexed else Analyzer.raw()
    stats = corpus.stats(analyzer)
    print(format_table([stats.as_row()], title=f"Corpus statistics ({args.corpus})"))
    return 0


def cmd_search(args) -> int:
    server = DatabaseServer(read_jsonl(args.corpus))
    results = server.engine.search(args.query, n=args.n)
    if not results:
        print("no results")
        return 1
    rows = [
        {"rank": i, "doc_id": r.doc_id, "score": round(r.score, 4)}
        for i, r in enumerate(results, start=1)
    ]
    print(format_table(rows, title=f"Top {len(results)} for {args.query!r}"))
    return 0


def cmd_sample(args) -> int:
    server = DatabaseServer(read_jsonl(args.corpus))
    bootstrap = (
        ListBootstrap(args.bootstrap) if args.bootstrap else _default_bootstrap(server)
    )
    database = server
    recorder = NULL_RECORDER
    if args.fault_rate > 0:
        # The trace recorder (if any) must tick on the same simulated
        # clock as the transport's backoff, so span timestamps line up
        # with retry delays.
        clock = SimulatedClock()
        if args.trace:
            recorder = TraceRecorder(clock=clock)
        database = ResilientDatabase(
            UnreliableServer(
                server,
                transient_rate=args.fault_rate,
                seed=derive_seed(args.seed, "faults"),
            ),
            policy=RetryPolicy(max_attempts=args.max_retries + 1),
            clock=clock,
            seed=args.seed,
            recorder=recorder,
        )
    elif args.trace:
        recorder = TraceRecorder()
    sampler = QueryBasedSampler(
        database,
        bootstrap=bootstrap,
        strategy=(
            RandomFromLearned()
            if args.strategy == "random"
            else FrequencyFromLearned(args.strategy)
        ),
        stopping=MaxDocuments(args.max_docs),
        config=SamplerConfig(docs_per_query=args.docs_per_query, keep_documents=False),
        seed=args.seed,
        recorder=recorder,
    )
    checkpointer = None
    if args.checkpoint:
        checkpointer = SamplerCheckpointer(
            args.checkpoint, every_queries=args.checkpoint_every, recorder=recorder
        )
        try:
            resumed = checkpointer.resume(sampler)
        except ValueError as exc:
            raise _UsageError(f"cannot resume from {args.checkpoint}: {exc}") from exc
        if resumed:
            print(
                f"resumed from checkpoint: {sampler.documents_examined} documents, "
                f"{sampler.queries_run} queries already done"
            )
        if args.crash_after_queries is not None:
            checkpointer = _CrashAfterQueries(checkpointer, args.crash_after_queries)
    run = sampler.run(checkpoint=checkpointer)
    save_language_model(run.model, args.output)
    print(
        f"sampled {run.documents_examined} documents with {run.queries_run} queries "
        f"({run.failed_queries} failed); learned {len(run.model):,} terms -> {args.output}"
    )
    if args.trace:
        lines = recorder.write_jsonl(args.trace)
        print(f"trace: {lines} records -> {args.trace}")
    if args.fault_rate > 0:
        metrics = database.metrics
        print(
            f"transport: {metrics.attempts} attempts for {metrics.queries} queries, "
            f"{metrics.retries} retries, {metrics.queries_abandoned} abandoned, "
            f"{metrics.total_backoff:.1f}s simulated backoff"
        )
    if run.stop_reason == "database_unreachable":
        print("warning: database became unreachable; the model is partial",
              file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    learned = load_language_model(args.model)
    server = DatabaseServer(read_jsonl(args.corpus))
    actual = server.actual_language_model()
    projected = learned.project(server.index.analyzer)
    rows = [
        {"metric": "percentage_learned", "value": round(percentage_learned(projected, actual), 4)},
        {"metric": "ctf_ratio", "value": round(ctf_ratio(projected, actual), 4)},
        {"metric": "spearman_rank_correlation",
         "value": round(spearman_rank_correlation(projected, actual), 4)},
    ]
    print(format_table(rows, title=f"{args.model} vs {args.corpus}"))
    return 0


def cmd_summarize(args) -> int:
    model = load_language_model(args.model)
    summary = summarize(model, k=args.k, rank_by=args.rank_by, min_df=args.min_df)
    print(format_summary_grid(summary, columns=4))
    return 0


def cmd_estimate_size(args) -> int:
    server = DatabaseServer(read_jsonl(args.corpus))
    estimate = estimate_database_size(
        server,
        _default_bootstrap(server),
        method=args.method,
        sample_documents=args.sample_docs,
        seed=args.seed,
    )
    print(f"estimated size: {estimate:,.0f} documents ({args.method})")
    print(f"actual size:    {server.num_documents:,} documents")
    return 0
