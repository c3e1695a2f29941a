"""Command-line interface.

Exposes the library's main workflows as ``repro <subcommand>``:

.. code-block:: text

    repro generate  --profile wsj88 --scale 0.1 -o corpus.jsonl
    repro stats     corpus.jsonl
    repro search    corpus.jsonl "market court" -n 5
    repro sample    corpus.jsonl -o model.lm --max-docs 300
    repro compare   model.lm corpus.jsonl
    repro summarize model.lm --rank-by avg_tf -k 20
    repro estimate-size corpus.jsonl --method sample_resample
    repro federate a.jsonl b.jsonl c.jsonl --query "market court" -n 5
    repro serve     --synthetic 4 --port 8642
    repro load-bench --synthetic 4 --qps 20 40 80 -o BENCH_serving_load.json
    repro experiments --only fig1 fig3 --scale 0.1 --workers 4
    repro trace run.trace.jsonl
    repro store models-dir --verify
    repro fleet migrate models-dir sharded-dir --num-shards 16
    repro fleet status sharded-dir --queue queue-dir
    repro fleet run-workers a.jsonl b.jsonl --models sharded-dir --queue queue-dir
    repro classify probe --synthetic 4 --save-router models-dir
    repro classify bench -o BENCH_classify.json
    repro scenarios list
    repro scenarios bench --only drift overlap -o BENCH_scenarios.json

``sample`` and ``federate`` accept ``--trace PATH`` to record a
structured JSONL trace of the run (:mod:`repro.obs`); ``repro trace``
renders the per-database activity report from such a file.

Persistence (:mod:`repro.store`): ``sample --checkpoint DIR`` makes the
run crash-safe — kill it at any point and the same command resumes
from the last checkpoint, producing a model bit-identical to an
uninterrupted run.  ``federate --save-models DIR`` persists the learned
model set to a durable store; ``federate --models DIR`` warm-starts
from one instead of re-sampling; ``repro store DIR`` inspects one
(``--prune`` deletes crash-leftover orphans after a clean verify).
A flat directory written before sharding is refused: ``fleet migrate`` it.

Fleet lifecycle (:mod:`repro.fleet`): ``repro fleet migrate`` re-homes
a store into hash-bucketed shards, ``fleet status`` shows the shard
table and refresh-queue depth, and ``fleet run-workers`` drains a
durable refresh queue, crash-tolerantly (``--workers`` threads only for
databases that may wait).  ``serve`` and
``load-bench`` accept ``--models DIR`` to serve from a store instead of
ground truth.

Topic classification (:mod:`repro.classify`): ``repro classify probe``
classifies a federation's databases by query probing (hit counts only)
and can persist the resulting router beside a model store
(``--save-router DIR``); ``repro classify bench`` measures the
accuracy-vs-probe-budget curve and the routed-vs-broadcast serving
saving (``BENCH_classify.json``).  ``serve``, ``load-bench`` and
``federate`` accept ``--route-topics`` to restrict each query's fan-out
to databases classified under its topics (classifying live for
synthetic federations, loading persisted classifications from the
``--models`` store otherwise).

Wall-clock questions are answered outside the package: ``python3
bench/run.py --workload acquire|serve_light|serve_heavy|refresh`` end
to end, ``benchmarks/`` per hot path.  ``load-bench`` is the one timing
command here, because it can drive a *remote* ``repro serve``.

Corpora are JSONL files (``{"doc_id", "text", ...}`` per line); models
are written in the library's text format and read from it or from a
model store's columnar files (:mod:`repro.lm.io`).  Every stochastic
command takes ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path
from typing import Sequence

from repro.corpus.readers import read_jsonl, write_jsonl
from repro.federation.service import FederatedSearchService, SearchRequest
from repro.index.server import DatabaseServer
from repro.lm.compare import ctf_ratio, percentage_learned, spearman_rank_correlation
from repro.lm.io import load_language_model, save_language_model
from repro.obs import TraceRecorder, format_trace_report, read_trace
from repro.sampling.sampler import QueryBasedSampler, SamplerConfig
from repro.sampling.selection import FrequencyFromLearned, ListBootstrap, RandomFromLearned
from repro.sampling.stopping import MaxDocuments
from repro.obs.trace import NULL_RECORDER
from repro.sampling.transport import (
    ResilientDatabase,
    RetryPolicy,
    SimulatedClock,
    UnreliableServer,
)
from repro.sizeest.orchestrate import estimate_database_size
from repro.store import ModelStore, SamplerCheckpointer, ShardedModelStore, StoreIntegrityError
from repro.summarize.summary import format_summary_grid, summarize
from repro.synth.profiles import PROFILES_BY_NAME
from repro.text.analyzer import Analyzer
from repro.utils.rand import derive_seed
from repro.utils.table import format_table


def _add_generate(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate", help="generate a synthetic corpus from a named profile"
    )
    parser.add_argument("--profile", choices=sorted(PROFILES_BY_NAME), default="wsj88")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", required=True, help="output JSONL path")


def _add_stats(subparsers) -> None:
    parser = subparsers.add_parser("stats", help="corpus statistics (Table 1 row)")
    parser.add_argument("corpus", help="corpus JSONL path")
    parser.add_argument(
        "--indexed",
        action="store_true",
        help="report statistics under the stop+stem pipeline instead of raw tokens",
    )


def _add_search(subparsers) -> None:
    parser = subparsers.add_parser("search", help="run a query against a corpus")
    parser.add_argument("corpus", help="corpus JSONL path")
    parser.add_argument("query")
    parser.add_argument("-n", type=int, default=10)


def _add_sample(subparsers) -> None:
    parser = subparsers.add_parser(
        "sample", help="learn a language model by query-based sampling"
    )
    parser.add_argument("corpus", help="corpus JSONL path")
    parser.add_argument("-o", "--output", required=True, help="output model path")
    parser.add_argument("--max-docs", type=int, default=300)
    parser.add_argument("--docs-per-query", type=int, default=4)
    parser.add_argument(
        "--strategy",
        choices=("random", "df", "ctf", "avg_tf"),
        default="random",
        help="query-term selection strategy (paper Section 5.2)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--bootstrap",
        nargs="*",
        default=None,
        help="explicit initial query terms (default: frequent corpus terms)",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="simulate an unreliable transport: per-query probability of a "
        "transient failure (sampled through the retrying client)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="retries per query before abandoning it (with --fault-rate)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a structured JSONL trace of the run (see `repro trace`)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist a resumable checkpoint in DIR; rerunning the same "
        "command resumes from it (crash-safe, bit-identical)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        metavar="K",
        help="checkpoint every K queries (with --checkpoint)",
    )
    parser.add_argument(
        # Deterministic crash injection for the interrupt-and-resume
        # smoke test; simulates a hard kill (no cleanup) after N queries.
        "--crash-after-queries",
        type=int,
        default=None,
        help=argparse.SUPPRESS,
    )


def _add_compare(subparsers) -> None:
    parser = subparsers.add_parser(
        "compare", help="score a learned model against a corpus's actual model"
    )
    parser.add_argument("model", help="learned model path")
    parser.add_argument("corpus", help="corpus JSONL path")


def _add_summarize(subparsers) -> None:
    parser = subparsers.add_parser(
        "summarize", help="top-term summary of a language model (Table 4 style)"
    )
    parser.add_argument("model", help="model path")
    parser.add_argument("--rank-by", choices=("df", "ctf", "avg_tf"), default="avg_tf")
    parser.add_argument("-k", type=int, default=20)
    parser.add_argument("--min-df", type=int, default=2)


def _add_estimate_size(subparsers) -> None:
    parser = subparsers.add_parser(
        "estimate-size", help="estimate a corpus's size from its search surface"
    )
    parser.add_argument("corpus", help="corpus JSONL path")
    parser.add_argument(
        "--method",
        choices=("sample_resample", "schnabel", "schumacher_eschmeyer"),
        default="sample_resample",
    )
    parser.add_argument("--sample-docs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)


def _add_federate(subparsers) -> None:
    parser = subparsers.add_parser(
        "federate",
        help="sample several corpora, select with CORI, search, and merge",
    )
    parser.add_argument("corpora", nargs="+", help="corpus JSONL paths (>= 2)")
    parser.add_argument("--query", required=True)
    parser.add_argument("-n", type=int, default=10)
    parser.add_argument("--sample-docs", type=int, default=100,
                        help="sampling budget per database")
    parser.add_argument("--databases-per-query", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a structured JSONL trace of the run (see `repro trace`)",
    )
    parser.add_argument(
        "--models",
        default=None,
        metavar="DIR",
        help="warm-start from a durable model store instead of sampling "
        "(see `repro store`)",
    )
    parser.add_argument(
        "--save-models",
        default=None,
        metavar="DIR",
        help="persist the learned model set to a durable store directory",
    )
    parser.add_argument(
        "--route-topics",
        action="store_true",
        help="restrict fan-out by topic classification (needs a --models "
        "store with persisted classifications; see `repro classify probe`)",
    )


def _add_store(subparsers) -> None:
    parser = subparsers.add_parser(
        "store",
        help="inspect a durable model store directory",
    )
    parser.add_argument("directory", help="model store directory (see `repro federate --save-models`)")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="re-read every model and check its manifest checksum",
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help="delete orphan files (verifies first; refuses on integrity problems)",
    )


def _add_federation_source(parser, default_synthetic: int = 4) -> None:
    """Shared corpora-or-synthetic federation options (serve, load-bench)."""
    parser.add_argument(
        "corpora",
        nargs="*",
        help="corpus JSONL paths (omit to use a synthetic federation)",
    )
    parser.add_argument(
        "--synthetic",
        type=int,
        default=default_synthetic,
        metavar="K",
        help="number of synthetic databases when no corpora are given",
    )
    parser.add_argument(
        "--scale", type=float, default=0.05, help="synthetic corpus scale factor"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--databases-per-query", type=int, default=3, help="selection depth per query"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=8,
        help="bound of the fan-out thread pool, which serves backends that may "
        "wait (in-process databases are searched on the calling thread)",
    )
    parser.add_argument(
        "--slow-backend",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="inject this retrieval latency into one backend, which makes it a "
        "backend that waits (streaming demo: it goes to the fan-out pool and a "
        "partial frame flushes while it is still working; without it every "
        "backend is in-process and a request is one frame, no threads)",
    )
    parser.add_argument(
        "--models",
        default=None,
        metavar="DIR",
        help="warm-start serving from a durable model store "
        "instead of the databases' ground truth",
    )
    parser.add_argument(
        "--route-topics",
        action="store_true",
        help="classify the federation by query probing (or load persisted "
        "classifications from --models) and restrict each query's fan-out "
        "to databases matching its topics",
    )


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the federated-search gateway as a network service",
    )
    _add_federation_source(parser)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="TCP port (0 picks an ephemeral port)")
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission queue capacity; requests beyond it are shed",
    )
    parser.add_argument(
        "--concurrency", type=int, default=8, help="requests executed at once"
    )


def _add_load_bench(subparsers) -> None:
    parser = subparsers.add_parser(
        "load-bench",
        help="open-loop QPS sweep against the gateway -> BENCH_serving_load.json",
    )
    _add_federation_source(parser)
    parser.add_argument(
        "--host",
        default=None,
        help="target a running `repro serve` gateway (default: self-host in-process)",
    )
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--qps",
        nargs="+",
        type=float,
        default=(10.0, 20.0, 40.0, 80.0),
        help="offered-QPS ladder, one open-loop level per rate",
    )
    parser.add_argument(
        "--duration", type=float, default=2.0, help="seconds per level"
    )
    parser.add_argument(
        "--pool", type=int, default=4, help="pooled client connections"
    )
    parser.add_argument(
        "--queries", type=int, default=12, help="distinct bench queries to cycle"
    )
    parser.add_argument("-n", type=int, default=10, help="merged results per query")
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request total deadline in seconds (propagated to backends)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64, help="self-hosted gateway queue capacity"
    )
    parser.add_argument(
        "--concurrency", type=int, default=8, help="self-hosted gateway workers"
    )
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_serving_load.json",
        help="where the machine-readable report lands",
    )


def _add_fleet(subparsers) -> None:
    parser = subparsers.add_parser(
        "fleet",
        help="fleet-scale model lifecycle: sharded store, refresh queue, workers",
    )
    fleet = parser.add_subparsers(dest="fleet_command", required=True)

    status = fleet.add_parser(
        "status", help="shard table of a model store, plus optional queue counts"
    )
    status.add_argument("directory", help="model store directory")
    status.add_argument(
        "--queue",
        default=None,
        metavar="DIR",
        help="also report job counts for this durable refresh queue",
    )

    migrate = fleet.add_parser(
        "migrate", help="re-home a model store into a new sharded layout"
    )
    migrate.add_argument("source", help="existing store directory (sharded, or flat: pre-sharding)")
    migrate.add_argument("dest", help="target directory (must not hold a store yet)")
    migrate.add_argument(
        "--num-shards", type=int, default=16, help="shard count of the new store"
    )

    run = fleet.add_parser(
        "run-workers",
        help="drain a durable refresh queue, folding refreshed models back "
        "into the store",
    )
    run.add_argument(
        "corpora",
        nargs="*",
        help="corpus JSONL paths (omit to run against a synthetic federation)",
    )
    run.add_argument(
        "--synthetic",
        type=int,
        default=4,
        metavar="K",
        help="number of synthetic databases when no corpora are given",
    )
    run.add_argument(
        "--scale", type=float, default=0.05, help="synthetic corpus scale factor"
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--models",
        required=True,
        metavar="DIR",
        help="durable model store the sweep probes against and updates",
    )
    run.add_argument(
        "--queue",
        required=True,
        metavar="DIR",
        help="durable job queue directory (restarts resume it)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads for databases that may wait; in-process "
        "indexes (corpus files, --synthetic) are refreshed on the main thread",
    )
    run.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help="job lease duration; a crashed worker's job is reclaimed after this",
    )
    run.add_argument(
        "--refresh-docs", type=int, default=300, help="sample size of a full refresh"
    )
    run.add_argument(
        "--budget",
        type=int,
        default=None,
        help="enqueue at most this many databases (highest priority first)",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="give up draining the queue after this many wall-clock seconds",
    )
    # Test hook: die via os._exit while holding a lease, after N jobs.
    run.add_argument("--crash-after-jobs", type=int, default=None, help=argparse.SUPPRESS)


def _add_classify(subparsers) -> None:
    parser = subparsers.add_parser(
        "classify",
        help="topic classification by query probing, and its benchmark",
    )
    classify = parser.add_subparsers(dest="classify_command", required=True)

    probe = classify.add_parser(
        "probe",
        help="classify a federation's databases from probe hit counts alone",
    )
    probe.add_argument(
        "corpora",
        nargs="*",
        help="corpus JSONL paths (omit to classify a synthetic federation)",
    )
    probe.add_argument(
        "--synthetic",
        type=int,
        default=4,
        metavar="K",
        help="number of synthetic databases when no corpora are given",
    )
    probe.add_argument(
        "--profile",
        choices=sorted(PROFILES_BY_NAME),
        default="wsj88",
        help="topic space the probes are derived from; for corpus files this "
        "must match the `repro generate` profile/scale/seed that built them",
    )
    probe.add_argument(
        "--scale", type=float, default=0.05, help="corpus scale factor"
    )
    probe.add_argument("--seed", type=int, default=0)
    probe.add_argument(
        "--probes-per-topic",
        type=int,
        default=8,
        help="probe budget per topic (the accuracy/cost dial)",
    )
    probe.add_argument(
        "--tau-coverage",
        type=float,
        default=1.0,
        help="minimum total matches for a topic to be assignable",
    )
    probe.add_argument(
        "--tau-specificity",
        type=float,
        default=0.1,
        help="minimum share of a database's matches a topic must hold",
    )
    probe.add_argument(
        "--save-router",
        default=None,
        metavar="DIR",
        help="persist the classifications beside a model store, so serving "
        "warm-starts topic routing (`repro serve --route-topics --models DIR`)",
    )

    bench = classify.add_parser(
        "bench",
        help="accuracy-vs-probe-budget curve and routed-vs-broadcast saving "
        "-> BENCH_classify.json",
    )
    bench.add_argument(
        "--profile", choices=sorted(PROFILES_BY_NAME), default="wsj88"
    )
    bench.add_argument(
        "--databases", type=int, default=4, help="synthetic federation size"
    )
    bench.add_argument(
        "--scale", type=float, default=0.05, help="synthetic corpus scale factor"
    )
    bench.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=(0, 1, 2),
        help="seeds averaged by the curve and the routing comparison",
    )
    bench.add_argument(
        "--budgets",
        nargs="+",
        type=int,
        default=(1, 2, 4, 8, 16),
        help="probes-per-topic levels of the accuracy curve",
    )
    bench.add_argument(
        "--databases-per-query", type=int, default=3, help="broadcast depth"
    )
    bench.add_argument("-n", type=int, default=10, help="merged results per query")
    bench.add_argument(
        "-o",
        "--output",
        default="BENCH_classify.json",
        help="where the machine-readable report lands",
    )


def _add_scenarios(subparsers) -> None:
    parser = subparsers.add_parser(
        "scenarios",
        help="adversarial-world testbeds: drift, overlap, clusters, caps, sizes",
    )
    scenarios = parser.add_subparsers(dest="scenarios_command", required=True)

    scenarios.add_parser(
        "list", help="the scenario registry: what each world breaks, and how"
    )

    bench = scenarios.add_parser(
        "bench",
        help="measure every scenario's robustness pin "
        "(the committed BENCH_scenarios.json)",
    )
    bench.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="SCENARIO",
        help="subset of scenario names to run (default: all; see "
        "`repro scenarios list`)",
    )
    bench.add_argument(
        "--scale", type=float, default=1.0, help="testbed scale factor"
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "-o",
        "--output",
        default="BENCH_scenarios.json",
        help="where the machine-readable report lands",
    )


def _add_experiments(subparsers) -> None:
    parser = subparsers.add_parser(
        "experiments",
        help="regenerate the paper's figures/tables from synthetic testbeds",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        choices=("fig1", "fig3", "fig4", "table2", "table3"),
        default=None,
        help="subset of experiments to run (default: all)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes to fan independent trials across (1 = serial; "
        "results are identical for any worker count)",
    )
    parser.add_argument("--seed", type=int, default=0, help="testbed seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="corpus scale factor (default: REPRO_SCALE or 1.0)",
    )
    parser.add_argument(
        "--seeds",
        nargs="*",
        type=int,
        default=(0, 1, 2),
        help="per-trial seeds averaged by each experiment",
    )


def _add_trace(subparsers) -> None:
    parser = subparsers.add_parser(
        "trace",
        help="per-database activity report from a JSONL trace file",
    )
    parser.add_argument("trace_file", help="JSONL trace written with --trace")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query-based sampling for text database language models "
        "(Callan, Connell & Du, SIGMOD 1999)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_stats(subparsers)
    _add_search(subparsers)
    _add_sample(subparsers)
    _add_compare(subparsers)
    _add_summarize(subparsers)
    _add_estimate_size(subparsers)
    _add_federate(subparsers)
    _add_store(subparsers)
    _add_serve(subparsers)
    _add_load_bench(subparsers)
    _add_fleet(subparsers)
    _add_classify(subparsers)
    _add_scenarios(subparsers)
    _add_experiments(subparsers)
    _add_trace(subparsers)
    return parser


def _default_bootstrap(server: DatabaseServer) -> ListBootstrap:
    seeds = [s.term for s in server.actual_language_model().top_terms(200, "ctf")]
    return ListBootstrap(seeds)


def _make_strategy(name: str):
    if name == "random":
        return RandomFromLearned()
    return FrequencyFromLearned(name)


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
            import os

            print(
                f"simulated crash after {sampler.queries_run} queries",
                file=sys.stderr,
                flush=True,
            )
            os._exit(3)

    def save(self, sampler) -> None:
        self.inner.save(sampler)


def _cmd_generate(args) -> int:
    profile = PROFILES_BY_NAME[args.profile]()
    corpus = profile.build(seed=args.seed, scale=args.scale)
    write_jsonl(corpus, args.output)
    print(f"wrote {len(corpus):,} documents to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    corpus = read_jsonl(args.corpus)
    analyzer = Analyzer.inquery_style() if args.indexed else Analyzer.raw()
    stats = corpus.stats(analyzer)
    print(format_table([stats.as_row()], title=f"Corpus statistics ({args.corpus})"))
    return 0


def _cmd_search(args) -> int:
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


def _cmd_sample(args) -> int:
    if not 0.0 <= args.fault_rate < 1.0:
        print("--fault-rate must be in [0, 1)", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("--max-retries must be >= 0", file=sys.stderr)
        return 2
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
        strategy=_make_strategy(args.strategy),
        stopping=MaxDocuments(args.max_docs),
        config=SamplerConfig(docs_per_query=args.docs_per_query, keep_documents=False),
        seed=args.seed,
        recorder=recorder,
    )
    checkpointer = None
    if args.checkpoint:
        if args.checkpoint_every <= 0:
            print("--checkpoint-every must be positive", file=sys.stderr)
            return 2
        checkpointer = SamplerCheckpointer(
            args.checkpoint, every_queries=args.checkpoint_every, recorder=recorder
        )
        try:
            resumed = checkpointer.resume(sampler)
        except ValueError as exc:
            print(f"cannot resume from {args.checkpoint}: {exc}", file=sys.stderr)
            return 2
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


def _cmd_compare(args) -> int:
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


def _cmd_summarize(args) -> int:
    model = load_language_model(args.model)
    summary = summarize(model, k=args.k, rank_by=args.rank_by, min_df=args.min_df)
    print(format_summary_grid(summary, columns=4))
    return 0


def _cmd_estimate_size(args) -> int:
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


def _cmd_federate(args) -> int:
    if len(args.corpora) < 2:
        print("federate needs at least two corpora", file=sys.stderr)
        return 2
    servers = {}
    for path in args.corpora:
        corpus = read_jsonl(path)
        if corpus.name in servers:
            print(f"duplicate corpus name {corpus.name!r}", file=sys.stderr)
            return 2
        servers[corpus.name] = DatabaseServer(corpus)
    recorder = TraceRecorder() if args.trace else NULL_RECORDER
    service = FederatedSearchService(
        servers,
        databases_per_query=min(args.databases_per_query, len(servers)),
        recorder=recorder,
    )
    if args.models:
        try:
            service.load_models(ShardedModelStore(args.models, recorder=recorder))
        except (FileNotFoundError, StoreIntegrityError, ValueError) as exc:
            print(f"cannot load models from {args.models}: {exc}", file=sys.stderr)
            return 2
        print(
            f"warm-started {len(service.models)} models from {args.models} "
            f"(epoch {service.model_epoch})"
        )
        if args.route_topics:
            try:
                service.router = _topic_router_for(servers, args)
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            print(f"topic routing over {len(service.router.topics)} topics")
    else:
        if args.route_topics:
            print(
                "--route-topics needs a --models store holding persisted "
                "classifications (see `repro classify probe --save-router`)",
                file=sys.stderr,
            )
            return 2
        service.learn_models(
            lambda name: _default_bootstrap(servers[name]),
            total_documents=args.sample_docs * len(servers),
            scheduler="round_robin",
            seed=args.seed,
        )
        if args.save_models:
            try:
                service.save_models(ShardedModelStore(args.save_models, recorder=recorder))
            except StoreIntegrityError as exc:
                print(f"cannot save models to {args.save_models}: {exc}", file=sys.stderr)
                return 2
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


def _existing_store(directory) -> ShardedModelStore:
    """The store at ``directory``; a user-facing :class:`ValueError` if none or flat."""
    store = ShardedModelStore(directory)
    if not store.exists():
        raise ValueError(f"no model store at {directory}")
    return store


def _cmd_store(args) -> int:
    try:
        store = _existing_store(args.directory)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
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


def _federation_parts(
    corpora: Sequence[str],
    synthetic: int,
    scale: float,
    seed: int,
    profile: str = "wsj88",
):
    """The federation's corpora: read from files, or synthesized.

    Synthetic parts are built exactly as
    :func:`repro.serving.bench.build_synthetic_federation` builds its
    servers (wsj88 profile, topically skewed partition), so every
    subcommand sees the same federation for the same flags.  Raises
    :class:`ValueError` with a user-facing message on a bad spec.
    """
    from repro.federation.testbed import build_skewed_partition

    if corpora:
        if len(corpora) < 2:
            raise ValueError("a federation needs at least two corpora")
        parts = []
        names = set()
        for path in corpora:
            corpus = read_jsonl(path)
            if corpus.name in names:
                raise ValueError(f"duplicate corpus name {corpus.name!r}")
            names.add(corpus.name)
            parts.append(corpus)
        return parts
    if synthetic < 2:
        raise ValueError("--synthetic must be >= 2")
    corpus = PROFILES_BY_NAME[profile]().build(seed=seed, scale=scale)
    return build_skewed_partition(corpus, num_databases=synthetic, seed=seed)


def _federation_servers(
    corpora: Sequence[str], synthetic: int, scale: float, seed: int
) -> dict[str, DatabaseServer]:
    """Database servers from corpus files or a synthetic federation.

    Raises :class:`ValueError` with a user-facing message on a bad
    federation spec (the subcommands print it and exit 2).
    """
    parts = _federation_parts(corpora, synthetic, scale, seed)
    return {part.name: DatabaseServer(part) for part in parts}


def _topic_router_for(servers, args, *, profile: str = "wsj88"):
    """Build or load the topic router ``--route-topics`` asked for.

    Persisted classifications in the ``--models`` store win; otherwise
    a synthetic federation is classified live — the probe set derives
    from the same profile/scale/seed that generated the corpora, so the
    topic vocabulary matches.  Raises :class:`ValueError` with a
    user-facing message when neither path is available.
    """
    from repro.classify import (
        ClassifyParameters,
        QueryProbeClassifier,
        TopicRouter,
        build_probe_set,
        load_router,
    )

    if getattr(args, "models", None):
        router = load_router(args.models)
        if router is not None:
            return router
    if args.corpora:
        raise ValueError(
            "--route-topics over corpus files needs a --models store holding "
            "persisted classifications (see `repro classify probe --save-router`)"
        )
    space = PROFILES_BY_NAME[profile]().topic_space(seed=args.seed, scale=args.scale)
    probe_set = build_probe_set(space, seed=args.seed)
    classifier = QueryProbeClassifier(probe_set, ClassifyParameters())
    return TopicRouter.from_probes(probe_set, classifier.classify_all(servers))


def _store_models_for(servers, directory):
    """Load one model per federation database from a durable store.

    Only the shards the names hash to are read.  Raises :class:`ValueError`
    with a user-facing message on a missing or flat store, missing
    models, or integrity trouble.
    """
    store = _existing_store(directory)
    missing = set(servers) - set(store.model_names())
    if missing:
        raise ValueError(
            f"store at {directory} is missing models for databases: {sorted(missing)}"
        )
    try:
        return {name: store.load_model(name) for name in servers}
    except StoreIntegrityError as exc:
        raise ValueError(f"cannot load models from {directory}: {exc}") from exc


def _gateway_frontend(args):
    """Build the serving frontend a gateway subcommand asked for.

    Returns ``(frontend, num_databases)``; raises :class:`ValueError`
    with a user-facing message on a bad spec.
    """
    from repro.gateway import frontend_from_servers
    from repro.serving.bench import LatencyInjected

    servers = _federation_servers(args.corpora, args.synthetic, args.scale, args.seed)
    if args.slow_backend < 0:
        raise ValueError("--slow-backend must be non-negative")
    models = None
    if args.models:
        models = _store_models_for(servers, args.models)
    router = None
    if getattr(args, "route_topics", False):
        # Classify before any latency wrapping: LatencyInjected proxies
        # retrieval only and exposes no hit_count for probes.
        router = _topic_router_for(servers, args)
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
        servers = {
            name: (
                LatencyInjected(server, args.slow_backend)
                if name == slowest
                else server
            )
            for name, server in servers.items()
        }
    try:
        frontend = frontend_from_servers(
            servers,
            models=models,
            databases_per_query=args.databases_per_query,
            workers=args.workers,
        )
    except TypeError as exc:
        raise ValueError(f"cannot serve this federation: {exc}") from exc
    if router is not None:
        frontend.service.router = router
    return frontend, len(servers)


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.gateway import GatewayServer

    try:
        frontend, num_databases = _gateway_frontend(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.queue_limit <= 0 or args.concurrency <= 0:
        print("--queue-limit and --concurrency must be positive", file=sys.stderr)
        return 2
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

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    finally:
        frontend.close()
    stats = server.stats
    print(
        f"gateway stopped: {stats.completed} served, {stats.shed} shed, "
        f"{stats.errors} errors, {stats.streamed_partials} streamed partials, "
        f"max queue depth {stats.max_queue_depth}"
    )
    return 0


def _cmd_load_bench(args) -> int:
    from repro.gateway import format_load_bench, run_load_bench, write_load_bench
    from repro.gateway.client import GatewayError
    from repro.serving.bench import queries_from_models

    if args.duration <= 0:
        print("--duration must be positive", file=sys.stderr)
        return 2
    if any(qps <= 0 for qps in args.qps):
        print("--qps rates must be positive", file=sys.stderr)
        return 2
    try:
        frontend, _ = _gateway_frontend(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        queries = queries_from_models(frontend.service.models, args.queries)
        if args.host is not None:
            # Remote mode: the local federation only supplied the
            # query vocabulary; the sweep hits the running gateway.
            frontend.close()
            report = run_load_bench(
                address=(args.host, args.port),
                queries=queries,
                qps_levels=args.qps,
                duration=args.duration,
                pool_size=args.pool,
                n=args.n,
                deadline=args.deadline,
                seed=args.seed,
            )
        else:
            report = run_load_bench(
                frontend=frontend,
                queries=queries,
                qps_levels=args.qps,
                duration=args.duration,
                pool_size=args.pool,
                n=args.n,
                deadline=args.deadline,
                queue_limit=args.queue_limit,
                concurrency=args.concurrency,
                seed=args.seed,
            )
    except GatewayError as exc:
        print(f"load-bench failed: {exc}", file=sys.stderr)
        return 2
    finally:
        frontend.close()
    print(format_load_bench(report))
    write_load_bench(report, args.output)
    print(f"\nwrote {args.output}")
    return 0


def _cmd_fleet_status(args) -> int:
    try:
        store = _existing_store(args.directory)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
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


def _cmd_fleet_migrate(args) -> int:
    from repro.classify import load_router, save_router

    # The one place that opens a flat directory (written before sharding).
    source: ModelStore | ShardedModelStore = ModelStore(args.source)
    if not source.exists():
        source = ShardedModelStore(args.source)
        if not source.exists():
            print(f"no model store at {args.source}", file=sys.stderr)
            return 2
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
                import os

                print(
                    f"simulated crash holding the lease on {job.job_id}",
                    file=sys.stderr,
                    flush=True,
                )
                os._exit(3)
        result = self.handler(job)
        with self._lock:
            self._done += 1
        return result


def _cmd_fleet_run_workers(args) -> int:
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
        print(
            "--workers, --lease-seconds, and --timeout must be positive",
            file=sys.stderr,
        )
        return 2
    try:
        servers = _federation_servers(
            args.corpora, args.synthetic, args.scale, args.seed
        )
        stored = _store_models_for(servers, args.models)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    store = ShardedModelStore(args.models)

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

    def install(job, result) -> None:
        # Fold a refreshed model into the store *before* the job
        # completes, so its effect is durable even if this process dies
        # the next instant.  A replayed job (crash between install and
        # complete) re-probes against the already-refreshed set and
        # comes back fresh — the install is effectively exactly-once.
        if not result.get("refreshed"):
            return
        model = outcome.models[job.database]
        with install_lock:
            store.update({job.database: model})

    def handler(job):
        result = execute(job)
        install(job, result)
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


_FLEET_COMMANDS = {
    "status": _cmd_fleet_status,
    "migrate": _cmd_fleet_migrate,
    "run-workers": _cmd_fleet_run_workers,
}


def _cmd_fleet(args) -> int:
    return _FLEET_COMMANDS[args.fleet_command](args)


def _cmd_classify_probe(args) -> int:
    from repro.classify import (
        ClassifyParameters,
        QueryProbeClassifier,
        TopicRouter,
        build_probe_set,
        save_router,
    )

    try:
        parts = _federation_parts(
            args.corpora, args.synthetic, args.scale, args.seed, args.profile
        )
        params = ClassifyParameters(
            tau_coverage=args.tau_coverage,
            tau_specificity=args.tau_specificity,
            probes_per_topic=args.probes_per_topic,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    servers = {part.name: DatabaseServer(part) for part in parts}
    space = PROFILES_BY_NAME[args.profile]().topic_space(
        seed=args.seed, scale=args.scale
    )
    probe_set = build_probe_set(space, seed=args.seed)
    classifier = QueryProbeClassifier(probe_set, params)
    classifications = classifier.classify_all(servers)
    rows = [
        {
            "database": name,
            "assigned": ",".join(c.assigned) or "-",
            "confidence": round(c.confidence, 3),
            "probes": c.probes_issued,
        }
        for name, c in classifications.items()
    ]
    print(
        format_table(
            rows,
            title=f"Classification over {len(probe_set.topics)} topics "
            f"(budget {args.probes_per_topic} probes/topic)",
        )
    )
    diffuse = [name for name, c in classifications.items() if not c.assigned]
    if diffuse:
        print(f"topically diffuse (will broadcast): {', '.join(diffuse)}")
    if args.save_router:
        router = TopicRouter.from_probes(probe_set, classifications)
        path = save_router(router, args.save_router)
        print(f"saved classifications -> {path}")
    return 0


def _cmd_classify_bench(args) -> int:
    from repro.experiments.classify_bench import (
        format_classify_bench,
        run_classify_bench,
        write_classify_bench,
    )

    if args.databases < 2:
        print("--databases must be >= 2", file=sys.stderr)
        return 2
    if any(budget <= 0 for budget in args.budgets):
        print("--budgets must be positive", file=sys.stderr)
        return 2
    report = run_classify_bench(
        profile=args.profile,
        num_databases=args.databases,
        scale=args.scale,
        seeds=tuple(args.seeds),
        budgets=tuple(args.budgets),
        databases_per_query=args.databases_per_query,
        n=args.n,
    )
    print(format_classify_bench(report))
    write_classify_bench(report, args.output)
    print(f"\nwrote {args.output}")
    return 0


_CLASSIFY_COMMANDS = {
    "probe": _cmd_classify_probe,
    "bench": _cmd_classify_bench,
}


def _cmd_classify(args) -> int:
    return _CLASSIFY_COMMANDS[args.classify_command](args)


def _cmd_scenarios_list(args) -> int:
    from repro.scenarios import SCENARIO_SPECS

    for spec in SCENARIO_SPECS:
        print(f"{spec.name}: {spec.description}")
        print(f"  breaks: {spec.breaks}")
        print(f"  signal: {spec.signal}")
    return 0


def _cmd_scenarios_bench(args) -> int:
    from repro.scenarios import (
        format_scenarios_bench,
        run_scenarios_bench,
        scenario_names,
        write_scenarios_bench,
    )

    if args.scale <= 0:
        print("--scale must be positive", file=sys.stderr)
        return 2
    if args.only:
        unknown = sorted(set(args.only) - set(scenario_names()))
        if unknown:
            print(
                f"unknown scenarios: {', '.join(unknown)} "
                f"(known: {', '.join(scenario_names())})",
                file=sys.stderr,
            )
            return 2
    report = run_scenarios_bench(scale=args.scale, seed=args.seed, only=args.only)
    print(format_scenarios_bench(report))
    write_scenarios_bench(report, args.output)
    print(f"\nwrote {args.output}")
    return 0 if report.all_passed else 1


_SCENARIOS_COMMANDS = {
    "list": _cmd_scenarios_list,
    "bench": _cmd_scenarios_bench,
}


def _cmd_scenarios(args) -> int:
    return _SCENARIOS_COMMANDS[args.scenarios_command](args)


def _cmd_experiments(args) -> int:
    # Imported lazily: the experiments package pulls in the synthetic
    # corpus machinery, which the file-based subcommands never need.
    from repro.experiments import (
        Testbed,
        curve_series,
        figure1_and_2_curves,
        figure3_strategy_curves,
        figure4_rdiff_series,
        format_series,
        table2_docs_per_query,
    )

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    wanted = set(args.only) if args.only else {"fig1", "fig3", "fig4", "table2", "table3"}
    seeds = tuple(args.seeds)
    testbed = Testbed(seed=args.seed, scale=args.scale)
    if "fig1" in wanted:
        curves = figure1_and_2_curves(testbed, seeds=seeds, workers=args.workers)
        for metric, title in (
            ("percentage_learned", "Figure 1a: fraction of terms learned"),
            ("ctf_ratio", "Figure 1b: ctf ratio"),
            ("spearman", "Figure 2: Spearman rank correlation"),
        ):
            print(format_series(curve_series(curves, metric), title=title))
            print()
    run_fig3 = "fig3" in wanted
    if run_fig3 or "table3" in wanted:
        results = figure3_strategy_curves(testbed, seeds=seeds, workers=args.workers)
        if run_fig3:
            strategy_curves = {label: curve for label, (curve, _) in results.items()}
            print(
                format_series(
                    curve_series(strategy_curves, "ctf_ratio"),
                    title="Figure 3: ctf ratio by query-selection strategy (wsj88)",
                )
            )
            print()
        if "table3" in wanted:
            rows = [
                {"strategy": label, "mean_queries": round(queries, 1)}
                for label, (_, queries) in results.items()
            ]
            print(format_table(rows, title="Table 3: queries to exhaust the budget"))
            print()
    if "fig4" in wanted:
        series = figure4_rdiff_series(testbed, seeds=seeds, workers=args.workers)
        print(format_series(series, title="Figure 4: rdiff between snapshots"))
        print()
    if "table2" in wanted:
        rows = table2_docs_per_query(testbed, seeds=seeds, workers=args.workers)
        print(format_table(rows, title="Table 2: effect of docs per query (N)"))
        print()
    return 0


def _cmd_trace(args) -> int:
    try:
        records = read_trace(args.trace_file)
    except OSError as exc:
        print(f"cannot read trace file: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid trace file: {exc}", file=sys.stderr)
        return 2
    print(format_trace_report(records))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "search": _cmd_search,
    "sample": _cmd_sample,
    "compare": _cmd_compare,
    "summarize": _cmd_summarize,
    "estimate-size": _cmd_estimate_size,
    "federate": _cmd_federate,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "load-bench": _cmd_load_bench,
    "fleet": _cmd_fleet,
    "classify": _cmd_classify,
    "scenarios": _cmd_scenarios,
    "experiments": _cmd_experiments,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
