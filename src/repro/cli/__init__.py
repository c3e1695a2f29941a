"""The ``repro`` command line (``repro <command>`` or ``python -m repro``).

``repro --help`` lists the commands and ``repro <command> --help`` their
flags.  This module holds the parser, :func:`main` and the decisions
every command group shares, each made once:

* *Dispatch.*  Every leaf parser sets ``run`` (``set_defaults``) to the
  command group function that executes it (:func:`_command`);
  :func:`main` calls ``args.run(args)``.
* *Flag domains.*  Every numeric flag's ``type=`` is one of the
  callables below (:data:`_positive_int`, :data:`_finite_positive`,
  :func:`_scale`, …), so a value outside its domain (``-n 0``,
  ``--slow-backend nan``, ``--port 70000``) stops argparse with one line,
  ``<flag> must be …``, before any corpus, store or queue is opened.
* *Usage errors.*  Parsing and command code raise :class:`_UsageError`
  (a missing input file is one too); :func:`main` alone prints it to
  stderr and exits 2.  Exit 1 (a failed integrity check, failed jobs, a
  missed scenario pin, no results) stays an explicit return of the
  command.
* *Federation source.*  :func:`_add_federation_source` declares the
  corpora-or-``--synthetic`` options and :func:`_federation_servers`
  turns them into database servers.
* *Store opening.*  :func:`_open_store` opens an existing sharded store
  and loads one model per database; ``repro fleet migrate`` is the only
  command that opens a flat directory (written before sharding).

The commands live in one module per group, imported only when one of
them runs: :mod:`repro.cli.corpus` (``generate`` … ``estimate-size``),
:mod:`repro.cli.federation` (``federate``, ``serve``),
:mod:`repro.cli.fleet` (``store``, ``fleet``) and :mod:`repro.cli.studies`
(``classify``, ``scenarios``, ``experiments``, ``trace``).
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from functools import partial
from typing import Any, Callable, Collection, NoReturn, Sequence

from repro.corpus.readers import read_jsonl
from repro.index.server import DatabaseServer, build_servers
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.selection import ListBootstrap
from repro.store import ShardedModelStore, StoreIntegrityError
from repro.synth.profiles import PROFILES_BY_NAME, check_scale

__all__ = ["build_parser", "main"]


class _UsageError(Exception):
    """A command line that cannot run; :func:`main` prints it and exits 2."""


class _OutOfDomain(Exception):
    """A ``type=`` callable refused a value (not a ``ValueError``: argparse lets it by)."""


def _domain(convert: type, domain: str, accepts: Callable[[Any], bool]) -> Callable[[str], Any]:
    """A ``type=`` callable: ``convert(text)``, if ``accepts`` holds for it.

    Otherwise the flag "must be an integer" / "must be a number" (unreadable
    text) or "must be ``domain``"; ``nan`` fails every comparison.
    """
    noun = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise _OutOfDomain(noun) from None
        if not accepts(value):
            raise _OutOfDomain(domain)
        return value

    return parse


_positive_int = _domain(int, "positive", lambda v: v > 0)
_non_negative_int = _domain(int, "non-negative", lambda v: v >= 0)  # seeds too
_two_or_more = _domain(int, ">= 2", lambda v: v >= 2)  # databases in a federation
_port = _domain(int, "in [0, 65535]", lambda v: 0 <= v <= 65535)
_finite_positive = _domain(float, "finite and positive", lambda v: 0 < v < math.inf)
_finite_non_negative = _domain(float, "finite and non-negative", lambda v: 0 <= v < math.inf)
_unit_interval = _domain(float, "in [0, 1]", lambda v: 0 <= v <= 1)
_fault_rate = _domain(float, "in [0, 1)", lambda v: 0 <= v < 1)  # at 1 no query answers


def _scale(text: str) -> float:
    """``--scale``: a factor :func:`check_scale` accepts, refused with its message."""
    try:
        value = float(text)
    except ValueError:
        raise _OutOfDomain("a number") from None
    try:
        check_scale(value)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose flag values outside their domain are usage errors."""

    def _get_value(self, action, arg_string):
        # argparse converts each value here, the one place both the
        # flag and its type= callable's refusal are in hand.
        try:
            return super()._get_value(action, arg_string)
        except _OutOfDomain as exc:
            raise _UsageError(f"{'/'.join(action.option_strings)} must be {exc}") from None


def _simulated_crash(message: str) -> NoReturn:
    """Die like a SIGKILL (no cleanup, exit status 3): the crash-resume test hooks."""
    print(message, file=sys.stderr, flush=True)
    os._exit(3)


def _add_federation_source(
    parser,
    purpose: str,
    *,
    scale_help: str = "synthetic corpus scale factor",
    profile_help: str | None = None,
) -> None:
    """The corpora-or-synthetic federation options (see :func:`_federation_servers`).

    ``purpose`` completes the corpora help ("omit to ``purpose`` a
    synthetic federation"); ``profile_help`` adds ``--profile``.
    """
    parser.add_argument(
        "corpora",
        nargs="*",
        help=f"corpus JSONL paths (omit to {purpose} a synthetic federation)",
    )
    parser.add_argument(
        "--synthetic",
        type=_two_or_more,
        default=4,
        metavar="K",
        help="number of synthetic databases when no corpora are given",
    )
    if profile_help is not None:
        parser.add_argument(
            "--profile",
            choices=sorted(PROFILES_BY_NAME),
            default="wsj88",
            help=profile_help,
        )
    parser.add_argument("--scale", type=_scale, default=0.05, help=scale_help)
    parser.add_argument("--seed", type=_non_negative_int, default=0)


def _add_report_output(parser, default: str) -> None:
    """``-o/--output`` of a command that writes a machine-readable report."""
    parser.add_argument(
        "-o", "--output", default=default, help="where the machine-readable report lands"
    )


def _default_bootstrap(server: DatabaseServer) -> ListBootstrap:
    seeds = [s.term for s in server.actual_language_model().top_terms(200, "ctf")]
    return ListBootstrap(seeds)


def _federation_servers(args) -> dict[str, DatabaseServer]:
    """Database servers from ``args.corpora``, or a synthetic federation.

    Corpus files need at least two, with distinct names.  Without them
    the federation is :func:`repro.serving.bench.build_synthetic_federation`
    over ``--synthetic``/``--scale``/``--seed`` (and ``--profile`` where
    the command has it), so every command sees the same federation for
    the same flags.  Bad input (a malformed corpus line, a synthetic
    database left without documents) is a usage error carrying the
    library's message.
    """
    try:
        if not args.corpora:
            from repro.serving.bench import build_synthetic_federation

            return build_synthetic_federation(
                args.synthetic, args.scale, args.seed, getattr(args, "profile", "wsj88")
            )
        if len(args.corpora) < 2:
            raise _UsageError("a federation needs at least two corpora")
        corpora = {}
        for path in args.corpora:
            corpus = read_jsonl(path)
            if corpus.name in corpora:
                raise _UsageError(f"duplicate corpus name {corpus.name!r}")
            corpora[corpus.name] = corpus
        return dict(zip(corpora, build_servers(list(corpora.values()))))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _open_store(
    directory, databases: Collection[str] = (), *, recorder: Recorder = NULL_RECORDER
) -> tuple[ShardedModelStore, dict[str, LanguageModel]]:
    """The existing store at ``directory`` and one model per database named.

    Only the shards the names hash to have model files read.  A missing
    or flat store, a missing model and integrity trouble are usage errors
    (a missing file is one in :func:`main`).
    """
    store = ShardedModelStore(directory, recorder=recorder)
    try:
        if not store.exists():  # raises on a flat directory: migrate it first
            raise _UsageError(f"no model store at {directory}")
        if not databases:
            return store, {}
        missing = set(databases) - set(store.model_names())
        if missing:
            raise _UsageError(
                f"store at {directory} is missing models for databases: {sorted(missing)}"
            )
        return store, {name: store.load_model(name) for name in databases}
    except (StoreIntegrityError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc


def _command(group: str, name: str, args) -> int:
    """Run ``repro.cli.<group>.<name>(args)``, importing the group only now.

    Every leaf parser sets ``run=partial(_command, group, name)``, so
    building the parser (``repro --help``) imports no command group.
    """
    return getattr(importlib.import_module(f"repro.cli.{group}"), name)(args)


def _add_corpus_commands(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate", help="generate a synthetic corpus from a named profile"
    )
    parser.add_argument("--profile", choices=sorted(PROFILES_BY_NAME), default="wsj88")
    parser.add_argument("--scale", type=_scale, default=1.0)
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("-o", "--output", required=True, help="output JSONL path")
    parser.set_defaults(run=partial(_command, "corpus", "cmd_generate"))

    parser = subparsers.add_parser("stats", help="corpus statistics (Table 1 row)")
    parser.add_argument("corpus", help="corpus JSONL path")
    parser.add_argument(
        "--indexed",
        action="store_true",
        help="report statistics under the stop+stem pipeline instead of raw tokens",
    )
    parser.set_defaults(run=partial(_command, "corpus", "cmd_stats"))

    parser = subparsers.add_parser("search", help="run a query against a corpus")
    parser.add_argument("corpus", help="corpus JSONL path")
    parser.add_argument("query")
    parser.add_argument("-n", type=_positive_int, default=10)
    parser.set_defaults(run=partial(_command, "corpus", "cmd_search"))

    parser = subparsers.add_parser(
        "sample", help="learn a language model by query-based sampling"
    )
    parser.add_argument("corpus", help="corpus JSONL path")
    parser.add_argument("-o", "--output", required=True, help="output model path")
    parser.add_argument("--max-docs", type=_positive_int, default=300)
    parser.add_argument("--docs-per-query", type=_positive_int, default=4)
    parser.add_argument(
        "--strategy",
        choices=("random", "df", "ctf", "avg_tf"),
        default="random",
        help="query-term selection strategy (paper Section 5.2)",
    )
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument(
        "--bootstrap",
        nargs="*",
        default=None,
        help="explicit initial query terms (default: frequent corpus terms)",
    )
    parser.add_argument(
        "--fault-rate",
        type=_fault_rate,
        default=0.0,
        help="simulate an unreliable transport: per-query probability of a "
        "transient failure (sampled through the retrying client)",
    )
    parser.add_argument(
        "--max-retries",
        type=_non_negative_int,
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
        type=_positive_int,
        default=10,
        metavar="K",
        help="checkpoint every K queries (with --checkpoint)",
    )
    parser.add_argument(
        # Deterministic crash injection for the interrupt-and-resume
        # smoke test; simulates a hard kill (no cleanup) after N queries.
        "--crash-after-queries",
        type=_positive_int,
        default=None,
        help=argparse.SUPPRESS,
    )
    parser.set_defaults(run=partial(_command, "corpus", "cmd_sample"))

    parser = subparsers.add_parser(
        "compare", help="score a learned model against a corpus's actual model"
    )
    parser.add_argument("model", help="learned model path")
    parser.add_argument("corpus", help="corpus JSONL path")
    parser.set_defaults(run=partial(_command, "corpus", "cmd_compare"))

    parser = subparsers.add_parser(
        "summarize", help="top-term summary of a language model (Table 4 style)"
    )
    parser.add_argument("model", help="model path")
    parser.add_argument("--rank-by", choices=("df", "ctf", "avg_tf"), default="avg_tf")
    parser.add_argument("-k", type=_positive_int, default=20)
    parser.add_argument("--min-df", type=_non_negative_int, default=2)
    parser.set_defaults(run=partial(_command, "corpus", "cmd_summarize"))

    parser = subparsers.add_parser(
        "estimate-size", help="estimate a corpus's size from its search surface"
    )
    parser.add_argument("corpus", help="corpus JSONL path")
    parser.add_argument(
        "--method",
        choices=("sample_resample", "schnabel", "schumacher_eschmeyer"),
        default="sample_resample",
    )
    parser.add_argument("--sample-docs", type=_positive_int, default=100)
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.set_defaults(run=partial(_command, "corpus", "cmd_estimate_size"))


def _add_federate(subparsers) -> None:
    parser = subparsers.add_parser(
        "federate",
        help="sample several corpora, select with CORI, search, and merge",
    )
    parser.add_argument("corpora", nargs="+", help="corpus JSONL paths (>= 2)")
    parser.add_argument("--query", required=True)
    parser.add_argument("-n", type=_positive_int, default=10)
    parser.add_argument("--sample-docs", type=_positive_int, default=100,
                        help="sampling budget per database")
    parser.add_argument("--databases-per-query", type=_positive_int, default=2)
    parser.add_argument("--seed", type=_non_negative_int, default=0)
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
    parser.set_defaults(run=partial(_command, "federation", "cmd_federate"))


def _add_store(subparsers) -> None:
    parser = subparsers.add_parser(
        "store",
        help="inspect a durable model store directory",
    )
    parser.add_argument(
        "directory", help="model store directory (see `repro federate --save-models`)"
    )
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
    parser.set_defaults(run=partial(_command, "fleet", "cmd_store"))


def _add_gateway_commands(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the federated-search gateway as a network service",
    )
    _add_federation_source(parser, "use")
    parser.add_argument(
        "--databases-per-query", type=_positive_int, default=3, help="selection depth per query"
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=8,
        help="bound of the fan-out thread pool, which serves backends that may "
        "wait (in-process databases are searched on the calling thread)",
    )
    parser.add_argument(
        "--slow-backend",
        type=_finite_non_negative,
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
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_port, default=8642,
                        help="TCP port (0 picks an ephemeral port)")
    parser.add_argument(
        "--queue-limit",
        type=_positive_int,
        default=64,
        help="admission queue capacity; requests beyond it are shed",
    )
    parser.add_argument(
        "--concurrency", type=_positive_int, default=8, help="requests executed at once"
    )
    parser.set_defaults(run=partial(_command, "federation", "cmd_serve"))


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
    status.set_defaults(run=partial(_command, "fleet", "cmd_fleet_status"))

    migrate = fleet.add_parser(
        "migrate", help="re-home a model store into a new sharded layout"
    )
    migrate.add_argument("source", help="existing store directory (sharded, or flat: pre-sharding)")
    migrate.add_argument("dest", help="target directory (must not hold a store yet)")
    migrate.add_argument(
        "--num-shards", type=_positive_int, default=16, help="shard count of the new store"
    )
    migrate.set_defaults(run=partial(_command, "fleet", "cmd_fleet_migrate"))

    run = fleet.add_parser(
        "run-workers",
        help="drain a durable refresh queue, folding refreshed models back "
        "into the store",
        description="Drain a durable refresh queue, folding refreshed models back "
        "into the store.  The databases are in-process indexes (corpus files or "
        "--synthetic), so refreshes run on the calling thread, one job at a time.",
    )
    _add_federation_source(run, "run against")
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
        "--lease-seconds",
        type=_finite_positive,
        default=30.0,
        help="job lease duration; a crashed worker's job is reclaimed after this",
    )
    run.add_argument(
        "--refresh-docs", type=_positive_int, default=300, help="sample size of a full refresh"
    )
    run.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        help="enqueue at most this many databases (in name order)",
    )
    run.add_argument(
        "--timeout",
        type=_finite_positive,
        default=120.0,
        help="give up when no job is claimable within this many wall-clock seconds "
        "of the start (a dead worker's lease is waited out up to then)",
    )
    # Test hook: die via os._exit while holding a lease, after N jobs.
    run.add_argument(
        "--crash-after-jobs", type=_non_negative_int, default=None, help=argparse.SUPPRESS
    )
    run.set_defaults(run=partial(_command, "fleet", "cmd_fleet_run_workers"))


def _add_study_commands(subparsers) -> None:
    parser = subparsers.add_parser(
        "classify",
        help="topic classification by query probing, and its benchmark",
    )
    classify = parser.add_subparsers(dest="classify_command", required=True)

    probe = classify.add_parser(
        "probe",
        help="classify a federation's databases from probe hit counts alone",
    )
    _add_federation_source(
        probe,
        "classify",
        scale_help="corpus scale factor",
        profile_help="topic space the probes are derived from; for corpus files this "
        "must match the `repro generate` profile/scale/seed that built them",
    )
    probe.add_argument(
        "--probes-per-topic",
        type=_positive_int,
        default=8,
        help="probe budget per topic (the accuracy/cost dial)",
    )
    probe.add_argument(
        "--tau-coverage",
        type=_finite_non_negative,
        default=1.0,
        help="minimum total matches for a topic to be assignable",
    )
    probe.add_argument(
        "--tau-specificity",
        type=_unit_interval,
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
    probe.set_defaults(run=partial(_command, "studies", "cmd_classify_probe"))

    bench = classify.add_parser(
        "bench",
        help="accuracy-vs-probe-budget curve and routed-vs-broadcast saving "
        "-> BENCH_classify.json",
    )
    bench.add_argument(
        "--profile", choices=sorted(PROFILES_BY_NAME), default="wsj88"
    )
    bench.add_argument(
        "--databases", type=_two_or_more, default=4, help="synthetic federation size"
    )
    bench.add_argument(
        "--scale", type=_scale, default=0.05, help="synthetic corpus scale factor"
    )
    bench.add_argument(
        "--seeds",
        nargs="+",
        type=_non_negative_int,
        default=(0, 1, 2),
        help="seeds averaged by the curve and the routing comparison",
    )
    bench.add_argument(
        "--budgets",
        nargs="+",
        type=_positive_int,
        default=(1, 2, 4, 8, 16),
        help="probes-per-topic levels of the accuracy curve",
    )
    bench.add_argument(
        "--databases-per-query", type=_positive_int, default=3, help="broadcast depth"
    )
    bench.add_argument("-n", type=_positive_int, default=10, help="merged results per query")
    _add_report_output(bench, "BENCH_classify.json")
    bench.set_defaults(run=partial(_command, "studies", "cmd_classify_bench"))

    parser = subparsers.add_parser(
        "scenarios",
        help="adversarial-world testbeds: drift, overlap, clusters, caps, sizes",
    )
    scenarios = parser.add_subparsers(dest="scenarios_command", required=True)

    scenarios.add_parser(
        "list", help="the scenario registry: what each world breaks, and how"
    ).set_defaults(run=partial(_command, "studies", "cmd_scenarios_list"))

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
        "--scale", type=_scale, default=1.0, help="testbed scale factor"
    )
    bench.add_argument("--seed", type=_non_negative_int, default=0)
    _add_report_output(bench, "BENCH_scenarios.json")
    bench.set_defaults(run=partial(_command, "studies", "cmd_scenarios_bench"))

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
        type=_positive_int,
        default=1,
        help="processes to fan independent trials across (1 = serial; "
        "results are identical for any worker count)",
    )
    parser.add_argument("--seed", type=_non_negative_int, default=0, help="testbed seed")
    parser.add_argument(
        "--scale",
        type=_scale,
        default=None,
        help="corpus scale factor (default: REPRO_SCALE or 1.0)",
    )
    parser.add_argument(
        "--seeds",
        nargs="+",
        type=_non_negative_int,
        default=(0, 1, 2),
        help="per-trial seeds averaged by each experiment",
    )
    parser.set_defaults(run=partial(_command, "studies", "cmd_experiments"))

    parser = subparsers.add_parser(
        "trace",
        help="per-database activity report from a JSONL trace file",
    )
    parser.add_argument("trace_file", help="JSONL trace written with --trace")
    parser.set_defaults(run=partial(_command, "studies", "cmd_trace"))


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = _Parser(
        prog="repro",
        description="Query-based sampling for text database language models "
        "(Callan, Connell & Du, SIGMOD 1999)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # In the order `repro --help` lists them, which interleaves two groups.
    _add_corpus_commands(subparsers)
    _add_federate(subparsers)
    _add_store(subparsers)
    _add_gateway_commands(subparsers)
    _add_fleet(subparsers)
    _add_study_commands(subparsers)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (_UsageError, FileNotFoundError) as exc:
        print(exc, file=sys.stderr)
        return 2
