"""Workload ``acquire``: learn every database's model by sampling, persist, reload.

The paper's own workload, as a closed batch on one thread.  One round is
``FederatedSearchService.learn_models`` over the federation at the
paper's baseline (4 documents per query, random terms from the learned
model, a ``RandomFromOther`` bootstrap), then ``save_models`` into a
4-shard store and ``load_models`` + ``verify()`` from it.  Every round
samples with a fresh seed.  An op is one document folded into a model.
"""

from __future__ import annotations

import os
import shutil
import time

from repro.federation.service import FederatedSearchService
from repro.lm.compare import ctf_ratio
from repro.lm.io import dumps_language_model
from repro.lm.model import LanguageModel
from repro.sampling.pool import SamplingPool
from repro.sampling.selection import RandomFromOther
from repro.serving.bench import build_synthetic_federation
from repro.store.sharded import ShardedModelStore
from repro.text.analyzer import Analyzer
from repro.utils.rand import derive_seed

import measure
from fixtures import NUM_DATABASES, NUM_SHARDS, SETUP_REPEATS, index_build_seconds
from measure import Options, Outcome, SpanLog
from proxies import Scope, TimedDatabase, TimedSelector

#: The paper's claim: the learned vocabulary covers this share of term occurrences.
MIN_CTF_RATIO = 0.80

#: Rounds whose models are also scored against ground truth and compared
#: with what the store hands back; the counts of the traced run come from
#: its first rounds too, so that they repeat exactly for a seed.
CHECKED_ROUNDS = 2

#: The traced run's parts must account for a round to within this share.
MAX_UNATTRIBUTED_SHARE = 0.05


class _Round:
    """What one round did, kept for the report."""

    def __init__(self, index: int, traced: bool) -> None:
        self.index = index
        self.traced = traced
        self.wall = 0.0
        self.cpu = 0.0
        self.documents = 0
        self.queries = 0
        self.empty_queries = 0
        self.ctf_ratios: list[float] = []
        self.span_id: int | None = None
        self.sampled: list = []
        self.store_bytes = 0


class _Acquire:
    def __init__(self, options: Options) -> None:
        self.options = options
        self.sizes = options.sizes
        self.outcome = Outcome()
        self.log = SpanLog() if options.traced else None
        self.scope = Scope()
        self.total_documents = self.sizes.acquire_documents * NUM_DATABASES
        self.servers: dict = {}
        self.references: dict[str, LanguageModel] = {}

    # -- set-up ----------------------------------------------------------------

    def set_up(self) -> None:
        seconds = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            self.servers = build_synthetic_federation(
                NUM_DATABASES, self.sizes.federation_scale,
                seed=self.options.seed, profile="wsj88",
            )
            self.references = {
                name: server.actual_language_model()
                for name, server in self.servers.items()
            }
            seconds.append(time.perf_counter() - started)
        smallest = min(server.num_documents for server in self.servers.values())
        if smallest <= self.sizes.acquire_documents:
            raise RuntimeError(
                f"smallest database holds {smallest} documents, not more than the "
                f"{self.sizes.acquire_documents}-document budget: the run would "
                "degenerate into exhaustion queries"
            )
        self.outcome.end_to_end["setup_s"] = measure.median(seconds)
        self.outcome.timings["setup_s"] = (seconds, "s")

    def _bootstrap(self, name: str) -> RandomFromOther:
        return RandomFromOther(self.references[name])

    # -- one round ---------------------------------------------------------------

    def round(self, index: int, *, traced: bool) -> _Round:
        record = _Round(index, traced)
        seed = derive_seed(self.options.seed, "acquire-round", index)
        root = os.path.join(self.options.workdir, f"store-{index}")
        service = FederatedSearchService(self.servers)
        wall = time.perf_counter()
        cpu = time.process_time()
        if traced:
            self._learn_traced(service, seed, record)
        else:
            service.learn_models(self._bootstrap, self.total_documents, seed=seed)
        store = ShardedModelStore(root, num_shards=NUM_SHARDS)
        with self._span("save_models", "store", record):
            service.save_models(store)
        reloaded = FederatedSearchService(self.servers)
        with self._span("load_models", "store", record):
            reloaded.load_models(store)
        with self._span("verify", "store", record):
            damage = store.verify()
        record.wall = time.perf_counter() - wall
        record.cpu = time.process_time() - cpu
        if traced:
            assert self.log is not None and record.span_id is not None
            self.log.add(
                "round", "bench", wall, wall + record.wall,
                span_id=record.span_id, round=index,
            )
            record.store_bytes = measure.directory_bytes(root)
        self._check(index, service, reloaded, damage, record)
        shutil.rmtree(root)
        return record

    def _span(self, name: str, layer: str, record: _Round):
        return measure.optional_span(self.log, record.traced, name, layer, parent=record.span_id)

    def _learn_traced(self, service: FederatedSearchService, seed: int, record: _Round) -> None:
        """``learn_models`` taken apart so that its pool can carry proxies."""
        log = self.log
        assert log is not None
        record.span_id = log.next_id()
        pool = SamplingPool(
            {name: TimedDatabase(server, log, self.scope) for name, server in self.servers.items()},
            lambda name: TimedSelector(self._bootstrap(name), log, self.scope),
            seed=seed,
        )
        for sampler in pool.samplers.values():
            sampler.strategy = TimedSelector(sampler.strategy, log, self.scope)
        with log.span("pool_run", "sampling", parent=record.span_id, round=record.index) as span_id:
            self.scope.shared = span_id
            result = pool.run(self.total_documents)
            self.scope.shared = None
        service.use_models(result.models)
        for run in result.runs.values():
            record.queries += len(run.queries)
            record.empty_queries += sum(1 for q in run.queries if q.new_documents == 0)
            record.sampled.extend(run.documents)

    def _check(self, index, service, reloaded, damage, record: _Round) -> None:
        outcome = self.outcome
        outcome.attempted += self.total_documents
        for name, model in service.models.items():
            record.documents += model.documents_seen
            if model.documents_seen != self.sizes.acquire_documents:
                outcome.problem(
                    f"round {index}: model {name} holds {model.documents_seen} "
                    f"documents, not {self.sizes.acquire_documents}"
                )
        outcome.failed += max(0, self.total_documents - record.documents)
        if damage:
            outcome.problem(f"round {index}: store.verify() reported {damage}")
        if index >= CHECKED_ROUNDS * (2 if self.options.traced else 1):
            return
        for name, model in service.models.items():
            server = self.servers[name]
            ratio = ctf_ratio(model.project(server.index.analyzer), self.references[name])
            record.ctf_ratios.append(ratio)
            if dumps_language_model(reloaded.models[name]) != dumps_language_model(model):
                outcome.problem(f"round {index}: model {name} changed across save/load")
        mean_ratio = measure.mean(record.ctf_ratios)
        if mean_ratio < MIN_CTF_RATIO:
            outcome.problem(
                f"round {index}: mean ctf ratio {mean_ratio:.3f} is below {MIN_CTF_RATIO}"
            )

    # -- the run -------------------------------------------------------------------

    def run(self) -> Outcome:
        options, outcome = self.options, self.outcome
        self.set_up()
        self.round(-1, traced=False)  # warm-up: fills tokenizer memos, untimed
        outcome.attempted = outcome.failed = 0
        del outcome.problems[:]
        rounds: list[_Round] = []
        started = time.perf_counter()
        while time.perf_counter() - started < options.seconds:
            index = len(rounds)
            # The traced run alternates traced and plain rounds, so the
            # price of tracing is measured inside one process state.
            rounds.append(self.round(index, traced=options.traced and index % 2 == 0))
        outcome.phases.append(
            f"window: {len(rounds)} rounds, {sum(r.documents for r in rounds)} documents "
            f"learned of {outcome.attempted} attempted, {len(outcome.problems)} gate misses"
        )
        if options.traced:
            self._layers(rounds)
        else:
            self._end_to_end(rounds)
        outcome.log = self.log
        return outcome

    def _end_to_end(self, rounds: list[_Round]) -> None:
        # Per round, then the quartile on the good side (measure.fast_quartile).
        outcome = self.outcome
        outcome.end_to_end["ops_per_s"] = measure.fast_quartile(
            [r.documents / r.wall for r in rounds], "higher"
        )
        outcome.end_to_end["peak_rss_mb"] = measure.peak_rss_mb(os.getpid())
        outcome.timings["latency_ms (one round)"] = ([r.wall * 1000.0 for r in rounds], "ms")
        outcome.timings["cpu_ms_per_op (per round)"] = (
            [r.cpu * 1000.0 / r.documents for r in rounds], "ms"
        )

    def _layers(self, rounds: list[_Round]) -> None:
        log, outcome, layers = self.log, self.outcome, self.outcome.layers
        assert log is not None
        traced = [r for r in rounds if r.traced]
        plain = [r for r in rounds if not r.traced]
        counted = traced[:CHECKED_ROUNDS]
        children = measure.children_by_parent(log.rows)
        by_id = {row["id"]: row for row in log.rows}

        queries = log.named("run_query")
        counted_pools = {
            row["id"] for row in log.named("pool_run")
            if row["round"] in {r.index for r in counted}
        }
        counted_queries = [row for row in queries if row["parent"] in counted_pools]
        layers["index.build_s"] = index_build_seconds(
            "wsj88", self.sizes.federation_scale, self.options.seed
        )
        layers["index.run_query_ms"] = measure.median(log.durations_ms("run_query"))
        layers["index.queries"] = len(counted_queries)
        layers["index.docs_returned"] = sum(row["documents"] for row in counted_queries)
        outcome.timings["index.run_query_ms"] = (log.durations_ms("run_query"), "ms")

        documents = sum(r.documents for r in traced)
        layers["sampling.term_choice_ms_per_query"] = (
            sum(log.durations_ms("term_choice")) / max(1, len(queries))
        )
        layers["sampling.self_ms_per_doc"] = sum(
            measure.self_seconds(pool, children.get(pool["id"], ()))
            for pool in log.named("pool_run")
        ) * 1000.0 / max(1, documents)
        counted_total = max(1, sum(r.queries for r in counted))
        layers["sampling.empty_query_share"] = (
            sum(r.empty_queries for r in counted) / counted_total
        )
        layers["sampling.queries_per_doc"] = counted_total / max(
            1, sum(r.documents for r in counted)
        )
        layers["sampling.model_ctf_ratio"] = measure.mean(
            [ratio for r in counted for ratio in r.ctf_ratios]
        )

        layers["store.save_ms"] = measure.median(log.durations_ms("save_models"))
        layers["store.load_ms"] = measure.median(log.durations_ms("load_models"))
        if counted:
            layers["store.bytes_per_model"] = counted[0].store_bytes / NUM_DATABASES
        if traced:
            analyze_us, ingest_us = _replay_documents(traced[-1].sampled)
            layers["text.analyze_us_per_doc"] = analyze_us
            layers["lm.ingest_us_per_doc"] = ingest_us

        unattributed = []
        for record in traced:
            span = by_id[record.span_id]
            unattributed.append(
                measure.self_seconds(span, children.get(span["id"], ())) / record.wall
            )
        layers["obs.unattributed_share"] = measure.median(unattributed)
        if layers["obs.unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
            outcome.problem(
                f"traced parts leave {layers['obs.unattributed_share']:.1%} of a round "
                f"unaccounted for (limit {MAX_UNATTRIBUTED_SHARE:.0%})"
            )
        layers["total.cpu_ms_per_op"] = measure.fast_quartile(
            [r.cpu * 1000.0 / r.documents for r in plain]
        )
        layers["total.latency_p50_ms"] = measure.fast_quartile([r.wall * 1000.0 for r in plain])
        if traced and plain:
            traced_rate = measure.fast_quartile([r.documents / r.wall for r in traced], "higher")
            plain_rate = measure.fast_quartile([r.documents / r.wall for r in plain], "higher")
            layers["obs.trace_overhead_share"] = (plain_rate - traced_rate) / plain_rate


def _replay_documents(documents: list) -> tuple[float, float]:
    """Microseconds per document in ``Analyzer.analyze`` and in model ingestion.

    Replays what the sampler does with the documents it retrieved: raw
    analysis, then ``add_documents`` four at a time (one query's worth).
    """
    if not documents:
        return 0.0, 0.0
    analyzer = Analyzer.raw()
    started = time.perf_counter()
    analyzed = [analyzer.analyze(document.text) for document in documents]
    analyze = time.perf_counter() - started
    model = LanguageModel(name="replay")
    started = time.perf_counter()
    for offset in range(0, len(analyzed), 4):
        model.add_documents(analyzed[offset : offset + 4])
    ingest = time.perf_counter() - started
    return analyze * 1e6 / len(documents), ingest * 1e6 / len(documents)


def run(options: Options) -> Outcome:
    """Run the workload once."""
    return _Acquire(options).run()
