"""The scenario bench: quantitative pins for each adversarial world.

One report (``BENCH_scenarios.json``), one result per scenario, each a
small set of metrics plus a boolean pin:

* **cluster** — sampling a cluster-structured corpus from a
  cluster-trapped bootstrap converges measurably worse than the
  matched shared-vocabulary control at the same document budget;
* **drift** — a pre-switch staleness probe reads fresh, the post-switch
  database is flagged within a bounded number of extra queries, and an
  end-to-end fleet refresh sweep re-learns a model that fits the new
  contents better than the stored one;
* **result_caps** — a server cap of ``max_results_per_query`` (plus a
  rank-biased results order) forces more queries for the same document
  budget while the learned model stays comparable;
* **overlap** — a naive concatenate-and-sort merge returns duplicate
  ``doc_id``\\ s from an overlapping federation; the repo's mergers
  return none;
* **heavy_tail** — a uniform per-database sampling budget covers the
  smallest database far better than the largest.

Run via ``repro scenarios bench``; the committed ``BENCH_scenarios.json``
at the repo root is this module's output on the default configuration,
and :func:`validate_scenarios_bench` is the schema/pin check the CI
smoke job runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.backend import SearchableDatabase
from repro.corpus.collection import Corpus
from repro.dbselect.base import DatabaseRanking, finish_ranking
from repro.dbselect.merge import CoriMerger, MergedResult, RawScoreMerger
from repro.federation.testbed import topical_queries
from repro.fleet.sweep import run_refresh_sweep
from repro.index.search import RankedHits
from repro.index.server import DatabaseServer, ServerPolicy
from repro.lm.compare import percentage_learned, spearman_rank_correlation
from repro.lm.model import LanguageModel
from repro.sampling.sampler import QueryBasedSampler, SamplerConfig
from repro.sampling.selection import ListBootstrap, QueryTermSelector, RandomFromOther
from repro.sampling.staleness import RefreshPolicy, staleness_probe
from repro.sampling.stopping import MaxDocuments
from repro.scenarios.base import scenario_names
from repro.scenarios.bias import RankBiasedServer
from repro.scenarios.cluster import build_clustered_world
from repro.scenarios.drift import DriftingDatabase, DriftSchedule
from repro.scenarios.overlap import overlap_statistics, overlapping_world
from repro.scenarios.sizes import heavy_tailed_world
from repro.synth import cacm_like, wsj88_like
from repro.utils.atomic import atomic_write_text
from repro.utils.rand import derive_seed
from repro.utils.table import format_table

__all__ = [
    "SCENARIOS_BENCH_SCHEMA",
    "ScenarioResult",
    "ScenariosBenchReport",
    "format_scenarios_bench",
    "run_scenarios_bench",
    "validate_scenarios_bench",
    "write_scenarios_bench",
]

SCENARIOS_BENCH_SCHEMA = "repro-scenarios-bench/1"


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's measured metrics and pass/fail pin."""

    scenario: str
    passed: bool
    detail: str
    metrics: Mapping[str, float]

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form for the report JSON."""
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "detail": self.detail,
            "metrics": {name: round(value, 4) for name, value in self.metrics.items()},
        }


@dataclass(frozen=True)
class ScenariosBenchReport:
    """Everything ``repro scenarios bench`` measured, machine-readable."""

    scale: float
    seed: int
    results: tuple[ScenarioResult, ...]

    @property
    def all_passed(self) -> bool:
        """True when every scenario's pin held."""
        return all(result.passed for result in self.results)

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form matching the ``repro-scenarios-bench/1`` schema."""
        return {
            "schema": SCENARIOS_BENCH_SCHEMA,
            "config": {"scale": self.scale, "seed": self.seed},
            "scenarios": [result.as_dict() for result in self.results],
            "all_passed": self.all_passed,
        }


def _sample(
    database: SearchableDatabase,
    bootstrap: QueryTermSelector,
    documents: int,
    seed: int,
    docs_per_query: int = 4,
    keep_documents: bool = False,
):
    """One bounded sampling run with the bench's standard configuration."""
    sampler = QueryBasedSampler(
        database,
        bootstrap=bootstrap,
        stopping=MaxDocuments(documents),
        config=SamplerConfig(
            docs_per_query=docs_per_query, keep_documents=keep_documents
        ),
        seed=seed,
    )
    return sampler.run()


def _fit(learned: LanguageModel, server: DatabaseServer) -> float:
    """Spearman of ``learned`` against ``server``'s ground truth.

    The learned model is projected through the server's index analyzer
    first, as ``repro compare`` does, so both sides rank one vocabulary.
    """
    return spearman_rank_correlation(
        learned.project(server.index.analyzer), server.actual_language_model()
    )


def _cluster_share(documents: Sequence[object], topic: str) -> float:
    """Fraction of ``documents`` whose generating topic is ``topic``."""
    if not documents:
        return 0.0
    hits = sum(1 for document in documents if getattr(document, "topic", None) == topic)
    return hits / len(documents)


def _measure_cluster(scale: float, seed: int) -> ScenarioResult:
    """Cluster-trapped sampling vs. the shared-vocabulary control.

    Both corpora are sampled from the same cluster-0 bootstrap with the
    same budget; the observable is how much of the sample comes from
    cluster 0.  A trapped walk oversamples the bootstrap cluster, so
    the learned unigram model over-represents its vocabulary — the
    misleading-model failure the scenario exists to produce.
    """
    world = build_clustered_world(
        num_clusters=8,
        documents=max(240, int(round(480 * scale))),
        vocabulary_size=max(2000, int(round(4000 * scale))),
        seed=derive_seed(seed, "scenario", "cluster"),
    )
    budget = max(60, int(round(80 * scale)))
    clustered = DatabaseServer(world.corpus)
    control = DatabaseServer(world.control)
    run_seed = derive_seed(seed, "scenario", "cluster", "sample")
    target = "topic000"
    shares = {}
    clusters_seen = {}
    for label, server in (("clustered", clustered), ("control", control)):
        run = _sample(
            server,
            ListBootstrap(world.bootstrap_terms),
            budget,
            run_seed,
            keep_documents=True,
        )
        shares[label] = _cluster_share(run.documents, target)
        clusters_seen[label] = float(
            len({document.topic for document in run.documents})
        )
    corpus_share = _cluster_share(list(world.corpus), target)
    gap = shares["clustered"] - shares["control"]
    overrepresentation = (
        shares["clustered"] / corpus_share if corpus_share > 0 else float("inf")
    )
    passed = gap >= 0.10 and overrepresentation >= 1.5
    return ScenarioResult(
        scenario="cluster",
        passed=passed,
        detail=(
            f"{budget}-document budget from a cluster-0 bootstrap: the trapped "
            f"walk draws {shares['clustered']:.0%} of its sample from cluster 0 "
            f"({overrepresentation:.1f}x its {corpus_share:.0%} corpus share, "
            f"pinned >= 1.5x) vs {shares['control']:.0%} on the matched control "
            f"(gap pinned >= 0.10)"
        ),
        metrics={
            "document_budget": float(budget),
            "num_clusters": float(world.num_clusters),
            "cluster0_corpus_share": corpus_share,
            "clustered_sample_share": shares["clustered"],
            "control_sample_share": shares["control"],
            "oversampling_gap": gap,
            "overrepresentation": overrepresentation,
            "clustered_clusters_seen": clusters_seen["clustered"],
            "control_clusters_seen": clusters_seen["control"],
        },
    )


def _measure_drift(scale: float, seed: int) -> ScenarioResult:
    """Staleness detection latency and end-to-end refresh on drift."""
    profile_scale = 0.25 * scale
    old = cacm_like().build(seed=derive_seed(seed, "scenario", "drift", "old"), scale=profile_scale)
    new = wsj88_like().build(
        seed=derive_seed(seed, "scenario", "drift", "new"), scale=0.06 * scale
    )
    phase0 = DatabaseServer(Corpus(old, name="drifty"))
    phase1 = DatabaseServer(Corpus(new, name="drifty"))
    bootstrap = RandomFromOther(phase0.actual_language_model())
    stored = _sample(
        phase0, bootstrap, 60, derive_seed(seed, "scenario", "drift", "learn")
    ).model

    switch = 25
    drifting = DriftingDatabase([phase0, phase1], DriftSchedule((switch,)))
    max_probes = 10
    pre_switch_fresh = False
    detected = False
    detection_lag = float("nan")
    for attempt in range(max_probes):
        report = staleness_probe(
            drifting,
            stored,
            bootstrap,
            probe_documents=16,
            seed=derive_seed(seed, "scenario", "drift", "probe", attempt),
        )
        stale = report.is_stale()
        if attempt == 0 and drifting.queries_seen <= switch:
            pre_switch_fresh = not stale
        if stale:
            if drifting.queries_seen > switch:
                detected = True
                detection_lag = float(drifting.queries_seen - switch)
            break

    # End to end: the fleet sweep must also flag and re-learn it.
    policy = RefreshPolicy(refresh_documents=60)
    sweep = run_refresh_sweep(
        {"drifty": drifting},
        {"drifty": stored},
        lambda name: bootstrap,
        policy=policy,
        seed=derive_seed(seed, "scenario", "drift", "sweep"),
        num_workers=1,
    )
    sweep_refreshed = "drifty" in sweep.outcome.refreshed
    stored_fit = _fit(stored, phase1)
    refreshed_fit = stored_fit
    if sweep_refreshed:
        refreshed_fit = _fit(sweep.outcome.models["drifty"], phase1)
    recovery = refreshed_fit - stored_fit
    passed = (
        pre_switch_fresh
        and detected
        and detection_lag <= 60
        and sweep_refreshed
        and recovery >= 0.1
    )
    return ScenarioResult(
        scenario="drift",
        passed=passed,
        detail=(
            f"contents switch after {switch} queries: pre-switch probe fresh, "
            f"drift flagged {detection_lag:.0f} queries past the switch "
            f"(pinned <= 60); the fleet sweep refreshed the model, lifting "
            f"fit to the new contents by {recovery:.3f} spearman"
        ),
        metrics={
            "switch_after_queries": float(switch),
            "pre_switch_fresh": float(pre_switch_fresh),
            "detected": float(detected),
            "detection_lag_queries": detection_lag,
            "sweep_refreshed": float(sweep_refreshed),
            "stored_vs_new_spearman": stored_fit,
            "refreshed_vs_new_spearman": refreshed_fit,
            "refresh_recovery": recovery,
        },
    )


def _measure_result_caps(scale: float, seed: int) -> ScenarioResult:
    """Query cost of result caps and rank bias at a fixed document budget."""
    corpus = cacm_like().build(
        seed=derive_seed(seed, "scenario", "caps"), scale=0.25 * scale
    )
    cap = 3
    uncapped = DatabaseServer(Corpus(corpus, name="uncapped"))
    capped = DatabaseServer(
        Corpus(corpus, name="capped"), policy=ServerPolicy(max_results_per_query=cap)
    )
    biased = RankBiasedServer(
        DatabaseServer(
            Corpus(corpus, name="biased"), policy=ServerPolicy(max_results_per_query=cap)
        ),
        bias="hash",
        seed=seed,
    )
    budget = 48
    run_seed = derive_seed(seed, "scenario", "caps", "sample")
    runs = {}
    for name, server in (("uncapped", uncapped), ("capped", capped), ("biased", biased)):
        bootstrap = RandomFromOther(server.actual_language_model())
        runs[name] = _sample(server, bootstrap, budget, run_seed, docs_per_query=8)
    queries = {name: float(len(run.queries)) for name, run in runs.items()}
    fits = {
        "uncapped": _fit(runs["uncapped"].model, uncapped),
        "capped": _fit(runs["capped"].model, capped),
        "biased": _fit(runs["biased"].model, biased.server),
    }
    overhead = queries["capped"] / queries["uncapped"] if queries["uncapped"] else 0.0
    docs_per_query = (
        capped.costs.documents_returned / capped.costs.queries_run
        if capped.costs.queries_run
        else 0.0
    )
    passed = (
        overhead >= 1.5
        and docs_per_query <= cap
        and fits["capped"] >= fits["uncapped"] - 0.15
        and fits["biased"] >= fits["uncapped"] - 0.25
    )
    return ScenarioResult(
        scenario="result_caps",
        passed=passed,
        detail=(
            f"a {cap}-result cap needs {overhead:.2f}x the queries (pinned >= 1.5x) "
            f"for the same {budget}-document budget; model quality holds "
            f"(capped {fits['capped']:.3f} vs uncapped {fits['uncapped']:.3f} "
            f"spearman, biased order {fits['biased']:.3f})"
        ),
        metrics={
            "cap": float(cap),
            "document_budget": float(budget),
            "queries_uncapped": queries["uncapped"],
            "queries_capped": queries["capped"],
            "queries_biased": queries["biased"],
            "query_overhead": overhead,
            "capped_docs_per_query": docs_per_query,
            "uncapped_spearman": fits["uncapped"],
            "capped_spearman": fits["capped"],
            "biased_spearman": fits["biased"],
        },
    )


def _naive_concat_merge(results: Mapping[str, RankedHits], n: int) -> list[MergedResult]:
    """The pre-fix merge: concatenate, sort, truncate — duplicates and all.

    Kept in the bench as the regression oracle: this is what every
    merger effectively did before deduplication, and what the overlap
    scenario exists to punish.
    """
    merged = [
        MergedResult(doc_id=doc_id, database=name, score=score)
        for name, (doc_ids, scores, _) in results.items()
        for doc_id, score in zip(doc_ids, scores)
    ]
    merged.sort(key=lambda item: (-item.score, item.database, item.doc_id))
    return merged[:n]


def _duplicates(merged: Sequence[MergedResult]) -> int:
    """How many entries of ``merged`` repeat an earlier ``doc_id``."""
    return len(merged) - len({item.doc_id for item in merged})


def _measure_overlap(scale: float, seed: int) -> ScenarioResult:
    """Duplicate doc_ids in merged results over an overlapping federation."""
    corpus = wsj88_like().build(
        seed=derive_seed(seed, "scenario", "overlap"), scale=0.05 * scale
    )
    world = overlapping_world(
        corpus,
        num_databases=4,
        replication=0.5,
        seed=derive_seed(seed, "scenario", "overlap", "split"),
    )
    stats = overlap_statistics(world.parts)
    servers = world.servers
    queries = topical_queries(world.parts, max_topics=6)
    cori = CoriMerger()
    raw = RawScoreMerger()
    naive_duplicates = 0
    cori_duplicates = 0
    raw_duplicates = 0
    relevant = 0.0
    merged_total = 0
    for query in queries:
        results = {
            name: RankedHits.from_results(server.engine.search(query.text, n=10))
            for name, server in servers.items()
        }
        ranking: DatabaseRanking = finish_ranking(
            query.text,
            {name: float(server.hit_count(query.text)) for name, server in servers.items()},
        )
        naive_duplicates += _duplicates(_naive_concat_merge(results, 10))
        merged = cori.merge(ranking, results, 10)
        cori_duplicates += _duplicates(merged)
        raw_duplicates += _duplicates(raw.merge(ranking, results, 10))
        merged_total += len(merged)
        relevant += world.precision(merged, query.topic) * len(merged)
    precision = relevant / merged_total if merged_total else 0.0
    passed = (
        stats.replicated_documents > 0
        and naive_duplicates > 0
        and cori_duplicates == 0
        and raw_duplicates == 0
    )
    return ScenarioResult(
        scenario="overlap",
        passed=passed,
        detail=(
            f"{stats.replicated_documents} of {stats.unique_documents} documents "
            f"replicated across 4 databases: naive concat-merge returns "
            f"{naive_duplicates} duplicate doc_ids over {len(queries)} top-10 "
            f"merges (pinned > 0); the deduplicating mergers return 0"
        ),
        metrics={
            "num_databases": 4.0,
            "replicated_documents": float(stats.replicated_documents),
            "replication_rate": stats.replication_rate,
            "queries": float(len(queries)),
            "naive_duplicates": float(naive_duplicates),
            "cori_duplicates": float(cori_duplicates),
            "raw_duplicates": float(raw_duplicates),
            "merged_precision": precision,
        },
    )


def _measure_heavy_tail(scale: float, seed: int) -> ScenarioResult:
    """Vocabulary coverage of a uniform budget across a Zipf size mix."""
    corpus = wsj88_like().build(
        seed=derive_seed(seed, "scenario", "heavy-tail"), scale=0.05 * scale
    )
    world = heavy_tailed_world(
        corpus,
        num_databases=5,
        alpha=1.4,
        min_documents=20,
        seed=derive_seed(seed, "scenario", "heavy-tail", "split"),
    )
    sizes = [len(part) for part in world.parts]
    servers = list(world.servers.values())
    largest = servers[sizes.index(max(sizes))]
    smallest = servers[sizes.index(min(sizes))]
    budget = 40
    run_seed = derive_seed(seed, "scenario", "heavy-tail", "sample")
    coverage = {}
    for label, server in (("largest", largest), ("smallest", smallest)):
        run = _sample(
            server, RandomFromOther(server.actual_language_model()), budget, run_seed
        )
        coverage[label] = percentage_learned(
            run.model.project(server.index.analyzer), server.actual_language_model()
        )
    gap = coverage["smallest"] - coverage["largest"]
    ratio = max(sizes) / min(sizes)
    passed = ratio >= 3.0 and gap >= 0.15
    return ScenarioResult(
        scenario="heavy_tail",
        passed=passed,
        detail=(
            f"sizes {sizes} (ratio {ratio:.1f}x, pinned >= 3x): a uniform "
            f"{budget}-document budget learns {coverage['smallest']:.0%} of the "
            f"smallest database's vocabulary but only {coverage['largest']:.0%} "
            f"of the largest (gap pinned >= 0.15)"
        ),
        metrics={
            "num_databases": float(len(sizes)),
            "largest_documents": float(max(sizes)),
            "smallest_documents": float(min(sizes)),
            "size_ratio": ratio,
            "document_budget": float(budget),
            "coverage_largest": coverage["largest"],
            "coverage_smallest": coverage["smallest"],
            "coverage_gap": gap,
        },
    )


_MEASURES: dict[str, Callable[[float, int], ScenarioResult]] = {
    "cluster": _measure_cluster,
    "drift": _measure_drift,
    "result_caps": _measure_result_caps,
    "overlap": _measure_overlap,
    "heavy_tail": _measure_heavy_tail,
}


def run_scenarios_bench(
    *,
    scale: float = 1.0,
    seed: int = 0,
    only: Sequence[str] | None = None,
) -> ScenariosBenchReport:
    """Run the selected scenarios (all of them by default) and pin each.

    ``scale`` shrinks or grows the synthetic worlds (CI smoke runs a
    fraction); ``only`` restricts to a subset of scenario names in
    registry order.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    selected = list(only) if only else scenario_names()
    unknown = sorted(set(selected) - set(_MEASURES))
    if unknown:
        raise ValueError(f"unknown scenarios: {unknown}; known: {scenario_names()}")
    results = tuple(
        _MEASURES[name](scale, seed) for name in scenario_names() if name in selected
    )
    return ScenariosBenchReport(scale=scale, seed=seed, results=results)


def format_scenarios_bench(report: ScenariosBenchReport) -> str:
    """Human-readable rendering of a scenarios bench report."""
    lines = [
        f"scenario bench: scale {report.scale}, seed {report.seed}",
        "",
        format_table(
            [
                {
                    "scenario": result.scenario,
                    "passed": "yes" if result.passed else "NO",
                    "headline": result.detail,
                }
                for result in report.results
            ],
            title="Adversarial-world pins",
        ),
        f"all passed: {'yes' if report.all_passed else 'NO'}",
    ]
    return "\n".join(lines)


def write_scenarios_bench(report: ScenariosBenchReport, path: str) -> None:
    """Write the machine-readable report as JSON."""
    atomic_write_text(path, json.dumps(report.as_dict(), indent=2) + "\n")


def validate_scenarios_bench(payload: Mapping[str, object]) -> None:
    """Check a report payload's schema and pins; raises ``ValueError``.

    The CI smoke job runs this over the freshly generated file: the
    schema string must match, every scenario must be a known one with a
    metrics mapping, no scenario may appear twice, and every pin must
    have held.
    """
    schema = payload.get("schema")
    if schema != SCENARIOS_BENCH_SCHEMA:
        raise ValueError(f"schema mismatch: {schema!r} != {SCENARIOS_BENCH_SCHEMA!r}")
    scenarios = payload.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ValueError("report has no scenarios")
    seen: set[str] = set()
    known = set(scenario_names())
    for entry in scenarios:
        if not isinstance(entry, Mapping):
            raise ValueError("scenario entries must be objects")
        name = entry.get("scenario")
        if not isinstance(name, str) or name not in known:
            raise ValueError(f"unknown scenario {name!r}")
        if name in seen:
            raise ValueError(f"duplicate scenario {name!r}")
        seen.add(name)
        if not isinstance(entry.get("metrics"), Mapping):
            raise ValueError(f"scenario {name!r} has no metrics")
        if entry.get("passed") is not True:
            raise ValueError(f"scenario {name!r} did not pass its pin")
