"""Classification and routing benchmark → ``BENCH_classify.json``.

Two questions, one report, mirroring how the acquisition benches
measure the paper's ctf-ratio curves (synthetic testbed, seed
averaging, machine-readable output):

1. **How accurate is query-probing classification per probe budget?**
   A topically skewed synthetic federation is classified with 1, 2, 4,
   ... probes per topic; accuracy is the fraction of databases whose
   top assigned topic is one of the database's *home* topics — the
   topics for which that database holds the plurality of documents
   (``Document.topic`` is the label the generator actually drew each
   document from; the skewed partition homes several topics per
   database, so any of them is a correct answer).  Averaged over
   seeds, the curve rises with budget the same way the paper's
   vocabulary curves rise with sampled documents: steeply at first,
   then flattening.
2. **What does topic-aware routing save at matched quality?**  The same
   federation serves its topical query set twice — broadcast (plain
   CORI depth) and routed (CORI restricted to databases classified
   under the query's topics).  The report carries mean
   ``databases_per_query`` for both modes, topical precision@n for
   both (fraction of merged results whose document was generated from
   the query's topic), result overlap, and the fallback count.

Run via ``repro classify bench``; the committed ``BENCH_classify.json``
at the repo root is this module's output on the default configuration.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.classify.classifier import ClassifyParameters, QueryProbeClassifier
from repro.classify.probes import TopicProbeSet, build_probe_set
from repro.classify.router import TopicRouter
from repro.corpus.collection import Corpus
from repro.federation.service import FederatedSearchService, SearchRequest
from repro.federation.testbed import TopicalQuery, build_skewed_partition, topical_queries
from repro.index.server import DatabaseServer, build_servers
from repro.synth.profiles import PROFILES_BY_NAME
from repro.utils.atomic import atomic_write_text
from repro.utils.table import format_table

__all__ = [
    "CLASSIFY_BENCH_SCHEMA",
    "BudgetPoint",
    "ClassifyBenchReport",
    "RoutingComparison",
    "format_classify_bench",
    "home_topics",
    "run_classify_bench",
    "write_classify_bench",
]

CLASSIFY_BENCH_SCHEMA = "repro-classify-bench/1"


@dataclass(frozen=True)
class BudgetPoint:
    """One probe budget's classification quality (seed-averaged)."""

    budget: int
    accuracy: float
    probes_per_database: float


@dataclass(frozen=True)
class RoutingComparison:
    """Routed vs broadcast serving over the topical query set.

    ``precision`` is topical precision@n — the fraction of merged
    results whose document carries the query's ground-truth topic
    label — measured identically for both modes, so the fan-out saving
    can be read at matched result quality.  ``overlap`` is the mean
    fraction of broadcast top-n documents the routed answer also
    returned.
    """

    queries: int
    broadcast_databases_per_query: float
    routed_databases_per_query: float
    broadcast_precision: float
    routed_precision: float
    overlap: float
    fallbacks: int

    @property
    def fanout_ratio(self) -> float:
        """Broadcast over routed fan-out (>1 means routing saves work)."""
        if self.routed_databases_per_query <= 0:
            return float("inf")
        return self.broadcast_databases_per_query / self.routed_databases_per_query


@dataclass(frozen=True)
class ClassifyBenchReport:
    """Everything ``repro classify bench`` measured, machine-readable."""

    profile: str
    num_databases: int
    scale: float
    seeds: tuple[int, ...]
    databases_per_query: int
    accuracy_curve: tuple[BudgetPoint, ...]
    routing: RoutingComparison

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form matching the ``repro-classify-bench/1`` schema."""
        return {
            "schema": CLASSIFY_BENCH_SCHEMA,
            "config": {
                "profile": self.profile,
                "num_databases": self.num_databases,
                "scale": self.scale,
                "seeds": list(self.seeds),
                "databases_per_query": self.databases_per_query,
            },
            "accuracy_vs_budget": [
                {
                    "budget": point.budget,
                    "accuracy": round(point.accuracy, 4),
                    "probes_per_database": round(point.probes_per_database, 2),
                }
                for point in self.accuracy_curve
            ],
            "routing": {
                "queries": self.routing.queries,
                "broadcast_databases_per_query": round(
                    self.routing.broadcast_databases_per_query, 3
                ),
                "routed_databases_per_query": round(
                    self.routing.routed_databases_per_query, 3
                ),
                "fanout_ratio": round(self.routing.fanout_ratio, 3),
                "broadcast_precision": round(self.routing.broadcast_precision, 4),
                "routed_precision": round(self.routing.routed_precision, 4),
                "overlap": round(self.routing.overlap, 4),
                "fallbacks": self.routing.fallbacks,
            },
        }


def home_topics(parts: Sequence[Corpus]) -> dict[str, frozenset[str]]:
    """Each database's ground-truth home topics.

    A topic's home is the database holding the plurality of its
    documents (ties break alphabetically).  The skewed partition homes
    several topics per database, so the classification oracle is a
    *set*: classifying a database under any of its home topics is
    correct — exactly the property routing needs, since a query about
    topic ``t`` should reach ``t``'s home.
    """
    counts: dict[str, Counter] = {}
    for part in parts:
        for document in part:
            if document.topic is not None:
                counts.setdefault(document.topic, Counter())[part.name] += 1
    homes: dict[str, set[str]] = {part.name: set() for part in parts}
    for topic, per_database in counts.items():
        best = min(per_database, key=lambda name: (-per_database[name], name))
        homes[best].add(topic)
    return {name: frozenset(topics) for name, topics in homes.items()}


def _accuracy_at(
    servers: Mapping[str, DatabaseServer],
    truth: Mapping[str, frozenset[str]],
    probe_set: TopicProbeSet,
    budget: int,
) -> tuple[float, float]:
    """(accuracy, mean probes per database) at one probe budget."""
    classifier = QueryProbeClassifier(
        probe_set, ClassifyParameters(probes_per_topic=budget)
    )
    classifications = classifier.classify_all(servers)
    hits = 0
    probes = 0
    for name, classification in classifications.items():
        probes += classification.probes_issued
        if classification.assigned and classification.assigned[0] in truth.get(
            name, frozenset()
        ):
            hits += 1
    count = max(len(classifications), 1)
    return hits / count, probes / count


def _federation(
    profile: str, num_databases: int, scale: float, seed: int
) -> tuple[list[Corpus], dict[str, DatabaseServer]]:
    corpus = PROFILES_BY_NAME[profile]().build(seed=seed, scale=scale)
    parts = build_skewed_partition(corpus, num_databases=num_databases, seed=seed)
    return parts, {server.name: server for server in build_servers(parts)}


def _topical_precision(
    response_results: Sequence, doc_topic: Mapping[str, str | None], topic: str
) -> float:
    if not response_results:
        return 0.0
    relevant = sum(
        1 for result in response_results if doc_topic.get(result.doc_id) == topic
    )
    return relevant / len(response_results)


def _routing_round(
    parts: Sequence[Corpus],
    servers: Mapping[str, DatabaseServer],
    probe_set: TopicProbeSet,
    queries: Sequence[TopicalQuery],
    *,
    databases_per_query: int,
    n: int,
) -> tuple[list[int], list[int], list[float], list[float], list[float], int]:
    """One seed's broadcast-vs-routed pass over its topical queries."""
    models = {name: server.actual_language_model() for name, server in servers.items()}
    doc_topic = {
        document.doc_id: document.topic for part in parts for document in part
    }
    classifier = QueryProbeClassifier(probe_set)
    classifications = classifier.classify_all(servers)
    router = TopicRouter.from_probes(probe_set, classifications)

    broadcast = FederatedSearchService(
        dict(servers), databases_per_query=databases_per_query
    )
    broadcast.use_models(models)
    routed = FederatedSearchService(
        dict(servers), databases_per_query=databases_per_query, router=router
    )
    routed.use_models(models)

    broadcast_fanout: list[int] = []
    routed_fanout: list[int] = []
    broadcast_precision: list[float] = []
    routed_precision: list[float] = []
    overlaps: list[float] = []
    fallbacks = 0
    for query in queries:
        request = SearchRequest(query=query.text, n=n)
        plain = broadcast.search(request)
        aware = routed.search(request)
        broadcast_fanout.append(len(plain.searched))
        routed_fanout.append(len(aware.searched))
        broadcast_precision.append(
            _topical_precision(plain.results, doc_topic, query.topic)
        )
        routed_precision.append(
            _topical_precision(aware.results, doc_topic, query.topic)
        )
        if plain.results:
            returned = {result.doc_id for result in aware.results}
            overlaps.append(
                sum(1 for result in plain.results if result.doc_id in returned)
                / len(plain.results)
            )
        if aware.routing is not None and aware.routing.fell_back:
            fallbacks += 1
    return (
        broadcast_fanout,
        routed_fanout,
        broadcast_precision,
        routed_precision,
        overlaps,
        fallbacks,
    )


def run_classify_bench(
    *,
    profile: str = "wsj88",
    num_databases: int = 4,
    scale: float = 0.05,
    seeds: Sequence[int] = (0, 1, 2),
    budgets: Sequence[int] = (1, 2, 4, 8, 16),
    databases_per_query: int = 3,
    n: int = 10,
) -> ClassifyBenchReport:
    """Measure the accuracy curve and the routed-vs-broadcast saving.

    One topically skewed synthetic federation per seed; classification
    accuracy at every probe budget; then, with the full-budget
    classifications driving a :class:`~repro.classify.TopicRouter`, the
    federation's topical query set is served broadcast and routed and
    the fan-out / precision / overlap aggregates are averaged across
    seeds and queries.
    """
    if not seeds or not budgets:
        raise ValueError("need at least one seed and one budget")
    accuracy_totals = {budget: 0.0 for budget in budgets}
    probe_totals = {budget: 0.0 for budget in budgets}
    broadcast_fanout: list[int] = []
    routed_fanout: list[int] = []
    broadcast_precision: list[float] = []
    routed_precision: list[float] = []
    overlaps: list[float] = []
    fallbacks = 0
    for seed in seeds:
        parts, servers = _federation(profile, num_databases, scale, seed)
        truth = home_topics(parts)
        space = PROFILES_BY_NAME[profile]().topic_space(seed=seed, scale=scale)
        probe_set = build_probe_set(space, probes_per_topic=max(budgets), seed=seed)
        for budget in budgets:
            accuracy, probes = _accuracy_at(servers, truth, probe_set, budget)
            accuracy_totals[budget] += accuracy
            probe_totals[budget] += probes
        queries = topical_queries(parts)
        round_ = _routing_round(
            parts,
            servers,
            probe_set,
            queries,
            databases_per_query=databases_per_query,
            n=n,
        )
        broadcast_fanout.extend(round_[0])
        routed_fanout.extend(round_[1])
        broadcast_precision.extend(round_[2])
        routed_precision.extend(round_[3])
        overlaps.extend(round_[4])
        fallbacks += round_[5]

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return ClassifyBenchReport(
        profile=profile,
        num_databases=num_databases,
        scale=scale,
        seeds=tuple(seeds),
        databases_per_query=databases_per_query,
        accuracy_curve=tuple(
            BudgetPoint(
                budget=budget,
                accuracy=accuracy_totals[budget] / len(seeds),
                probes_per_database=probe_totals[budget] / len(seeds),
            )
            for budget in budgets
        ),
        routing=RoutingComparison(
            queries=len(broadcast_fanout),
            broadcast_databases_per_query=mean(broadcast_fanout),
            routed_databases_per_query=mean(routed_fanout),
            broadcast_precision=mean(broadcast_precision),
            routed_precision=mean(routed_precision),
            overlap=mean(overlaps),
            fallbacks=fallbacks,
        ),
    )


def format_classify_bench(report: ClassifyBenchReport) -> str:
    """Render the report as the aligned ASCII tables the benches print."""
    curve_rows = [
        {
            "probes/topic": point.budget,
            "accuracy": f"{point.accuracy:.3f}",
            "probes/db": f"{point.probes_per_database:.1f}",
        }
        for point in report.accuracy_curve
    ]
    routing = report.routing
    routing_rows = [
        {
            "mode": "broadcast",
            "databases/query": f"{routing.broadcast_databases_per_query:.2f}",
            "precision@n": f"{routing.broadcast_precision:.3f}",
        },
        {
            "mode": "routed",
            "databases/query": f"{routing.routed_databases_per_query:.2f}",
            "precision@n": f"{routing.routed_precision:.3f}",
        },
    ]
    summary = (
        f"fanout ratio {routing.fanout_ratio:.2f}x, overlap {routing.overlap:.3f}, "
        f"fallbacks {routing.fallbacks}/{routing.queries}"
    )
    return (
        format_table(
            curve_rows,
            title=(
                f"Classification accuracy vs probe budget "
                f"({report.profile}, {report.num_databases} databases, "
                f"seeds {list(report.seeds)})"
            ),
        )
        + "\n\n"
        + format_table(routing_rows, title="Routed vs broadcast serving")
        + "\n"
        + summary
    )


def write_classify_bench(report: ClassifyBenchReport, path: str) -> None:
    """Write the report's JSON form (the committed baseline file)."""
    atomic_write_text(path, json.dumps(report.as_dict(), indent=2) + "\n")
