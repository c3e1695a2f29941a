"""Sampling-run execution and metric-curve extraction.

The paper's figures all share one pipeline: run the sampler against a
known database, snapshot the learned model every 50 documents, project
each snapshot into the database's term space (stemming, stopword
removal — Section 4.1), and compute vocabulary / frequency metrics
against the actual model.  :func:`run_sampling` executes the run,
:func:`measure_run` produces the curve, and :func:`average_curves`
averages aligned curves over random seeds.

:func:`measure_run` analyzes each distinct raw term once per run and
scores every snapshot as a join of its df column with the actual
model on the shared vocabulary; no snapshot's model is built.  The
straightforward path that re-projects every snapshot lives on as
``tests/reference/curves.py``, the equivalence reference: both produce
bit-identical curves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.backend import SearchableDatabase
from repro.lm.compare import gather, metric_values, rank_values, spearman_from_ranks
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.result import SamplingRun, snapshot_rdiff
from repro.sampling.sampler import QueryBasedSampler, SamplerConfig
from repro.sampling.selection import QueryTermSelector
from repro.sampling.stopping import MaxDocuments
from repro.text.analyzer import Analyzer


@dataclass(frozen=True)
class CurvePoint:
    """Metrics of one learned-model snapshot vs. the actual model."""

    documents: int
    queries: int
    percentage_learned: float
    ctf_ratio: float
    spearman: float


@dataclass(frozen=True)
class LearningCurve:
    """A labelled series of :class:`CurvePoint`."""

    database: str
    strategy: str
    docs_per_query: int
    points: tuple[CurvePoint, ...]

    def documents_to_reach_ctf(self, target: float) -> int | None:
        """First snapshot document count with ctf ratio ≥ ``target``.

        Returns ``None`` if the curve never reaches the target — the
        quantity tabulated in the paper's Table 2.
        """
        for point in self.points:
            if point.ctf_ratio >= target:
                return point.documents
        return None

    def value_at(self, documents: int, metric: str) -> float:
        """Metric value at the snapshot taken at ``documents``."""
        for point in self.points:
            if point.documents == documents:
                return getattr(point, metric)
        raise KeyError(f"no curve point at {documents} documents")


def run_sampling(
    server: SearchableDatabase,
    bootstrap: QueryTermSelector,
    strategy: QueryTermSelector | None = None,
    max_documents: int = 300,
    docs_per_query: int = 4,
    seed: int = 0,
    snapshot_interval: int = 50,
    unique_documents: bool = True,
    recorder: Recorder = NULL_RECORDER,
) -> SamplingRun:
    """Run one paper-style sampling experiment."""
    sampler = QueryBasedSampler(
        server,
        bootstrap=bootstrap,
        strategy=strategy,
        stopping=MaxDocuments(max_documents),
        analyzer=Analyzer.raw(),
        config=SamplerConfig(
            docs_per_query=docs_per_query,
            snapshot_interval=snapshot_interval,
            unique_documents=unique_documents,
        ),
        seed=seed,
        recorder=recorder,
    )
    return sampler.run()


def measure_run(
    run: SamplingRun,
    actual: LanguageModel,
    server_analyzer: Analyzer,
    database: str,
    strategy: str,
    docs_per_query: int,
) -> LearningCurve:
    """Score each snapshot against the actual model.

    Every distinct raw term of the run is projected through
    ``server_analyzer`` once, to the id of its projected term in the
    actual vocabulary (ids follow sorted term order; -1 when the
    analyzer drops the term or the actual model lacks it).  A snapshot
    is then a join: its df scatter-adds into those ids, and the ids it
    reaches are the sorted common vocabulary the paper compares on.
    No state carries between snapshots and no model's term order
    matters, so the curve equals re-projecting every snapshot
    (``tests/reference/curves.py``) bit for bit.
    """
    raw_terms: set[str] = set()
    for snapshot in run.snapshots:
        raw_terms.update(snapshot.terms())
    projection = {term: server_analyzer.project_term(term) for term in raw_terms}
    # The actual terms some raw term of the run projects to, sorted.
    reachable = sorted({term for term in projection.values() if term in actual})
    id_of = {term: i for i, term in enumerate(reachable)}
    raw_ids = {raw: id_of.get(term, -1) for raw, term in projection.items()}
    actual_df_counts, actual_ctf = gather(actual, reachable)
    actual_df = metric_values("df", actual_df_counts, actual_ctf)
    actual_size = len(actual)
    total_ctf = actual.total_ctf

    points = []
    for snapshot in run.snapshots:
        ids = np.fromiter(
            map(raw_ids.__getitem__, snapshot.terms()),
            dtype=np.intp,
            count=snapshot.vocabulary_size,
        )
        dfs = snapshot.values("df")
        keep = ids >= 0
        hits = ids[keep]
        # Conflated variants' df add (integers, exact in float64).
        learned_df = np.bincount(hits, weights=dfs[keep], minlength=len(reachable))
        common = np.flatnonzero(np.bincount(hits, minlength=len(reachable)))
        n = common.size
        if n == 0:
            spearman = 0.0
        elif n == 1:
            spearman = 1.0
        else:
            spearman = spearman_from_ranks(
                rank_values(learned_df[common]), rank_values(actual_df[common])
            )
        points.append(
            CurvePoint(
                documents=snapshot.documents_examined,
                queries=snapshot.queries_run,
                percentage_learned=n / actual_size if actual_size else 0.0,
                ctf_ratio=int(actual_ctf[common].sum()) / total_ctf if total_ctf else 0.0,
                spearman=spearman,
            )
        )
    return LearningCurve(
        database=database,
        strategy=strategy,
        docs_per_query=docs_per_query,
        points=tuple(points),
    )


def rdiff_series(
    run: SamplingRun, metric: str = "df"
) -> list[tuple[int, float]]:
    """Figure 4's series: rdiff between consecutive snapshots.

    Each element is ``(documents_examined_at_second_snapshot, rdiff)``.
    """
    return [
        (second.documents_examined, snapshot_rdiff(first, second, metric))
        for first, second in zip(run.snapshots, run.snapshots[1:])
    ]


def average_curves(curves: list[LearningCurve]) -> LearningCurve:
    """Average parallel curves (same database/strategy, different seeds).

    Only document counts present in *every* curve are kept, so partial
    final snapshots do not skew the average.
    """
    if not curves:
        raise ValueError("need at least one curve")
    if len(curves) == 1:
        return curves[0]
    # Index each curve's points by document count once — the lookup
    # below is then O(1) per (document, curve) instead of a linear scan.
    by_documents = [
        {point.documents: point for point in curve.points} for curve in curves
    ]
    common_docs = set(by_documents[0])
    for indexed in by_documents[1:]:
        common_docs &= set(indexed)
    points = []
    for documents in sorted(common_docs):
        at_docs = [indexed[documents] for indexed in by_documents]
        count = len(at_docs)
        points.append(
            CurvePoint(
                documents=documents,
                queries=round(sum(p.queries for p in at_docs) / count),
                percentage_learned=sum(p.percentage_learned for p in at_docs) / count,
                ctf_ratio=sum(p.ctf_ratio for p in at_docs) / count,
                spearman=sum(p.spearman for p in at_docs) / count,
            )
        )
    return replace(curves[0], points=tuple(points))
