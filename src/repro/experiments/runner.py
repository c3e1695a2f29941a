"""Sampling-run execution and metric-curve extraction.

The paper's figures all share one pipeline: run the sampler against a
known database, snapshot the learned model every 50 documents, project
each snapshot into the database's term space (stemming, stopword
removal — Section 4.1), and compute vocabulary / frequency metrics
against the actual model.  :func:`run_sampling` executes the run,
:func:`measure_run` produces the curve, and :func:`average_curves`
averages aligned curves over random seeds.

:func:`measure_run` scores snapshots incrementally (see
:mod:`repro.experiments.incremental`), carrying the projected model and
metric numerators forward between snapshots instead of re-projecting
the whole vocabulary each time.  The straightforward full-reprojection
path it replaced lives on as ``tests/reference/curves.py``, the
equivalence reference: both produce bit-identical curves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.backend import SearchableDatabase
from repro.experiments.incremental import IncrementalCurveMeasurer
from repro.lm.compare import rdiff
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.result import SamplingRun
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
    """Score each snapshot against the actual model (incrementally).

    Produces the same curve as projecting every snapshot from scratch
    — the incremental engine's equivalence contract — in O(changed
    terms) per snapshot instead of O(vocabulary).
    """
    measurer = IncrementalCurveMeasurer(actual, server_analyzer)
    points = []
    for snapshot in run.snapshots:
        percentage, ratio, spearman = measurer.measure(snapshot.model)
        points.append(
            CurvePoint(
                documents=snapshot.documents_examined,
                queries=snapshot.queries_run,
                percentage_learned=percentage,
                ctf_ratio=ratio,
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
    series = []
    for first, second in zip(run.snapshots, run.snapshots[1:]):
        series.append(
            (second.documents_examined, rdiff(first.model, second.model, metric=metric))
        )
    return series


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
