"""Full-reprojection reference for learning-curve measurement.

:func:`repro.experiments.runner.measure_run` projects each raw term
once per run and scores each snapshot as a join with the actual model;
this projects every snapshot from scratch with the scalar metrics of
:mod:`repro.lm.compare`, and the two must agree bit for bit
(``tests/test_incremental_measure.py``).
"""

from __future__ import annotations

from repro.experiments.runner import CurvePoint, LearningCurve
from repro.lm.compare import ctf_ratio, percentage_learned, spearman_rank_correlation
from repro.lm.model import LanguageModel
from repro.sampling.result import SamplingRun
from repro.text.analyzer import Analyzer

__all__ = ["measure_run_by_reprojection"]


def measure_run_by_reprojection(
    run: SamplingRun,
    actual: LanguageModel,
    server_analyzer: Analyzer,
    database: str,
    strategy: str,
    docs_per_query: int,
) -> LearningCurve:
    """Project every snapshot from scratch — O(snapshots × vocabulary)."""
    points = []
    for snapshot in run.snapshots:
        projected = snapshot.model.project(server_analyzer)
        points.append(
            CurvePoint(
                documents=snapshot.documents_examined,
                queries=snapshot.queries_run,
                percentage_learned=percentage_learned(projected, actual),
                ctf_ratio=ctf_ratio(projected, actual),
                spearman=spearman_rank_correlation(projected, actual, metric="df"),
            )
        )
    return LearningCurve(
        database=database,
        strategy=strategy,
        docs_per_query=docs_per_query,
        points=tuple(points),
    )
