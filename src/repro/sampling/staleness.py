"""Staleness detection: does a learned model still match its database?

Databases change after they are sampled (documents added, topics
drift), and a selection service must notice *without* re-sampling
everything — re-sampling is the expensive operation the service is
trying to ration.  The observable trick mirrors the paper's Section 6
reasoning: run a handful of fresh probe queries, build a small fresh
mini-sample, and compare its term ranking to the stored model with the
same machinery used for convergence (rdiff / Spearman over common
terms).  A database that hasn't changed yields a mini-sample that looks
like a continuation of the old sample; a drifted database yields a
visibly different ranking.

:func:`staleness_probe` produces the score; :class:`RefreshPolicy`
turns it into a decision and (optionally) performs the re-sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend import SearchableDatabase
from repro.lm.compare import join
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.sampler import CheckpointSink, QueryBasedSampler, SamplerConfig
from repro.sampling.selection import QueryTermSelector
from repro.sampling.stopping import MaxDocuments
from repro.text.analyzer import Analyzer
from repro.utils.rand import derive_seed


@dataclass(frozen=True)
class StalenessReport:
    """The observable comparison between a stored model and a fresh probe."""

    rdiff_score: float
    spearman: float
    probe_documents: int

    def is_stale(self, rdiff_threshold: float = 0.30, spearman_floor: float = 0.45) -> bool:
        """Decision rule: low rank agreement, or extreme rank churn.

        Spearman is the primary signal: a same-distribution probe
        agrees clearly (≳0.5 in calibration runs) while a drifted
        database collapses toward 0.  The floor sits in the middle of
        the gap between the two: over 179 rounds of the ``refresh``
        benchmark (2,864 50-document probes), every probe of an
        unchanged database read 0.53 or more and every probe of a
        drifted one 0.355 or less — a floor of 0.35 let that highest
        one through, and the drifted database kept a stale model for a
        round.  rdiff between a large stored
        model and a small probe is inherently noisy (≈0.2 even when
        fresh, ≤ 0.30 when drifted), so its threshold only catches
        extreme churn.
        """
        return self.spearman < spearman_floor or self.rdiff_score > rdiff_threshold


def staleness_probe(
    database: SearchableDatabase,
    stored_model: LanguageModel,
    bootstrap: QueryTermSelector,
    probe_documents: int = 50,
    analyzer: Analyzer | None = None,
    seed: int = 0,
    recorder: Recorder = NULL_RECORDER,
) -> StalenessReport:
    """Draw a fresh mini-sample and compare it to ``stored_model``.

    The probe is an ordinary, independent sampling run: its first query
    term comes from ``bootstrap`` and later ones from the model the
    probe itself is learning.  ``stored_model`` takes no part in
    choosing queries; it is only what the finished mini-sample is
    compared against.
    """
    if probe_documents <= 0:
        raise ValueError("probe_documents must be positive")
    sampler = QueryBasedSampler(
        database,
        bootstrap=bootstrap,
        stopping=MaxDocuments(probe_documents),
        analyzer=analyzer or Analyzer.raw(),
        config=SamplerConfig(keep_documents=False),
        seed=derive_seed(seed, "staleness-probe"),
        recorder=recorder,
    )
    probe = sampler.run()
    # One join serves both numbers; rdiff and Spearman are symmetric in their sides.
    joined = join(probe.model, stored_model)
    return StalenessReport(
        rdiff_score=joined.rdiff(),
        spearman=joined.spearman(),
        probe_documents=probe.documents_examined,
    )


@dataclass(frozen=True)
class RefreshPolicy:
    """Probe-then-refresh management of one database's model.

    Parameters
    ----------
    rdiff_threshold, spearman_floor:
        Passed to :meth:`StalenessReport.is_stale`.
    refresh_documents:
        Sample size of a full refresh.
    """

    rdiff_threshold: float = 0.30
    spearman_floor: float = 0.45
    refresh_documents: int = 300

    def __post_init__(self) -> None:
        if self.refresh_documents <= 0:
            raise ValueError("refresh_documents must be positive")

    def maybe_refresh(
        self,
        database: SearchableDatabase,
        stored_model: LanguageModel,
        bootstrap: QueryTermSelector,
        seed: int = 0,
        analyzer: Analyzer | None = None,
        recorder: Recorder = NULL_RECORDER,
        checkpoint: CheckpointSink | None = None,
    ) -> tuple[LanguageModel, StalenessReport, bool]:
        """Probe; re-sample only if stale.

        Returns ``(model, report, refreshed)`` where ``model`` is either
        the stored model (fresh enough) or a newly learned one.

        ``analyzer`` must be the pipeline ``stored_model`` was built
        with (``None`` = raw tokens, the paper's client default).  Both
        the probe mini-sample and any triggered refresh run through it:
        a stemmed stored model probed with raw tokens compares two
        different vocabularies (spurious staleness), and a refresh under
        a different analyzer would silently install a model whose term
        space no longer matches the one it replaced.

        ``checkpoint`` covers the re-sample only (the probe is simply
        run again): a saved state is restored first, so a refresh killed
        mid-way and called again returns the uninterrupted call's model.
        """
        report = staleness_probe(
            database,
            stored_model,
            bootstrap,
            analyzer=analyzer,
            seed=seed,
            recorder=recorder,
        )
        if not report.is_stale(self.rdiff_threshold, self.spearman_floor):
            return stored_model, report, False
        sampler = QueryBasedSampler(
            database,
            bootstrap=bootstrap,
            stopping=MaxDocuments(self.refresh_documents),
            analyzer=analyzer,
            seed=derive_seed(seed, "refresh"),
            recorder=recorder,
        )
        if checkpoint is not None:
            checkpoint.resume(sampler)
        return sampler.run(checkpoint=checkpoint).model, report, True
