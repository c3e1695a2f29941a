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
from typing import Callable, Mapping

from repro.backend import SearchableDatabase
from repro.lm.compare import rdiff, spearman_rank_correlation
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.sampler import QueryBasedSampler, SamplerConfig
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

    def is_stale(self, rdiff_threshold: float = 0.30, spearman_floor: float = 0.35) -> bool:
        """Decision rule: low rank agreement, or extreme rank churn.

        Spearman is the primary signal: a same-distribution probe
        agrees clearly (≳0.5 in calibration runs) while a drifted
        database collapses toward 0.  rdiff between a large stored
        model and a small probe is inherently noisy (≈0.2 even when
        fresh), so its threshold only catches extreme churn.
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
    return StalenessReport(
        rdiff_score=rdiff(stored_model, probe.model),
        spearman=spearman_rank_correlation(probe.model, stored_model),
        probe_documents=probe.documents_examined,
    )


class RefreshPolicy:
    """Probe-then-refresh management of one database's model.

    Parameters
    ----------
    rdiff_threshold, spearman_floor:
        Passed to :meth:`StalenessReport.is_stale`.
    refresh_documents:
        Sample size of a full refresh.
    """

    def __init__(
        self,
        rdiff_threshold: float = 0.30,
        spearman_floor: float = 0.35,
        refresh_documents: int = 300,
    ) -> None:
        self.rdiff_threshold = rdiff_threshold
        self.spearman_floor = spearman_floor
        self.refresh_documents = refresh_documents

    def maybe_refresh(
        self,
        database: SearchableDatabase,
        stored_model: LanguageModel,
        bootstrap: QueryTermSelector,
        seed: int = 0,
        analyzer: Analyzer | None = None,
        recorder: Recorder = NULL_RECORDER,
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
        return sampler.run().model, report, True

    def refresh_all(
        self,
        databases: Mapping[str, SearchableDatabase],
        stored_models: Mapping[str, LanguageModel],
        bootstrap_factory: Callable[[str], QueryTermSelector],
        seed: int = 0,
        analyzer: Analyzer | None = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> tuple[dict[str, LanguageModel], dict[str, StalenessReport], tuple[str, ...]]:
        """Probe every database; re-sample only the stale ones.

        The whole-federation form of :meth:`maybe_refresh`, used by the
        federated service's staleness sweep.  Per-database seeds are
        derived from ``seed`` and the database name, so adding a
        database never perturbs the others' probes.  ``analyzer`` is
        the stored models' shared text pipeline, threaded through every
        probe and refresh (see :meth:`maybe_refresh`).  Returns
        ``(models, reports, refreshed)`` where ``models`` maps every
        database to its (possibly refreshed) model and ``refreshed``
        names the databases that were actually re-sampled — empty means
        the stored set is still fresh and nothing needs reinstalling.
        """
        missing = set(databases) - set(stored_models)
        if missing:
            raise ValueError(f"missing stored models for databases: {sorted(missing)}")
        models: dict[str, LanguageModel] = {}
        reports: dict[str, StalenessReport] = {}
        refreshed: list[str] = []
        for name, database in databases.items():
            with recorder.span("staleness_check", database=name) as span:
                model, report, did_refresh = self.maybe_refresh(
                    database,
                    stored_models[name],
                    bootstrap_factory(name),
                    seed=derive_seed(seed, "staleness", name),
                    analyzer=analyzer,
                    recorder=recorder,
                )
                span.set(stale=did_refresh, spearman=report.spearman)
            models[name] = model
            reports[name] = report
            if did_refresh:
                refreshed.append(name)
        return models, reports, tuple(refreshed)
