"""Staleness-aware budget allocation for fleet refresh.

At fleet scale the maintenance question is not *whether* to refresh
but *which databases first*, under a fixed probe budget.  Following
Gupta & Bhatia's result that allocating a fixed crawl budget by
(term-weighted) change frequency beats uniform revisiting, the
scheduler ranks each database by

    score(db) = staleness(db) × popularity(db) / cost(db)

* **staleness** — the scheduler's running estimate that the stored
  model has drifted, updated from every staleness probe it sees:
  ``clip(1 − spearman, 0, 1)`` of the latest
  :class:`~repro.sampling.staleness.StalenessReport`.  A database
  never probed defaults to ``default_staleness`` (1.0: unknown means
  assume the worst, so new databases are probed promptly).
* **popularity** — how often serving actually selects the database,
  read from the ``serving.db.<name>.searched`` counters the serving
  layer emits into :mod:`repro.obs` metrics (add-one smoothed, so an
  unqueried database is deprioritised but never starved to zero).
* **cost** — estimated probe/refresh expense.  Uniform by default
  (every probe draws the same mini-sample); injectable for fleets
  where backends differ in latency or pricing.

The scores become queue priorities: :meth:`FleetScheduler.enqueue`
feeds a :class:`~repro.fleet.queue.DurableJobQueue`, whose claim order
is priority-descending, optionally truncated to a budget.  The
budget-less form (probe everything, refresh the stale, one epoch bump)
is what :meth:`FederatedSearchService.refresh_stale_models` wraps.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.fleet.queue import DurableJobQueue, Job
from repro.fleet.worker import REFRESH_JOB_KIND
from repro.obs.metrics import MetricSet
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.staleness import StalenessReport
from repro.utils.rand import derive_seed

__all__ = [
    "DatabasePriority",
    "FleetScheduler",
    "popularity_from_metrics",
]


def popularity_from_metrics(metrics: MetricSet, names: Iterable[str]) -> dict[str, float]:
    """Serving popularity per database from ``serving.db.*`` counters.

    Add-one smoothing keeps never-selected databases schedulable —
    their models still drift even if nobody queries them this week.
    """
    return {
        name: 1.0 + metrics.counter(f"serving.db.{name}.searched").value for name in names
    }


@dataclass(frozen=True)
class DatabasePriority:
    """One database's scheduling inputs and the score they combine to."""

    name: str
    staleness: float
    popularity: float
    cost: float

    @property
    def score(self) -> float:
        """``staleness × popularity / cost`` — expected value per unit spent."""
        return self.staleness * self.popularity / self.cost


class FleetScheduler:
    """Ranks databases for refresh and feeds the durable queue.

    Thread-safe: workers report probe results back via
    :meth:`observe_report` while the next round is being planned.

    Parameters
    ----------
    default_staleness:
        Prior for a database with no probe history (1.0 = assume
        stale, so unknown databases are examined first).
    cost_estimator:
        ``name -> positive cost``; defaults to uniform 1.0.
    recorder:
        Observability sink (``fleet.jobs_submitted`` comes from the
        queue; the scheduler adds a ``fleet_schedule`` span per round).
    """

    def __init__(
        self,
        *,
        default_staleness: float = 1.0,
        cost_estimator: Callable[[str], float] | None = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if not 0.0 <= default_staleness <= 1.0:
            raise ValueError("default_staleness must be within [0, 1]")
        self.default_staleness = default_staleness
        self.cost_estimator = cost_estimator
        self.recorder = recorder
        self._staleness: dict[str, float] = {}
        self._lock = threading.Lock()

    # -- staleness estimates -----------------------------------------------

    def observe_report(self, name: str, report: StalenessReport) -> None:
        """Fold a fresh probe result into the database's staleness estimate."""
        estimate = max(0.0, min(1.0, 1.0 - report.spearman))
        with self._lock:
            self._staleness[name] = estimate

    def observe_refreshed(self, name: str) -> None:
        """A refresh landed: the model is as fresh as it can be."""
        with self._lock:
            self._staleness[name] = 0.0

    def staleness_estimate(self, name: str) -> float:
        """The current estimate (the prior if never probed)."""
        with self._lock:
            return self._staleness.get(name, self.default_staleness)

    # -- ranking -----------------------------------------------------------

    def _cost(self, name: str) -> float:
        cost = self.cost_estimator(name) if self.cost_estimator is not None else 1.0
        if cost <= 0:
            raise ValueError(f"estimated cost for {name!r} must be positive, got {cost}")
        return cost

    def priorities(
        self,
        names: Iterable[str],
        *,
        popularity: Mapping[str, float] | None = None,
    ) -> list[DatabasePriority]:
        """Every database's scheduling row, highest score first.

        ``popularity`` defaults to uniform (no serving signal —
        ranking degrades gracefully to staleness/cost alone).
        """
        rows = [
            DatabasePriority(
                name=name,
                staleness=self.staleness_estimate(name),
                popularity=float(popularity.get(name, 1.0)) if popularity else 1.0,
                cost=self._cost(name),
            )
            for name in names
        ]
        return sorted(rows, key=lambda row: (-row.score, row.name))

    # -- feeding the queue ---------------------------------------------------

    def enqueue(
        self,
        queue: DurableJobQueue,
        names: Iterable[str],
        *,
        seed: int = 0,
        budget: int | None = None,
        popularity: Mapping[str, float] | None = None,
        max_attempts: int = 3,
    ) -> list[Job]:
        """Submit prioritized ``refresh_check`` jobs; returns them in rank order.

        ``budget`` truncates to the top-scoring databases (the
        fleet-scale mode); ``None`` enqueues everything, so priority
        affects only execution *order*.  Per-job seeds are
        ``derive_seed(seed, "staleness", name)`` — a function of the
        database's name, not its rank, so a database's probe and
        refresh query sequences do not depend on which other databases
        are in the round or on the order they run in.
        """
        ranked = self.priorities(names, popularity=popularity)
        if budget is not None:
            if budget <= 0:
                raise ValueError("budget must be positive")
            ranked = ranked[:budget]
        with self.recorder.span("fleet_schedule", databases=len(ranked)) as span:
            jobs = [
                queue.submit(
                    REFRESH_JOB_KIND,
                    row.name,
                    priority=row.score,
                    payload={"seed": derive_seed(seed, "staleness", row.name)},
                    max_attempts=max_attempts,
                )
                for row in ranked
            ]
            span.set(budget=budget if budget is not None else len(jobs))
        return jobs
