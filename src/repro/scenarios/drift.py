"""A database whose contents change underneath its clients.

Real databases are not static: articles are added, archives rotate,
whole collections are swapped behind a stable endpoint.  A model
learned last month silently describes the wrong collection — the
failure mode :mod:`repro.sampling.staleness` exists to detect.

:class:`DriftingDatabase` makes that world reproducible: it holds a
sequence of *phase* backends and a :class:`DriftSchedule` of
query-count switch points, and routes each ``run_query`` to the phase
the schedule says is live.  Because the clock is the query counter (not
wall time), a probe sequence is bit-deterministic: the same seed
produces the same queries, the same switch happens under the same
probe, and a staleness-latency measurement is exactly repeatable.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from repro.backend import SearchableDatabase
from repro.corpus.document import Document
from repro.lm.model import LanguageModel

__all__ = ["DriftSchedule", "DriftingDatabase"]


@dataclass(frozen=True)
class DriftSchedule:
    """Query-count switch points, strictly increasing.

    ``switch_points[i]`` is the number of queries after which phase
    ``i + 1`` becomes live: with ``switch_points == (40,)`` the first
    40 queries see phase 0 and every later query sees phase 1.
    """

    switch_points: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(point <= 0 for point in self.switch_points):
            raise ValueError("switch points must be positive query counts")
        if list(self.switch_points) != sorted(set(self.switch_points)):
            raise ValueError("switch points must be strictly increasing")

    def phase_at(self, queries_seen: int) -> int:
        """The live phase index after ``queries_seen`` queries."""
        if queries_seen < 0:
            raise ValueError("queries_seen must be non-negative")
        return bisect.bisect_right(self.switch_points, queries_seen)


class DriftingDatabase:
    """A searchable database that switches backends on a query schedule.

    The public surface is the sampler's: :meth:`run_query` (and
    :meth:`hit_count` when the live phase supports it).  Ground-truth
    accessors delegate to the *current* phase, mirroring
    :class:`~repro.index.server.DatabaseServer`'s evaluation-only
    surface — "what is actually in the database right now" is exactly
    what a staleness experiment scores against.

    Hit-count queries do not advance the drift clock: the schedule
    counts retrieval work, and keeping the clock on ``run_query`` alone
    means a size-estimation pass cannot perturb a drift experiment.
    """

    def __init__(
        self,
        phases: Sequence[SearchableDatabase],
        schedule: DriftSchedule,
        name: str | None = None,
    ) -> None:
        if len(phases) < 2:
            raise ValueError("a drifting database needs at least two phases")
        if len(schedule.switch_points) != len(phases) - 1:
            raise ValueError(
                f"schedule has {len(schedule.switch_points)} switch points "
                f"but {len(phases)} phases need {len(phases) - 1}"
            )
        self.phases = list(phases)
        self.schedule = schedule
        self.name = name or getattr(phases[0], "name", "drifting")
        self.queries_seen = 0

    @property
    def phase_index(self) -> int:
        """The live phase index under the current query count."""
        return self.schedule.phase_at(self.queries_seen)

    @property
    def current(self) -> SearchableDatabase:
        """The live phase backend."""
        return self.phases[self.phase_index]

    def run_query(self, query: str, max_docs: int = 10) -> list[Document]:
        """Serve ``query`` from the live phase, then advance the clock."""
        documents = self.current.run_query(query, max_docs=max_docs)
        self.queries_seen += 1
        return documents

    def hit_count(self, query: str) -> int:
        """Match count from the live phase (requires a hit-counting phase)."""
        counter = getattr(self.current, "hit_count", None)
        if counter is None:
            raise TypeError(f"phase {self.phase_index} does not support hit_count")
        return int(counter(query))

    # -- ground truth (evaluation only) -------------------------------------

    def actual_language_model(self) -> LanguageModel:
        """The live phase's true model. Evaluation only."""
        model = getattr(self.current, "actual_language_model", None)
        if model is None:
            raise TypeError(f"phase {self.phase_index} is not evaluable")
        return model()

    @property
    def num_documents(self) -> int:
        """The live phase's true size. Evaluation only."""
        size = getattr(self.current, "num_documents", None)
        if size is None:
            raise TypeError(f"phase {self.phase_index} is not evaluable")
        return int(size)
