"""Counters and timers: structured metrics for the backend seam.

Generalizes the per-server :class:`~repro.index.server.QueryCosts`
dataclass into reusable primitives any layer can meter itself with:
a :class:`Counter` accumulates occurrences or sizes, a :class:`Timer`
accumulates durations with min/max, and a :class:`MetricSet` is a
lazily populated registry of both, snapshotable to plain dicts for
reports and JSON emission.

Ipeirotis & Gravano's query-probing line of work (PAPERS.md) shows
that richer per-probe accounting is what enables smarter acquisition
policies; these primitives are that accounting, one level below the
span/trace layer of :mod:`repro.obs.trace` (a
:class:`~repro.obs.trace.TraceRecorder` owns a :class:`MetricSet` and
feeds it automatically from finished spans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Counter", "MetricSet", "Timer"]


@dataclass
class Counter:
    """A monotonically growing count (queries, retries, bytes, ...)."""

    name: str
    value: float = 0

    def add(self, amount: float = 1) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only grow; use a separate counter instead")
        self.value += amount


@dataclass
class Timer:
    """Accumulated durations of one repeated operation."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = 0.0

    def observe(self, seconds: float) -> None:
        """Fold one observed duration into the aggregate."""
        if seconds < 0:
            raise ValueError("durations must be non-negative")
        self.count += 1
        self.total += seconds
        self.min = seconds if seconds < self.min else self.min
        self.max = seconds if seconds > self.max else self.max

    @property
    def mean(self) -> float:
        """Average observed duration (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0


class MetricSet:
    """A lazily populated registry of named counters and timers."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def timer(self, name: str) -> Timer:
        """The timer called ``name`` (created on first use)."""
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer(name)
        return timer

    def count(self, name: str, amount: float = 1) -> None:
        """Shorthand for ``self.counter(name).add(amount)``."""
        self.counter(name).add(amount)

    def counters(self) -> Iterator[Counter]:
        """All counters, in creation order."""
        return iter(self._counters.values())

    def timers(self) -> Iterator[Timer]:
        """All timers, in creation order."""
        return iter(self._timers.values())

    def snapshot(self) -> dict[str, object]:
        """Plain-dict view of every metric, for reports and JSON."""
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "timers": {
                name: {
                    "count": t.count,
                    "total": t.total,
                    "mean": t.mean,
                    "min": (0.0 if t.count == 0 else t.min),
                    "max": t.max,
                }
                for name, t in self._timers.items()
            },
        }
