"""Shared measurement helpers: distribution summaries, ``/proc`` readers, spans.

Nothing here knows about a workload.  Timings are summarised the same
way everywhere (median, quartiles, the highest percentile that still has
ten samples beyond it, and the sample count), process cost is read from
``/proc`` so a child process can be measured from outside, and the
traced run keeps its spans in a :class:`SpanLog` that is written out
only when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks)."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (rank - lower)


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); degenerate for < 2 samples."""
    if len(samples) < 2:
        value = samples[0] if samples else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


@dataclass(frozen=True)
class Summary:
    """One timing distribution, as every report prints it."""

    count: int
    q1: float
    median: float
    q3: float
    tail_q: float
    tail: float

    def line(self, unit: str) -> str:
        """``median [q1, q3] pNN=tail n=count`` in ``unit``."""
        return (
            f"median {self.median:.4f} [{self.q1:.4f}, {self.q3:.4f}] "
            f"p{self.tail_q:g}={self.tail:.4f} {unit} n={self.count}"
        )


def summarize(samples: Sequence[float]) -> Summary:
    """Median, quartiles and the highest percentile with >= 10 samples beyond it."""
    if not samples:
        return Summary(0, 0.0, 0.0, 0.0, 50.0, 0.0)
    q1, median, q3 = quartiles(samples)
    tail_q = next(
        (q for q in _TAILS if len(samples) * (1.0 - q / 100.0) >= 10.0), 50.0
    )
    return Summary(len(samples), q1, median, q3, tail_q, percentile(samples, tail_q))


def median(samples: Sequence[float]) -> float:
    """Median, or 0.0 of nothing (a layer that did no work)."""
    return statistics.median(samples) if samples else 0.0


def fast_quartile(samples: Sequence[float], better: str = "lower") -> float:
    """The quartile on the good side of ``samples`` (0.0 of nothing).

    The sandbox's noise is one-sided: a busy neighbour on the same core
    slows a stretch of the run by up to half, nothing ever speeds it up.
    So a run is cut into buckets (rounds, or half-seconds of traffic),
    the metric is taken per bucket, and the quartile towards *better*
    is reported: it sits among the undisturbed buckets as long as a
    quarter of them were, which a median or a total does not.
    """
    if not samples:
        return 0.0
    q1, _, q3 = quartiles(samples)
    return q1 if better == "lower" else q3


def mean(samples: Sequence[float]) -> float:
    """Mean, or 0.0 of nothing."""
    return sum(samples) / len(samples) if samples else 0.0


# -- process cost, read from outside ---------------------------------------


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of ``pid`` in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for row in handle:
            if row.startswith("VmHWM:"):
                return int(row.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def directory_bytes(root: str) -> int:
    """Total size of the regular files under ``root``."""
    total = 0
    for parent, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(parent, name))
    return total


# -- spans -------------------------------------------------------------------


class SpanLog:
    """In-memory span records for the traced run.

    A span is ``(id, name, layer, start, end, parent, request)`` plus
    free-form attributes; times are ``time.perf_counter()`` seconds,
    which on Linux is one monotonic clock shared by every process, so
    spans recorded in the gateway child line up with the generator's.
    ``list.append`` and ``next(count)`` are atomic under the interpreter
    lock, so proxies on several threads can share one log.  ``enabled``
    lets the traced run switch recording off for its untraced reference
    phase without removing the proxies.
    """

    def __init__(self) -> None:
        self.rows: list[dict[str, object]] = []
        self.enabled = True
        self._ids = itertools.count(1)

    @classmethod
    def continuing(cls, rows: list[dict[str, object]]) -> "SpanLog":
        """A log that already holds ``rows`` (another process's) and numbers on from them."""
        log = cls()
        log.rows = rows
        log._ids = itertools.count(max((row["id"] for row in rows), default=0) + 1)
        return log

    def next_id(self) -> int:
        """Reserve an id, for a span whose children are recorded before it ends."""
        return next(self._ids)

    def add(
        self,
        name: str,
        layer: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        request: str | None = None,
        span_id: int | None = None,
        **attributes: object,
    ) -> int:
        """Record one finished span; returns its id."""
        span_id = span_id if span_id is not None else next(self._ids)
        if self.enabled:
            self.rows.append(
                {
                    "id": span_id,
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": request,
                    **attributes,
                }
            )
        return span_id

    @contextmanager
    def span(
        self, name: str, layer: str, *, parent: int | None = None, **attributes: object
    ) -> Iterator[int]:
        """Time the ``with`` body; yields the span's id so children can name it."""
        span_id = self.next_id()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.add(
                name, layer, start, time.perf_counter(),
                parent=parent, span_id=span_id, **attributes,
            )

    def named(self, name: str) -> list[dict[str, object]]:
        """Every recorded span called ``name``."""
        return [row for row in self.rows if row["name"] == name]

    def durations_ms(self, name: str) -> list[float]:
        """Durations of the spans called ``name``, in milliseconds."""
        return [(row["end"] - row["start"]) * 1000.0 for row in self.named(name)]

    def write_jsonl(self, path: str) -> None:
        """One span per line, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in sorted(self.rows, key=lambda row: row["start"]):
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def optional_span(log: SpanLog | None, on: bool, name: str, layer: str, **attributes: object):
    """``log.span(...)`` when this stretch is being traced, else a no-op context."""
    if on and log is not None:
        return log.span(name, layer, **attributes)
    return nullcontext()


def join_spans(log: SpanLog, child_name: str, parent_name: str) -> int:
    """Hang spans recorded on other threads under the span that caused them.

    A child belongs to the parent with the same ``query`` text whose
    interval contains it.  Matching is one to one in start order — a
    parent has one child, or one per ``database`` — which settles most
    cases where the same query is in flight twice.  The child takes the
    parent's id and ``request``.  Returns how many joins still had more
    than one free candidate (the earliest is taken).
    """
    by_query: dict[str, list[dict[str, object]]] = {}
    for row in sorted(log.named(parent_name), key=lambda row: row["start"]):
        by_query.setdefault(row["query"], []).append(row)
    taken: set[tuple[object, object]] = set()
    ambiguous = 0
    for row in sorted(log.named(child_name), key=lambda row: row["start"]):
        slot = row.get("database")
        free = [
            parent for parent in by_query.get(row["query"], ())
            if parent["start"] <= row["start"] and row["end"] <= parent["end"]
            and (parent["id"], slot) not in taken
        ]
        if free:
            taken.add((free[0]["id"], slot))
            row["parent"] = free[0]["id"]
            row["request"] = free[0]["request"]
        ambiguous += len(free) > 1
    return ambiguous


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_seconds(span: dict[str, object], children: Iterable[dict[str, object]]) -> float:
    """A span's duration minus the part of it its children cover."""
    start, end = span["start"], span["end"]
    return (end - start) - covered(((c["start"], c["end"]) for c in children), start, end)


def children_by_parent(rows: Iterable[dict[str, object]]) -> dict[int, list[dict[str, object]]]:
    """Spans grouped under their parent's id."""
    grouped: dict[int, list[dict[str, object]]] = {}
    for row in rows:
        if row["parent"] is not None:
            grouped.setdefault(row["parent"], []).append(row)
    return grouped


# -- what a workload hands back ------------------------------------------------


@dataclass(frozen=True)
class Options:
    """One run's inputs, as the command line gave them."""

    seed: int
    seconds: float
    traced: bool
    sizes: object
    workdir: str


class Outcome:
    """What one workload run measured and checked.

    ``attempted`` / ``failed`` count operations; every correctness-gate
    miss is listed in ``problems`` and counted in ``failed`` too.
    ``end_to_end`` and ``layers`` map metric names to values (units live
    in ``BENCHMARK.json``); ``timings`` keeps the raw samples behind the
    timing metrics so the report can print their distributions;
    ``phases`` are the per-phase tallies printed as they were measured.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.end_to_end: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.timings: dict[str, tuple[list[float], str]] = {}
        self.phases: list[str] = []
        self.log: SpanLog | None = None

    def problem(self, message: str) -> None:
        """Record one correctness-gate miss."""
        self.problems.append(message)
        self.failed += 1
