"""Trace-file analysis: the ``repro trace`` report.

Reads a JSONL trace emitted by
:meth:`~repro.obs.trace.TraceRecorder.write_jsonl` and aggregates it
into the summary an operator actually wants from a sampling /
federation run: per-database query volume, failure and retry activity,
circuit-breaker behaviour, bytes moved, and the query latency
distribution (p50 / p95 / max in clock seconds — simulated or wall,
whichever clock the recorder ran on).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable

from repro.utils.table import format_table

__all__ = ["DatabaseTraceSummary", "format_trace_report", "read_trace", "summarize_trace"]

#: Event names the transport layer emits (counted per database).
_RETRY_EVENTS = ("retry",)
_CIRCUIT_EVENTS = ("circuit_opened", "circuit_rejected", "circuit_closed")


def read_trace(path_or_handle: str | IO[str]) -> list[dict[str, object]]:
    """Parse a JSONL trace file into record dicts (meta line included).

    Raises ``ValueError`` on malformed JSON, with the line number.
    """
    if isinstance(path_or_handle, str):
        with open(path_or_handle, "r", encoding="utf-8") as handle:
            return read_trace(handle)
    records = []
    for lineno, line in enumerate(path_or_handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed trace line {lineno}: {exc}") from exc
    return records


@dataclass
class DatabaseTraceSummary:
    """Aggregated trace activity of one database."""

    database: str
    queries: int = 0
    errors: int = 0
    retries: int = 0
    circuit_events: int = 0
    documents: int = 0
    bytes_returned: int = 0
    backoff_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)

    def latency_quantile(self, q: float) -> float:
        """The ``q``-quantile of query latency (nearest-rank, 0 if empty)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]


def _attr(record: dict[str, object], key: str) -> object:
    attributes = record.get("attributes")
    if isinstance(attributes, dict):
        return attributes.get(key)
    return None


def summarize_trace(
    records: Iterable[dict[str, object]],
) -> dict[str, DatabaseTraceSummary]:
    """Aggregate trace records per database (name → summary).

    Records without a ``database`` attribute (meta line, service-level
    spans) are grouped under ``"-"`` only when they are query spans or
    transport events; purely structural spans are skipped.
    """
    summaries: dict[str, DatabaseTraceSummary] = {}

    def summary_for(record: dict[str, object]) -> DatabaseTraceSummary:
        database = _attr(record, "database")
        name = database if isinstance(database, str) else "-"
        if name not in summaries:
            summaries[name] = DatabaseTraceSummary(database=name)
        return summaries[name]

    for record in records:
        kind = record.get("type")
        name = record.get("name")
        if kind == "span" and name == "query":
            summary = summary_for(record)
            summary.queries += 1
            if record.get("status") == "error" or _attr(record, "error"):
                summary.errors += 1
            duration = record.get("duration")
            if isinstance(duration, (int, float)):
                summary.latencies.append(float(duration))
            returned = _attr(record, "documents_returned")
            if isinstance(returned, int):
                summary.documents += returned
            size = _attr(record, "bytes_returned")
            if isinstance(size, int):
                summary.bytes_returned += size
        elif kind == "event" and name in _RETRY_EVENTS:
            summary = summary_for(record)
            summary.retries += 1
            delay = _attr(record, "delay")
            if isinstance(delay, (int, float)):
                summary.backoff_seconds += float(delay)
        elif kind == "event" and name in _CIRCUIT_EVENTS:
            summary_for(record).circuit_events += 1
    return summaries


def format_trace_report(records: Iterable[dict[str, object]]) -> str:
    """Render the per-database summary table plus run-level totals."""
    materialized = list(records)
    summaries = summarize_trace(materialized)
    span_count = sum(1 for r in materialized if r.get("type") == "span")
    event_count = sum(1 for r in materialized if r.get("type") == "event")
    header = f"Trace: {span_count} spans, {event_count} events"
    if not summaries:
        return f"{header}\n(no query activity recorded)"
    rows = []
    for name in sorted(summaries):
        summary = summaries[name]
        rows.append(
            {
                "database": summary.database,
                "queries": summary.queries,
                "errors": summary.errors,
                "retries": summary.retries,
                "circuit": summary.circuit_events,
                "docs": summary.documents,
                "bytes": summary.bytes_returned,
                "backoff_s": round(summary.backoff_seconds, 3),
                "lat_p50": round(summary.latency_quantile(0.50), 6),
                "lat_p95": round(summary.latency_quantile(0.95), 6),
                "lat_max": round(max(summary.latencies, default=0.0), 6),
            }
        )
    return "\n".join([header, format_table(rows, title="Per-database activity")])
