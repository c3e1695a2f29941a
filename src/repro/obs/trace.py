"""Spans, events, and the trace recorder.

One structured-observability surface for every layer that touches a
database: the sampler opens a span per sampling run and per query, the
resilient transport emits retry / circuit-breaker events, acquisition
and federation wrap their phases — all through a tiny recorder
interface with **two** implementations:

* :class:`NullRecorder` (the default everywhere, shared as
  :data:`NULL_RECORDER`) — every call is a constant-time no-op, so the
  hot sampling paths pay nothing measurable for being observable;
* :class:`TraceRecorder` — records spans and events in memory, feeds a
  :class:`~repro.obs.metrics.MetricSet`, and emits JSON-lines traces
  (``repro trace`` renders them; see :mod:`repro.obs.report`).

Every recorder carries the clock (:mod:`repro.obs.clock`) that the
layers holding it read time from.  A :class:`TraceRecorder` stamps
spans in seconds since its first reading; build it on a
:class:`~repro.obs.clock.SimulatedClock` to put retries, backoff, and
spans on one deterministic simulated timeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO

from repro.obs.clock import SYSTEM_CLOCK, Clock
from repro.obs.metrics import MetricSet

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "Span",
    "TraceRecorder",
]

#: Trace-file schema identifier, bumped on breaking changes.
TRACE_SCHEMA = "repro-trace/1"


@dataclass
class Span:
    """One timed operation (a sampling run, a query, an acquisition).

    ``attributes`` carries structured context (database, query term,
    documents returned, ...); :meth:`set` adds to it as the operation
    progresses.  ``status`` is ``"ok"`` unless the span body raised or
    a layer explicitly marked a failure via ``set(error=...)``.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    status: str = "ok"
    attributes: dict[str, object] = field(default_factory=dict)

    def set(self, **attributes: object) -> None:
        """Attach attributes; an ``error=`` attribute marks the span failed."""
        self.attributes.update(attributes)
        if attributes.get("error"):
            self.status = "error"

    @property
    def duration(self) -> float:
        """Span length in clock seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start


class _NullSpan:
    """The span yielded by :class:`NullRecorder`: absorbs everything."""

    __slots__ = ()

    def set(self, **attributes: object) -> None:
        """Discard attributes (no-op)."""


class _NullSpanContext:
    """A reusable no-op context manager (one shared instance)."""

    __slots__ = ()
    _SPAN = _NullSpan()

    def __enter__(self) -> _NullSpan:
        return self._SPAN

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False


class _SpanContext:
    """Context manager that closes a real span on exit."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "TraceRecorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if exc_type is not None:
            self._span.status = "error"
            self._span.attributes.setdefault(
                "error", getattr(exc_type, "__name__", str(exc_type))
            )
        self._recorder._finish(self._span)
        return False


class Recorder:
    """The observability surface every instrumented layer accepts.

    Both implementations share this interface; consumers hold a
    ``Recorder`` and never need to know whether tracing is on.  The
    ``enabled`` flag lets hot paths skip *computing* expensive
    attributes (byte sums, say) when nobody is listening — calling the
    recorder itself is always safe.
    """

    #: Whether spans/events are actually kept.
    enabled: bool = False
    #: The time source of every layer holding this recorder.
    clock: Clock = SYSTEM_CLOCK

    def span(self, name: str, **attributes: object):
        """Open a span; use as ``with recorder.span("query", ...) as s:``."""
        raise NotImplementedError

    def event(self, name: str, **attributes: object) -> None:
        """Record an instantaneous event (a retry, a breaker transition)."""
        raise NotImplementedError

    def count(self, name: str, amount: float = 1) -> None:
        """Increment a named counter."""
        raise NotImplementedError

    def observe(self, name: str, seconds: float) -> None:
        """Feed one externally measured duration into the named timer.

        The span API assumes single-threaded nesting; layers that time
        work on other threads (the serving fan-out) measure locally and
        report the duration here instead.
        """
        raise NotImplementedError


class NullRecorder(Recorder):
    """Default recorder: constant-time no-ops, nothing retained."""

    enabled = False
    _CONTEXT = _NullSpanContext()

    def span(self, name: str, **attributes: object) -> _NullSpanContext:
        """Return the shared no-op span context."""
        return self._CONTEXT

    def event(self, name: str, **attributes: object) -> None:
        """Discard the event."""

    def count(self, name: str, amount: float = 1) -> None:
        """Discard the increment."""

    def observe(self, name: str, seconds: float) -> None:
        """Discard the observation."""


#: The process-wide default recorder; hot paths share this instance.
NULL_RECORDER = NullRecorder()


class TraceRecorder(Recorder):
    """Records spans, events, counters; emits JSON-lines traces.

    Parameters
    ----------
    clock:
        Time source, read as seconds since its first reading here.
        Defaults to :data:`~repro.obs.clock.SYSTEM_CLOCK`; pass the
        experiment's :class:`~repro.obs.clock.SimulatedClock` to record
        deterministic simulated-time traces.
    """

    enabled = True

    def __init__(self, clock: Clock = SYSTEM_CLOCK) -> None:
        self.clock = clock
        self._origin = clock.now
        self.metrics = MetricSet()
        self.spans: list[Span] = []
        self.events: list[dict[str, object]] = []
        self._seq = 0
        self._stack: list[Span] = []

    def _next_id(self) -> int:
        self._seq += 1
        return self._seq

    def span(self, name: str, **attributes: object) -> _SpanContext:
        """Open a span nested under the innermost still-open span."""
        span = Span(
            name=name,
            span_id=self._next_id(),
            parent_id=self._stack[-1].span_id if self._stack else None,
            start=self.clock.now - self._origin,
            attributes=dict(attributes),
        )
        self._stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end = self.clock.now - self._origin
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self.spans.append(span)
        self.metrics.timer(span.name).observe(span.duration)
        if span.status == "error":
            self.metrics.count(f"{span.name}.errors")

    def event(self, name: str, **attributes: object) -> None:
        """Record an instantaneous event and bump its counter."""
        self.events.append(
            {
                "seq": self._next_id(),
                "type": "event",
                "name": name,
                "time": self.clock.now - self._origin,
                "parent_id": self._stack[-1].span_id if self._stack else None,
                "attributes": attributes,
            }
        )
        self.metrics.count(name)

    def count(self, name: str, amount: float = 1) -> None:
        """Increment the named counter on the recorder's metric set."""
        self.metrics.count(name, amount)

    def observe(self, name: str, seconds: float) -> None:
        """Fold an externally measured duration into the named timer."""
        self.metrics.timer(name).observe(seconds)

    # -- emission ----------------------------------------------------------

    def records(self) -> list[dict[str, object]]:
        """All finished spans and events as plain dicts, in seq order."""
        rows: list[dict[str, object]] = [
            {
                "seq": span.span_id,
                "type": "span",
                "name": span.name,
                "parent_id": span.parent_id,
                "start": span.start,
                "end": span.end,
                "duration": span.duration,
                "status": span.status,
                "attributes": dict(span.attributes),
            }
            for span in self.spans
        ]
        rows.extend(self.events)
        rows.sort(key=lambda row: row["seq"])  # type: ignore[arg-type, return-value]
        return rows

    def write_jsonl(self, path_or_handle: str | IO[str]) -> int:
        """Emit the trace as JSON lines; returns the line count.

        The first line is a ``{"type": "meta", ...}`` header carrying
        the schema id and a metrics snapshot; every following line is
        one span or event record.
        """
        meta = {
            "type": "meta",
            "schema": TRACE_SCHEMA,
            "clock": type(self.clock).__name__,
            "metrics": self.metrics.snapshot(),
        }
        rows = self.records()
        if isinstance(path_or_handle, str):
            with open(path_or_handle, "w", encoding="utf-8") as handle:
                return self._write(handle, meta, rows)
        return self._write(path_or_handle, meta, rows)

    @staticmethod
    def _write(
        handle: IO[str], meta: dict[str, object], rows: list[dict[str, object]]
    ) -> int:
        handle.write(json.dumps(meta, sort_keys=True) + "\n")
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        return 1 + len(rows)
