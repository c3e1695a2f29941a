"""Structured observability for the sampling/federation stack.

Three small layers, all optional and all off by default, over one
time source (:mod:`repro.obs.clock`):

* :mod:`repro.obs.trace` — spans and events.  Every instrumented
  layer (sampler, transport, acquisition, pool, federation) accepts a
  :class:`Recorder`; the default :data:`NULL_RECORDER` is a shared
  no-op so un-traced runs pay nothing, while a :class:`TraceRecorder`
  captures one span per sampling run / query / acquisition plus
  retry and circuit-breaker events, and writes JSON-lines traces.
* :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Timer` /
  :class:`MetricSet` primitives generalizing the per-server
  :class:`~repro.index.server.QueryCosts`; a trace recorder feeds its
  metric set automatically from finished spans and events.
* :mod:`repro.obs.report` — the ``repro trace`` report: reads a JSONL
  trace and renders per-database query volume, failures, retries,
  circuit-breaker activity, bytes moved, and latency quantiles.
"""

from repro.obs.clock import SYSTEM_CLOCK, Clock, SimulatedClock, SystemClock
from repro.obs.metrics import Counter, MetricSet, Timer
from repro.obs.report import (
    DatabaseTraceSummary,
    format_trace_report,
    read_trace,
    summarize_trace,
)
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    Span,
    TraceRecorder,
)

__all__ = [
    "NULL_RECORDER",
    "SYSTEM_CLOCK",
    "Clock",
    "Counter",
    "DatabaseTraceSummary",
    "MetricSet",
    "NullRecorder",
    "Recorder",
    "SimulatedClock",
    "Span",
    "SystemClock",
    "Timer",
    "TraceRecorder",
    "format_trace_report",
    "read_trace",
    "summarize_trace",
]
