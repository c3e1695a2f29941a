"""Unit tests for the repro.obs observability layer."""

from __future__ import annotations

import io

import pytest

from repro.obs import (
    NULL_RECORDER,
    SYSTEM_CLOCK,
    Clock,
    Counter,
    MetricSet,
    NullRecorder,
    SimulatedClock,
    Timer,
    TraceRecorder,
    format_trace_report,
    read_trace,
    summarize_trace,
)
from repro.obs.trace import TRACE_SCHEMA
from repro.sampling.sampler import QueryBasedSampler, SamplerConfig
from repro.sampling.selection import ListBootstrap
from repro.sampling.stopping import MaxDocuments
from repro.sampling.transport import (
    PermanentServerError,
    ResilientDatabase,
    RetryPolicy,
    TransientServerError,
    UnreliableServer,
)


class TestMetrics:
    def test_counter_grows(self):
        counter = Counter("queries")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("queries").add(-1)

    def test_timer_aggregates(self):
        timer = Timer("query")
        for seconds in (0.2, 0.1, 0.6):
            timer.observe(seconds)
        assert timer.count == 3
        assert timer.total == pytest.approx(0.9)
        assert timer.min == pytest.approx(0.1)
        assert timer.max == pytest.approx(0.6)
        assert timer.mean == pytest.approx(0.3)

    def test_timer_empty_mean_is_zero(self):
        assert Timer("query").mean == 0.0

    def test_timer_rejects_negative(self):
        with pytest.raises(ValueError):
            Timer("query").observe(-0.1)

    def test_metric_set_lazy_registry(self):
        metrics = MetricSet()
        metrics.count("queries", 3)
        metrics.timer("query").observe(0.5)
        assert metrics.counter("queries").value == 3
        assert [c.name for c in metrics.counters()] == ["queries"]
        assert [t.name for t in metrics.timers()] == ["query"]

    def test_snapshot_shape(self):
        metrics = MetricSet()
        metrics.count("queries")
        metrics.timer("query").observe(1.0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"queries": 1}
        assert snapshot["timers"]["query"]["count"] == 1


class TestClocks:
    def test_wall_clock_advances(self):
        first = SYSTEM_CLOCK.now
        assert SYSTEM_CLOCK.now >= first > 1e9  # epoch seconds, never backwards

    def test_simulated_clock_satisfies_protocol(self):
        assert isinstance(SimulatedClock(), Clock)
        assert isinstance(SYSTEM_CLOCK, Clock)


class TestNullRecorder:
    def test_disabled_and_shared(self):
        assert NULL_RECORDER.enabled is False
        assert isinstance(NULL_RECORDER, NullRecorder)
        # One shared context object — no per-call allocation.
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")

    def test_span_absorbs_attributes(self):
        with NULL_RECORDER.span("query", database="x") as span:
            span.set(documents_returned=4)

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            with NULL_RECORDER.span("query"):
                raise RuntimeError("boom")

    def test_event_and_count_are_noops(self):
        NULL_RECORDER.event("retry", attempt=1)
        NULL_RECORDER.count("queries")

    def test_observe_is_a_noop(self):
        NULL_RECORDER.observe("backend_search", 0.25)


class TestTraceRecorder:
    def test_span_records_timing_on_simulated_clock(self):
        clock = SimulatedClock()
        recorder = TraceRecorder(clock=clock)
        with recorder.span("query", database="db") as span:
            clock.sleep(2.0)
            span.set(documents_returned=3)
        assert len(recorder.spans) == 1
        recorded = recorder.spans[0]
        assert recorded.duration == pytest.approx(2.0)
        assert recorded.status == "ok"
        assert recorded.attributes["documents_returned"] == 3
        assert recorder.metrics.timer("query").count == 1

    def test_spans_nest_via_parent_id(self):
        recorder = TraceRecorder(clock=SimulatedClock())
        with recorder.span("sample_run"):
            with recorder.span("query"):
                pass
        outer = next(s for s in recorder.spans if s.name == "sample_run")
        inner = next(s for s in recorder.spans if s.name == "query")
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_exception_marks_span_error(self):
        recorder = TraceRecorder(clock=SimulatedClock())
        with pytest.raises(RuntimeError):
            with recorder.span("query"):
                raise RuntimeError("boom")
        span = recorder.spans[0]
        assert span.status == "error"
        assert span.attributes["error"] == "RuntimeError"
        assert recorder.metrics.counter("query.errors").value == 1

    def test_events_count_and_nest(self):
        recorder = TraceRecorder(clock=SimulatedClock())
        with recorder.span("sample_run"):
            recorder.event("retry", attempt=1, delay=0.5)
        assert recorder.metrics.counter("retry").value == 1
        event = recorder.events[0]
        assert event["name"] == "retry"
        assert event["parent_id"] == recorder.spans[0].span_id

    def test_observe_feeds_named_timer(self):
        recorder = TraceRecorder(clock=SimulatedClock())
        recorder.observe("backend_search", 0.25)
        recorder.observe("backend_search", 0.35)
        timer = recorder.metrics.timer("backend_search")
        assert timer.count == 2
        assert timer.total == pytest.approx(0.6)

    def test_records_interleave_in_seq_order(self):
        recorder = TraceRecorder(clock=SimulatedClock())
        recorder.event("first")
        with recorder.span("query"):
            pass
        recorder.event("last")
        names = [record["name"] for record in recorder.records()]
        assert names == ["first", "query", "last"]

    def test_write_jsonl_round_trips(self, tmp_path):
        clock = SimulatedClock()
        recorder = TraceRecorder(clock=clock)
        with recorder.span("query", database="db"):
            clock.sleep(1.0)
        recorder.event("retry", database="db", delay=0.5)
        path = str(tmp_path / "trace.jsonl")
        lines = recorder.write_jsonl(path)
        records = read_trace(path)
        assert lines == len(records) == 3
        meta = records[0]
        assert meta["type"] == "meta"
        assert meta["schema"] == TRACE_SCHEMA
        assert meta["clock"] == "SimulatedClock"
        assert {r["type"] for r in records[1:]} == {"span", "event"}

    def test_write_jsonl_accepts_handle(self):
        recorder = TraceRecorder(clock=SimulatedClock())
        with recorder.span("query"):
            pass
        handle = io.StringIO()
        assert recorder.write_jsonl(handle) == 2

    def test_read_trace_reports_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_trace(str(path))


class TestSamplerTracing:
    """The acceptance criterion: one span per executed query."""

    def _run(self, server, recorder, max_docs=6):
        sampler = QueryBasedSampler(
            server,
            bootstrap=ListBootstrap(["apple", "honey", "bees", "sugar", "orchard"]),
            stopping=MaxDocuments(max_docs),
            config=SamplerConfig(docs_per_query=2),
            seed=0,
            recorder=recorder,
        )
        return sampler.run()

    def test_one_span_per_executed_query(self, tiny_server):
        recorder = TraceRecorder(clock=SimulatedClock())
        run = self._run(tiny_server, recorder)
        query_spans = [s for s in recorder.spans if s.name == "query"]
        assert run.queries_run > 0
        assert len(query_spans) == run.queries_run

    def test_run_span_wraps_query_spans(self, tiny_server):
        recorder = TraceRecorder(clock=SimulatedClock())
        run = self._run(tiny_server, recorder)
        run_spans = [s for s in recorder.spans if s.name == "sample_run"]
        assert len(run_spans) == 1
        run_span = run_spans[0]
        assert run_span.attributes["queries_run"] == run.queries_run
        assert run_span.attributes["documents_examined"] == run.documents_examined
        assert run_span.attributes["stop_reason"] == run.stop_reason
        for span in recorder.spans:
            if span.name == "query":
                assert span.parent_id == run_span.span_id

    def test_query_spans_carry_result_sizes(self, tiny_server):
        recorder = TraceRecorder(clock=SimulatedClock())
        run = self._run(tiny_server, recorder)
        returned = sum(
            s.attributes.get("documents_returned", 0)
            for s in recorder.spans
            if s.name == "query"
        )
        assert returned >= run.documents_examined

    def test_default_recorder_keeps_run_identical(self, tiny_server):
        traced = self._run(tiny_server, TraceRecorder(clock=SimulatedClock()))
        silent = self._run(tiny_server, NULL_RECORDER)
        assert traced.model.vocabulary == silent.model.vocabulary
        assert traced.model.total_ctf == silent.model.total_ctf
        assert traced.queries_run == silent.queries_run


class TestTransportTracing:
    def test_retry_events_recorded(self, tiny_server):
        clock = SimulatedClock()
        recorder = TraceRecorder(clock=clock)
        database = ResilientDatabase(
            UnreliableServer(tiny_server, transient_rate=1.0),
            policy=RetryPolicy(max_attempts=3, jitter=0.0),
            clock=clock,
            recorder=recorder,
        )
        with pytest.raises(TransientServerError):
            database.run_query("apple", max_docs=2)
        retries = [e for e in recorder.events if e["name"] == "retry"]
        assert len(retries) == 2  # 3 attempts -> 2 backoffs
        assert all(e["attributes"]["delay"] > 0 for e in retries)
        assert all(
            e["attributes"]["error"] == "TransientServerError" for e in retries
        )

    def test_circuit_open_and_reject_events(self, tiny_server):
        clock = SimulatedClock()
        recorder = TraceRecorder(clock=clock)
        database = ResilientDatabase(
            UnreliableServer(tiny_server, permanent_rate=1.0),
            policy=RetryPolicy(max_attempts=1),
            clock=clock,
            recorder=recorder,
        )
        for _ in range(3):  # default failure_threshold
            with pytest.raises(PermanentServerError):
                database.run_query("apple", max_docs=2)
        assert [e["name"] for e in recorder.events].count("circuit_opened") == 1
        with pytest.raises(Exception):
            database.run_query("apple", max_docs=2)
        assert [e["name"] for e in recorder.events].count("circuit_rejected") == 1


class TestTraceReport:
    def _traced_records(self, tiny_server):
        clock = SimulatedClock()
        recorder = TraceRecorder(clock=clock)
        database = ResilientDatabase(
            UnreliableServer(tiny_server, transient_rate=0.4, seed=5),
            policy=RetryPolicy(max_attempts=4, jitter=0.0),
            clock=clock,
            recorder=recorder,
        )
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["apple", "honey", "bees", "sugar", "orchard"]),
            stopping=MaxDocuments(6),
            config=SamplerConfig(docs_per_query=2),
            seed=0,
            recorder=recorder,
        )
        run = sampler.run()
        return run, recorder.records()

    def test_summarize_groups_by_database(self, tiny_server):
        run, records = self._traced_records(tiny_server)
        summaries = summarize_trace(records)
        assert set(summaries) == {"tiny"}
        summary = summaries["tiny"]
        assert summary.queries == run.queries_run
        assert summary.documents >= run.documents_examined
        assert summary.bytes_returned > 0
        retry_events = [
            r for r in records if r.get("type") == "event" and r.get("name") == "retry"
        ]
        assert summary.retries == len(retry_events)
        if retry_events:
            assert summary.backoff_seconds > 0

    def test_latency_quantiles(self, tiny_server):
        _, records = self._traced_records(tiny_server)
        summary = summarize_trace(records)["tiny"]
        assert len(summary.latencies) == summary.queries
        assert 0.0 <= summary.latency_quantile(0.5) <= summary.latency_quantile(0.95)
        assert summary.latency_quantile(1.0) == max(summary.latencies)

    def test_format_trace_report_renders_table(self, tiny_server):
        _, records = self._traced_records(tiny_server)
        report = format_trace_report(records)
        assert report.startswith("Trace: ")
        assert "tiny" in report
        assert "lat_p95" in report

    def test_format_trace_report_empty(self):
        assert "no query activity" in format_trace_report([])
