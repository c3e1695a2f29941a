"""Tests for repro.sampling.transport — the fault-tolerant client layer."""

from __future__ import annotations

import pytest

from repro.corpus import Document
from repro.sampling import (
    CircuitBreaker,
    CircuitOpenError,
    ListBootstrap,
    MaxDocuments,
    MaxQueries,
    PermanentServerError,
    QueryBasedSampler,
    RandomFromOther,
    RateLimitedError,
    ResilientDatabase,
    RetryPolicy,
    ServerError,
    ServerTimeout,
    TransientServerError,
    UnreliableServer,
)
from repro.obs import SimulatedClock
from repro.utils.rand import ensure_rng


class ScriptedDatabase:
    """Raises the scripted exceptions in order, then answers honestly."""

    name = "scripted"

    def __init__(self, script: list, documents: list[Document] | None = None) -> None:
        self.script = list(script)
        self.documents = documents if documents is not None else [
            Document(doc_id="d1", text="alpha beta gamma")
        ]
        self.calls = 0

    def run_query(self, query: str, max_docs: int = 10) -> list[Document]:
        self.calls += 1
        if self.script:
            step = self.script.pop(0)
            if isinstance(step, Exception):
                raise step
        return self.documents[:max_docs]


class TestExceptionTaxonomy:
    def test_all_derive_from_server_error(self):
        for exc in (
            ServerTimeout("x"),
            TransientServerError("x"),
            RateLimitedError("x"),
            PermanentServerError("x"),
            CircuitOpenError("x"),
        ):
            assert isinstance(exc, ServerError)

    def test_rate_limited_carries_retry_after(self):
        assert RateLimitedError("slow down", retry_after=7.5).retry_after == 7.5


class TestSimulatedClock:
    def test_sleep_advances(self):
        clock = SimulatedClock()
        clock.sleep(2.5)
        clock.sleep(1.5)
        assert clock.now == 4.0

    def test_negative_sleep_ignored(self):
        clock = SimulatedClock()
        clock.sleep(-1.0)
        assert clock.now == 0.0


class TestUnreliableServer:
    def test_zero_rates_passthrough(self, tiny_server):
        wrapped = UnreliableServer(tiny_server, seed=0)
        docs = wrapped.run_query("apple", max_docs=3)
        assert docs == tiny_server.run_query("apple", max_docs=3)
        assert wrapped.stats.calls == 1
        assert wrapped.stats.transient_errors == 0

    def test_deterministic_fault_sequence(self, tiny_server):
        def fault_pattern(seed: int) -> list[bool]:
            wrapped = UnreliableServer(tiny_server, transient_rate=0.5, seed=seed)
            pattern = []
            for _ in range(30):
                try:
                    wrapped.run_query("apple", max_docs=2)
                    pattern.append(False)
                except TransientServerError:
                    pattern.append(True)
            return pattern

        assert fault_pattern(3) == fault_pattern(3)
        assert any(fault_pattern(3)) and not all(fault_pattern(3))

    def test_each_fault_mode_raises_its_class(self, tiny_server):
        cases = {
            "timeout_rate": ServerTimeout,
            "transient_rate": TransientServerError,
            "rate_limit_rate": RateLimitedError,
            "permanent_rate": PermanentServerError,
        }
        for knob, expected in cases.items():
            wrapped = UnreliableServer(tiny_server, **{knob: 1.0}, seed=1)
            with pytest.raises(expected):
                wrapped.run_query("apple", max_docs=2)

    def test_timeout_still_costs_the_server(self, tiny_corpus):
        from repro.index import DatabaseServer

        server = DatabaseServer(tiny_corpus)
        wrapped = UnreliableServer(server, timeout_rate=1.0, seed=1)
        with pytest.raises(ServerTimeout):
            wrapped.run_query("apple", max_docs=2)
        # The server processed the query; only the reply was lost.
        assert server.costs.queries_run == 1

    def test_truncation_shortens_results(self, tiny_server):
        wrapped = UnreliableServer(tiny_server, truncate_rate=1.0, seed=2)
        full = tiny_server.run_query("apple", max_docs=4)
        assert len(full) > 1
        truncated = wrapped.run_query("apple", max_docs=4)
        assert 1 <= len(truncated) < len(full)
        assert truncated == full[: len(truncated)]
        assert wrapped.stats.truncated == 1

    def test_rate_validation(self, tiny_server):
        with pytest.raises(ValueError):
            UnreliableServer(tiny_server, transient_rate=1.5)
        with pytest.raises(ValueError):
            UnreliableServer(tiny_server, transient_rate=0.6, timeout_rate=0.6)
        with pytest.raises(ValueError):
            UnreliableServer(tiny_server, retry_after=-1)

    def test_hit_count_delegates(self, tiny_server):
        wrapped = UnreliableServer(tiny_server, transient_rate=1.0, seed=0)
        assert wrapped.hit_count("apple") == tiny_server.hit_count("apple")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0, jitter=0.0)
        rng = ensure_rng(0)
        delays = [policy.delay_for(attempt, rng) for attempt in (1, 2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_stays_bounded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.2)
        rng = ensure_rng(7)
        for _ in range(100):
            assert 0.8 <= policy.delay_for(1, rng) <= 1.2

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0, ensure_rng(0))


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_after_cooldown(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.sleep(10.0)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.sleep(5.0)
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1)


class TestResilientDatabase:
    def test_retries_until_success(self):
        inner = ScriptedDatabase([TransientServerError("a"), ServerTimeout("b")])
        database = ResilientDatabase(inner, policy=RetryPolicy(max_attempts=4))
        docs = database.run_query("anything")
        assert len(docs) == 1
        assert inner.calls == 3
        metrics = database.metrics
        assert metrics.queries == 1
        assert metrics.attempts == 3
        assert metrics.retries == 2
        assert metrics.successes == 1
        assert metrics.total_backoff > 0
        assert database.clock.now == metrics.total_backoff

    def test_abandons_after_max_attempts(self):
        inner = ScriptedDatabase([TransientServerError(str(i)) for i in range(10)])
        database = ResilientDatabase(inner, policy=RetryPolicy(max_attempts=3))
        with pytest.raises(TransientServerError):
            database.run_query("anything")
        assert inner.calls == 3
        assert database.metrics.queries_abandoned == 1

    def test_retries_disabled_with_single_attempt(self):
        inner = ScriptedDatabase([ServerTimeout("x")])
        database = ResilientDatabase(inner, policy=RetryPolicy(max_attempts=1))
        with pytest.raises(ServerTimeout):
            database.run_query("anything")
        assert inner.calls == 1
        assert database.metrics.retries == 0

    def test_rate_limit_retry_after_honoured(self):
        inner = ScriptedDatabase([RateLimitedError("wait", retry_after=45.0)])
        database = ResilientDatabase(
            inner, policy=RetryPolicy(max_attempts=2, base_delay=0.1, jitter=0.0)
        )
        database.run_query("anything")
        assert database.clock.now >= 45.0

    def test_permanent_error_not_retried(self):
        inner = ScriptedDatabase([PermanentServerError("gone")])
        database = ResilientDatabase(inner, policy=RetryPolicy(max_attempts=5))
        with pytest.raises(PermanentServerError):
            database.run_query("anything")
        assert inner.calls == 1
        assert database.metrics.permanent_failures == 1

    def test_breaker_opens_and_fails_fast(self):
        inner = ScriptedDatabase([PermanentServerError(str(i)) for i in range(10)])
        database = ResilientDatabase(
            inner, breaker=CircuitBreaker(failure_threshold=2, cooldown=60.0)
        )
        for _ in range(2):
            with pytest.raises(PermanentServerError):
                database.run_query("anything")
        assert database.unreachable
        with pytest.raises(CircuitOpenError):
            database.run_query("anything")
        assert inner.calls == 2  # the rejected call never reached the database
        assert database.metrics.circuit_rejections == 1

    def test_half_open_probe_recovers(self):
        clock = SimulatedClock()
        inner = ScriptedDatabase([PermanentServerError("1"), PermanentServerError("2")])
        database = ResilientDatabase(
            inner,
            breaker=CircuitBreaker(failure_threshold=2, cooldown=30.0, clock=clock),
            clock=clock,
        )
        for _ in range(2):
            with pytest.raises(PermanentServerError):
                database.run_query("anything")
        assert database.unreachable
        clock.sleep(30.0)
        assert not database.unreachable
        docs = database.run_query("anything")  # half-open probe succeeds
        assert docs and database.breaker.state == CircuitBreaker.CLOSED

    def test_deterministic_for_fixed_seed(self, tiny_server):
        def one_pass(seed: int):
            wrapped = UnreliableServer(tiny_server, transient_rate=0.4, seed=seed)
            database = ResilientDatabase(wrapped, seed=seed)
            for term in ("apple", "honey", "orchard", "bees", "sugar"):
                try:
                    database.run_query(term, max_docs=3)
                except ServerError:
                    pass
            m = database.metrics
            return (m.attempts, m.retries, m.queries_abandoned, m.total_backoff)

        assert one_pass(5) == one_pass(5)


class TestSamplerUnderFaults:
    def test_abandoned_query_recorded_not_raised(self):
        inner = ScriptedDatabase(
            [TransientServerError("boom")],
            documents=[Document(doc_id="d1", text="alpha beta gamma")],
        )
        database = ResilientDatabase(inner, policy=RetryPolicy(max_attempts=1))
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["alpha", "beta"]),
            stopping=MaxQueries(2),
        )
        run = sampler.run()  # must not raise
        assert run.queries_run == 2
        first = run.queries[0]
        assert first.failed and first.abandoned
        assert first.error == "TransientServerError"
        assert run.abandoned_queries == 1
        assert run.failed_queries >= 1

    def test_unreachable_database_stops_run(self):
        inner = ScriptedDatabase([PermanentServerError(str(i)) for i in range(10)])
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1e9)
        database = ResilientDatabase(inner, breaker=breaker)
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["alpha", "beta", "gamma", "delta"]),
            stopping=MaxDocuments(100),
        )
        run = sampler.run()
        assert run.stop_reason == "database_unreachable"
        # Two permanent failures opened the breaker; the run stopped
        # instead of burning its whole term budget on a dead endpoint.
        assert run.queries_run == 2
        second = sampler.run(MaxDocuments(100))
        assert second.stop_reason == "database_unreachable"

    def test_sampling_through_faults_matches_fault_free(self, small_synthetic_server):
        bootstrap = RandomFromOther(small_synthetic_server.actual_language_model())
        clean = QueryBasedSampler(
            small_synthetic_server, bootstrap=bootstrap, stopping=MaxDocuments(80), seed=4
        ).run()

        wrapped = UnreliableServer(small_synthetic_server, transient_rate=0.3, seed=9)
        database = ResilientDatabase(wrapped, policy=RetryPolicy(max_attempts=8), seed=9)
        faulty = QueryBasedSampler(
            database, bootstrap=bootstrap, stopping=MaxDocuments(80), seed=4
        ).run()

        # Retries absorb every fault, so the sampled stream — and hence
        # the learned model — is identical; only transport cost grows.
        assert faulty.documents_examined == 80
        assert faulty.model.vocabulary == clean.model.vocabulary
        assert faulty.query_terms == clean.query_terms
        assert database.metrics.retries > 0
        assert database.metrics.attempts > database.metrics.queries


class TestAcquisitionDegradation:
    def test_partial_model_with_warning(self):
        from repro.starts import SamplingSource, acquire_language_model

        docs = [Document(doc_id=f"d{i}", text=f"alpha beta unique{i}") for i in range(6)]
        inner = ScriptedDatabase(
            [None, PermanentServerError("1"), PermanentServerError("2")], documents=docs
        )
        database = ResilientDatabase(
            inner, breaker=CircuitBreaker(failure_threshold=2, cooldown=1e9)
        )
        source = SamplingSource(
            bootstrap=ListBootstrap(["alpha", "beta", "gamma", "delta", "epsilon"]),
            stopping=MaxDocuments(50),
        )
        result = acquire_language_model(database, source)
        assert result.method == "sampling_partial"
        assert result.warning and "unreachable" in result.warning
        assert result.documents_examined > 0  # the partial model survived

    def test_clean_sampling_has_no_warning(self, tiny_server):
        from repro.starts import SamplingSource, acquire_language_model

        source = SamplingSource(
            bootstrap=ListBootstrap(["apple", "honey"]), stopping=MaxDocuments(3)
        )
        result = acquire_language_model(tiny_server, source)
        assert result.method == "sampling"
        assert result.warning is None
