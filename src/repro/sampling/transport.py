"""Fault-tolerant transport for remote sampling.

The paper samples *uncooperative remote databases* over their ordinary
search interface (Section 3).  Real remote interfaces time out, throw
transient errors, rate-limit aggressive clients, and truncate result
lists — and a production selection service (the ROADMAP north-star)
must keep learning language models anyway.  This module supplies the
three pieces of that robustness layer:

* an **exception taxonomy** every ``run_query`` surface may raise:
  :class:`ServerTimeout`, :class:`TransientServerError`, and
  :class:`RateLimitedError` are retryable; :class:`PermanentServerError`
  is not; :class:`CircuitOpenError` is raised client-side without
  contacting the database at all.  All derive from :class:`ServerError`
  so callers can catch the whole family.
* :class:`UnreliableServer` — a deterministic, seeded fault-injection
  wrapper that makes any searchable database exhibit those failures at
  configurable rates, so every experiment on degraded transports is
  exactly reproducible.
* :class:`ResilientDatabase` — a client-side wrapper combining a
  :class:`RetryPolicy` (bounded attempts, exponential backoff with
  jitter on a :class:`~repro.obs.clock.SimulatedClock`, honouring rate-limit
  retry-after) with a :class:`CircuitBreaker` (open after K consecutive
  permanent failures, half-open probe after a cooldown) and full
  :class:`TransportMetrics`.

Backoff runs on a *simulated* clock by default: experiments measure the
cost of faults in simulated seconds without ever actually sleeping, and
a fixed seed reproduces the same retry schedule every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import SearchableDatabase
from repro.corpus.document import Document
from repro.obs.clock import Clock, SimulatedClock
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.utils.rand import derive_rng

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "FaultStats",
    "PermanentServerError",
    "RETRYABLE_ERRORS",
    "RateLimitedError",
    "ResilientDatabase",
    "RetryPolicy",
    "ServerError",
    "ServerTimeout",
    "TransientServerError",
    "TransportMetrics",
    "UnreliableServer",
]


# -- exception taxonomy --------------------------------------------------------


class ServerError(RuntimeError):
    """Base class for every failure a remote ``run_query`` may raise."""


class ServerTimeout(ServerError):
    """The query did not complete in time (retryable).

    Models the case where the server *did* run the query but the reply
    was lost: server-side cost meters tick even though the client sees
    nothing.
    """


class TransientServerError(ServerError):
    """A momentary server-side failure, e.g. HTTP 502/503 (retryable)."""


class RateLimitedError(ServerError):
    """The server asked the client to slow down (retryable after waiting)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        #: Seconds the server asks the client to wait before retrying.
        self.retry_after = float(retry_after)


class PermanentServerError(ServerError):
    """A failure no retry can fix (endpoint gone, access revoked)."""


class CircuitOpenError(ServerError):
    """Raised client-side when the circuit breaker refuses to even try."""


#: Exception classes a :class:`RetryPolicy` is allowed to retry.
RETRYABLE_ERRORS = (ServerTimeout, TransientServerError, RateLimitedError)


# -- deterministic fault injection ---------------------------------------------


@dataclass
class FaultStats:
    """What an :class:`UnreliableServer` actually injected."""

    calls: int = 0
    timeouts: int = 0
    transient_errors: int = 0
    rate_limited: int = 0
    permanent_errors: int = 0
    truncated: int = 0


class UnreliableServer:
    """Deterministic seeded fault injection around any searchable database.

    Each ``run_query`` call draws from a seeded stream and either
    delegates honestly or injects one failure mode.  For a fixed seed
    and call sequence the faults are exactly reproducible, which keeps
    whole degraded-transport experiments deterministic end to end.

    Parameters
    ----------
    inner:
        The database to wrap (anything with ``run_query``).
    timeout_rate, transient_rate, rate_limit_rate, permanent_rate:
        Per-call probabilities of each failure mode (their sum must not
        exceed 1).  Timeouts execute the query on the inner database
        first — the server worked, the reply was lost — so server-side
        cost meters stay honest; the other failures fire before the
        inner database sees the query.
    truncate_rate:
        Probability that a *successful* result list is cut short (many
        real services return fewer results than requested under load).
    retry_after:
        The wait, in seconds, a :class:`RateLimitedError` asks for.
    seed:
        Seed of the fault stream.
    """

    def __init__(
        self,
        inner: SearchableDatabase,
        *,
        timeout_rate: float = 0.0,
        transient_rate: float = 0.0,
        rate_limit_rate: float = 0.0,
        permanent_rate: float = 0.0,
        truncate_rate: float = 0.0,
        retry_after: float = 2.0,
        seed: int = 0,
    ) -> None:
        rates = (timeout_rate, transient_rate, rate_limit_rate, permanent_rate, truncate_rate)
        if any(rate < 0.0 or rate > 1.0 for rate in rates):
            raise ValueError("fault rates must be within [0, 1]")
        if timeout_rate + transient_rate + rate_limit_rate + permanent_rate > 1.0:
            raise ValueError("error rates must sum to at most 1")
        if retry_after < 0:
            raise ValueError("retry_after must be non-negative")
        self.inner = inner
        self.name = getattr(inner, "name", "database")
        self.timeout_rate = timeout_rate
        self.transient_rate = transient_rate
        self.rate_limit_rate = rate_limit_rate
        self.permanent_rate = permanent_rate
        self.truncate_rate = truncate_rate
        self.retry_after = retry_after
        self.stats = FaultStats()
        self._rng = derive_rng(seed, "faults", self.name)

    def run_query(self, query: str, max_docs: int = 10) -> list[Document]:
        """Delegate to the inner database, possibly injecting a fault."""
        self.stats.calls += 1
        draw = float(self._rng.random())
        threshold = self.timeout_rate
        if draw < threshold:
            self.stats.timeouts += 1
            # The server processed the query; only the reply is lost.
            self.inner.run_query(query, max_docs=max_docs)
            raise ServerTimeout(f"{self.name}: query {query!r} timed out")
        threshold += self.transient_rate
        if draw < threshold:
            self.stats.transient_errors += 1
            raise TransientServerError(f"{self.name}: transient failure for {query!r}")
        threshold += self.rate_limit_rate
        if draw < threshold:
            self.stats.rate_limited += 1
            raise RateLimitedError(
                f"{self.name}: rate limited on {query!r}", retry_after=self.retry_after
            )
        threshold += self.permanent_rate
        if draw < threshold:
            self.stats.permanent_errors += 1
            raise PermanentServerError(f"{self.name}: permanent failure for {query!r}")
        documents = self.inner.run_query(query, max_docs=max_docs)
        if self.truncate_rate and len(documents) > 1:
            if float(self._rng.random()) < self.truncate_rate:
                self.stats.truncated += 1
                keep = 1 + int(self._rng.integers(len(documents) - 1))
                documents = documents[:keep]
        return documents

    def hit_count(self, query: str) -> int:
        """Delegate hit counting unchanged (fault injection covers retrieval)."""
        return self.inner.hit_count(query)


# -- retry policy and circuit breaker ------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`ResilientDatabase` retries retryable failures.

    Parameters
    ----------
    max_attempts:
        Total attempts per query, the first included (1 disables
        retries entirely).
    base_delay:
        Backoff before the first retry, in (simulated) seconds.
    multiplier:
        Exponential growth factor between consecutive backoffs.
    max_delay:
        Cap on any single backoff.
    jitter:
        Fraction of each delay perturbed uniformly in ``±jitter`` to
        de-synchronise client fleets (0 disables jitter).
    """

    max_attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay_for(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff in seconds after failed attempt number ``attempt`` (1-based)."""
        if attempt <= 0:
            raise ValueError("attempt is 1-based")
        delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay


class CircuitBreaker:
    """Stops hammering a database that keeps failing permanently.

    Classic three-state breaker: **closed** (calls flow) → **open**
    after ``failure_threshold`` consecutive permanent failures (calls
    are rejected without contacting the database) → **half-open** once
    ``cooldown`` simulated seconds elapse (exactly one probe is let
    through; success closes the breaker, failure re-opens it).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 60.0,
        clock: Clock | None = None,
    ) -> None:
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.clock = clock or SimulatedClock()
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    @property
    def rejecting(self) -> bool:
        """True while calls would be rejected (open, cooldown not elapsed)."""
        return (
            self.state == self.OPEN
            and self.clock.now - self._opened_at < self.cooldown
        )

    def allow(self) -> bool:
        """Whether a call may proceed right now (may move open → half-open)."""
        if self.state == self.OPEN:
            if self.rejecting:
                return False
            self.state = self.HALF_OPEN
        return True

    def record_success(self) -> None:
        """Note a successful call: the breaker closes and failures reset."""
        self.state = self.CLOSED
        self._consecutive_failures = 0

    def record_failure(self) -> None:
        """Note a permanent failure; the breaker may open (or re-open)."""
        self._consecutive_failures += 1
        if (
            self.state == self.HALF_OPEN
            or self._consecutive_failures >= self.failure_threshold
        ):
            self.state = self.OPEN
            self._opened_at = self.clock.now


# -- the resilient client ------------------------------------------------------


@dataclass
class TransportMetrics:
    """Cumulative transport accounting for one resilient client."""

    queries: int = 0  #: run_query calls made by the sampling client
    attempts: int = 0  #: calls actually forwarded to the wrapped database
    retries: int = 0  #: attempts beyond the first, per query
    successes: int = 0
    queries_abandoned: int = 0  #: retry budget exhausted without an answer
    permanent_failures: int = 0
    circuit_rejections: int = 0  #: failed fast while the breaker was open
    total_backoff: float = 0.0  #: simulated seconds spent backing off


class ResilientDatabase:
    """Wraps any searchable database with retries and a circuit breaker.

    Satisfies the same ``run_query`` surface as the database it wraps,
    so a :class:`~repro.sampling.sampler.QueryBasedSampler` can use it
    unchanged.  Retryable failures (:data:`RETRYABLE_ERRORS`) are
    retried under ``policy`` with exponential backoff on the simulated
    clock, honouring any rate-limit ``retry_after``.  Permanent
    failures propagate immediately and feed the circuit breaker; once
    the breaker opens, calls raise :class:`CircuitOpenError` without
    touching the database until the cooldown elapses.

    Parameters
    ----------
    inner:
        The (possibly unreliable) database to wrap.
    policy:
        Retry/backoff configuration.
    breaker:
        Circuit breaker; defaults to a fresh one sharing this client's
        clock.  Pass your own to share a breaker across clients.
    clock:
        Simulated clock for backoff (a fresh one if omitted).
    seed:
        Seed of the jitter stream.
    recorder:
        Observability sink (:mod:`repro.obs`): one ``retry`` event per
        backoff and ``circuit_opened`` / ``circuit_closed`` /
        ``circuit_rejected`` events on breaker activity.  The default
        no-op recorder keeps the retry loop overhead-free.
    """

    def __init__(
        self,
        inner: SearchableDatabase,
        policy: RetryPolicy = RetryPolicy(),
        breaker: CircuitBreaker | None = None,
        clock: Clock | None = None,
        seed: int = 0,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.inner = inner
        self.name = getattr(inner, "name", "database")
        self.policy = policy
        # Backoff and breaker cooldown must tick on the same clock.
        self.clock = clock or (breaker.clock if breaker is not None else SimulatedClock())
        self.breaker = breaker or CircuitBreaker(clock=self.clock)
        self.metrics = TransportMetrics()
        self.recorder = recorder
        self._rng = derive_rng(seed, "transport", self.name)

    @property
    def unreachable(self) -> bool:
        """True while the breaker refuses to contact the database at all."""
        return self.breaker.rejecting

    def run_query(self, query: str, max_docs: int = 10) -> list[Document]:
        """Run ``query`` with retries; raise the final error if all fail."""
        self.metrics.queries += 1
        if not self.breaker.allow():
            self.metrics.circuit_rejections += 1
            self.recorder.event("circuit_rejected", database=self.name)
            raise CircuitOpenError(f"{self.name}: circuit breaker open")
        last_error: ServerError | None = None
        for attempt in range(1, self.policy.max_attempts + 1):
            self.metrics.attempts += 1
            try:
                documents = self.inner.run_query(query, max_docs=max_docs)
            except PermanentServerError:
                self.metrics.permanent_failures += 1
                was_rejecting = self.breaker.rejecting
                self.breaker.record_failure()
                if self.breaker.rejecting and not was_rejecting:
                    self.recorder.event("circuit_opened", database=self.name)
                raise
            except RETRYABLE_ERRORS as error:
                last_error = error
                if attempt == self.policy.max_attempts:
                    break
                delay = self.policy.delay_for(attempt, self._rng)
                if isinstance(error, RateLimitedError):
                    delay = max(delay, error.retry_after)
                self.metrics.retries += 1
                self.metrics.total_backoff += delay
                self.recorder.event(
                    "retry",
                    database=self.name,
                    attempt=attempt,
                    delay=delay,
                    error=type(error).__name__,
                )
                self.clock.sleep(delay)
            else:
                if self.breaker.state == CircuitBreaker.HALF_OPEN:
                    self.recorder.event("circuit_closed", database=self.name)
                self.breaker.record_success()
                self.metrics.successes += 1
                return documents
        self.metrics.queries_abandoned += 1
        assert last_error is not None
        raise last_error

    def hit_count(self, query: str) -> int:
        """Delegate hit counting to the wrapped database (no retry layer)."""
        return self.inner.hit_count(query)
