"""Benchmark-owned timing proxies for the program's injection points.

The traced run measures each layer from outside: these objects stand
where the program already accepts a substitute — a database handed to a
sampler or a service, a query-term selector, a result merger, the
frontend handed to the gateway — time the call, and pass it through
unchanged.  Untraced runs install none of them.
"""

from __future__ import annotations

import threading
import time

from measure import SpanLog


class Scope:
    """The span that new child spans hang under.

    ``current`` is per thread (a gateway executor thread sets it for the
    request it is running); ``shared`` is the fallback other threads see
    (fleet workers hang their queries under the sweep the main thread
    started).
    """

    def __init__(self) -> None:
        self.shared: int | None = None
        self._local = threading.local()

    @property
    def current(self) -> int | None:
        span = getattr(self._local, "span", None)
        return span if span is not None else self.shared

    @current.setter
    def current(self, span_id: int | None) -> None:
        self._local.span = span_id


class _TimedEngine:
    """Times ``engine.search`` — the ranked retrieval the fan-out calls."""

    def __init__(self, inner, database: str, log: SpanLog) -> None:
        self._inner = inner
        self._database = database
        self._log = log

    def search(self, query: str, n: int = 10):
        if not self._log.enabled:
            return self._inner.search(query, n=n)
        start = time.perf_counter()
        results = self._inner.search(query, n=n)
        # Runs on a fan-out pool thread, so the parent is joined later
        # by query text and interval containment.
        self._log.add(
            "backend_search", "index", start, time.perf_counter(),
            database=self._database, query=query, results=len(results),
        )
        return results

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TimedDatabase:
    """A database proxy timing ``run_query`` and ``engine.search``."""

    def __init__(self, inner, log: SpanLog, scope: Scope) -> None:
        self.inner = inner
        self.name = inner.name
        self.engine = _TimedEngine(inner.engine, inner.name, log)
        self._log = log
        self._scope = scope

    def run_query(self, query: str, max_docs: int = 10):
        if not self._log.enabled:
            return self.inner.run_query(query, max_docs=max_docs)
        start = time.perf_counter()
        documents = self.inner.run_query(query, max_docs=max_docs)
        self._log.add(
            "run_query", "index", start, time.perf_counter(),
            parent=self._scope.current, database=self.name, documents=len(documents),
        )
        return documents

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class TimedSelector:
    """A query-term selector proxy timing ``select``."""

    def __init__(self, inner, log: SpanLog, scope: Scope) -> None:
        self.inner = inner
        self.name = inner.name
        self._log = log
        self._scope = scope

    def select(self, learned, used, rng):
        if not self._log.enabled:
            return self.inner.select(learned, used, rng)
        start = time.perf_counter()
        term = self.inner.select(learned, used, rng)
        self._log.add(
            "term_choice", "sampling", start, time.perf_counter(),
            parent=self._scope.current,
        )
        return term


class TimedMerger:
    """A result-merger proxy timing ``merge``.

    The frontend merges on the thread that runs the request, so the
    parent is that thread's current request span.
    """

    def __init__(self, inner, log: SpanLog, scope: Scope) -> None:
        self.inner = inner
        self._log = log
        self._scope = scope

    def merge(self, ranking, results, n: int):
        if not self._log.enabled:
            return self.inner.merge(ranking, results, n=n)
        start = time.perf_counter()
        merged = self.inner.merge(ranking, results, n=n)
        self._log.add(
            "merge", "dbselect", start, time.perf_counter(), parent=self._scope.current
        )
        return merged


class TimedFrontend:
    """A delegating wrapper around the frontend handed to ``GatewayServer``."""

    def __init__(self, inner, log: SpanLog, scope: Scope) -> None:
        self.inner = inner
        self._log = log
        self._scope = scope

    def search_incremental(self, request, on_partial=None):
        if not self._log.enabled:
            return self.inner.search_incremental(request, on_partial)
        span_id = self._log.next_id()
        self._scope.current = span_id
        start = time.perf_counter()
        try:
            return self.inner.search_incremental(request, on_partial)
        finally:
            self._log.add(
                "frontend_search", "serving", start, time.perf_counter(),
                span_id=span_id, query=request.query,
            )
            self._scope.current = None

    def __getattr__(self, name: str):
        return getattr(self.inner, name)
