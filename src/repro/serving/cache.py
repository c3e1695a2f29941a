"""The serving-side cache of selection rankings.

A selection service sees heavy query repetition (head queries, replayed
experiment batches), and the database ranking is a pure function of
inputs the service controls: the query text and the installed model
set — versioned by the service's *model epoch*.

So the serving frontend puts a small LRU in front of selection and
empties it whenever the model epoch moves (new models installed by
``learn_models`` / ``use_models`` / a staleness refresh).  A ranking is
admitted on its key's second put, so a stream of queries that never
repeat leaves the cache empty instead of full of rankings never read
again.  The cache keeps its own hit/miss/eviction counts and mirrors
them into a :class:`~repro.obs.trace.Recorder` so ``repro trace``
reports and the metrics snapshot see cache behaviour without extra
wiring.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

from repro.obs.trace import NULL_RECORDER, Recorder

__all__ = ["LruCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Distinguishes "key absent" from a cached falsy value.
_MISSING = object()


class LruCache(Generic[K, V]):
    """A bounded mapping evicting the least recently used entry.

    Thread-safe: the cache sits behind
    :class:`~repro.serving.frontend.FederationFrontend`, which the
    gateway calls from several executor threads, so every operation —
    including the hit/miss/eviction counters and the recency
    reordering — runs under one internal lock.  Operations are O(1)
    dictionary moves, so the critical sections are tiny.

    Parameters
    ----------
    maxsize:
        Entry budget; inserting beyond it evicts the least recently
        *used* (looked-up or inserted) entry.
    name:
        Metric namespace — hits and misses are counted as
        ``{name}.hit`` / ``{name}.miss`` on ``recorder``.
    recorder:
        Observability sink; the default no-op recorder keeps lookups
        allocation-free.

    A key is stored on its second :meth:`put`.  The first is only
    remembered, as the key's hash, in a first-in first-out record of at
    most ``maxsize`` hashes, so keys that come once — most of a stream of
    distinct queries — never take an entry's memory.
    """

    def __init__(
        self,
        maxsize: int = 1024,
        *,
        name: str = "cache",
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.name = name
        self.recorder = recorder
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._seen_once: OrderedDict[int, None] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: K) -> V | None:
        """The cached value for ``key``, or ``None`` on a miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                self.recorder.count(f"{self.name}.miss")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self.recorder.count(f"{self.name}.hit")
            return value  # type: ignore[return-value]

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if full.

        A key neither stored nor seen before is only recorded as seen.
        """
        with self._lock:
            entries = self._entries
            seen_once = self._seen_once
            if key in entries:
                entries.move_to_end(key)
            else:
                digest = hash(key)
                if seen_once.pop(digest, _MISSING) is _MISSING:
                    seen_once[digest] = None
                    if len(seen_once) > self.maxsize:
                        seen_once.popitem(last=False)
                    return
            entries[key] = value
            if len(entries) > self.maxsize:
                entries.popitem(last=False)
                self.evictions += 1
                self.recorder.count(f"{self.name}.eviction")

    def clear(self) -> None:
        """Drop every entry and every key seen once (hit/miss counts
        survive — they are history)."""
        with self._lock:
            self._entries.clear()
            self._seen_once.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 before any)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LruCache(name={self.name!r}, size={len(self)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
