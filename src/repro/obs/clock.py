"""The one time source: retry backoff, deadlines, queue waits, leases and spans.

A :class:`Clock` is a ``now`` property in seconds and a ``sleep``.  No
other module reads or waits on the system's time.  A component reads
time from the :class:`~repro.obs.trace.Recorder` it already takes
(``recorder.clock``, :data:`SYSTEM_CLOCK` unless the recorder was built
on another); the transport and the fleet queue take a ``clock=``.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

__all__ = ["Clock", "SYSTEM_CLOCK", "SimulatedClock", "SystemClock"]


@runtime_checkable
class Clock(Protocol):
    """A ``now`` property in seconds, and a way to wait."""

    @property
    def now(self) -> float:
        """Current time in seconds."""
        ...  # pragma: no cover - protocol

    def sleep(self, seconds: float) -> None:
        """Let ``seconds`` pass (non-positive values return at once)."""
        ...  # pragma: no cover - protocol


#: Wall time minus monotonic time, read once at import.
_EPOCH_OFFSET = time.time() - time.monotonic()


class SystemClock:
    """Real time: epoch seconds read off the monotonic clock.

    Intervals never run backwards, and an absolute stamp (a lease
    expiry in a job file) means the same time to another process on the
    host.  An epoch-sized float resolves about 0.24 µs.
    """

    @property
    def now(self) -> float:
        """Seconds since the epoch, as anchored at import."""
        return time.monotonic() + _EPOCH_OFFSET

    def sleep(self, seconds: float) -> None:
        """Block the calling thread for ``seconds``."""
        if seconds > 0:
            time.sleep(seconds)


#: The process's real clock; every default points here.
SYSTEM_CLOCK = SystemClock()


class SimulatedClock:
    """A manually advanced clock: ``sleep`` adds to a counter, so backoff,
    deadlines and lease expiries are deterministic and cost no real time.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def sleep(self, seconds: float) -> None:
        """Advance the clock by ``seconds`` (negative values are ignored)."""
        if seconds > 0:
            self._now += float(seconds)
