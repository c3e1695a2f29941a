"""Latency statistics: percentiles over recorded samples.

The gateway load generator (:mod:`repro.gateway.loadgen`) records the
wall time of every individual request and summarizes the distribution
as p50/p95/p99, because a serving system is judged by its tail, not
its mean — one overloaded queue shows up in p99 long before it moves
the average.

Percentiles use linear interpolation between closest ranks (the same
convention as ``numpy.percentile``'s default), computed in pure python
so a handful of samples never pays an array conversion.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["latency_summary", "percentile"]

#: The percentiles every latency report carries, in report order.
REPORT_PERCENTILES = (50.0, 95.0, 99.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``samples`` (linear interpolation).

    ``q`` is in [0, 100].  Raises :class:`ValueError` on an empty
    sample set — a percentile of nothing is a bug upstream, not 0.0.
    """
    if not samples:
        raise ValueError("cannot take a percentile of zero samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def latency_summary(samples: Sequence[float]) -> Mapping[str, float]:
    """p50/p95/p99 + mean/min/max of per-operation latencies, in seconds.

    Keys: ``count``, ``mean``, ``min``, ``max``, ``p50``, ``p95``,
    ``p99``.  Empty input yields a zeroed summary (``count`` 0) so
    callers reporting a level that completed nothing stay uniform.
    """
    if not samples:
        return {
            "count": 0,
            "mean": 0.0,
            "min": 0.0,
            "max": 0.0,
            **{f"p{int(q)}": 0.0 for q in REPORT_PERCENTILES},
        }
    summary = {
        "count": len(samples),
        "mean": sum(samples) / len(samples),
        "min": min(samples),
        "max": max(samples),
    }
    for q in REPORT_PERCENTILES:
        summary[f"p{int(q)}"] = percentile(samples, q)
    return summary
