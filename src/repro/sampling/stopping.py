"""Stopping criteria (paper Section 6).

A criterion observes the sampler's public state after every query and
decides whether the learned model is good enough to stop.  The paper's
key observation is that a criterion can be built from *observable*
information only: the rdiff between successive snapshots of the learned
model falls as sampling proceeds, roughly independently of database
size, so "rdiff below a threshold over k consecutive 50-document spans"
is a practical stopping rule (:class:`RdiffConvergence`).

Budget criteria (:class:`MaxDocuments`, :class:`MaxQueries`) reproduce
the paper's fixed-size experimental runs, and :class:`AnyOf` /
:class:`AllOf` compose criteria.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sampling.result import SamplerState


class StoppingCriterion(Protocol):
    """Decides when a sampling run has converged or exhausted its budget."""

    def should_stop(self, state: "SamplerState") -> bool:
        """True if sampling should stop now."""
        ...  # pragma: no cover - protocol

    def describe(self) -> str:
        """Human-readable description for run reports."""
        ...  # pragma: no cover - protocol


class MaxDocuments:
    """Stop after examining ``limit`` (unique) documents."""

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        self.limit = limit

    def should_stop(self, state: "SamplerState") -> bool:
        """True once the document budget is reached."""
        return state.documents_examined >= self.limit

    def describe(self) -> str:
        """Human-readable criterion description."""
        return f"max_documents({self.limit})"


class MaxQueries:
    """Stop after running ``limit`` queries (failed queries included)."""

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        self.limit = limit

    def should_stop(self, state: "SamplerState") -> bool:
        """True once the query budget is reached."""
        return state.queries_run >= self.limit

    def describe(self) -> str:
        """Human-readable criterion description."""
        return f"max_queries({self.limit})"


class RdiffConvergence:
    """Stop when consecutive snapshots stop moving (paper Section 6).

    Reads rdiff between each pair of consecutive language-model
    snapshots (taken every ``span`` documents by the sampler) and stops
    once the last ``consecutive`` values all fall below ``threshold``.
    The paper's example rule — "rdiff ≤ 0.005 over 2 consecutive
    50-document spans" — is the default.  The values come from
    :meth:`~repro.sampling.result.SamplerState.recent_rdiffs`, which
    computes each pair once, from the snapshots' columns, however often
    this criterion is asked.
    """

    def __init__(
        self,
        threshold: float = 0.005,
        consecutive: int = 2,
        metric: str = "df",
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if consecutive <= 0:
            raise ValueError(f"consecutive must be positive, got {consecutive}")
        self.threshold = threshold
        self.consecutive = consecutive
        self.metric = metric

    def should_stop(self, state: "SamplerState") -> bool:
        """True once the recent snapshot spans are all below threshold."""
        if len(state.snapshots) < self.consecutive + 1:
            return False
        values = state.recent_rdiffs(self.consecutive, self.metric)
        return all(value <= self.threshold for value in values)

    def describe(self) -> str:
        """Human-readable criterion description."""
        return (
            f"rdiff_convergence(threshold={self.threshold}, "
            f"consecutive={self.consecutive}, metric={self.metric})"
        )


class AnyOf:
    """Stop when any member criterion fires."""

    def __init__(self, criteria: Iterable[StoppingCriterion]) -> None:
        self.criteria = list(criteria)
        if not self.criteria:
            raise ValueError("AnyOf needs at least one criterion")

    def should_stop(self, state: "SamplerState") -> bool:
        """True if any member criterion fires."""
        return any(criterion.should_stop(state) for criterion in self.criteria)

    def describe(self) -> str:
        """Human-readable criterion description."""
        return "any_of(" + ", ".join(c.describe() for c in self.criteria) + ")"


class AllOf:
    """Stop only when every member criterion fires."""

    def __init__(self, criteria: Iterable[StoppingCriterion]) -> None:
        self.criteria = list(criteria)
        if not self.criteria:
            raise ValueError("AllOf needs at least one criterion")

    def should_stop(self, state: "SamplerState") -> bool:
        """True only if every member criterion fires."""
        return all(criterion.should_stop(state) for criterion in self.criteria)

    def describe(self) -> str:
        """Human-readable criterion description."""
        return "all_of(" + ", ".join(c.describe() for c in self.criteria) + ")"
