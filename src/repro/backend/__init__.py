"""Typed backend protocols: the seam between clients and databases.

The paper's architecture rests on one assumption about a remote text
database: *"each database is capable of running queries and returning
documents that match the queries"* (Section 3).  Everything the repo
builds — sampling, size estimation, staleness probing, federation —
talks to databases through that narrow surface, and richer behaviour
(cooperative STARTS exports, evaluation-only ground truth) is layered
on top as optional capabilities.

This package makes those capability tiers *explicit* as
:class:`typing.Protocol` types, so every consumer annotates against an
interface instead of a concrete class or ad-hoc duck typing:

* :class:`SearchableDatabase` — ``run_query``; the minimal surface the
  paper assumes, and all a :class:`~repro.sampling.sampler.QueryBasedSampler`
  may use.
* :class:`HitCountingDatabase` — adds ``hit_count`` ("about N
  results"), the observable the sample–resample size estimator
  (:mod:`repro.sizeest`) is built on.
* :class:`CooperativeDatabase` — adds ``starts_export``, the
  cooperative-protocol route of :mod:`repro.starts`.
* :class:`EvaluableDatabase` — adds ground truth
  (``actual_language_model`` / ``num_documents``); the experiment
  harness scores against it, a sampler must never touch it.

Orthogonal to the tiers, a backend may declare that it *computes*
rather than *waits*: a class attribute ``computes_in_process = True``
(set by :class:`~repro.index.server.DatabaseServer`) says a ranked
search is CPU work over local columns that never blocks on anything
else.  :func:`may_wait` reads it; an object that does not declare it —
every wrapper, every future remote client — may wait, which is what
decides whether the serving fan-out hands it to a pool thread or
searches it on the calling thread.

All protocols are ``runtime_checkable``, so a service can validate the
objects handed to it at construction time (:func:`require_searchable`)
instead of failing deep inside a query.  Wrappers that interpose on the
seam — fault injectors, retrying clients, future caches and shards —
satisfy :class:`SearchableDatabase` themselves, which is what makes
them freely composable and observable (see :mod:`repro.obs`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.corpus.document import Document
from repro.lm.model import LanguageModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.search import SearchEngine

__all__ = [
    "CooperativeDatabase",
    "EvaluableDatabase",
    "HitCountingDatabase",
    "RetrievableDatabase",
    "SearchableDatabase",
    "backend_capabilities",
    "may_wait",
    "missing_capabilities",
    "require_searchable",
]


@runtime_checkable
class SearchableDatabase(Protocol):
    """The minimal database surface the paper assumes (Section 3).

    ``run_query`` may raise any
    :class:`~repro.sampling.transport.ServerError` — remote databases
    fail.  The sampler records such queries as failed instead of
    crashing, and stops with ``"database_unreachable"`` when the error
    signals the database is gone for good (a
    :class:`~repro.sampling.transport.CircuitOpenError`, or a wrapper
    whose ``unreachable`` attribute is true).
    """

    def run_query(self, query: str, max_docs: int) -> list[Document]:
        """Run a query; return up to ``max_docs`` full documents."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class HitCountingDatabase(SearchableDatabase, Protocol):
    """A searchable database that also reports match counts.

    Most real search services show "about N results" next to the
    result list; it is part of the observable search surface, not
    ground-truth access.
    """

    def hit_count(self, query: str) -> int:
        """Number of documents matching ``query``."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class CooperativeDatabase(SearchableDatabase, Protocol):
    """A searchable database that can export its own statistics.

    ``starts_export`` returns a STARTS-style text export of the
    database's (claimed) language model.  It may raise
    :class:`~repro.starts.servers.CooperationRefused` — cooperation is
    optional, and the export may even be forged
    (:class:`~repro.starts.servers.MisrepresentingServer`); acquisition
    policies decide how much to trust it.
    """

    def starts_export(self) -> str:
        """The database's own (claimed) STARTS export."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class RetrievableDatabase(SearchableDatabase, Protocol):
    """A searchable database whose ranked-retrieval engine is reachable.

    Federated *search* (as opposed to sampling) issues full ranked
    queries and merges the scored results; that needs the database's
    :class:`~repro.index.search.SearchEngine`, a strictly richer
    surface than ``run_query``.  A service validates this capability
    lazily — only databases actually selected for retrieval need it.
    """

    @property
    def engine(self) -> "SearchEngine":
        """The database's ranked-retrieval engine."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class EvaluableDatabase(SearchableDatabase, Protocol):
    """A searchable database whose ground truth is inspectable.

    Only the experiment harness may use these members — they exist so
    learned models can be scored, never so samplers can cheat.
    """

    def actual_language_model(self) -> LanguageModel:
        """The database's true language model (its index)."""
        ...  # pragma: no cover - protocol

    @property
    def num_documents(self) -> int:
        """True corpus size."""
        ...  # pragma: no cover - protocol


#: The member names behind each optional capability tier.
_CAPABILITY_MEMBERS: dict[str, tuple[str, ...]] = {
    "searchable": ("run_query",),
    "hit_counting": ("hit_count",),
    "cooperative": ("starts_export",),
    "retrievable": ("engine",),
    "evaluable": ("actual_language_model", "num_documents"),
}


def missing_capabilities(obj: object, protocol: type) -> list[str]:
    """Member names ``obj`` lacks for ``protocol`` (empty = conforms).

    Runtime protocol checks only confirm member *presence*; this helper
    names what is absent, for error messages that say more than
    "isinstance failed".
    """
    required: tuple[str, ...]
    if protocol is SearchableDatabase:
        required = _CAPABILITY_MEMBERS["searchable"]
    elif protocol is HitCountingDatabase:
        required = _CAPABILITY_MEMBERS["searchable"] + _CAPABILITY_MEMBERS["hit_counting"]
    elif protocol is CooperativeDatabase:
        required = _CAPABILITY_MEMBERS["searchable"] + _CAPABILITY_MEMBERS["cooperative"]
    elif protocol is RetrievableDatabase:
        required = _CAPABILITY_MEMBERS["searchable"] + _CAPABILITY_MEMBERS["retrievable"]
    elif protocol is EvaluableDatabase:
        required = _CAPABILITY_MEMBERS["searchable"] + _CAPABILITY_MEMBERS["evaluable"]
    else:
        raise TypeError(f"not a backend protocol: {protocol!r}")
    return [name for name in required if not hasattr(obj, name)]


def backend_capabilities(obj: object) -> tuple[str, ...]:
    """The capability tiers ``obj`` satisfies, in a stable order."""
    tiers = []
    if isinstance(obj, SearchableDatabase):
        tiers.append("searchable")
    if isinstance(obj, HitCountingDatabase):
        tiers.append("hit_counting")
    if isinstance(obj, CooperativeDatabase):
        tiers.append("cooperative")
    if isinstance(obj, RetrievableDatabase):
        tiers.append("retrievable")
    if isinstance(obj, EvaluableDatabase):
        tiers.append("evaluable")
    return tuple(tiers)


def may_wait(obj: object) -> bool:
    """Whether searching ``obj`` may block on something besides the CPU.

    False only for a backend that declares ``computes_in_process =
    True``.  Wrappers do not forward attributes, so wrapping an
    in-process index (latency injection, fault injection, a retrying
    client) turns the answer back to True without anyone saying so.
    """
    return getattr(obj, "computes_in_process", False) is not True


def require_searchable(obj: object, name: str | None = None) -> SearchableDatabase:
    """Validate that ``obj`` satisfies :class:`SearchableDatabase`.

    Raises a ``TypeError`` naming the offending object and the member
    it lacks, so misconfigured services fail at construction instead of
    deep inside a query.  Returns ``obj`` (narrowed) on success.
    """
    if isinstance(obj, SearchableDatabase):
        return obj
    label = name or getattr(obj, "name", None) or type(obj).__name__
    missing = missing_capabilities(obj, SearchableDatabase)
    raise TypeError(
        f"database {label!r} ({type(obj).__name__}) does not satisfy "
        f"SearchableDatabase: missing {', '.join(missing)}"
    )
