"""Multi-database sampling coordination.

A selection service doesn't sample one database — it maintains learned
models for *all* of them under a global resource budget (queries cost
money and time; Section 3's footnote).  :class:`SamplingPool` owns one
resumable :class:`~repro.sampling.sampler.QueryBasedSampler` per
database and splits a total document budget into equal exact shares,
each sampled to completion one database after another (the paper's
setup: every model learned from its own fixed sample).  A share a
database cannot fill — it exhausts its vocabulary or becomes unreachable
— is spread over the databases that can still yield documents.

The shares are independent jobs, so :meth:`SamplingPool.learn` samples
them on every usable CPU (:func:`repro.utils.fork.fork_map`) when
nothing a forked child would lose can change the outcome;
:meth:`SamplingPool.run` is the serial referee it must equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, NamedTuple, cast

import numpy as np

from repro.backend import SearchableDatabase
from repro.index.server import DatabaseServer, QueryCosts
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sampling.result import SamplingRun
from repro.sampling.sampler import QueryBasedSampler, SamplerConfig
from repro.sampling.selection import QueryTermSelector, screen_reference
from repro.sampling.stopping import MaxDocuments
from repro.utils.fork import fork_map, usable_cpus
from repro.utils.rand import derive_seed

#: Stop reasons after which a database can yield no further documents —
#: its remaining budget is reallocated to the other databases.
_TERMINAL_STOPS = ("vocabulary_exhausted", "database_unreachable")


@dataclass(frozen=True)
class PoolResult:
    """Everything the pool learned, keyed by database name."""

    runs: dict[str, SamplingRun]

    @property
    def models(self) -> dict[str, LanguageModel]:
        """Database name → learned language model."""
        return {name: run.model for name, run in self.runs.items()}

    @property
    def total_documents(self) -> int:
        """Documents examined across all databases."""
        return sum(run.documents_examined for run in self.runs.values())

    @property
    def total_queries(self) -> int:
        """Queries issued across all databases."""
        return sum(run.queries_run for run in self.runs.values())


class _Alone(NamedTuple):
    """One database's initial share, sampled on its own (maybe in a child).

    Pickled — sent back by a forked child — its model travels as its
    terms in insertion order and two narrow columns, and arrives as a
    column view of them (:func:`_arrived`): the serial run's iteration
    order and counts, with no dicts to pickle, rebuild or sort again
    for the store.
    """

    name: str
    gained: int
    stop_reason: str
    model: LanguageModel
    costs: QueryCosts
    error: Exception | None

    def __reduce__(self) -> tuple[Callable[..., "_Alone"], tuple[Any, ...]]:
        model = self.model
        df, ctf = model.count_columns()
        columns = (model.name, list(model), df, ctf)
        counts = (model.documents_seen, model.tokens_seen, model.total_ctf)
        return (
            _arrived,
            (self.name, self.gained, self.stop_reason, columns, counts, self.costs, self.error),
        )


def _arrived(
    name: str,
    gained: int,
    stop_reason: str,
    columns: tuple[str, list[str], np.ndarray, np.ndarray],
    counts: tuple[int, int, int],
    costs: QueryCosts,
    error: Exception | None,
) -> _Alone:
    """An :class:`_Alone` unpickled: its model a view of the columns it was sent as."""
    documents_seen, tokens_seen, total_ctf = counts
    model = LanguageModel.over_columns(
        *columns, documents_seen=documents_seen, tokens_seen=tokens_seen, total_ctf=total_ctf
    )
    return _Alone(name, gained, stop_reason, model, costs, error)


def _split(budget: int, count: int) -> list[int]:
    """``budget`` in ``count`` exact shares, the first ``budget % count`` one larger."""
    base, remainder = divmod(budget, count)
    return [base + (1 if slot < remainder else 0) for slot in range(count)]


class SamplingPool:
    """Samples a set of databases under one document budget.

    Parameters
    ----------
    databases:
        Name → searchable database.
    bootstrap_factory:
        Called once per database to create its bootstrap selector
        (selectors are stateful, so they cannot be shared).
    config, seed:
        Passed to each per-database sampler (seeds are derived per
        database, so runs are independent and reproducible).
    recorder:
        Observability sink (:mod:`repro.obs`), shared by every
        per-database sampler; each :meth:`run` opens a ``pool_run``
        span over the whole allocation.

    :meth:`run` samples on the calling thread and returns every run;
    :meth:`learn` returns only the models, and forks the shares across
    CPUs where that cannot change them.
    """

    def __init__(
        self,
        databases: Mapping[str, SearchableDatabase],
        bootstrap_factory: Callable[[str], QueryTermSelector],
        config: SamplerConfig = SamplerConfig(),
        seed: int = 0,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if not databases:
            raise ValueError("need at least one database")
        self.recorder = recorder
        self.samplers: dict[str, QueryBasedSampler] = {
            name: QueryBasedSampler(
                database,
                bootstrap=bootstrap_factory(name),
                config=config,
                seed=derive_seed(seed, "pool", name),
                name=name,
                recorder=recorder,
            )
            for name, database in databases.items()
        }

    def run(self, total_documents: int) -> PoolResult:
        """Distribute ``total_documents`` across the databases."""
        if total_documents <= 0:
            raise ValueError("total_documents must be positive")
        with self.recorder.span("pool_run", total_documents=total_documents) as pool_span:
            runs: dict[str, SamplingRun] = {}
            shortfall = 0
            for name, share in self._shares(total_documents):
                if share == 0:
                    runs[name] = self._idle_run(name)
                else:
                    shortfall += share - self._grow(runs, name, share)
            result = PoolResult(runs=self._redistribute(runs, shortfall))
            pool_span.set(
                documents_examined=result.total_documents,
                queries_run=result.total_queries,
            )
        return result

    def learn(self, total_documents: int) -> dict[str, LanguageModel]:
        """The models :meth:`run` learns, the initial shares on every usable CPU.

        The databases are dealt into interleaved groups, one per usable
        CPU (at most one per database).  This process samples the first
        group; each other group is sampled in a forked child
        (:func:`~repro.utils.fork.fork_map`), which sends back only each
        learned model (as columns, taken here as a column view:
        :class:`_Alone`) and each server's :class:`QueryCosts` growth.
        Either way only the models are kept, so no sampler takes a
        snapshot (:meth:`run` keeps every one).
        That happens only when a child can lose nothing: every database
        is exactly a :class:`~repro.index.server.DatabaseServer` (a
        wrapper's own state would stay in the child), the recorder is
        disabled (spans would stay there too), every sampler has its own
        bootstrap object, every database has a share and two CPUs are
        usable.  Otherwise this is ``self.run(total_documents).models``.

        When every database fills its share, the children's models and
        costs are taken as they are.  Otherwise — a database fell short,
        raised, or a child failed to deliver — the children's work is
        done again here, in database order, and the serial
        redistribution stage follows, so models, costs and exceptions
        are always :meth:`run`'s.  A pool serves one call: a child's
        sampler state stays in the child.
        """
        samplers = list(self.samplers.values())
        for sampler in samplers:
            sampler._takes_snapshots = False
        workers = min(usable_cpus(), len(samplers))
        if not (
            workers > 1
            and not self.recorder.enabled
            and total_documents >= len(samplers)
            and all(type(sampler.database) is DatabaseServer for sampler in samplers)
            and len({id(sampler.bootstrap) for sampler in samplers}) == len(samplers)
        ):
            return self.run(total_documents).models
        for sampler in samplers:
            screen_reference(sampler.bootstrap)
        grants = self._shares(total_documents)
        groups = fork_map(
            self._sample_alone,
            [grants[start::workers] for start in range(workers)],
            fallback=lambda group: [],
        )
        local = {alone.name: alone for alone in groups[0]}
        forked = {alone.name: alone for group in groups[1:] for alone in group}
        done = {**local, **forked}
        if all(
            name in done and done[name].error is None and done[name].gained == share
            for name, share in grants
        ):
            for alone in forked.values():
                self._server(alone.name).costs += alone.costs
            return {name: done[name].model for name, _ in grants}
        return self._replay(total_documents, local)

    def _server(self, name: str) -> DatabaseServer:
        """``name``'s database, which :meth:`learn` found to be a server."""
        return cast(DatabaseServer, self.samplers[name].database)

    def _sample_alone(self, grants: list[tuple[str, int]]) -> list[_Alone]:
        """Sample each database's initial share; stop at the first exception."""
        outcomes = []
        for name, share in grants:
            sampler, server = self.samplers[name], self._server(name)
            before = replace(server.costs)
            stop_reason, error = "", None
            try:
                stop_reason = sampler.run(MaxDocuments(share)).stop_reason
            except Exception as exc:
                error = exc
            outcomes.append(
                _Alone(
                    name,
                    sampler.documents_examined,
                    stop_reason,
                    sampler.model,
                    server.costs - before,
                    error,
                )
            )
            if error is not None:
                break
        return outcomes

    def _replay(
        self, total_documents: int, local: dict[str, _Alone]
    ) -> dict[str, LanguageModel]:
        """Finish :meth:`learn` as :meth:`run` would from the shares sampled here.

        In database order: a share this process sampled is kept (its
        exception raised), any other is sampled now.  Serial sampling
        would have stopped at an exception, so the costs of the shares
        this process sampled past it are taken out again before it
        propagates.
        """
        grants = self._shares(total_documents)
        runs: dict[str, SamplingRun] = {}
        shortfall = 0
        for position, (name, share) in enumerate(grants):
            alone = local.get(name)
            try:
                if alone is None:
                    gained = self._grow(runs, name, share)
                elif alone.error is not None:
                    raise alone.error
                else:
                    runs[name] = self.samplers[name].current_run(alone.stop_reason)
                    gained = alone.gained
            except BaseException:
                for later, _ in grants[position + 1 :]:
                    if later in local:
                        self._server(later).costs -= local[later].costs
                raise
            shortfall += share - gained
        return {name: run.model for name, run in self._redistribute(runs, shortfall).items()}

    def _shares(self, total_documents: int) -> list[tuple[str, int]]:
        """Each database's exact share of ``total_documents``, in database order.

        Never the remainder-truncated count (100 over 3 is 34+33+33,
        not 33×3) and never an overshoot when the budget is smaller than
        the number of databases (5 over 10 is five single-document
        shares, not ten).
        """
        return list(zip(self.samplers, _split(total_documents, len(self.samplers))))

    def _redistribute(
        self, runs: dict[str, SamplingRun], shortfall: int
    ) -> dict[str, SamplingRun]:
        """Spread the ``shortfall`` the dead databases left over those still alive.

        A database is dead once it stops exhausted or unreachable, or
        falls short of an extra share; a round that leaves budget
        unspent starts another over the databases still alive.
        """
        dead: set[str] = set()
        while shortfall > 0:
            dead.update(name for name, run in runs.items() if run.stop_reason in _TERMINAL_STOPS)
            alive = [name for name in self.samplers if name not in dead]
            if not alive:
                break
            extras = _split(shortfall, len(alive))
            shortfall = 0
            for name, extra in zip(alive, extras):
                if extra == 0:
                    continue
                gained = self._grow(runs, name, extra)
                shortfall += extra - gained
                if gained < extra:
                    dead.add(name)
        return runs

    def _grow(self, runs: dict[str, SamplingRun], name: str, grant: int) -> int:
        """Advance one sampler by ``grant`` documents; return the gain."""
        sampler = self.samplers[name]
        before = sampler.documents_examined
        runs[name] = sampler.run(MaxDocuments(before + grant))
        return sampler.documents_examined - before

    def _idle_run(self, name: str) -> SamplingRun:
        """A database's current state, reported without spending budget."""
        sampler = self.samplers[name]
        return SamplingRun(
            model=sampler.model,
            snapshots=list(sampler.snapshots),
            queries=[],
            stop_reason="not_scheduled",
            documents=[],
        )
