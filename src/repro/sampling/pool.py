"""Multi-database sampling coordination.

A selection service doesn't sample one database — it maintains learned
models for *all* of them under a global resource budget (queries cost
money and time; Section 3's footnote).  :class:`SamplingPool` owns one
resumable :class:`~repro.sampling.sampler.QueryBasedSampler` per
database and allocates a total document budget across them according to
a scheduling policy:

* ``"uniform"`` — every database gets an equal share, sampled to
  completion one after another (the paper's implicit setup);
* ``"round_robin"`` — databases advance in fixed-size increments in
  turn, so partial models exist for everyone early (useful when the
  service must start answering queries before sampling finishes);
* ``"convergence"`` — each increment goes to the database whose model
  is *least converged*, measured by the observable rdiff of its last
  snapshot span (Section 6's signal put to work): well-understood
  databases stop consuming budget, hard ones get more.

The uniform scheduler's first stage is one independent job per
database, so :meth:`SamplingPool.learn` runs it on every usable CPU
(:func:`repro.utils.fork.fork_map`) when nothing a forked child would
lose can change the outcome; :meth:`SamplingPool.run` is the serial
referee it must equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, NamedTuple, Protocol, cast

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


class PoolCheckpointSink(Protocol):
    """Receives pool run state at grant boundaries for persistence.

    Implemented by :class:`repro.store.PoolCheckpointer`.  The pool
    calls :meth:`resume` once at the start of :meth:`SamplingPool.run`
    (returning the saved scheduling cursor, or ``None`` for a fresh
    run), :meth:`maybe_save` after every completed grant, and
    :meth:`save` when the allocation finishes.
    """

    def resume(self, pool: "SamplingPool", total_documents: int) -> dict[str, Any] | None:
        """Restore sampler states; return the saved cursor, if any."""
        ...  # pragma: no cover - protocol

    def maybe_save(self, pool: "SamplingPool", cursor: dict[str, Any]) -> None:
        """Persist if the sink's cadence says it is time."""
        ...  # pragma: no cover - protocol

    def save(self, pool: "SamplingPool", cursor: dict[str, Any]) -> None:
        """Persist unconditionally."""
        ...  # pragma: no cover - protocol

_SCHEDULERS = ("uniform", "round_robin", "convergence")

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
    """One database's initial share, sampled on its own (maybe in a child)."""

    name: str
    gained: int
    stop_reason: str
    model: LanguageModel
    costs: QueryCosts
    error: Exception | None


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
    scheduler:
        One of ``uniform`` / ``round_robin`` / ``convergence``.
    increment:
        Documents allocated per scheduling turn (round_robin and
        convergence).  Keep it a multiple of the snapshot interval so
        the convergence signal refreshes every turn.
    config, seed:
        Passed to each per-database sampler (seeds are derived per
        database, so runs are independent and reproducible).
    recorder:
        Observability sink (:mod:`repro.obs`), shared by every
        per-database sampler; each :meth:`run` opens a ``pool_run``
        span over the whole allocation.

    :meth:`run` samples on the calling thread and returns every run;
    :meth:`learn` returns only the models, and forks the uniform
    scheduler's initial stage across CPUs where that cannot change them.
    """

    def __init__(
        self,
        databases: Mapping[str, SearchableDatabase],
        bootstrap_factory: Callable[[str], QueryTermSelector],
        scheduler: str = "uniform",
        increment: int = 50,
        config: SamplerConfig = SamplerConfig(),
        seed: int = 0,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if not databases:
            raise ValueError("need at least one database")
        if scheduler not in _SCHEDULERS:
            raise ValueError(f"scheduler must be one of {_SCHEDULERS}, got {scheduler!r}")
        if increment <= 0:
            raise ValueError("increment must be positive")
        self.scheduler = scheduler
        self.increment = increment
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

    def run(
        self,
        total_documents: int,
        *,
        checkpoint: PoolCheckpointSink | None = None,
    ) -> PoolResult:
        """Distribute ``total_documents`` across the databases.

        With a ``checkpoint`` sink, the pool persists every sampler's
        resumable state plus its own scheduling cursor after each
        grant; re-running with the same construction and the same sink
        resumes from the last persisted grant boundary and produces
        models bit-identical to an uninterrupted run.
        """
        if total_documents <= 0:
            raise ValueError("total_documents must be positive")
        cursor: dict[str, Any] = {}
        if checkpoint is not None:
            cursor = checkpoint.resume(self, total_documents) or {}
        with self.recorder.span(
            "pool_run", scheduler=self.scheduler, total_documents=total_documents
        ) as pool_span:
            if self.scheduler == "uniform":
                runs = self._run_uniform(total_documents, checkpoint, cursor)
            else:
                runs = self._run_incremental(total_documents, checkpoint, cursor)
            result = PoolResult(runs=runs)
            pool_span.set(
                documents_examined=result.total_documents,
                queries_run=result.total_queries,
            )
        return result

    def learn(self, total_documents: int) -> dict[str, LanguageModel]:
        """The models :meth:`run` learns, the uniform initial stage on every usable CPU.

        The databases are dealt into interleaved groups, one per usable
        CPU (at most one per database).  This process samples the first
        group; each other group is sampled in a forked child
        (:func:`~repro.utils.fork.fork_map`), which sends back only each
        learned model and each server's :class:`QueryCosts` growth.
        That happens only when a child can lose nothing: the scheduler
        is ``uniform``, every database is exactly a
        :class:`~repro.index.server.DatabaseServer` (a wrapper's own
        state would stay in the child), the recorder is disabled (spans
        would stay there too), every sampler has its own bootstrap
        object, every database has a share and two CPUs are usable.
        Otherwise this is ``self.run(total_documents).models``.

        When every database fills its share, the children's models and
        costs are taken as they are.  Otherwise — a database fell short,
        raised, or a child failed to deliver — the children's work is
        done again here, in database order, and the serial
        redistribution stage follows, so models, costs and exceptions
        are always :meth:`run`'s.  A pool serves one call: a child's
        sampler state stays in the child.
        """
        samplers = list(self.samplers.values())
        workers = min(usable_cpus(), len(samplers))
        if not (
            workers > 1
            and self.scheduler == "uniform"
            and not self.recorder.enabled
            and total_documents >= len(samplers)
            and all(type(sampler.database) is DatabaseServer for sampler in samplers)
            and len({id(sampler.bootstrap) for sampler in samplers}) == len(samplers)
        ):
            return self.run(total_documents).models
        for sampler in samplers:
            screen_reference(sampler.bootstrap)
        grants = list(zip(self.samplers, _split(total_documents, len(samplers))))
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
        return self._replay_uniform(total_documents, grants, local)

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

    def _replay_uniform(
        self,
        total_documents: int,
        grants: list[tuple[str, int]],
        local: dict[str, _Alone],
    ) -> dict[str, LanguageModel]:
        """Finish :meth:`learn` as :meth:`run` would from the shares sampled here.

        In database order: a share this process sampled is kept (its
        exception raised), any other is sampled now.  Serial sampling
        would have stopped at an exception, so the costs of the shares
        this process sampled past it are taken out again before it
        propagates.
        """
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
        cursor = {
            "stage": "redistribute",
            "position": len(grants),
            "shortfall": shortfall,
            "runs": {name: {"stop_reason": run.stop_reason} for name, run in runs.items()},
        }
        runs = self._run_uniform(total_documents, None, cursor)
        return {name: run.model for name, run in runs.items()}

    # -- checkpoint plumbing ------------------------------------------------

    def _cursor(
        self, total_documents: int, runs: dict[str, SamplingRun], **fields: Any
    ) -> dict[str, Any]:
        """The scheduling cursor: loop position + per-run stop reasons.

        Together with each sampler's own state this fully determines
        the rest of the allocation, so a resumed run replays the exact
        grant sequence an uninterrupted run would have made.
        """
        return {
            "total_documents": total_documents,
            "runs": {name: {"stop_reason": run.stop_reason} for name, run in runs.items()},
            **fields,
        }

    def _reconstruct_runs(self, cursor: dict[str, Any]) -> dict[str, SamplingRun]:
        """Rebuild the runs-so-far table from a saved cursor."""
        runs: dict[str, SamplingRun] = {}
        for name, meta in cursor.get("runs", {}).items():
            stop_reason = meta["stop_reason"]
            if stop_reason == "not_scheduled":
                runs[name] = self._idle_run(name)
            else:
                runs[name] = self.samplers[name].current_run(stop_reason)
        return runs

    def _record(
        self,
        checkpoint: PoolCheckpointSink | None,
        cursor: dict[str, Any],
        final: bool = False,
    ) -> None:
        if checkpoint is None:
            return
        if final:
            checkpoint.save(self, cursor)
        else:
            checkpoint.maybe_save(self, cursor)

    def _run_uniform(
        self,
        total_documents: int,
        checkpoint: PoolCheckpointSink | None,
        cursor: dict[str, Any],
    ) -> dict[str, SamplingRun]:
        # Exact shares: base + one extra for the first ``remainder``
        # databases, so the pool samples precisely ``total_documents`` —
        # never the remainder-truncated count (100 over 3 must be
        # 34+33+33, not 33×3) and never an overshoot when the budget is
        # smaller than the number of databases (5 over 10 is five
        # single-document shares, not ten).
        names = list(self.samplers)
        shares = _split(total_documents, len(names))
        stage = cursor.get("stage", "initial")
        position = int(cursor.get("position", 0))
        shortfall = int(cursor.get("shortfall", 0))
        dead = set(cursor.get("dead", []))
        round_alive: list[str] | None = cursor.get("round_alive")
        round_position = int(cursor.get("round_position", 0))
        round_shortfall = int(cursor.get("round_shortfall", 0))
        runs = self._reconstruct_runs(cursor)
        if stage == "initial":
            while position < len(names):
                name = names[position]
                share = shares[position]
                position += 1
                if share == 0:
                    runs[name] = self._idle_run(name)
                    continue
                shortfall += share - self._grow(runs, name, share)
                self._record(
                    checkpoint,
                    self._cursor(
                        total_documents,
                        runs,
                        stage="initial",
                        position=position,
                        shortfall=shortfall,
                        dead=sorted(dead),
                    ),
                )
        # Budget a dead (exhausted / unreachable) database could not
        # spend flows to the databases that can still yield documents.
        while True:
            if round_alive is None:
                if shortfall <= 0:
                    break
                dead.update(
                    n for n, run in runs.items() if run.stop_reason in _TERMINAL_STOPS
                )
                round_alive = [name for name in names if name not in dead]
                if not round_alive:
                    round_alive = None
                    break
                round_shortfall = shortfall
                round_position = 0
                shortfall = 0
            extras = _split(round_shortfall, len(round_alive))
            while round_position < len(round_alive):
                name = round_alive[round_position]
                extra = extras[round_position]
                round_position += 1
                if extra == 0:
                    continue
                gained = self._grow(runs, name, extra)
                shortfall += extra - gained
                if gained < extra:
                    dead.add(name)
                self._record(
                    checkpoint,
                    self._cursor(
                        total_documents,
                        runs,
                        stage="redistribute",
                        position=position,
                        shortfall=shortfall,
                        dead=sorted(dead),
                        round_alive=round_alive,
                        round_position=round_position,
                        round_shortfall=round_shortfall,
                    ),
                )
            round_alive = None
        self._record(
            checkpoint,
            self._cursor(
                total_documents,
                runs,
                stage="redistribute",
                position=position,
                shortfall=0,
                dead=sorted(dead),
            ),
            final=True,
        )
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

    def _run_incremental(
        self,
        total_documents: int,
        checkpoint: PoolCheckpointSink | None,
        cursor: dict[str, Any],
    ) -> dict[str, SamplingRun]:
        remaining = int(cursor.get("remaining", total_documents))
        runs = self._reconstruct_runs(cursor)
        exhausted = set(cursor.get("exhausted", []))
        order = list(self.samplers)
        turn = int(cursor.get("turn", 0))
        while remaining > 0 and len(exhausted) < len(self.samplers):
            name = self._pick_next(order, turn, exhausted)
            grant = min(self.increment, remaining)
            gained = self._grow(runs, name, grant)
            remaining -= gained
            if gained < grant or runs[name].stop_reason in _TERMINAL_STOPS:
                # The database cannot yield more documents (empty or
                # unreachable); its budget flows to the others.
                exhausted.add(name)
            turn += 1
            self._record(
                checkpoint,
                self._cursor(
                    total_documents,
                    runs,
                    remaining=remaining,
                    turn=turn,
                    exhausted=sorted(exhausted),
                ),
            )
        # Databases never scheduled still contribute their (empty) state
        # without consuming any budget.
        for name in self.samplers:
            if name not in runs:
                runs[name] = self._idle_run(name)
        self._record(
            checkpoint,
            self._cursor(
                total_documents,
                runs,
                remaining=remaining,
                turn=turn,
                exhausted=sorted(exhausted),
            ),
            final=True,
        )
        return runs

    def _pick_next(self, order: list[str], turn: int, exhausted: set[str]) -> str:
        available = [name for name in order if name not in exhausted]
        if self.scheduler == "round_robin":
            return available[turn % len(available)]
        # convergence: prefer databases with no signal yet (never
        # sampled / single snapshot), least-sampled first so nobody
        # starves; then the largest last rdiff.
        def priority(name: str) -> tuple[int, float, str]:
            last = self.samplers[name].last_rdiff()
            if last is None:
                return (0, float(self.samplers[name].documents_examined), name)
            return (1, -last, name)  # larger rdiff first

        return min(available, key=priority)
