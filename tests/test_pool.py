"""Unit tests for repro.sampling.pool and sampler resumability."""

from __future__ import annotations

import os
from dataclasses import asdict

import pytest

import repro.sampling.pool as pool_module
from repro.corpus import Corpus, Document, partition_round_robin
from repro.federation.service import FederatedSearchService
from repro.index import DatabaseServer
from repro.lm.io import pack_language_model
from repro.sampling import (
    CircuitBreaker,
    ListBootstrap,
    MaxDocuments,
    PermanentServerError,
    QueryBasedSampler,
    RandomFromOther,
    ResilientDatabase,
    SamplerConfig,
    SamplingPool,
)
from repro.federation.testbed import build_synthetic_federation
from repro.synth import cacm_like
from repro.utils.fork import fork_map


@pytest.fixture(scope="module")
def federation() -> dict[str, DatabaseServer]:
    corpus = cacm_like().build(seed=21, scale=0.3)
    parts = partition_round_robin(corpus, 3)
    return {part.name: DatabaseServer(part) for part in parts}


def bootstrap_factory(servers):
    return lambda name: RandomFromOther(servers[name].actual_language_model())


class TestResumableSampler:
    def test_resume_equivalent_to_one_shot(self, small_synthetic_server):
        boot = RandomFromOther(small_synthetic_server.actual_language_model())
        stepped = QueryBasedSampler(small_synthetic_server, bootstrap=boot, seed=7)
        stepped.run(MaxDocuments(60))
        resumed = stepped.run(MaxDocuments(140))
        oneshot = QueryBasedSampler(small_synthetic_server, bootstrap=boot, seed=7).run(
            MaxDocuments(140)
        )
        assert resumed.documents_examined == oneshot.documents_examined == 140
        assert resumed.model.vocabulary == oneshot.model.vocabulary
        assert resumed.query_terms == oneshot.query_terms

    def test_run_with_satisfied_criterion_is_noop(self, small_synthetic_server):
        boot = RandomFromOther(small_synthetic_server.actual_language_model())
        sampler = QueryBasedSampler(small_synthetic_server, bootstrap=boot, seed=7)
        sampler.run(MaxDocuments(40))
        queries_before = sampler.queries_run
        again = sampler.run(MaxDocuments(40))
        assert sampler.queries_run == queries_before
        assert again.documents_examined == 40

    def test_progress_properties(self, small_synthetic_server):
        boot = RandomFromOther(small_synthetic_server.actual_language_model())
        sampler = QueryBasedSampler(small_synthetic_server, bootstrap=boot, seed=9)
        assert sampler.documents_examined == 0
        sampler.run(MaxDocuments(50))
        assert sampler.documents_examined == 50
        assert sampler.queries_run > 0
        assert len(sampler.model) > 0

    @pytest.mark.parametrize(
        "config,budgets",
        [
            # Paper-default config, snapshot-aligned budgets.
            (SamplerConfig(), (100, 200)),
            # Budgets that fire mid-query (not multiples of docs_per_query),
            # so the stepped run carries a pending tail across run() calls.
            (SamplerConfig(docs_per_query=8, snapshot_interval=10), (9, 30)),
            (SamplerConfig(docs_per_query=6, snapshot_interval=25), (47, 143)),
        ],
    )
    def test_stepped_equals_one_shot_exactly(
        self, small_synthetic_server, config, budgets
    ):
        """Stepped runs must be indistinguishable from one-shot runs:
        same model, same query records, and the same (documents, queries)
        snapshot pairs — including when a budget fires mid-query."""
        boot = RandomFromOther(small_synthetic_server.actual_language_model())
        first_budget, final_budget = budgets

        stepped_sampler = QueryBasedSampler(
            small_synthetic_server, bootstrap=boot, config=config, seed=17
        )
        stepped_sampler.run(MaxDocuments(first_budget))
        stepped = stepped_sampler.run(MaxDocuments(final_budget))
        oneshot = QueryBasedSampler(
            small_synthetic_server, bootstrap=boot, config=config, seed=17
        ).run(MaxDocuments(final_budget))

        assert stepped.documents_examined == oneshot.documents_examined == final_budget
        assert stepped.model.vocabulary == oneshot.model.vocabulary
        assert stepped.queries == oneshot.queries
        stepped_pairs = [(s.documents_examined, s.queries_run) for s in stepped.snapshots]
        oneshot_pairs = [(s.documents_examined, s.queries_run) for s in oneshot.snapshots]
        # The stepped run may take one extra end-of-run snapshot at the
        # intermediate budget; every other (documents, queries) pair —
        # in particular queries_run, which used to be off by one when a
        # pending tail crossed a snapshot boundary — must be identical.
        extra = [pair for pair in stepped_pairs if pair not in oneshot_pairs]
        assert all(pair[0] == first_budget for pair in extra), extra
        assert [pair for pair in stepped_pairs if pair in oneshot_pairs] == oneshot_pairs

    def test_exhausted_sampler_stays_exhausted(self):
        corpus = Corpus([Document(doc_id="only", text="solo document here")])
        server = DatabaseServer(corpus)
        sampler = QueryBasedSampler(
            server, bootstrap=ListBootstrap(["solo", "document"]), seed=1
        )
        first = sampler.run(MaxDocuments(10))
        assert first.stop_reason == "vocabulary_exhausted"
        second = sampler.run(MaxDocuments(10))
        assert second.stop_reason == "vocabulary_exhausted"
        assert second.queries_run == first.queries_run


class TestSamplingPool:
    def test_uniform_split(self, federation):
        pool = SamplingPool(federation, bootstrap_factory(federation))
        result = pool.run(150)
        assert result.total_documents == 150
        for run in result.runs.values():
            assert run.documents_examined == 50

    def test_models_property(self, federation):
        pool = SamplingPool(federation, bootstrap_factory(federation))
        result = pool.run(90)
        assert set(result.models) == set(federation)
        assert all(len(model) > 0 for model in result.models.values())

    def test_exhaustion_releases_budget(self):
        # One tiny database (8 docs) and one normal one: the tiny one
        # exhausts and the rest of the budget flows to the other.
        tiny = Corpus(
            [Document(doc_id=f"t{i}", text=f"unique{i} shared words here") for i in range(8)],
            name="tinydb",
        )
        big = cacm_like().build(seed=33, scale=0.1)
        servers = {"tinydb": DatabaseServer(tiny), "bigdb": DatabaseServer(big)}
        pool = SamplingPool(servers, bootstrap_factory(servers))
        result = pool.run(120)
        assert result.runs["tinydb"].documents_examined <= 8
        assert result.runs["bigdb"].documents_examined >= 100

    @pytest.mark.parametrize("total", [2, 100, 151], ids=lambda total: f"{total}-uniform")
    def test_budget_exact_for_every_scheduler(self, federation, total):
        """The pool must sample exactly the requested total — never the
        remainder-truncated count (100 over 3 databases is 34+33+33, not
        99) and never an overshoot (2 over 3 is 2)."""
        pool = SamplingPool(federation, bootstrap_factory(federation))
        result = pool.run(total)
        assert result.total_documents == total

    def test_uniform_remainder_spread(self, federation):
        pool = SamplingPool(federation, bootstrap_factory(federation))
        result = pool.run(100)
        counts = sorted(
            (run.documents_examined for run in result.runs.values()), reverse=True
        )
        assert counts == [34, 33, 33]

    def test_uniform_budget_smaller_than_pool(self, federation):
        pool = SamplingPool(federation, bootstrap_factory(federation))
        result = pool.run(2)
        counts = [run.documents_examined for run in result.runs.values()]
        assert sum(counts) == 2
        assert max(counts) == 1  # one document each, nobody overshoots
        assert sum(1 for run in result.runs.values() if run.stop_reason == "not_scheduled") == 1

    def test_uniform_reallocates_exhausted_share(self):
        tiny = Corpus(
            [Document(doc_id=f"t{i}", text=f"unique{i} shared words here") for i in range(8)],
            name="tinydb",
        )
        big = cacm_like().build(seed=33, scale=0.1)
        servers = {"tinydb": DatabaseServer(tiny), "bigdb": DatabaseServer(big)}
        pool = SamplingPool(servers, bootstrap_factory(servers))
        result = pool.run(120)
        # The tiny database exhausts at 8; its unspent share flows on.
        assert result.runs["tinydb"].documents_examined <= 8
        assert result.total_documents == 120

    @pytest.mark.parametrize("total", [100], ids=["uniform"])
    def test_unreachable_database_budget_reallocated(self, total):
        parts = partition_round_robin(cacm_like().build(seed=29, scale=0.2), 2)
        servers = {part.name: DatabaseServer(part) for part in parts}
        names = list(servers)
        dead_name, alive_name = names[0], names[1]

        class DeadDatabase:
            """Permanently failing remote endpoint."""

            name = dead_name

            def run_query(self, query, max_docs=10):
                raise PermanentServerError("endpoint gone")

        databases = {
            dead_name: ResilientDatabase(
                DeadDatabase(), breaker=CircuitBreaker(failure_threshold=2, cooldown=1e9)
            ),
            alive_name: servers[alive_name],
        }
        result = SamplingPool(databases, bootstrap_factory(servers)).run(total)
        assert result.runs[dead_name].stop_reason == "database_unreachable"
        assert result.runs[dead_name].documents_examined == 0
        # The unreachable database's budget flowed to the healthy one.
        assert result.runs[alive_name].documents_examined == total

    def test_validation(self, federation):
        with pytest.raises(ValueError):
            SamplingPool({}, bootstrap_factory(federation))
        pool = SamplingPool(federation, bootstrap_factory(federation))
        with pytest.raises(ValueError):
            pool.run(0)


def tiny_server(name: str, documents: int, first: int) -> DatabaseServer:
    """A database that exhausts after ``documents`` documents, one word unique to each."""
    return DatabaseServer(
        Corpus(
            [
                Document(doc_id=f"{name}{i}", text=f"record{first + i} common words {name}")
                for i in range(documents)
            ],
            name=name,
        )
    )


class TestRedistributionRounds:
    """Two tiny databases exhaust at different points, so a second round runs.

    Shares of 100 over four databases are 25: ``tinya`` (5 documents)
    leaves 20, spread 7/7/6 over ``db0``, ``db1`` and ``tinyb``.
    ``tinyb`` (30 documents) fills its share but only 5 of its 6 extra,
    so a second round gives that last document to ``db0``.
    """

    @pytest.fixture()
    def servers(self):
        servers = build_synthetic_federation(2, 0.05, seed=5)
        servers["tinya"] = tiny_server("tinya", 5, 0)
        servers["tinyb"] = tiny_server("tinyb", 30, 100)
        return servers

    @staticmethod
    def factory(servers):
        models = {name: server.actual_language_model() for name, server in servers.items()}
        return lambda name: RandomFromOther(models[name])

    def test_serial_run(self, servers):
        result = SamplingPool(servers, self.factory(servers), seed=4).run(100)
        assert result.total_documents == 100
        assert {name: run.documents_examined for name, run in result.runs.items()} == {
            "db0": 33, "db1": 32, "tinya": 5, "tinyb": 30,
        }  # fmt: skip
        assert result.runs["tinya"].stop_reason == "vocabulary_exhausted"
        assert result.runs["tinyb"].stop_reason == "vocabulary_exhausted"

    def test_forked_learn_equals_serial_run(self, servers, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks = []

        def spy(function, tasks, fallback=None):
            forks.append(len(tasks))
            return fork_map(function, tasks, fallback)

        monkeypatch.setattr(pool_module, "fork_map", spy)
        factory = self.factory(servers)

        def observed(models):
            packed = {name: pack_language_model(model) for name, model in models.items()}
            return packed, {name: asdict(server.costs) for name, server in servers.items()}

        service = FederatedSearchService(servers)
        service.learn_models(factory, 100, seed=4)
        learned = observed(service.models)
        for server in servers.values():
            server.reset_costs()
        assert learned == observed(SamplingPool(servers, factory, seed=4).run(100).models)
        assert forks == [2]
        assert sum(model.documents_seen for model in service.models.values()) == 100
