"""Unit and behavioural tests for repro.sampling.sampler."""

from __future__ import annotations

import json

import pytest

from repro.corpus import Document
from repro.experiments.testbed import Testbed as ExperimentTestbed
from repro.lm import LanguageModel
from repro.lm.io import dumps_language_model
from repro.sampling import (
    ListBootstrap,
    MaxDocuments,
    MaxQueries,
    QueryBasedSampler,
    RandomFromOther,
    SamplerConfig,
)
from repro.text import Analyzer


class FakeDatabase:
    """Scripted database: term → fixed result list."""

    name = "fake"

    def __init__(self, responses: dict[str, list[Document]]) -> None:
        self.responses = responses
        self.queries: list[str] = []

    def run_query(self, query: str, max_docs: int) -> list[Document]:
        self.queries.append(query)
        return self.responses.get(query, [])[:max_docs]


def doc(doc_id: str, text: str) -> Document:
    return Document(doc_id=doc_id, text=text)


class TestSamplerLoop:
    def test_learns_from_returned_documents(self):
        database = FakeDatabase(
            {"seed": [doc("a", "seed grows tree"), doc("b", "tree has leaves")]}
        )
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["seed"]),
            stopping=MaxDocuments(2),
        )
        run = sampler.run()
        assert run.documents_examined == 2
        assert run.model.df("tree") == 2
        assert run.model.ctf("seed") == 1

    def test_chains_queries_from_learned_vocabulary(self):
        database = FakeDatabase(
            {
                "seed": [doc("a", "alpha beta")],
                "alpha": [doc("b", "gamma delta")],
                "beta": [doc("c", "epsilon zeta")],
                "gamma": [doc("d", "eta theta")],
            }
        )
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["seed"]),
            stopping=MaxDocuments(3),
            seed=1,
        )
        run = sampler.run()
        # After the bootstrap query, every query term must have been
        # learned from a previously retrieved document.
        learned_so_far = {"seed"}
        for record in run.queries[1:]:
            assert record.term in run.model.vocabulary or record.term in learned_so_far

    def test_duplicate_documents_not_recounted(self):
        same_doc = doc("dup", "apple banana")
        database = FakeDatabase(
            {"seed": [same_doc], "apple": [same_doc], "banana": [same_doc]}
        )
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["seed"]),
            stopping=MaxQueries(3),
        )
        run = sampler.run()
        assert run.documents_examined == 1
        assert run.model.df("apple") == 1

    def test_duplicates_counted_when_configured(self):
        same_doc = doc("dup", "apple banana")
        database = FakeDatabase(
            {"seed": [same_doc], "apple": [same_doc], "banana": [same_doc]}
        )
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["seed"]),
            stopping=MaxQueries(3),
            config=SamplerConfig(unique_documents=False),
        )
        run = sampler.run()
        assert run.documents_examined == 3
        assert run.model.df("apple") == 3

    def test_failed_queries_recorded(self):
        database = FakeDatabase({"seed": [doc("a", "alpha beta")]})
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["seed", "missing"]),
            stopping=MaxQueries(3),
        )
        run = sampler.run()
        assert run.failed_queries >= 1
        failed = [record for record in run.queries if record.failed]
        assert all(record.new_documents == 0 for record in failed)

    def test_vocabulary_exhausted_stops(self):
        database = FakeDatabase({})  # every query fails
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["one", "two"]),
            stopping=MaxDocuments(100),
        )
        run = sampler.run()
        assert run.stop_reason == "vocabulary_exhausted"
        assert run.queries_run == 2

    def test_query_budget_guard(self):
        # An inexhaustible bootstrap against an empty database must hit
        # the safety guard, not loop forever.
        other = LanguageModel()
        for i in range(10_000):
            other.add_term(f"term{i:05d}", df=1, ctf=1)
        database = FakeDatabase({})
        sampler = QueryBasedSampler(
            database,
            bootstrap=RandomFromOther(other),
            stopping=MaxDocuments(10),
            config=SamplerConfig(max_total_queries=25),
        )
        run = sampler.run()
        assert run.stop_reason == "query_budget_guard"
        assert run.queries_run == 25

    def test_exact_document_budget(self, small_synthetic_server):
        sampler = QueryBasedSampler(
            small_synthetic_server,
            bootstrap=RandomFromOther(small_synthetic_server.actual_language_model()),
            stopping=MaxDocuments(120),
            seed=3,
        )
        run = sampler.run()
        assert run.documents_examined == 120
        assert run.model.documents_seen == 120


class TestSnapshots:
    def test_snapshots_at_interval_boundaries(self, small_synthetic_server):
        sampler = QueryBasedSampler(
            small_synthetic_server,
            bootstrap=RandomFromOther(small_synthetic_server.actual_language_model()),
            stopping=MaxDocuments(100),
            config=SamplerConfig(snapshot_interval=25),
            seed=5,
        )
        run = sampler.run()
        assert [s.documents_examined for s in run.snapshots] == [25, 50, 75, 100]

    def test_snapshots_are_frozen_copies(self, small_synthetic_server):
        sampler = QueryBasedSampler(
            small_synthetic_server,
            bootstrap=RandomFromOther(small_synthetic_server.actual_language_model()),
            stopping=MaxDocuments(60),
            config=SamplerConfig(snapshot_interval=30),
            seed=5,
        )
        run = sampler.run()
        first, second = run.snapshots[0], run.snapshots[1]
        assert first.model.documents_seen == 30
        assert second.model.documents_seen == 60
        assert len(second.model) >= len(first.model)

    def test_final_partial_snapshot_added(self):
        database = FakeDatabase({"seed": [doc("a", "alpha beta gamma")]})
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["seed"]),
            stopping=MaxQueries(1),
            config=SamplerConfig(snapshot_interval=50),
        )
        run = sampler.run()
        assert run.snapshots[-1].documents_examined == 1

    def test_stepped_and_resumed_runs_snapshot_as_one_run(self):
        # The end point of a run that stops at 120 documents belongs to
        # that run alone: continuing to 300, in the same sampler or in one
        # restored from its checkpoint, snapshots at 50, 100, 150, ... as
        # the one-shot run does, and each snapshot holds the same model.
        testbed = ExperimentTestbed(seed=1, scale=0.05)

        def sampler():
            return QueryBasedSampler(
                testbed.server("wsj88"), bootstrap=testbed.bootstrap(), seed=7
            )

        def snapshots(run):
            return [
                (s.documents_examined, s.queries_run, dumps_language_model(s.model))
                for s in run.snapshots
            ]

        one_shot = sampler().run(MaxDocuments(300))
        stepped = sampler()
        first = stepped.run(MaxDocuments(120))
        assert [s.documents_examined for s in first.snapshots] == [50, 100, 120]
        checkpoint = json.loads(json.dumps(stepped.state_dict()))
        resumed = sampler()
        resumed.load_state_dict(checkpoint)
        expected = snapshots(one_shot)
        assert [count for count, _, _ in expected] == [50, 100, 150, 200, 250, 300]
        for later in (stepped.run(MaxDocuments(300)), resumed.run(MaxDocuments(300))):
            assert later.query_terms == one_shot.query_terms
            assert snapshots(later) == expected

    def test_snapshot_at_lookup(self, small_synthetic_server):
        sampler = QueryBasedSampler(
            small_synthetic_server,
            bootstrap=RandomFromOther(small_synthetic_server.actual_language_model()),
            stopping=MaxDocuments(100),
            seed=2,
        )
        run = sampler.run()
        assert run.snapshot_at(50).documents_examined == 50
        with pytest.raises(KeyError):
            run.snapshot_at(51)


class TestClientAnalyzer:
    def test_raw_analyzer_keeps_stopwords(self):
        database = FakeDatabase({"seed": [doc("a", "the seed and the tree")]})
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["seed"]),
            stopping=MaxDocuments(1),
        )
        run = sampler.run()
        assert "the" in run.model
        assert run.model.ctf("the") == 2

    def test_custom_analyzer_applied(self):
        database = FakeDatabase({"seed": [doc("a", "the seeds are growing")]})
        sampler = QueryBasedSampler(
            database,
            bootstrap=ListBootstrap(["seed"]),
            stopping=MaxDocuments(1),
            analyzer=Analyzer.inquery_style(),
        )
        run = sampler.run()
        assert "the" not in run.model
        assert "seed" in run.model  # stemmed
        assert "grow" in run.model


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"docs_per_query": 0},
            {"snapshot_interval": 0},
            {"max_total_queries": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_same_run(self, small_synthetic_server):
        def one_run(seed: int):
            sampler = QueryBasedSampler(
                small_synthetic_server,
                bootstrap=RandomFromOther(
                    small_synthetic_server.actual_language_model()
                ),
                stopping=MaxDocuments(80),
                seed=seed,
            )
            return sampler.run()

        first, second = one_run(9), one_run(9)
        assert first.query_terms == second.query_terms
        assert set(first.model.vocabulary) == set(second.model.vocabulary)

    def test_different_seed_different_queries(self, small_synthetic_server):
        def one_run(seed: int):
            sampler = QueryBasedSampler(
                small_synthetic_server,
                bootstrap=RandomFromOther(
                    small_synthetic_server.actual_language_model()
                ),
                stopping=MaxDocuments(80),
                seed=seed,
            )
            return sampler.run()

        assert one_run(1).query_terms != one_run(2).query_terms
