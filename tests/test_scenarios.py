"""Unit tests for the adversarial-world testbed (repro.scenarios)."""

from __future__ import annotations

import pytest

from repro.corpus import Corpus
from repro.index import DatabaseServer
from repro.index.server import ServerPolicy
from repro.sampling import MaxDocuments, QueryBasedSampler, RandomFromOther
from repro.sampling.sampler import SamplerConfig
from repro.scenarios import (
    BIAS_KINDS,
    SCENARIO_SPECS,
    DriftingDatabase,
    DriftSchedule,
    RankBiasedServer,
    build_clustered_world,
    build_heavy_tailed_federation,
    build_overlapping_partition,
    heavy_tailed_sizes,
    overlap_statistics,
    run_scenarios_bench,
    scenario_names,
    validate_scenarios_bench,
)
from repro.scenarios.cluster import distinctive_cluster_terms
from repro.synth import cacm_like, wsj88_like


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    return wsj88_like().build(seed=21, scale=0.04)


@pytest.fixture(scope="module")
def query(corpus) -> str:
    """A high-df eligible content term of the synthetic corpus."""
    from repro.sampling.selection import is_eligible_query_term

    model = DatabaseServer(corpus).actual_language_model()
    for stats in model.top_terms(100, key="df"):
        if is_eligible_query_term(stats.term):
            return stats.term
    raise AssertionError("no eligible query term in corpus")


class TestRegistry:
    def test_specs_are_complete(self):
        assert scenario_names() == ["cluster", "drift", "result_caps", "overlap", "heavy_tail"]
        for spec in SCENARIO_SPECS:
            assert spec.description and spec.breaks and spec.signal


class TestDriftSchedule:
    def test_phase_at(self):
        schedule = DriftSchedule((10, 30))
        assert [schedule.phase_at(q) for q in (0, 9, 10, 29, 30, 100)] == [0, 0, 1, 1, 2, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftSchedule((0,))
        with pytest.raises(ValueError):
            DriftSchedule((20, 10))
        with pytest.raises(ValueError):
            DriftSchedule((10, 10))
        with pytest.raises(ValueError):
            schedule = DriftSchedule((5,))
            schedule.phase_at(-1)


class TestDriftingDatabase:
    @pytest.fixture(scope="class")
    def phases(self):
        old = DatabaseServer(Corpus(cacm_like().build(seed=1, scale=0.05), name="ph"))
        new = DatabaseServer(Corpus(wsj88_like().build(seed=2, scale=0.01), name="ph"))
        return old, new

    def test_validation(self, phases):
        with pytest.raises(ValueError):
            DriftingDatabase(phases[:1], DriftSchedule(()))
        with pytest.raises(ValueError):
            DriftingDatabase(phases, DriftSchedule((5, 10)))

    def test_switches_on_schedule(self, phases):
        drifting = DriftingDatabase(phases, DriftSchedule((3,)), name="drifty")
        assert drifting.name == "drifty"
        sizes = []
        for _ in range(5):
            drifting.run_query("the committee reported", max_docs=2)
            sizes.append(drifting.num_documents)
        # Queries 1-3 are served by phase 0; the clock advances after
        # each, so query 4 onward sees phase 1's ground truth.
        assert drifting.phase_index == 1
        assert sizes[:2] == [phases[0].num_documents] * 2
        assert sizes[3:] == [phases[1].num_documents] * 2
        assert len(drifting.actual_language_model()) > 0

    def test_hit_count_does_not_advance_clock(self, phases):
        drifting = DriftingDatabase(phases, DriftSchedule((2,)))
        for _ in range(10):
            drifting.hit_count("committee")
        assert drifting.phase_index == 0
        assert drifting.queries_seen == 0


class TestClusteredWorld:
    @pytest.fixture(scope="class")
    def world(self):
        return build_clustered_world(
            num_clusters=4, documents=80, vocabulary_size=1200, seed=9
        )

    def test_deterministic(self, world):
        again = build_clustered_world(
            num_clusters=4, documents=80, vocabulary_size=1200, seed=9
        )
        assert [d.text for d in world.corpus] == [d.text for d in again.corpus]
        assert [d.text for d in world.control] == [d.text for d in again.control]
        assert world.bootstrap_terms == again.bootstrap_terms

    def test_matched_pair_shape(self, world):
        assert len(world.corpus) == len(world.control) == 80
        assert world.corpus.name == "clustered"
        assert world.control.name == "control"
        assert world.num_clusters == 4
        assert len(world.bootstrap_terms) == 8

    def test_bootstrap_terms_live_inside_cluster_zero(self, world):
        topics = {d.topic for d in world.corpus}
        assert topics == {f"topic{i:03d}" for i in range(4)}
        # The bootstrap terms must retrieve something from the corpus.
        server = DatabaseServer(world.corpus)
        hits = sum(server.hit_count(term) for term in world.bootstrap_terms)
        assert hits > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_clustered_world(num_clusters=1)
        with pytest.raises(ValueError):
            build_clustered_world(shared_head=-1)
        with pytest.raises(ValueError):
            # 100 content words cannot give 64 clusters a block.
            build_clustered_world(num_clusters=64, vocabulary_size=100, shared_head=90)

    def test_distinctive_terms_validation(self, world):
        from repro.scenarios.cluster import _build_space
        from repro.synth.vocabulary import SyntheticVocabulary, VocabularyConfig

        vocabulary = SyntheticVocabulary(VocabularyConfig(content_size=400), seed=0)
        space = _build_space(vocabulary, num_clusters=2, shared_head=10, clustered=True)
        with pytest.raises(ValueError):
            distinctive_cluster_terms(space, cluster=5)
        with pytest.raises(ValueError):
            distinctive_cluster_terms(space, cluster=0, count=0)
        terms = distinctive_cluster_terms(space, cluster=1, count=5)
        assert len(terms) == 5


class TestOverlap:
    def test_replicates_with_same_doc_id(self, corpus):
        parts = build_overlapping_partition(corpus, 4, replication=0.5, seed=3)
        stats = overlap_statistics(parts)
        assert stats.unique_documents == len(corpus)
        assert stats.replicated_documents > 0
        assert stats.total_documents == len(corpus) + stats.replicated_documents
        # Every document rolls exactly once, so at most one replica.
        assert stats.max_copies == 2
        assert 0.0 < stats.replication_rate <= 0.75

    def test_zero_replication_is_plain_partition(self, corpus):
        parts = build_overlapping_partition(corpus, 3, replication=0.0, seed=3)
        stats = overlap_statistics(parts)
        assert stats.replicated_documents == 0
        assert stats.max_copies == 1
        assert stats.total_documents == len(corpus)

    def test_deterministic(self, corpus):
        first = build_overlapping_partition(corpus, 4, replication=0.4, seed=7)
        second = build_overlapping_partition(corpus, 4, replication=0.4, seed=7)
        assert [sorted(p.doc_ids) for p in first] == [sorted(p.doc_ids) for p in second]

    def test_validation(self, corpus):
        with pytest.raises(ValueError):
            build_overlapping_partition(corpus, 1)
        with pytest.raises(ValueError):
            build_overlapping_partition(corpus, 3, replication=1.5)


class TestHeavyTail:
    def test_sizes_exact_and_floored(self):
        sizes = heavy_tailed_sizes(6, 500, alpha=1.4, min_documents=15)
        assert sum(sizes) == 500
        assert all(size >= 15 for size in sizes)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] / sizes[-1] >= 2.0

    def test_sizes_validation(self):
        with pytest.raises(ValueError):
            heavy_tailed_sizes(0, 100)
        with pytest.raises(ValueError):
            heavy_tailed_sizes(3, 100, min_documents=0)
        with pytest.raises(ValueError):
            heavy_tailed_sizes(5, 40, min_documents=10)

    def test_federation_matches_sizes(self, corpus):
        parts = build_heavy_tailed_federation(corpus, 4, alpha=1.3, min_documents=20, seed=5)
        assert [len(p) for p in parts] == heavy_tailed_sizes(
            4, len(corpus), alpha=1.3, min_documents=20
        )
        assert [p.name for p in parts] == ["db0", "db1", "db2", "db3"]
        all_ids = [doc_id for p in parts for doc_id in p.doc_ids]
        assert len(all_ids) == len(set(all_ids)) == len(corpus)
        again = build_heavy_tailed_federation(corpus, 4, alpha=1.3, min_documents=20, seed=5)
        assert [sorted(p.doc_ids) for p in parts] == [sorted(p.doc_ids) for p in again]


@pytest.fixture(scope="module")
def capped_server(corpus) -> DatabaseServer:
    return DatabaseServer(corpus, policy=ServerPolicy(max_results_per_query=3))


class TestRankBiasedServer:
    def test_validation(self, capped_server):
        assert "payola" not in BIAS_KINDS
        with pytest.raises(ValueError):
            RankBiasedServer(capped_server, bias="payola")
        with pytest.raises(ValueError):
            RankBiasedServer(capped_server, pool_factor=0)
        with pytest.raises(ValueError):
            RankBiasedServer(capped_server).run_query("market", max_docs=0)

    def test_respects_inner_cap(self, capped_server, query):
        biased = RankBiasedServer(capped_server, bias="hash")
        documents = biased.run_query(query, max_docs=10)
        assert 0 < len(documents) <= 3

    def test_bias_orders(self, corpus, query):
        server = DatabaseServer(corpus)
        newest = RankBiasedServer(server, bias="newest").run_query(query, max_docs=5)
        ids = [d.doc_id for d in newest]
        assert ids == sorted(ids, reverse=True)
        shortest = RankBiasedServer(server, bias="shortest").run_query(query, max_docs=5)
        lengths = [len(d.text) for d in shortest]
        assert lengths == sorted(lengths)

    def test_hash_bias_deterministic_but_seed_sensitive(self, corpus, query):
        server = DatabaseServer(corpus)
        first = RankBiasedServer(server, bias="hash", seed=1).run_query(query, max_docs=5)
        second = RankBiasedServer(server, bias="hash", seed=1).run_query(query, max_docs=5)
        other = RankBiasedServer(server, bias="hash", seed=2).run_query(query, max_docs=5)
        assert [d.doc_id for d in first] == [d.doc_id for d in second]
        assert {d.doc_id for d in first} != {d.doc_id for d in other} or [
            d.doc_id for d in first
        ] != [d.doc_id for d in other]

    def test_meters_own_costs_not_inners(self, corpus, query):
        server = DatabaseServer(corpus)
        biased = RankBiasedServer(server, bias="hash")
        before = server.costs.queries_run
        biased.run_query(query, max_docs=4)
        biased.hit_count(query)
        assert biased.costs.queries_run == 1
        assert biased.costs.hit_count_queries == 1
        assert server.costs.queries_run == before  # pool fetched via engine

    def test_ground_truth_passthrough(self, corpus):
        server = DatabaseServer(corpus)
        biased = RankBiasedServer(server)
        assert biased.num_documents == server.num_documents
        assert biased.name == server.name


class TestCapVersusSampler:
    """Satellite: ServerPolicy.max_results_per_query against the sampler."""

    def _sample(self, server, budget: int, seed: int = 13):
        sampler = QueryBasedSampler(
            server,
            bootstrap=RandomFromOther(server.actual_language_model()),
            stopping=MaxDocuments(budget),
            config=SamplerConfig(docs_per_query=8, keep_documents=False),
            seed=seed,
        )
        return sampler.run()

    def test_capped_database_needs_more_queries_for_same_budget(self, corpus):
        uncapped = self._sample(DatabaseServer(corpus), budget=60)
        capped = self._sample(
            DatabaseServer(corpus, policy=ServerPolicy(max_results_per_query=3)),
            budget=60,
        )
        assert uncapped.documents_examined == capped.documents_examined == 60
        assert len(capped.queries) > len(uncapped.queries)

    def test_capped_model_quality_comparable(self, corpus):
        from repro.lm.compare import spearman_rank_correlation

        actual = DatabaseServer(corpus).actual_language_model()
        uncapped = self._sample(DatabaseServer(corpus), budget=60)
        capped = self._sample(
            DatabaseServer(corpus, policy=ServerPolicy(max_results_per_query=3)),
            budget=60,
        )
        fit_uncapped = spearman_rank_correlation(uncapped.model, actual)
        fit_capped = spearman_rank_correlation(capped.model, actual)
        assert fit_capped >= fit_uncapped - 0.15

    def test_costs_account_for_truncation(self, corpus):
        server = DatabaseServer(corpus, policy=ServerPolicy(max_results_per_query=3))
        run = self._sample(server, budget=30)
        # Every query's yield was clipped at the cap, and the meters saw
        # only the clipped results.
        assert server.costs.documents_returned <= server.costs.queries_run * 3
        assert server.costs.documents_returned >= run.documents_examined


class TestScenariosBench:
    @pytest.fixture(scope="class")
    def report(self):
        return run_scenarios_bench(scale=0.5, seed=0, only=["overlap"])

    def test_smoke_report_passes_and_validates(self, report):
        assert report.all_passed
        payload = report.as_dict()
        assert payload["schema"] == "repro-scenarios-bench/1"
        validate_scenarios_bench(payload)

    def test_validation_rejects_bad_payloads(self, report):
        good = report.as_dict()
        with pytest.raises(ValueError):
            validate_scenarios_bench({**good, "schema": "other/1"})
        with pytest.raises(ValueError):
            validate_scenarios_bench({**good, "scenarios": []})
        broken = [dict(s, scenario="mystery") for s in good["scenarios"]]
        with pytest.raises(ValueError):
            validate_scenarios_bench({**good, "scenarios": broken})
        failed = [dict(s, passed=False) for s in good["scenarios"]]
        with pytest.raises(ValueError):
            validate_scenarios_bench({**good, "scenarios": failed})

    def test_bench_input_validation(self):
        with pytest.raises(ValueError):
            run_scenarios_bench(scale=0.0)
        with pytest.raises(ValueError):
            run_scenarios_bench(only=["nonsense"])

    def test_committed_benchmark_is_valid(self):
        import json
        from pathlib import Path

        payload = json.loads(Path("BENCH_scenarios.json").read_text())
        validate_scenarios_bench(payload)
        assert {s["scenario"] for s in payload["scenarios"]} == set(scenario_names())

    def test_failed_write_leaves_the_previous_report(self, tmp_path):
        from types import SimpleNamespace

        from repro.experiments.classify_bench import write_classify_bench
        from repro.scenarios.bench import write_scenarios_bench

        unserialisable = SimpleNamespace(as_dict=lambda: {"schema": object()})
        path = tmp_path / "BENCH.json"
        for write in (write_classify_bench, write_scenarios_bench):
            path.write_text("the committed baseline\n")
            with pytest.raises(TypeError):
                write(unserialisable, str(path))
            assert path.read_text() == "the committed baseline\n"


class TestScenariosCli:
    def test_list_prints_registry(self, capsys):
        from repro.cli import main

        code = main(["scenarios", "list"])
        output = capsys.readouterr().out
        assert code == 0
        for name in scenario_names():
            assert name in output

    def test_bench_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_scenarios.json"
        code = main(
            ["scenarios", "bench", "--only", "heavy_tail", "--scale", "0.5",
             "--seed", "0", "-o", str(out)]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "heavy_tail" in output
        import json

        payload = json.loads(out.read_text())
        validate_scenarios_bench(payload)
