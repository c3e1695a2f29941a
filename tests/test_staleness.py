"""Unit tests for repro.sampling.staleness."""

from __future__ import annotations

import pytest

from repro.corpus import Corpus
from repro.fleet import run_refresh_sweep
from repro.index import DatabaseServer
from repro.sampling import (
    MaxDocuments,
    QueryBasedSampler,
    RandomFromOther,
    RefreshPolicy,
    staleness_probe,
)
from repro.synth import cacm_like, wsj88_like
from repro.text.analyzer import Analyzer


@pytest.fixture(scope="module")
def stable_server() -> DatabaseServer:
    return DatabaseServer(cacm_like().build(seed=81, scale=0.3))


@pytest.fixture(scope="module")
def stored_model(stable_server):
    sampler = QueryBasedSampler(
        stable_server,
        bootstrap=RandomFromOther(stable_server.actual_language_model()),
        stopping=MaxDocuments(200),
        seed=4,
    )
    return sampler.run().model


@pytest.fixture(scope="module")
def drifted_server() -> DatabaseServer:
    """A 'replaced' database: same interface, very different content."""
    replacement = wsj88_like().build(seed=99, scale=0.08)
    renamed = Corpus(replacement, name="cacm")  # same name, new content
    return DatabaseServer(renamed)


class TestStalenessProbe:
    def test_fresh_database_not_stale(self, stable_server, stored_model):
        report = staleness_probe(
            stable_server,
            stored_model,
            bootstrap=RandomFromOther(stable_server.actual_language_model()),
            probe_documents=50,
            seed=7,
        )
        assert report.probe_documents == 50
        assert not report.is_stale(), report

    def test_replaced_database_detected(self, drifted_server, stored_model):
        report = staleness_probe(
            drifted_server,
            stored_model,
            bootstrap=RandomFromOther(drifted_server.actual_language_model()),
            probe_documents=50,
            seed=7,
        )
        assert report.is_stale(), report

    def test_probe_size_validated(self, stable_server, stored_model):
        with pytest.raises(ValueError):
            staleness_probe(
                stable_server,
                stored_model,
                bootstrap=RandomFromOther(stable_server.actual_language_model()),
                probe_documents=0,
            )

    def test_report_fields_in_range(self, stable_server, stored_model):
        report = staleness_probe(
            stable_server,
            stored_model,
            bootstrap=RandomFromOther(stable_server.actual_language_model()),
            probe_documents=30,
            seed=1,
        )
        assert 0.0 <= report.rdiff_score <= 1.0
        assert -1.0 <= report.spearman <= 1.0


class TestRefreshPolicy:
    def test_fresh_model_kept(self, stable_server, stored_model):
        policy = RefreshPolicy(refresh_documents=100)
        model, report, refreshed = policy.maybe_refresh(
            stable_server,
            stored_model,
            bootstrap=RandomFromOther(stable_server.actual_language_model()),
            seed=3,
        )
        assert not refreshed
        assert model is stored_model

    def test_stale_model_replaced(self, drifted_server, stored_model):
        policy = RefreshPolicy(refresh_documents=80)
        model, report, refreshed = policy.maybe_refresh(
            drifted_server,
            stored_model,
            bootstrap=RandomFromOther(drifted_server.actual_language_model()),
            seed=3,
        )
        assert refreshed
        assert report.is_stale()
        assert model is not stored_model
        assert model.documents_seen == 80

    @pytest.mark.parametrize("documents", [0, -1])
    def test_refresh_sample_must_be_positive(self, documents):
        with pytest.raises(ValueError, match="refresh_documents must be positive"):
            RefreshPolicy(refresh_documents=documents)


class TestRefreshPolicyThresholds:
    """Threshold-forced trigger / no-trigger paths, independent of the
    statistical behaviour of any particular probe."""

    def test_impossible_floor_forces_refresh(self, stable_server, stored_model):
        # Spearman can never reach 1.1, so even a perfectly fresh
        # database must take the refresh branch.
        policy = RefreshPolicy(spearman_floor=1.1, refresh_documents=60)
        model, report, refreshed = policy.maybe_refresh(
            stable_server,
            stored_model,
            bootstrap=RandomFromOther(stable_server.actual_language_model()),
            seed=5,
        )
        assert refreshed
        assert model is not stored_model
        assert model.documents_seen == 60
        assert report.is_stale(policy.rdiff_threshold, policy.spearman_floor)

    def test_lenient_thresholds_always_keep(self, drifted_server, stored_model):
        # rdiff <= 1 and spearman >= -1 by construction, so these
        # thresholds can never trip: even a replaced database is kept.
        policy = RefreshPolicy(rdiff_threshold=2.0, spearman_floor=-2.0)
        model, report, refreshed = policy.maybe_refresh(
            drifted_server,
            stored_model,
            bootstrap=RandomFromOther(drifted_server.actual_language_model()),
            seed=5,
        )
        assert not refreshed
        assert model is stored_model
        assert not report.is_stale(policy.rdiff_threshold, policy.spearman_floor)

    def test_probe_and_refresh_are_traced(self, stable_server, stored_model):
        from repro.obs import SimulatedClock, TraceRecorder

        recorder = TraceRecorder(clock=SimulatedClock())
        policy = RefreshPolicy(spearman_floor=1.1, refresh_documents=40)
        policy.maybe_refresh(
            stable_server,
            stored_model,
            bootstrap=RandomFromOther(stable_server.actual_language_model()),
            seed=5,
            recorder=recorder,
        )
        # One sample_run span for the probe and one for the refresh.
        run_spans = [s for s in recorder.spans if s.name == "sample_run"]
        assert len(run_spans) == 2


class TestAnalyzerThreading:
    """The stored model's text pipeline must ride through probe and refresh.

    These pin the fix for a real bug: ``maybe_refresh`` used to probe
    (and refresh) with raw tokens regardless of how the stored model
    was built, so a stemming-analyzer model compared two different
    vocabularies — spurious staleness, then a silent raw-token model
    installed in its place.
    """

    @pytest.fixture(scope="class")
    def stemmed_model(self, stable_server):
        sampler = QueryBasedSampler(
            stable_server,
            bootstrap=RandomFromOther(stable_server.actual_language_model()),
            stopping=MaxDocuments(200),
            analyzer=Analyzer.inquery_style(),
            seed=4,
        )
        return sampler.run().model

    def test_stemmed_model_survives_refresh_cycle(self, stable_server, stemmed_model):
        policy = RefreshPolicy(refresh_documents=100)
        model, report, refreshed = policy.maybe_refresh(
            stable_server,
            stemmed_model,
            bootstrap=RandomFromOther(stable_server.actual_language_model()),
            seed=3,
            analyzer=Analyzer.inquery_style(),
        )
        assert not refreshed
        assert model is stemmed_model
        assert not report.is_stale(), report

    def test_matched_probe_agrees_better_than_mismatched(
        self, stable_server, stemmed_model
    ):
        # One 50-document probe is a sample: at a single seed the two
        # can land either way round (seed 7 does), so compare over ten.
        bootstrap = RandomFromOther(stable_server.actual_language_model())
        matched, mismatched = [], []
        for seed in range(10):
            matched.append(
                staleness_probe(
                    stable_server,
                    stemmed_model,
                    bootstrap=bootstrap,
                    probe_documents=50,
                    analyzer=Analyzer.inquery_style(),
                    seed=seed,
                ).spearman
            )
            mismatched.append(
                staleness_probe(
                    stable_server,
                    stemmed_model,
                    bootstrap=bootstrap,
                    probe_documents=50,
                    seed=seed,  # pre-fix behaviour: raw tokens against a stemmed model
                ).spearman
            )
        assert sum(matched) > sum(mismatched)
        assert sum(m > x for m, x in zip(matched, mismatched)) >= 8

    def test_forced_refresh_keeps_analyzer(self, stable_server, stemmed_model):
        from repro.utils.rand import derive_seed

        policy = RefreshPolicy(spearman_floor=1.1, refresh_documents=60)
        model, _, refreshed = policy.maybe_refresh(
            stable_server,
            stemmed_model,
            bootstrap=RandomFromOther(stable_server.actual_language_model()),
            seed=5,
            analyzer=Analyzer.inquery_style(),
        )
        assert refreshed
        # The refreshed model must be exactly the sample a direct run
        # with the same analyzer produces at the derived refresh seed.
        direct = QueryBasedSampler(
            stable_server,
            bootstrap=RandomFromOther(stable_server.actual_language_model()),
            stopping=MaxDocuments(60),
            analyzer=Analyzer.inquery_style(),
            seed=derive_seed(5, "refresh"),
        ).run().model
        assert model.vocabulary == direct.vocabulary
        assert all(model.df(t) == direct.df(t) and model.ctf(t) == direct.ctf(t) for t in direct)

    def test_refresh_all_threads_analyzer(self, stable_server, stemmed_model):
        outcome = run_refresh_sweep(
            {"cacm": stable_server},
            {"cacm": stemmed_model},
            lambda name: RandomFromOther(stable_server.actual_language_model()),
            policy=RefreshPolicy(refresh_documents=50),
            seed=11,
            analyzer=Analyzer.inquery_style(),
        ).outcome
        assert outcome.refreshed == []
        assert outcome.models["cacm"] is stemmed_model
        assert not outcome.reports["cacm"].is_stale()


class _QueryRecordingDatabase:
    """Forwards sampling queries, recording them in arrival order."""

    def __init__(self, inner: DatabaseServer) -> None:
        self.inner = inner
        self.name = getattr(inner, "name", "database")
        self.queries: list[str] = []

    def run_query(self, query: str, max_docs: int = 10):
        self.queries.append(query)
        return self.inner.run_query(query, max_docs=max_docs)


class TestSweepSeedIndependence:
    """Per-database seed discipline in the refresh sweep.

    Seeds are derived from the sweep seed *and the database name*, so
    growing the federation must never perturb the probe (or refresh)
    query sequences of databases that were already in it — the
    property that makes queued, budgeted, out-of-order sweeps
    equivalent to the serial one.
    """

    def _run_sweep(self, names: list[str]) -> dict[str, list[str]]:
        servers = {}
        for index, name in enumerate(names):
            corpus = Corpus(cacm_like().build(seed=50 + index, scale=0.1), name=name)
            servers[name] = DatabaseServer(corpus)
        models = {
            name: QueryBasedSampler(
                server,
                bootstrap=RandomFromOther(server.actual_language_model()),
                stopping=MaxDocuments(40),
                seed=3,
            ).run().model
            for name, server in servers.items()
        }
        recording = {name: _QueryRecordingDatabase(server) for name, server in servers.items()}
        run_refresh_sweep(
            recording,
            models,
            lambda name: RandomFromOther(servers[name].actual_language_model()),
            policy=RefreshPolicy(refresh_documents=30),
            seed=17,
        )
        return {name: recording[name].queries for name in names}

    def test_adding_a_database_leaves_other_probe_sequences_alone(self):
        small = self._run_sweep(["alpha", "beta"])
        grown = self._run_sweep(["alpha", "beta", "gamma"])
        assert small["alpha"] == grown["alpha"]
        assert small["beta"] == grown["beta"]
        assert grown["gamma"]  # the new database was actually probed
