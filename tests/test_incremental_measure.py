"""Equivalence tests for the incremental curve measurer.

The incremental engine's contract is *bit-identity* with full
reprojection, not approximation — these tests enforce it at both
levels: the carried projected model matches ``model.project()`` term
for term on every snapshot of a real 300-document run, and the curves
produced by :func:`measure_run` equal
:func:`tests.reference.measure_run_by_reprojection`'s exactly (``==``
on floats, no tolerances).
"""

from __future__ import annotations

import pytest

from repro.experiments.incremental import IncrementalCurveMeasurer
from repro.experiments.runner import measure_run, run_sampling
from repro.experiments.testbed import Testbed as ExperimentTestbed
from repro.lm.model import LanguageModel
from repro.sampling.selection import FrequencyFromLearned
from repro.text.analyzer import Analyzer
from tests.reference import measure_run_by_reprojection


@pytest.fixture(scope="module")
def testbed():
    return ExperimentTestbed(seed=1, scale=0.05)


@pytest.fixture(scope="module")
def run_and_actual(testbed):
    """A 300-document run against the 600-document WSJ-like corpus."""
    server = testbed.server("wsj88")
    run = run_sampling(
        server,
        bootstrap=testbed.bootstrap(),
        strategy=FrequencyFromLearned("df"),
        max_documents=300,
        seed=7,
    )
    return run, testbed.actual_model("wsj88"), server.index.analyzer


class TestProjectionEquivalence:
    def test_every_snapshot_matches_full_projection(self, run_and_actual):
        run, actual, analyzer = run_and_actual
        assert len(run.snapshots) >= 5  # a real multi-snapshot run
        measurer = IncrementalCurveMeasurer(actual, analyzer)
        for snapshot in run.snapshots:
            measurer.advance(snapshot.model)
            carried = measurer.projected_model()
            reference = snapshot.model.project(analyzer)
            assert carried._df == reference._df
            assert carried._ctf == reference._ctf
            assert carried.total_ctf == reference.total_ctf
            assert carried.documents_seen == reference.documents_seen
            assert carried.tokens_seen == reference.tokens_seen

    def test_common_vocabulary_matches_set_intersection(self, run_and_actual):
        run, actual, analyzer = run_and_actual
        measurer = IncrementalCurveMeasurer(actual, analyzer)
        for snapshot in run.snapshots:
            measurer.advance(snapshot.model)
            projected = snapshot.model.project(analyzer)
            expected = sorted(projected.vocabulary & actual.vocabulary)
            assert measurer._common_terms == expected


class TestCurveEquivalence:
    def test_measure_run_equals_full_reprojection(self, run_and_actual):
        run, actual, analyzer = run_and_actual
        args = (run, actual, analyzer, "wsj88", "df_llm", 4)
        incremental = measure_run(*args)
        full = measure_run_by_reprojection(*args)
        # Tuple equality covers every float in every point, exactly.
        assert incremental.points == full.points
        assert incremental == full

    def test_measurer_is_reusable_per_run_only(self, run_and_actual):
        run, actual, analyzer = run_and_actual
        measurer = IncrementalCurveMeasurer(actual, analyzer)
        measurer.advance(run.snapshots[-1].model)
        with pytest.raises(ValueError):
            # Feeding an earlier (smaller) snapshot afterwards is a
            # contract violation, not a silent wrong answer.
            measurer.advance(run.snapshots[0].model)


class TestSmallModels:
    def _analyzer(self):
        return Analyzer.inquery_style()

    def _actual(self):
        actual = LanguageModel(name="actual")
        actual.add_term("market", df=3, ctf=9)
        actual.add_term("court", df=2, ctf=4)
        actual.add_term("trade", df=1, ctf=2)
        return actual

    def test_empty_learned_model(self):
        measurer = IncrementalCurveMeasurer(self._actual(), self._analyzer())
        percentage, ratio, spearman = measurer.measure(LanguageModel())
        assert (percentage, ratio, spearman) == (0.0, 0.0, 0.0)

    def test_single_common_term(self):
        measurer = IncrementalCurveMeasurer(self._actual(), self._analyzer())
        learned = LanguageModel()
        learned.add_term("market", df=1, ctf=2)
        percentage, ratio, spearman = measurer.measure(learned)
        assert percentage == pytest.approx(1 / 3)
        assert ratio == pytest.approx(9 / 15)
        assert spearman == 1.0

    def test_growing_model_with_stopwords_and_stemming(self):
        actual = self._actual()
        analyzer = self._analyzer()
        measurer = IncrementalCurveMeasurer(actual, analyzer)
        learned = LanguageModel()
        # "the" is a stopword (dropped); "markets"/"market" conflate
        # under the stemmer into one projected term.
        learned.add_document(["the", "markets", "court"])
        measurer.advance(learned.copy())
        learned.add_document(["market", "markets", "trade"])
        measurer.advance(learned.copy())
        carried = measurer.projected_model()
        reference = learned.project(analyzer)
        assert carried._df == reference._df
        assert carried._ctf == reference._ctf

    def test_empty_actual_model(self):
        measurer = IncrementalCurveMeasurer(LanguageModel(), self._analyzer())
        learned = LanguageModel()
        learned.add_term("market", df=1, ctf=1)
        assert measurer.measure(learned) == (0.0, 0.0, 0.0)
