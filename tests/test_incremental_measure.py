"""Learning-curve measurement equals full reprojection, bit for bit.

:func:`measure_run` scores each snapshot of a run as a join with the
actual model on the shared vocabulary; the referee,
:func:`tests.reference.measure_run_by_reprojection`, projects every
snapshot from scratch.  Every case compares whole curves with ``==``
(floats included, no tolerances): a real 300-document run, the same
run checkpointed and resumed in a fresh sampler, and hand-built runs
at the edges (nothing learned, one shared term, stopwords and stemmer
conflation, an empty actual model).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import measure_run, run_sampling
from repro.experiments.testbed import Testbed as ExperimentTestbed
from repro.lm.model import LanguageModel
from repro.sampling import MaxDocuments, QueryBasedSampler, SamplerConfig
from repro.sampling.result import SamplingRun, Snapshot
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


def assert_curves_equal(run, actual, analyzer):
    args = (run, actual, analyzer, "db", "strategy", 4)
    measured = measure_run(*args)
    # Tuple equality covers every float in every point, exactly.
    assert measured.points == measure_run_by_reprojection(*args).points
    return measured.points


class TestCurveEquivalence:
    def test_measure_run_equals_full_reprojection(self, run_and_actual):
        run, actual, analyzer = run_and_actual
        assert len(run.snapshots) >= 5  # a real multi-snapshot run
        assert_curves_equal(run, actual, analyzer)

    def test_checkpoint_resumed_run_equals_full_reprojection(self, testbed, run_and_actual):
        """A restored snapshot lists its terms in another order than the
        live model did; the curve must not depend on it."""
        one_shot, actual, analyzer = run_and_actual

        def sampler():
            return QueryBasedSampler(
                testbed.server("wsj88"),
                bootstrap=testbed.bootstrap(),
                strategy=FrequencyFromLearned("df"),
                analyzer=Analyzer.raw(),
                config=SamplerConfig(),
                seed=7,
            )

        first = sampler()
        first.run(MaxDocuments(120))
        resumed = sampler()
        resumed.load_state_dict(json.loads(json.dumps(first.state_dict())))
        run = resumed.run(MaxDocuments(300))
        assert run.query_terms == one_shot.query_terms
        assert list(run.snapshots[0].model) != list(one_shot.snapshots[0].model)
        resumed_points = assert_curves_equal(run, actual, analyzer)
        # Same queries, same statistics, same snapshots: the one-shot run's curve.
        assert resumed_points == measure_run(one_shot, actual, analyzer, "db", "strategy", 4).points


def run_of(*models: LanguageModel) -> SamplingRun:
    snapshots = [
        Snapshot(documents_examined=50 * (i + 1), queries_run=i + 1, model=model)
        for i, model in enumerate(models)
    ]
    return SamplingRun(model=models[-1], snapshots=snapshots, queries=[], stop_reason="test")


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
        (point,) = assert_curves_equal(run_of(LanguageModel()), self._actual(), self._analyzer())
        assert (point.percentage_learned, point.ctf_ratio, point.spearman) == (0.0, 0.0, 0.0)

    def test_single_common_term(self):
        learned = LanguageModel()
        learned.add_term("market", df=1, ctf=2)
        (point,) = assert_curves_equal(run_of(learned), self._actual(), self._analyzer())
        assert point.percentage_learned == pytest.approx(1 / 3)
        assert point.ctf_ratio == pytest.approx(9 / 15)
        assert point.spearman == 1.0

    def test_growing_model_with_stopwords_and_stemming(self):
        learned = LanguageModel()
        # "the" is a stopword (dropped); "markets"/"market" conflate
        # under the stemmer into one projected term.
        learned.add_document(["the", "markets", "court"])
        first = learned.copy()
        learned.add_document(["market", "markets", "trade"])
        points = assert_curves_equal(run_of(first, learned), self._actual(), self._analyzer())
        assert [point.percentage_learned for point in points] == [2 / 3, 1.0]

    def test_empty_actual_model(self):
        learned = LanguageModel()
        learned.add_term("market", df=1, ctf=1)
        (point,) = assert_curves_equal(run_of(learned), LanguageModel(), self._analyzer())
        assert (point.percentage_learned, point.ctf_ratio, point.spearman) == (0.0, 0.0, 0.0)
