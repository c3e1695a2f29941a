"""Tests for repro.experiments (testbed, runner, reporting)."""

from __future__ import annotations

import pytest

from repro.experiments.reporting import curve_series, format_series
from repro.experiments.runner import (
    CurvePoint,
    LearningCurve,
    average_curves,
    measure_run,
    rdiff_series,
    run_sampling,
)
from repro.experiments.testbed import Testbed as ExperimentTestbed
from repro.sampling import RandomFromOther
from repro.utils.table import format_table


@pytest.fixture(scope="module")
def run_and_server(small_synthetic_server):
    run = run_sampling(
        small_synthetic_server,
        bootstrap=RandomFromOther(small_synthetic_server.actual_language_model()),
        max_documents=150,
        seed=1,
    )
    return run, small_synthetic_server


class TestRunSampling:
    def test_budget_respected(self, run_and_server):
        run, _ = run_and_server
        assert run.documents_examined == 150

    def test_snapshots_every_50(self, run_and_server):
        run, _ = run_and_server
        assert [s.documents_examined for s in run.snapshots] == [50, 100, 150]


class TestMeasureRun:
    def test_curve_points_align_with_snapshots(self, run_and_server):
        run, server = run_and_server
        curve = measure_run(
            run,
            server.actual_language_model(),
            server.index.analyzer,
            database="small",
            strategy="random_llm",
            docs_per_query=4,
        )
        assert [p.documents for p in curve.points] == [50, 100, 150]

    def test_metrics_monotone_enough(self, run_and_server):
        # ctf ratio and percentage learned are monotone in documents
        # examined (vocabulary only grows).
        run, server = run_and_server
        curve = measure_run(
            run,
            server.actual_language_model(),
            server.index.analyzer,
            database="small",
            strategy="random_llm",
            docs_per_query=4,
        )
        ctf_values = [p.ctf_ratio for p in curve.points]
        pct_values = [p.percentage_learned for p in curve.points]
        assert ctf_values == sorted(ctf_values)
        assert pct_values == sorted(pct_values)
        assert all(0 <= p.spearman <= 1 for p in curve.points)

    def test_documents_to_reach_ctf(self, run_and_server):
        run, server = run_and_server
        curve = measure_run(
            run,
            server.actual_language_model(),
            server.index.analyzer,
            "small",
            "random_llm",
            4,
        )
        reached = curve.documents_to_reach_ctf(0.5)
        assert reached in (50, 100, 150)
        assert curve.documents_to_reach_ctf(2.0) is None

    def test_value_at(self, run_and_server):
        run, server = run_and_server
        curve = measure_run(
            run,
            server.actual_language_model(),
            server.index.analyzer,
            "small",
            "random_llm",
            4,
        )
        assert curve.value_at(100, "ctf_ratio") == curve.points[1].ctf_ratio
        with pytest.raises(KeyError):
            curve.value_at(99, "ctf_ratio")


class TestRdiffSeries:
    def test_series_between_snapshots(self, run_and_server):
        run, _ = run_and_server
        series = rdiff_series(run)
        assert [documents for documents, _ in series] == [100, 150]
        assert all(0 <= value <= 1 for _, value in series)


class TestAverageCurves:
    def _curve(self, values):
        points = tuple(
            CurvePoint(documents=d, queries=d // 4, percentage_learned=v,
                       ctf_ratio=v, spearman=v)
            for d, v in values
        )
        return LearningCurve("db", "s", 4, points)

    def test_mean_of_values(self):
        merged = average_curves(
            [self._curve([(50, 0.2), (100, 0.4)]), self._curve([(50, 0.4), (100, 0.6)])]
        )
        assert [p.ctf_ratio for p in merged.points] == [
            pytest.approx(0.3),
            pytest.approx(0.5),
        ]

    def test_only_common_documents_kept(self):
        merged = average_curves(
            [self._curve([(50, 0.2), (100, 0.4)]), self._curve([(50, 0.4)])]
        )
        assert [p.documents for p in merged.points] == [50]

    def test_single_curve_passthrough(self):
        curve = self._curve([(50, 0.5)])
        assert average_curves([curve]) is curve

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_curves([])


class TestTestbedBuilder:
    def test_profiles_available(self):
        testbed = ExperimentTestbed(seed=0, scale=0.02)
        assert testbed.profile("cacm").name == "cacm"
        with pytest.raises(KeyError):
            testbed.profile("nope")

    def test_servers_cached(self):
        testbed = ExperimentTestbed(seed=0, scale=0.02)
        assert testbed.server("cacm") is testbed.server("cacm")

    def test_document_budget_capped_at_small_scale(self):
        testbed = ExperimentTestbed(seed=0, scale=0.02)
        budget = testbed.document_budget("cacm")
        corpus_size = testbed.server("cacm").num_documents
        assert budget == max(50, min(300, int(corpus_size * 0.4)))

    def test_scale_env_var(self, monkeypatch):
        from repro.experiments.testbed import default_scale

        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert default_scale() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "zero")
        with pytest.raises(ValueError):
            default_scale()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            default_scale()


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"name": "cacm", "docs": 3204}, {"name": "wsj88", "docs": 39904}]
        text = format_table(rows, title="Corpora")
        lines = text.splitlines()
        assert lines[0] == "Corpora"
        assert "name" in lines[1] and "docs" in lines[1]
        assert "3,204" in text and "39,904" in text

    def test_format_table_handles_none(self):
        text = format_table([{"a": None}])
        assert "-" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="Empty")

    def test_format_series(self):
        series = {"cacm": [(50, 0.9), (100, 0.95)], "wsj88": [(50, 0.7)]}
        text = format_series(series, title="Fig")
        assert "0.9000" in text
        assert "documents" in text
        # wsj88 has no value at 100 → dash.
        last_line = text.splitlines()[-1]
        assert "-" in last_line

    def test_curve_series_extraction(self):
        points = (
            CurvePoint(50, 12, 0.1, 0.8, 0.6),
            CurvePoint(100, 25, 0.2, 0.9, 0.7),
        )
        curves = {"db": LearningCurve("db", "s", 4, points)}
        series = curve_series(curves, "spearman")
        assert series == {"db": [(50, 0.6), (100, 0.7)]}
