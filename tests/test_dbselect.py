"""Unit tests for repro.dbselect (CORI, GlOSS, KL, evaluation)."""

from __future__ import annotations

import pytest

from repro.dbselect import (
    BGlossSelector,
    CoriParameters,
    CoriSelector,
    KlParameters,
    KlSelector,
    SelectionEvaluation,
    VGlossSelector,
    evaluate_rankings,
    recall_at_n,
)
from repro.classify.router import TopicRouter
from repro.dbselect.base import DatabaseRanking, RankedDatabase, analyze_query, finish_ranking
from repro.lm import LanguageModel
from repro.text.analyzer import Analyzer


def make_db(term_stats: dict[str, tuple[int, int]], docs: int, tokens: int) -> LanguageModel:
    """term → (df, ctf)."""
    model = LanguageModel()
    for term, (df, ctf) in term_stats.items():
        model.add_term(term, df=df, ctf=ctf)
    model.documents_seen = docs
    model.tokens_seen = tokens
    return model


@pytest.fixture
def models() -> dict[str, LanguageModel]:
    return {
        "sports": make_db(
            {"football": (80, 200), "team": (60, 90), "market": (5, 5)},
            docs=100,
            tokens=10_000,
        ),
        "finance": make_db(
            {"market": (70, 180), "stock": (50, 120), "team": (10, 12)},
            docs=100,
            tokens=10_000,
        ),
        "mixed": make_db(
            {"football": (20, 30), "market": (20, 30), "stock": (10, 12)},
            docs=100,
            tokens=10_000,
        ),
    }


@pytest.mark.parametrize(
    "selector",
    [CoriSelector(), BGlossSelector(), VGlossSelector(), KlSelector()],
    ids=["cori", "bgloss", "vgloss", "kl"],
)
class TestAllSelectors:
    def test_topical_query_picks_topical_db(self, selector, models):
        assert selector.rank("football", models).names[0] == "sports"
        assert selector.rank("market stock", models).names[0] == "finance"

    def test_ranking_is_complete_and_deterministic(self, selector, models):
        ranking = selector.rank("football market", models)
        assert sorted(ranking.names) == sorted(models)
        again = selector.rank("football market", models)
        assert ranking.names == again.names

    def test_scores_descending(self, selector, models):
        ranking = selector.rank("football", models)
        scores = [entry.score for entry in ranking.entries]
        assert scores == sorted(scores, reverse=True)

    def test_empty_models_rejected(self, selector):
        with pytest.raises(ValueError):
            selector.rank("football", {})

    def test_unknown_term_does_not_crash(self, selector, models):
        ranking = selector.rank("xylophone", models)
        assert len(ranking.names) == 3


class TestCoriSpecifics:
    def test_belief_floor(self, models):
        selector = CoriSelector(CoriParameters(default_belief=0.4))
        ranking = selector.rank("xylophone", models)
        # No database contains the term: all scores equal the default belief.
        assert all(entry.score == pytest.approx(0.4) for entry in ranking.entries)

    def test_term_in_fewer_databases_discriminates_more(self, models):
        # "stock" (2 DBs) should separate finance from sports more than
        # "team" separates sports from finance ("team" is in 2 DBs too,
        # so compare score gaps with a 3-DB term instead).
        selector = CoriSelector()
        stock = selector.rank("stock", models)
        market = selector.rank("market", models)  # in all 3 DBs
        gap = lambda r: r.entries[0].score - r.entries[-1].score
        assert gap(stock) > 0
        assert gap(market) >= 0

    def test_invalid_default_belief(self):
        with pytest.raises(ValueError):
            CoriParameters(default_belief=1.0)

    def test_invalid_df_parameters(self):
        with pytest.raises(ValueError):
            CoriParameters(df_base=-1.0)
        with pytest.raises(ValueError):
            CoriParameters(df_scale=-0.5)

    def test_shared_parameters_dataclass(self, models):
        params = CoriParameters(default_belief=0.1)
        selector = CoriSelector(params)
        assert selector.params is params
        ranking = selector.rank("xylophone", models)
        assert all(entry.score == pytest.approx(0.1) for entry in ranking.entries)


class TestBGlossSpecifics:
    def test_conjunctive_estimate(self):
        models = {
            "a": make_db({"x": (50, 50), "y": (50, 50)}, docs=100, tokens=1000),
            "b": make_db({"x": (100, 100)}, docs=100, tokens=1000),
        }
        ranking = BGlossSelector().rank("x y", models)
        # a: 100·(0.5·0.5)=25 expected matches; b: 100·(1.0·0.0)=0.
        assert ranking.names[0] == "a"
        assert ranking.entries[0].score == pytest.approx(25.0)
        assert ranking.entries[1].score == pytest.approx(0.0)

    def test_empty_model_scores_zero(self):
        models = {"empty": LanguageModel(), "full": make_db({"x": (1, 1)}, 10, 100)}
        ranking = BGlossSelector().rank("x", models)
        assert ranking.names[0] == "full"


class TestKlSpecifics:
    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            KlSelector(KlParameters(0.0))

    def test_scores_are_log_likelihoods(self, models):
        ranking = KlSelector().rank("football team", models)
        assert all(entry.score < 0 for entry in ranking.entries)


class TestRecallAtN:
    def test_perfect_ranking(self):
        ranking = finish_ranking("q", {"a": 3.0, "b": 2.0, "c": 1.0})
        relevant = {"a": 10, "b": 5, "c": 0}
        assert recall_at_n(ranking, relevant, 1) == 1.0
        assert recall_at_n(ranking, relevant, 2) == 1.0

    def test_worst_ranking(self):
        ranking = finish_ranking("q", {"a": 1.0, "b": 2.0, "c": 3.0})
        relevant = {"a": 10, "b": 0, "c": 0}
        assert recall_at_n(ranking, relevant, 1) == 0.0

    def test_partial(self):
        ranking = finish_ranking("q", {"a": 3.0, "b": 2.0, "c": 1.0})
        relevant = {"a": 5, "b": 0, "c": 5}
        assert recall_at_n(ranking, relevant, 1) == pytest.approx(1.0)
        assert recall_at_n(ranking, relevant, 2) == pytest.approx(0.5)

    def test_no_relevant_documents(self):
        ranking = finish_ranking("q", {"a": 1.0})
        assert recall_at_n(ranking, {"a": 0}, 1) == 1.0

    def test_invalid_n(self):
        ranking = finish_ranking("q", {"a": 1.0})
        with pytest.raises(ValueError):
            recall_at_n(ranking, {"a": 1}, 0)

    def test_database_missing_from_relevance(self):
        ranking = DatabaseRanking("q", (RankedDatabase("mystery", 9.0),))
        assert recall_at_n(ranking, {"other": 4}, 1) == 0.0


class TestEvaluateRankings:
    def test_means_over_queries(self):
        rankings = [
            finish_ranking("q1", {"a": 2.0, "b": 1.0}),
            finish_ranking("q2", {"a": 1.0, "b": 2.0}),
        ]
        relevance = [{"a": 10, "b": 0}, {"a": 10, "b": 0}]
        evaluation = evaluate_rankings("test", rankings, relevance, n_values=(1,))
        assert evaluation.mean_recall[1] == pytest.approx(0.5)
        assert evaluation.num_queries == 2

    def test_parallel_length_enforced(self):
        with pytest.raises(ValueError):
            evaluate_rankings("x", [finish_ranking("q", {"a": 1.0})], [])

    def test_as_row(self):
        evaluation = SelectionEvaluation("lbl", 3, {1: 0.5, 5: 0.75})
        row = evaluation.as_row()
        assert row["label"] == "lbl"
        assert row["R@1"] == 0.5
        assert row["R@5"] == 0.75


class TestQueryAnalysisKeepsNothing:
    """Selectors and the topic router analyze queries with no memo entry."""

    def test_fresh_queries_leave_the_memo_unchanged(self, models):
        analyzer = Analyzer.inquery_style()
        analyzer.analyze("the football teams running to market")
        before = dict(analyzer._token_memo)
        selector = CoriSelector(analyzer=analyzer)
        router = TopicRouter(
            {}, {"sport": {"football": 1.0}, "money": {"market": 2.0}}, analyzer=analyzer
        )
        for i in range(20_000):
            query = f"zq{i}x running Markets"
            assert selector.rank(query, models).names[0] == "finance"
            assert router.match_query(query) == (("money",), 1.0)
        assert analyzer._token_memo == before
        fresh = Analyzer.inquery_style()
        for text in ("The Runners' running, RAN!", "football Markets teams", "zq7x"):
            assert analyze_query(text, analyzer) == fresh.analyze(text)
