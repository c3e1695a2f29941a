"""Hand-verified numerical tests for the selection algorithms' math."""

from __future__ import annotations

import math

import pytest

from repro.dbselect import CoriSelector, KlParameters, KlSelector, VGlossSelector
from repro.lm import LanguageModel


def db(term_stats: dict[str, tuple[int, int]], docs: int, tokens: int) -> LanguageModel:
    model = LanguageModel()
    for term, (df, ctf) in term_stats.items():
        model.add_term(term, df=df, ctf=ctf)
    model.documents_seen = docs
    model.tokens_seen = tokens
    return model


class TestCoriFormula:
    def test_belief_value_by_hand(self):
        # Two databases, equal word counts (cw = mean_cw = 1000).
        # Term "x": db a has df=30, db b lacks it → cf = 1.
        models = {
            "a": db({"x": (30, 60)}, docs=100, tokens=1000),
            "b": db({"y": (10, 10)}, docs=100, tokens=1000),
        }
        selector = CoriSelector()
        ranking = selector.rank("x", models)
        t_component = 30 / (30 + 50 + 150 * 1000 / 1000)  # = 30/230
        i_component = math.log((2 + 0.5) / 1) / math.log(2 + 1.0)
        expected = 0.4 + 0.6 * t_component * i_component
        score_a = dict((e.name, e.score) for e in ranking.entries)["a"]
        assert score_a == pytest.approx(expected)

    def test_term_in_every_database_gets_low_idf(self):
        models = {
            "a": db({"x": (30, 60)}, docs=100, tokens=1000),
            "b": db({"x": (30, 60)}, docs=100, tokens=1000),
        }
        ranking = CoriSelector().rank("x", models)
        # cf = C = 2: I = log(2.5/2)/log(3), small but positive.
        expected_i = math.log(2.5 / 2) / math.log(3.0)
        t_component = 30 / 230
        expected = 0.4 + 0.6 * t_component * expected_i
        for entry in ranking.entries:
            assert entry.score == pytest.approx(expected)

    def test_larger_database_penalised_at_equal_df(self):
        # Same df, but db a is 10x wordier: its T component shrinks.
        models = {
            "a": db({"x": (30, 60)}, docs=100, tokens=10_000),
            "b": db({"x": (30, 60)}, docs=100, tokens=1_000),
        }
        ranking = CoriSelector().rank("x", models)
        assert ranking.names[0] == "b"

    def test_query_score_is_mean_over_terms(self):
        models = {
            "a": db({"x": (30, 60), "y": (30, 60)}, docs=100, tokens=1000),
            "b": db({"z": (1, 1)}, docs=100, tokens=1000),
        }
        selector = CoriSelector()
        single = dict(
            (e.name, e.score) for e in selector.rank("x", models).entries
        )["a"]
        double = dict(
            (e.name, e.score) for e in selector.rank("x y", models).entries
        )["a"]
        assert double == pytest.approx(single)  # identical beliefs average


class TestVGlossFormula:
    def test_score_is_df_times_avg_tf(self):
        models = {
            "a": db({"x": (10, 40)}, docs=100, tokens=1000),  # avg_tf = 4
            "b": db({"x": (20, 20)}, docs=100, tokens=1000),  # avg_tf = 1
        }
        ranking = VGlossSelector().rank("x", models)
        scores = dict((e.name, e.score) for e in ranking.entries)
        assert scores["a"] == pytest.approx(40.0)  # 10 * 4
        assert scores["b"] == pytest.approx(20.0)  # 20 * 1
        assert ranking.names[0] == "a"


class TestKlFormula:
    def test_log_likelihood_by_hand(self):
        models = {
            "a": db({"x": (50, 100)}, docs=100, tokens=1000),
            "b": db({"y": (50, 100)}, docs=100, tokens=1000),
        }
        selector = KlSelector(KlParameters(0.5))
        ranking = selector.rank("x", models)
        # background: ctf_x = 100 over 2000 tokens → 0.05.
        p_a = 0.5 * (100 / 1000) + 0.5 * 0.05
        p_b = 0.5 * 0.0 + 0.5 * 0.05
        scores = dict((e.name, e.score) for e in ranking.entries)
        assert scores["a"] == pytest.approx(math.log(p_a))
        assert scores["b"] == pytest.approx(math.log(p_b))
        assert ranking.names[0] == "a"

    def test_floor_prevents_log_zero(self):
        models = {
            "a": db({"x": (1, 1)}, docs=10, tokens=10),
            "b": db({"y": (1, 1)}, docs=10, tokens=10),
        }
        ranking = KlSelector().rank("zzz", models)
        assert all(math.isfinite(entry.score) for entry in ranking.entries)
