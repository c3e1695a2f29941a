"""Unit tests for repro.dbselect.redde."""

from __future__ import annotations

import pytest

from repro.corpus import Document
from repro.dbselect import ReddeParameters, ReddeSelector
from repro.text import Analyzer


def docs(prefix: str, texts: list[str]) -> list[Document]:
    return [
        Document(doc_id=f"{prefix}-{i}", text=text) for i, text in enumerate(texts)
    ]


@pytest.fixture
def samples() -> dict[str, list[Document]]:
    return {
        "finance": docs(
            "fin",
            [
                "stock market rally continues",
                "bond market yields fall",
                "market traders buy stock",
            ],
        ),
        "sports": docs(
            "spo",
            [
                "football team wins match",
                "team plays championship football",
            ],
        ),
        "cooking": docs("coo", ["bread recipe with honey"]),
    }


class TestReddeRanking:
    def test_topical_query_routes_to_topical_source(self, samples):
        selector = ReddeSelector(samples, ReddeParameters(10), analyzer=Analyzer.raw())
        assert selector.rank("stock market").names[0] == "finance"
        assert selector.rank("football team").names[0] == "sports"

    def test_size_scaling_changes_votes(self, samples):
        # Without scaling, finance (3 sample docs about markets) wins a
        # generic query; scaling cooking's one sampled doc up 1000x
        # makes each of its votes worth far more.
        unscaled = ReddeSelector(samples, ReddeParameters(10), analyzer=Analyzer.raw())
        scaled = ReddeSelector(
            samples,
            ReddeParameters(10),
            estimated_sizes={"finance": 3.0, "sports": 2.0, "cooking": 1000.0},
            analyzer=Analyzer.raw(),
        )
        query = "bread recipe"
        assert unscaled.rank(query).names[0] == "cooking"
        scaled_ranking = scaled.rank(query)
        assert scaled_ranking.names[0] == "cooking"
        assert scaled_ranking.entries[0].score == pytest.approx(1000.0)

    def test_unmatched_query_all_zero(self, samples):
        selector = ReddeSelector(samples, ReddeParameters(10), analyzer=Analyzer.raw())
        ranking = selector.rank("xylophone")
        assert all(entry.score == 0.0 for entry in ranking.entries)
        assert sorted(ranking.names) == sorted(samples)

    def test_models_argument_ignored(self, samples):
        selector = ReddeSelector(samples, ReddeParameters(10), analyzer=Analyzer.raw())
        with_arg = selector.rank("stock market", models={"whatever": object()})
        without = selector.rank("stock market")
        assert with_arg.names == without.names

    def test_missing_size_estimate_falls_back_to_sample_size(self, samples):
        selector = ReddeSelector(
            samples,
            ReddeParameters(10),
            estimated_sizes={"finance": 300.0},  # others missing
            analyzer=Analyzer.raw(),
        )
        ranking = selector.rank("football team")
        sports_score = dict((e.name, e.score) for e in ranking.entries)["sports"]
        # Unscaled votes: each sports doc votes with weight 1.
        assert sports_score == pytest.approx(2.0)

    def test_top_n_limits_votes(self, samples):
        narrow = ReddeSelector(samples, ReddeParameters(1), analyzer=Analyzer.raw())
        ranking = narrow.rank("market stock football")
        total_votes = sum(entry.score for entry in ranking.entries)
        assert total_votes == pytest.approx(1.0)

    def test_validation(self, samples):
        with pytest.raises(ValueError):
            ReddeSelector({})
        with pytest.raises(ValueError):
            ReddeSelector(samples, ReddeParameters(top_n=0))
        with pytest.raises(ValueError):
            ReddeSelector({"empty": []})

    def test_stemmed_central_index_by_default(self, samples):
        selector = ReddeSelector(samples, ReddeParameters(10))
        # Default analyzer stems: "markets" matches "market".
        assert selector.rank("markets").names[0] == "finance"
