"""Unit tests for repro.dbselect.merge."""

from __future__ import annotations

import pytest

from repro.dbselect.base import finish_ranking
from repro.dbselect.merge import CoriMerger, MergedResult, RawScoreMerger, RoundRobinMerger
from repro.index.search import RankedHits


def results(*pairs: tuple[str, float]) -> RankedHits:
    """One database's hits, best first, as the columns mergers read."""
    return RankedHits(
        [doc_id for doc_id, _ in pairs],
        [score for _, score in pairs],
        list(range(len(pairs))),
    )


@pytest.fixture
def ranking():
    return finish_ranking("q", {"good": 0.9, "mid": 0.5, "poor": 0.1})


@pytest.fixture
def per_db():
    return {
        "good": results(("g1", 5.0), ("g2", 4.0)),
        "mid": results(("m1", 500.0), ("m2", 400.0)),  # inflated scale!
        "poor": results(("p1", 0.05)),
    }


class TestCoriMerger:
    def test_normalisation_defeats_scale_differences(self, ranking, per_db):
        merged = CoriMerger().merge(ranking, per_db, n=10)
        # Raw scores would put m1/m2 first; the CORI merge normalises
        # within-database, so the good database's top doc wins.
        assert merged[0].doc_id == "g1"

    def test_collection_score_breaks_ties(self, ranking):
        per_db = {
            "good": results(("g1", 3.0), ("g2", 1.0)),
            "poor": results(("p1", 3.0), ("p2", 1.0)),
        }
        merged = CoriMerger().merge(ranking, per_db, n=4)
        # Both top docs normalise to 1.0 within their database; the
        # better collection's doc must rank first.
        assert merged[0].doc_id == "g1"
        assert merged[1].doc_id == "p1"

    def test_respects_n(self, ranking, per_db):
        assert len(CoriMerger().merge(ranking, per_db, n=2)) == 2

    def test_provenance_recorded(self, ranking, per_db):
        merged = CoriMerger().merge(ranking, per_db, n=10)
        assert {item.database for item in merged} == {"good", "mid", "poor"}

    def test_empty_results(self, ranking):
        assert CoriMerger().merge(ranking, {}, n=5) == []

    def test_databases_missing_from_ranking_skipped(self, ranking):
        merged = CoriMerger().merge(ranking, {"unknown": results(("u1", 1.0))}, n=5)
        assert merged == []

    def test_scores_in_unit_interval(self, ranking, per_db):
        merged = CoriMerger().merge(ranking, per_db, n=10)
        assert all(0.0 <= item.score <= 1.0 for item in merged)

    def test_invalid_parameters(self, ranking, per_db):
        with pytest.raises(ValueError):
            CoriMerger(collection_weight=-1)
        with pytest.raises(ValueError):
            CoriMerger().merge(ranking, per_db, n=0)

    def test_duplicates_keep_best_provenance(self, ranking):
        # Document "x" tops the good database's list but sits mid-pack
        # in mid's; only the best-scoring copy survives the merge.
        per_db = {
            "good": results(("x", 5.0), ("g2", 1.0)),
            "mid": results(("m1", 9.0), ("x", 6.0), ("m3", 3.0)),
        }
        merged = CoriMerger().merge(ranking, per_db, n=10)
        copies = [item for item in merged if item.doc_id == "x"]
        assert len(copies) == 1
        assert copies[0].database == "good"  # normalised 1.0 beats mid's 0.5
        assert len({item.doc_id for item in merged}) == len(merged)


class TestRawScoreMerger:
    def test_trusts_raw_scores(self, ranking, per_db):
        merged = RawScoreMerger().merge(ranking, per_db, n=3)
        assert merged[0].doc_id == "m1"  # the inflated scale wins

    def test_deterministic_tie_break(self, ranking):
        per_db = {
            "good": results(("x", 1.0)),
            "mid": results(("x", 1.0), ("y", 1.0)),
        }
        merged = RawScoreMerger().merge(ranking, per_db, n=2)
        # "x" appears once (copies deduplicate); its provenance is the
        # tie-break winner ("good" < "mid"), and "y" still fills slot 2.
        assert [(item.doc_id, item.database) for item in merged] == [
            ("x", "good"),
            ("y", "mid"),
        ]

    def test_unranked_database_dropped(self, ranking):
        per_db = {
            "good": results(("g1", 1.0)),
            "rogue": results(("r1", 99.0)),  # not in the ranking
        }
        merged = RawScoreMerger().merge(ranking, per_db, n=5)
        assert [item.doc_id for item in merged] == ["g1"]

    def test_duplicates_keep_best_score(self, ranking):
        per_db = {
            "good": results(("x", 2.0)),
            "mid": results(("x", 7.0)),
        }
        merged = RawScoreMerger().merge(ranking, per_db, n=5)
        assert merged == [MergedResult(doc_id="x", database="mid", score=7.0)]


class TestRoundRobinMerger:
    def test_interleaves_by_database_rank(self, ranking, per_db):
        merged = RoundRobinMerger().merge(ranking, per_db, n=5)
        assert [item.doc_id for item in merged] == ["g1", "m1", "p1", "g2", "m2"]

    def test_scores_reconstruct_order(self, ranking, per_db):
        merged = RoundRobinMerger().merge(ranking, per_db, n=5)
        scores = [item.score for item in merged]
        assert scores == sorted(scores, reverse=True)

    def test_stops_when_everything_emitted(self, ranking, per_db):
        merged = RoundRobinMerger().merge(ranking, per_db, n=100)
        assert len(merged) == 5

    def test_skips_empty_databases(self, ranking):
        per_db = {"good": results(), "mid": results(("m1", 1.0))}
        merged = RoundRobinMerger().merge(ranking, per_db, n=5)
        assert [item.doc_id for item in merged] == ["m1"]

    def test_duplicates_emitted_once_from_better_rank(self, ranking):
        # "x" heads both lists; it must appear once, attributed to the
        # better-ranked database, without burning a later slot.
        per_db = {
            "good": results(("x", 3.0), ("g2", 2.0)),
            "mid": results(("x", 9.0), ("m2", 8.0)),
        }
        merged = RoundRobinMerger().merge(ranking, per_db, n=4)
        assert [(item.doc_id, item.database) for item in merged] == [
            ("x", "good"),
            ("g2", "good"),
            ("m2", "mid"),
        ]

    def test_unranked_database_dropped(self, ranking):
        per_db = {
            "good": results(("g1", 1.0)),
            "rogue": results(("r1", 1.0)),
        }
        merged = RoundRobinMerger().merge(ranking, per_db, n=5)
        assert [item.doc_id for item in merged] == ["g1"]
