"""The CORI selector against its referee, to the bit.

Property-style sweep: random synthetic model sets of varying sizes and
sparsity, queries with known, unknown, duplicated, and no terms, and
long queries.  :class:`CoriSelector` counts each term's ``cf`` once per
query; :func:`tests.reference.cori_rank_scalar` recounts it inside
every database's loop.  Every score must be *equal* — same grouping of
every float operation, beliefs added in query-term order — so the
ranking is the same ranking, ties included.  Long queries over many
databases are what would expose a changed summation order.
"""

from __future__ import annotations

import random

import pytest

from repro.dbselect import CoriParameters, CoriSelector
from repro.lm import LanguageModel
from tests.reference import cori_rank_scalar

VOCABULARY = [f"term{i:02d}" for i in range(60)]


def random_models(rng: random.Random, num_databases: int) -> dict[str, LanguageModel]:
    models: dict[str, LanguageModel] = {}
    for i in range(num_databases):
        model = LanguageModel()
        for term in rng.sample(VOCABULARY, k=rng.randint(1, len(VOCABULARY))):
            df = rng.randint(1, 400)
            model.add_term(term, df=df, ctf=df + rng.randint(0, 600))
        model.documents_seen = rng.randint(50, 2000)
        model.tokens_seen = rng.randint(500, 100_000)
        models[f"db{i:03d}"] = model
    return models


def probe_queries(rng: random.Random) -> list[str]:
    queries = [
        " ".join(rng.choice(VOCABULARY) for _ in range(rng.randint(1, 5)))
        for _ in range(10)
    ]
    # Long queries, a few unknown terms mixed in: the belief sum's order.
    words = [*VOCABULARY, "zzz", "qqq"]
    queries.extend(" ".join(rng.choices(words, k=rng.randint(9, 30))) for _ in range(3))
    queries.append("")  # empty query
    queries.append("zzz qqq")  # every term unseen
    queries.append("term00 term00 term01")  # duplicate terms preserved
    queries.append("term02 zzz")  # known and unknown mixed
    return queries


def assert_equal_to_reference(selector: CoriSelector, models, query) -> None:
    served = selector.rank(query, models)
    reference = cori_rank_scalar(query, models, selector.params, analyzer=selector.analyzer)
    assert served.names == reference.names, f"ranking diverged for {query!r}"
    assert [entry.score for entry in served.entries] == [
        entry.score for entry in reference.entries
    ], query


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("num_databases", [2, 7, 40, 130])
    def test_random_model_sets(self, seed, num_databases):
        rng = random.Random(seed * 1000 + num_databases)
        models = random_models(rng, num_databases)
        selector = CoriSelector()
        for query in probe_queries(rng):
            assert_equal_to_reference(selector, models, query)

    @pytest.mark.parametrize(
        "params",
        [
            CoriParameters(default_belief=0.0),
            CoriParameters(default_belief=0.2),
            CoriParameters(df_base=10.0, df_scale=400.0),
        ],
        ids=["zero-belief", "low-belief", "shifted-df"],
    )
    def test_custom_parameters(self, params):
        rng = random.Random(99)
        models = random_models(rng, 12)
        selector = CoriSelector(params)
        for query in probe_queries(rng):
            assert_equal_to_reference(selector, models, query)

    def test_identical_models_tie_broken_by_name(self):
        def make() -> LanguageModel:
            model = LanguageModel()
            model.add_term("apple", df=10, ctf=25)
            model.add_term("pear", df=3, ctf=4)
            model.documents_seen = 40
            model.tokens_seen = 1000
            return model

        # Three byte-identical models reach identical floats, so the
        # name tie-break decides alone.
        models = {"zeta": make(), "alpha": make(), "mid": make()}
        ranking = CoriSelector().rank("apple pear", models)
        assert ranking.names == cori_rank_scalar("apple pear", models).names
        assert ranking.names == ["alpha", "mid", "zeta"]
        assert len({entry.score for entry in ranking.entries}) == 1


class TestSelectorSurface:
    @pytest.fixture
    def models(self):
        return random_models(random.Random(7), 5)

    def test_empty_models_rejected(self):
        with pytest.raises(ValueError):
            CoriSelector().rank("term00", {})

    def test_empty_query_scores_zero(self, models):
        ranking = CoriSelector().rank("", models)
        assert all(entry.score == 0.0 for entry in ranking.entries)

    def test_unseen_terms_score_default_belief(self, models):
        selector = CoriSelector()
        ranking = selector.rank("zzz qqq", models)
        assert all(
            entry.score == selector.params.default_belief for entry in ranking.entries
        )
