"""Unit tests for repro.sampling.selection."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lm import LanguageModel, dumps_language_model
from repro.sampling import (
    FrequencyFromLearned,
    ListBootstrap,
    MaxDocuments,
    QueryBasedSampler,
    RandomFromLearned,
    RandomFromOther,
    is_eligible_query_term,
)
from repro.sampling.selection import _eligible_terms


@pytest.fixture
def learned() -> LanguageModel:
    model = LanguageModel()
    model.add_document(["apple", "apple", "apple", "banana"])      # apple ctf 3
    model.add_document(["apple", "banana", "cherry"])
    model.add_document(["banana", "dragonfruit"])                  # banana df 3
    return model


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestEligibility:
    @pytest.mark.parametrize("term", ["apple", "win32", "abc"])
    def test_eligible(self, term):
        assert is_eligible_query_term(term)

    @pytest.mark.parametrize(
        "term", ["ab", "12", "1988", "", "two words", "a-b", "12\n", "abc\n"]
    )
    def test_ineligible(self, term):
        # The paper: "could not be a number and was required to be 3 or
        # more characters long".
        assert not is_eligible_query_term(term)

    def test_custom_min_length(self):
        assert is_eligible_query_term("ab", min_length=2)


class TestRandomFromLearned:
    def test_selects_from_vocabulary(self, learned):
        term = RandomFromLearned().select(learned, set(), rng())
        assert term in learned.vocabulary

    def test_never_reuses(self, learned):
        strategy = RandomFromLearned()
        used: set[str] = set()
        picks = []
        while True:
            term = strategy.select(learned, used, rng(len(picks)))
            if term is None:
                break
            assert term not in used
            used.add(term)
            picks.append(term)
        assert sorted(picks) == sorted(learned.vocabulary)

    def test_exhausted_returns_none(self, learned):
        used = set(learned.vocabulary)
        assert RandomFromLearned().select(learned, used, rng()) is None

    def test_empty_model_returns_none(self):
        assert RandomFromLearned().select(LanguageModel(), set(), rng()) is None

    def test_ineligible_terms_skipped(self):
        model = LanguageModel()
        model.add_document(["ab", "12", "999"])
        assert RandomFromLearned().select(model, set(), rng()) is None

    def test_deterministic_given_rng(self, learned):
        first = RandomFromLearned().select(learned, set(), rng(42))
        second = RandomFromLearned().select(learned, set(), rng(42))
        assert first == second


class TestFrequencyFromLearned:
    def test_df_picks_highest_df(self, learned):
        assert FrequencyFromLearned("df").select(learned, set(), rng()) == "banana"

    def test_ctf_picks_highest_ctf(self, learned):
        assert FrequencyFromLearned("ctf").select(learned, set(), rng()) == "apple"

    def test_avg_tf_picks_highest_ratio(self, learned):
        # apple: 4/2 = 2.0; banana: 3/3 = 1.0
        assert FrequencyFromLearned("avg_tf").select(learned, set(), rng()) == "apple"

    def test_used_terms_skipped(self, learned):
        assert (
            FrequencyFromLearned("df").select(learned, {"banana"}, rng()) == "apple"
        )

    def test_tie_breaks_alphabetically(self):
        model = LanguageModel()
        model.add_document(["zebra", "aardvark"])
        assert FrequencyFromLearned("df").select(model, set(), rng()) == "aardvark"

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            FrequencyFromLearned("idf")

    def test_name(self):
        assert FrequencyFromLearned("ctf").name == "ctf_llm"


class TestRandomFromOther:
    def test_draws_from_other_model(self, learned):
        other = LanguageModel()
        other.add_document(["xylophone", "yacht"])
        strategy = RandomFromOther(other)
        term = strategy.select(learned, set(), rng())
        assert term in {"xylophone", "yacht"}

    def test_ignores_learned_model(self):
        other = LanguageModel()
        other.add_document(["xylophone"])
        assert RandomFromOther(other).select(LanguageModel(), set(), rng()) == "xylophone"

    def test_exhaustion(self):
        other = LanguageModel()
        other.add_document(["xylophone"])
        assert RandomFromOther(other).select(LanguageModel(), {"xylophone"}, rng()) is None


class TestListBootstrap:
    def test_in_order(self):
        bootstrap = ListBootstrap(["first", "second"])
        assert bootstrap.select(LanguageModel(), set(), rng()) == "first"
        assert bootstrap.select(LanguageModel(), {"first"}, rng()) == "second"

    def test_filters_ineligible(self):
        bootstrap = ListBootstrap(["ab", "12", "valid"])
        assert bootstrap.terms == ["valid"]

    def test_all_ineligible_rejected(self):
        with pytest.raises(ValueError):
            ListBootstrap(["ab", "12"])

    def test_exhaustion(self):
        bootstrap = ListBootstrap(["only"])
        assert bootstrap.select(LanguageModel(), {"only"}, rng()) is None


# -- the selection oracle -------------------------------------------------------
#
# What every strategy promised before it kept any state between calls:
# choose from sorted(eligible(vocabulary) - used).  The selectors under
# test keep that list up to date incrementally; the oracle rebuilds it.

# Eligible and ineligible terms, few enough that runs collide with
# ``used`` and exhaust the vocabulary.
_TERMS = [f"t{i:02d}" for i in range(24)] + ["ab", "12", "345", "x-y", "two words"]

_terms = st.lists(st.sampled_from(_TERMS), max_size=6)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("grow_model"), _terms),
        st.tuples(st.just("grow_used"), _terms),
        st.tuples(st.just("replace_used"), _terms),
        st.tuples(st.just("shrink_used"), st.integers(0, 3)),
        # Often larger than the model it replaces: only its identity tells.
        st.tuples(st.just("swap_model"), st.lists(st.sampled_from(_TERMS), max_size=30)),
        st.tuples(st.just("select"), st.just(None)),
    ),
    min_size=1,
    max_size=40,
)


def _candidates(vocabulary, used: set[str]) -> list[str]:
    return sorted(t for t in set(vocabulary) - used if is_eligible_query_term(t))


def _oracle_random(vocabulary, used, generator):
    candidates = _candidates(vocabulary, used)
    if not candidates:
        return None
    return candidates[int(generator.integers(len(candidates)))]


def _oracle_frequency(metric):
    def choose(model, used, generator):
        best, best_value = None, -1.0
        for term in _candidates(model, used):
            value = float(getattr(model, metric)(term))
            if value > best_value:
                best, best_value = term, value
        return best

    return choose


_OTHER = LanguageModel("other")
_OTHER.add_documents([_TERMS[5:], _TERMS[::2]])

_SELECTORS = {
    "random_llm": (RandomFromLearned, _oracle_random),
    "df_llm": (lambda: FrequencyFromLearned("df"), _oracle_frequency("df")),
    "ctf_llm": (lambda: FrequencyFromLearned("ctf"), _oracle_frequency("ctf")),
    "avg_tf_llm": (lambda: FrequencyFromLearned("avg_tf"), _oracle_frequency("avg_tf")),
    "random_olm": (
        lambda: RandomFromOther(_OTHER),
        lambda model, used, generator: _oracle_random(_OTHER, used, generator),
    ),
}


class TestSelectionOracle:
    @pytest.mark.parametrize("name", sorted(_SELECTORS))
    @settings(max_examples=60, deadline=None)
    @given(steps=_steps, seed=st.integers(0, 2**16))
    def test_every_select_matches_a_rebuild(self, name, steps, seed):
        new_selector, oracle = _SELECTORS[name]
        selector = new_selector()  # one instance across every change below
        model = LanguageModel()
        used: set[str] = set()
        ours, theirs = rng(seed), rng(seed)
        for action, argument in [*steps, ("select", None)]:
            if action == "grow_model":
                model.add_documents([argument])
            elif action == "grow_used":
                used.update(argument)
            elif action == "replace_used":
                used = set(argument)
            elif action == "shrink_used":
                # In place: the same set object, fewer terms.
                for term in sorted(used)[:argument]:
                    used.discard(term)
            elif action == "swap_model":
                model = LanguageModel()
                model.add_documents([argument])
            else:
                chosen = selector.select(model, used, ours)
                assert chosen == oracle(model, used, theirs)
                if chosen is not None:
                    used.add(chosen)
        # Equal draws all along: the generators are still in step.
        assert ours.integers(1 << 30) == theirs.integers(1 << 30)


class TestSelectorsSurviveARestore:
    """``load_state_dict`` swaps the model and ``used`` under live selectors."""

    @pytest.mark.parametrize("strategy", ["random_llm", "df_llm", "random_olm"])
    def test_rolled_back_sampler_repeats_the_uninterrupted_run(
        self, small_synthetic_server, strategy
    ):
        reference_model = small_synthetic_server.actual_language_model()

        def make_sampler() -> QueryBasedSampler:
            return QueryBasedSampler(
                small_synthetic_server,
                bootstrap=RandomFromOther(reference_model),
                strategy={
                    "random_llm": RandomFromLearned(),
                    "df_llm": FrequencyFromLearned("df"),
                    "random_olm": RandomFromOther(reference_model),
                }[strategy],
                seed=5,
            )

        uninterrupted = make_sampler().run(MaxDocuments(100))

        sampler = make_sampler()
        sampler.run(MaxDocuments(40))
        saved = json.loads(json.dumps(sampler.state_dict()))
        # Run on, so that the selectors have seen terms and queries the
        # saved state has not; then roll back under the same selectors.
        sampler.run(MaxDocuments(70))
        sampler.load_state_dict(saved)
        resumed = sampler.run(MaxDocuments(100))

        assert [q.term for q in resumed.queries] == [q.term for q in uninterrupted.queries]
        assert dumps_language_model(resumed.model) == dumps_language_model(uninterrupted.model)


class _RebuildingFromOther:
    """``RandomFromOther`` as it was before any pool: rebuild, then draw."""

    name = "random_olm"

    def __init__(self, other: LanguageModel) -> None:
        self.other = other

    def select(self, learned, used, generator):
        return _oracle_random(self.other, used, generator)


class TestEligibleTermsScreenedOncePerModel:
    """Every sampler's bootstrap pool starts from one screening of its model."""

    def test_pools_of_one_model_share_one_screening(self, small_synthetic_server):
        reference = small_synthetic_server.actual_language_model()
        first = RandomFromOther(reference)
        second = RandomFromOther(reference)
        first.select(LanguageModel(), set(), rng())
        screened = _eligible_terms(reference, first.min_length)
        assert screened == _candidates(reference, set())
        second.select(LanguageModel(), {screened[0]}, rng())
        assert _eligible_terms(reference, second.min_length) is screened
        # Each pool took ``used`` out of its own copy; the screening is intact.
        assert first._pool._terms == screened
        assert second._pool._terms == screened[1:]
        assert screened == _candidates(reference, set())

    def test_a_grown_model_is_screened_again(self):
        model = LanguageModel()
        model.add_documents([["alpha", "beta"]])
        assert _eligible_terms(model, 3) == ["alpha", "beta"]
        model.add_documents([["gamma", "12"]])
        assert _eligible_terms(model, 3) == ["alpha", "beta", "gamma"]

    @pytest.mark.parametrize("seed", range(6))
    def test_sampler_runs_match_a_rebuilding_bootstrap(self, small_synthetic_server, seed):
        reference = small_synthetic_server.actual_language_model()

        def run(bootstrap):
            return QueryBasedSampler(
                small_synthetic_server, bootstrap=bootstrap, seed=seed
            ).run(MaxDocuments(60))

        # Two pooled runs: the first may screen the model, the second
        # starts from the memo.
        pooled = [run(RandomFromOther(reference)) for _ in range(2)]
        rebuilt = run(_RebuildingFromOther(reference))
        for result in pooled:
            assert [q.term for q in result.queries] == [q.term for q in rebuilt.queries]
            assert dumps_language_model(result.model) == dumps_language_model(rebuilt.model)
