"""Unit tests for repro.lm.compare — the paper's metrics.

Includes the paper's own worked examples: the apple/bear ctf-ratio
example of Section 4.3.2 and the two-swapped-terms rdiff example of
Section 6, and the join checked against the per-term referee
(``tests/reference/compare.py``) on every pair of model storages.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import repro.lm.compare as compare
from repro.lm import (
    LanguageModel,
    ctf_ratio,
    dumps_language_model,
    join,
    loads_language_model,
    pack_language_model,
    percentage_learned,
    rdiff,
    spearman_rank_correlation,
    unpack_language_model,
)
from repro.lm.compare import METRICS, metric_values, rank_values
from repro.lm.model import ColumnCounts
from repro.sampling.result import Snapshot, snapshot_rdiff
from tests.reference import compare as reference


def make_model(term_ctf: dict[str, int], name: str = "m") -> LanguageModel:
    """Model where each term occurs ctf times across ctf documents."""
    model = LanguageModel(name=name)
    for term, ctf in term_ctf.items():
        model.add_term(term, df=ctf, ctf=ctf)
    return model


class TestPercentageLearned:
    def test_full_coverage(self):
        actual = make_model({"a": 3, "b": 2})
        assert percentage_learned(actual, actual) == 1.0

    def test_partial_coverage(self):
        actual = make_model({"a": 3, "b": 2, "c": 1, "d": 1})
        learned = make_model({"a": 1, "b": 1})
        assert percentage_learned(learned, actual) == 0.5

    def test_extra_learned_terms_ignored(self):
        actual = make_model({"a": 3, "b": 2})
        learned = make_model({"a": 1, "x": 9, "y": 9})
        assert percentage_learned(learned, actual) == 0.5

    def test_empty_actual(self):
        assert percentage_learned(make_model({"a": 1}), make_model({})) == 0.0


class TestCtfRatio:
    def test_paper_apple_bear_example(self):
        # "if the database consists of 99 occurrences of apple and 1
        # occurrence of bear, and if the learned language model contains
        # just apple, its ctf ratio is 99 / (99 + 1) = 0.99"
        actual = make_model({"apple": 99, "bear": 1})
        learned = make_model({"apple": 5})
        assert ctf_ratio(learned, actual) == pytest.approx(0.99)

    def test_full_coverage(self):
        actual = make_model({"a": 10, "b": 5})
        assert ctf_ratio(actual, actual) == 1.0

    def test_uses_actual_frequencies_not_learned(self):
        actual = make_model({"a": 90, "b": 10})
        learned = make_model({"b": 1000})  # learned frequencies irrelevant
        assert ctf_ratio(learned, actual) == pytest.approx(0.10)

    def test_empty_actual(self):
        assert ctf_ratio(make_model({"a": 1}), make_model({})) == 0.0

    def test_monotone_in_vocabulary(self):
        actual = make_model({"a": 50, "b": 30, "c": 20})
        smaller = make_model({"a": 1})
        larger = make_model({"a": 1, "b": 1})
        assert ctf_ratio(larger, actual) > ctf_ratio(smaller, actual)


class TestRankTerms:
    def test_rank_one_is_most_frequent(self):
        ranks = rank_values(np.array([10.0, 5.0, 1.0]))
        assert ranks.tolist() == [1.0, 2.0, 3.0]

    def test_average_tie_method(self):
        ranks = rank_values(np.array([5.0, 5.0, 1.0]), "average")
        assert ranks.tolist() == [1.5, 1.5, 3.0]

    def test_min_tie_method(self):
        ranks = rank_values(np.array([5.0, 5.0, 1.0]), "min")
        assert ranks.tolist() == [1.0, 1.0, 3.0]

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            rank_values(np.array([1.0]), "dense")

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            metric_values("idf", np.array([1]), np.array([1]))


class TestSpearman:
    def test_identical_rankings(self):
        model = make_model({"a": 10, "b": 5, "c": 2})
        assert spearman_rank_correlation(model, model) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        learned = make_model({"a": 1, "b": 2, "c": 3})
        actual = make_model({"a": 3, "b": 2, "c": 1})
        assert spearman_rank_correlation(learned, actual) == pytest.approx(-1.0)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(0)
        terms = [f"t{i}" for i in range(60)]
        learned_freqs = rng.integers(1, 12, size=60)
        actual_freqs = rng.integers(1, 12, size=60)
        learned = make_model({t: int(f) for t, f in zip(terms, learned_freqs)})
        actual = make_model({t: int(f) for t, f in zip(terms, actual_freqs)})
        ours = spearman_rank_correlation(learned, actual)
        # scipy ranks ascending; correlation is invariant to direction
        # as long as both sides use the same one.
        reference = scipy_stats.spearmanr(learned_freqs, actual_freqs).statistic
        assert ours == pytest.approx(reference, abs=1e-12)

    def test_textbook_formula_without_ties(self):
        learned = make_model({"a": 40, "b": 30, "c": 20, "d": 10})
        actual = make_model({"a": 40, "b": 20, "c": 30, "d": 10})
        # b and c swap: d² sum = 2, n = 4 → 1 - 12/60 = 0.8
        value = spearman_rank_correlation(learned, actual, tie_correction=False)
        assert value == pytest.approx(0.8)

    def test_no_common_terms(self):
        assert spearman_rank_correlation(make_model({"a": 1}), make_model({"b": 1})) == 0.0

    def test_single_common_term(self):
        learned = make_model({"a": 1, "x": 2})
        actual = make_model({"a": 5, "y": 2})
        assert spearman_rank_correlation(learned, actual) == 1.0

    def test_constant_ranking_returns_zero(self):
        learned = make_model({"a": 3, "b": 3, "c": 3})
        actual = make_model({"a": 5, "b": 2, "c": 1})
        assert spearman_rank_correlation(learned, actual) == 0.0

    def test_only_common_terms_compared(self):
        learned = make_model({"a": 10, "b": 5, "x": 99, "y": 98})
        actual = make_model({"a": 10, "b": 5, "p": 99})
        assert spearman_rank_correlation(learned, actual) == pytest.approx(1.0)


class TestRdiff:
    def test_paper_swap_example(self):
        # "given two rankings of 100 terms that are identical except
        # [two terms swap the 4th and 5th ranks], rdiff = (1/(100*100))
        # * (2) = 0.0002".
        terms = {f"t{i:03d}": 1000 - i for i in range(100)}
        first = make_model(dict(terms))
        swapped = dict(terms)
        swapped["t003"], swapped["t004"] = swapped["t004"], swapped["t003"]
        second = make_model(swapped)
        assert rdiff(first, second) == pytest.approx(0.0002)

    def test_identical_models_zero(self):
        model = make_model({"a": 9, "b": 4, "c": 1})
        assert rdiff(model, model) == 0.0

    def test_symmetry(self):
        first = make_model({"a": 9, "b": 4, "c": 1, "d": 7})
        second = make_model({"a": 1, "b": 9, "c": 4, "d": 2})
        assert rdiff(first, second) == pytest.approx(rdiff(second, first))

    def test_reversed_ranking_upper_range(self):
        # With distinct ranks, a full reversal gives the metric's
        # maximum, which approaches 0.5 as n grows.
        n = 10
        first = make_model({f"t{i}": 100 - i for i in range(n)})
        second = make_model({f"t{i}": i + 1 for i in range(n)})
        assert rdiff(first, second) == pytest.approx(0.5, abs=0.05)

    def test_no_common_terms(self):
        assert rdiff(make_model({"a": 1}), make_model({"b": 1})) == 0.0

    def test_bounded_zero_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            first = make_model({f"t{i}": int(rng.integers(1, 5)) for i in range(30)})
            second = make_model({f"t{i}": int(rng.integers(1, 5)) for i in range(30)})
            value = rdiff(first, second)
            assert 0.0 <= value <= 1.0


words = st.text(alphabet="abcde", min_size=1, max_size=3)
#: df and how far ctf exceeds it: small counts tie often (df 0 too, for
#: avg_tf's rule), and up to 70,000 a column takes two or four bytes.
counts = st.tuples(
    st.one_of(st.integers(0, 4), st.integers(0, 70_000)), st.integers(0, 6)
)
tables = st.dictionaries(words, counts, max_size=25)


def storages(table: dict[str, tuple[int, int]]) -> dict[str, LanguageModel]:
    """``table``'s counts in every storage a compared model comes in."""
    held = LanguageModel(name="m")
    for term, (df, extra) in table.items():
        held.add_term(term, df=df, ctf=df + extra)
    terms = list(table)
    dfs, ctfs = held.count_columns()

    def view(keys: list[str] | dict[str, int]) -> LanguageModel:
        return LanguageModel.over_columns(
            "m", keys, dfs, ctfs, documents_seen=0, tokens_seen=0, total_ctf=held.total_ctf
        )

    models = {
        "dict": held,
        "sorted file view": unpack_language_model(pack_language_model(held)),
        "insertion-order view": view(terms),
        "index export": view({term: row for row, term in enumerate(terms)}),
    }
    assert all(type(m._df) is ColumnCounts for name, m in models.items() if name != "dict")
    return models


def metrics(module, learned: LanguageModel, actual: LanguageModel) -> list[str]:
    """Every metric of ``module`` on the pair, as the bits of each float."""
    values = [module.percentage_learned(learned, actual), module.ctf_ratio(learned, actual)]
    for metric in METRICS:
        values.append(module.rdiff(learned, actual, metric))
        for tie_correction in (True, False):
            values.append(
                module.spearman_rank_correlation(learned, actual, metric, tie_correction)
            )
    return [value.hex() for value in values]


class TestJoinAgainstReferee:
    @settings(max_examples=60, deadline=None)
    @given(tables, tables)
    def test_every_metric_equals_the_per_term_referee_on_every_pair_of_storages(
        self, table_a, table_b
    ):
        firsts, seconds = storages(table_a), storages(table_b)
        expected = metrics(reference, firsts["dict"], seconds["dict"])
        # The staleness probe's one join: rdiff(stored, probe) and
        # Spearman(probe, stored) from join(probe, stored).
        probe_expected = [
            reference.rdiff(seconds["dict"], firsts["dict"]).hex(),
            reference.spearman_rank_correlation(firsts["dict"], seconds["dict"]).hex(),
        ]
        for first in firsts.values():
            for second in seconds.values():
                assert metrics(compare, first, second) == expected
                joined = join(first, second)
                assert [joined.rdiff().hex(), joined.spearman().hex()] == probe_expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.lists(words, max_size=6), max_size=3), min_size=2, max_size=4))
    def test_snapshot_rdiff_equals_the_referee_for_one_run_and_restored_snapshots(
        self, batches
    ):
        model = LanguageModel(name="learned")
        live, restored, copies = [], [], []
        for batch in batches:
            model.add_documents(batch)
            live.append(Snapshot(len(live), 0, model))
            # What a sampler restored from its checkpoint holds.
            restored.append(
                Snapshot(len(restored), 0, loads_language_model(dumps_language_model(model)))
            )
            copies.append(model.copy())
        assert live[0].shares_terms_with(live[-1])
        assert not restored[0].shares_terms_with(restored[-1])
        for i in range(len(copies)):
            for j in range(i + 1, len(copies)):
                for metric in METRICS:
                    expected = reference.rdiff(copies[i], copies[j], metric).hex()
                    for first, second in (
                        (live[i], live[j]),
                        (restored[i], restored[j]),
                        (restored[i], live[j]),
                    ):
                        assert snapshot_rdiff(first, second, metric).hex() == expected
