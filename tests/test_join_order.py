"""No model comparison depends on the order of the common terms.

:func:`repro.lm.compare.join` hands its common terms over in set
order, which changes with the interpreter's string hashing.  Every
metric is checked here, float bit for float bit, against the same join
in sorted order and in shuffled orders.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lm import LanguageModel, ctf_ratio, join, percentage_learned
from repro.lm.compare import METRICS, Join, gather

words = st.text(alphabet="abcdefg", min_size=1, max_size=4)
#: Small counts, so that ranks tie often; df 0 too, for avg_tf's rule.
counts = st.tuples(st.integers(0, 5), st.integers(0, 4))
tables = st.dictionaries(words, counts, max_size=60)


def model(table: dict[str, tuple[int, int]]) -> LanguageModel:
    held = LanguageModel(name="m")
    for term, (df, extra) in table.items():
        held.add_term(term, df=df, ctf=df + extra)
    return held


def bits(joined: Join) -> list[str]:
    """Every metric a join gives, as the bits of each float."""
    values = []
    for metric in METRICS:
        values.append(joined.rdiff(metric))
        for tie_correction in (True, False):
            values.append(joined.spearman(metric, tie_correction))
    return [value.hex() for value in values]


def in_order(a: LanguageModel, b: LanguageModel, terms: list[str]) -> Join:
    return Join(*gather(a, terms), *gather(b, terms))


class TestJoinOrder:
    @settings(max_examples=80, deadline=None)
    @given(tables, tables, st.randoms(use_true_random=False))
    def test_every_metric_keeps_its_bits_under_a_shuffled_term_order(self, first, second, rng):
        a, b = model(first), model(second)
        terms = sorted(set(first) & set(second))
        expected = bits(in_order(a, b, terms))
        assert bits(join(a, b)) == expected
        for _ in range(3):
            rng.shuffle(terms)
            assert bits(in_order(a, b, terms)) == expected

    def test_thousands_of_common_terms(self):
        rng = np.random.default_rng(7)
        size = 20_000
        terms = [f"t{i}" for i in range(size)]
        a = LanguageModel.from_statistics(
            "a", terms, rng.integers(1, 50, size), rng.integers(50, 500, size)
        )
        b = LanguageModel.from_statistics(
            "b", terms, rng.integers(1, 50, size), rng.integers(50, 500, size)
        )
        expected = bits(in_order(a, b, sorted(terms)))
        shuffled = list(terms)
        random.Random(3).shuffle(shuffled)
        assert bits(in_order(a, b, shuffled)) == bits(join(a, b)) == expected

    def test_coverage_counts_only_the_common_terms(self):
        learned = model({"a": (1, 0), "b": (2, 1), "c": (3, 3), "z": (1, 1)})
        actual = model({"a": (5, 1), "b": (2, 2), "c": (9, 0), "d": (1, 0)})
        assert percentage_learned(learned, actual) == 3 / 4
        assert ctf_ratio(learned, actual) == (6 + 4 + 9) / (6 + 4 + 9 + 1)
