"""Per-term model comparison: the referee of :mod:`repro.lm.compare`.

:mod:`repro.lm.compare` aligns two models with one join — their common
terms sorted, each side's df and ctf gathered at C level — and scores
the join with vectorised cores.  This is what the join replaced: the
common vocabulary is a sorted set intersection, every metric value is
looked up term by term through a per-metric getter, ties are ranked by
a loop over runs of equal values, and sums run term by term.
``tests/test_lm_compare.py`` asserts that every metric agrees with these
bit for bit, on every pair of model storages.
"""

from __future__ import annotations

import numpy as np

from repro.lm.model import LanguageModel

__all__ = [
    "METRIC_GETTERS",
    "common_terms",
    "ctf_ratio",
    "percentage_learned",
    "rank_terms",
    "rdiff",
    "spearman_rank_correlation",
]

METRIC_GETTERS = {
    "df": lambda model, term: model.df(term),
    "ctf": lambda model, term: model.ctf(term),
    "avg_tf": lambda model, term: model.avg_tf(term),
}


def common_terms(a: LanguageModel, b: LanguageModel) -> list[str]:
    """The shared vocabulary, sorted."""
    return sorted(a.vocabulary & b.vocabulary)


def rank_terms(
    model: LanguageModel, terms: list[str], metric: str = "df", method: str = "average"
) -> np.ndarray:
    """Rank ``terms`` by descending ``metric`` within ``model``.

    A run of tied terms spanning positions ``first .. last`` (0-based)
    shares ``(first + last) / 2 + 1`` (``"average"``) or ``first + 1``
    (``"min"``).
    """
    getter = METRIC_GETTERS[metric]
    values = [float(getter(model, term)) for term in terms]
    order = sorted(range(len(terms)), key=lambda i: -values[i])
    ranks = np.empty(len(terms), dtype=np.float64)
    first = 0
    while first < len(order):
        last = first
        while last + 1 < len(order) and values[order[last + 1]] == values[order[first]]:
            last += 1
        shared = (first + last) / 2.0 + 1.0 if method == "average" else first + 1.0
        for position in range(first, last + 1):
            ranks[order[position]] = shared
        first = last + 1
    return ranks


def percentage_learned(learned: LanguageModel, actual: LanguageModel) -> float:
    if len(actual) == 0:
        return 0.0
    return sum(1 for term in learned if term in actual) / len(actual)


def ctf_ratio(learned: LanguageModel, actual: LanguageModel) -> float:
    total = actual.total_ctf
    if total == 0:
        return 0.0
    return sum(actual.ctf(term) for term in learned if term in actual) / total


def spearman_rank_correlation(
    learned: LanguageModel,
    actual: LanguageModel,
    metric: str = "df",
    tie_correction: bool = True,
) -> float:
    terms = common_terms(learned, actual)
    n = len(terms)
    if n == 0:
        return 0.0
    if n == 1:
        return 1.0
    learned_ranks = rank_terms(learned, terms, metric)
    actual_ranks = rank_terms(actual, terms, metric)
    if tie_correction:
        learned_std, actual_std = learned_ranks.std(), actual_ranks.std()
        if learned_std == 0 or actual_std == 0:
            return 0.0
        covariance = np.mean(
            (learned_ranks - learned_ranks.mean()) * (actual_ranks - actual_ranks.mean())
        )
        return float(covariance / (learned_std * actual_std))
    squares = sum((x - y) ** 2 for x, y in zip(learned_ranks.tolist(), actual_ranks.tolist()))
    return 1.0 - 6.0 * squares / (n**3 - n)


def rdiff(model_a: LanguageModel, model_b: LanguageModel, metric: str = "df") -> float:
    terms = common_terms(model_a, model_b)
    n = len(terms)
    if n == 0:
        return 0.0
    ranks_a = rank_terms(model_a, terms, metric, method="min").tolist()
    ranks_b = rank_terms(model_b, terms, metric, method="min").tolist()
    return sum(abs(x - y) for x, y in zip(ranks_a, ranks_b)) / (n * n)
