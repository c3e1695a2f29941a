"""Metrics comparing language models (paper Sections 4.3 and 6).

All metrics follow the paper's protocol: they are computed over the
vocabulary the two models share (the learned model is first projected
into the database's term space by the caller — see
:meth:`repro.lm.model.LanguageModel.project`), because "learned and
actual language models were compared only on words that appeared in
both language models".
"""

from __future__ import annotations

import numpy as np

from repro.lm.model import LanguageModel

_METRIC_GETTERS = {
    "df": lambda model, term: model.df(term),
    "ctf": lambda model, term: model.ctf(term),
    "avg_tf": lambda model, term: model.avg_tf(term),
}


def _metric_values(model: LanguageModel, terms: list[str], metric: str) -> np.ndarray:
    try:
        getter = _METRIC_GETTERS[metric]
    except KeyError:
        raise ValueError(f"metric must be one of df/ctf/avg_tf, got {metric!r}") from None
    return np.asarray([getter(model, term) for term in terms], dtype=np.float64)


def percentage_learned(learned: LanguageModel, actual: LanguageModel) -> float:
    """Fraction of the actual vocabulary present in the learned model.

    The paper's Section 4.3.1 metric (and its caveat: most of a text
    database's vocabulary is near-hapax terms that carry little
    information, so this metric understates model quality).
    """
    if len(actual) == 0:
        return 0.0
    common = sum(1 for term in learned if term in actual)
    return common / len(actual)


def ctf_ratio(learned: LanguageModel, actual: LanguageModel) -> float:
    """Fraction of database term *occurrences* covered by learned terms.

    The paper's Section 4.3.2 metric: ``Σ_{t ∈ V'} ctf_t / Σ_{t ∈ V}
    ctf_t`` with ctf taken from the **actual** database.  A ratio of
    0.8 means the learned vocabulary accounts for 80% of the word
    occurrences in the database.
    """
    total = actual.total_ctf
    if total == 0:
        return 0.0
    covered = sum(actual.ctf(term) for term in learned if term in actual)
    return covered / total


def rank_values(
    values: np.ndarray,
    terms: list[str],
    method: str = "average",
) -> np.ndarray:
    """Rank pre-gathered metric ``values`` (descending; rank 1 is best).

    The computational core of :func:`rank_terms`, exposed so callers
    that already hold a value array (e.g.
    :func:`repro.experiments.runner.measure_run`) can skip per-term
    model lookups.  Tie handling is fully vectorized: runs of equal
    values share the mean position (``"average"``) or the best position
    (``"min"``), computed with the same float operations as the scalar
    definition so results are bit-identical to a term-by-term loop.
    """
    if method == "ordinal":
        order = sorted(range(len(terms)), key=lambda i: (-values[i], terms[i]))
        ranks = np.empty(len(terms), dtype=np.float64)
        for position, index in enumerate(order, start=1):
            ranks[index] = position
        return ranks
    if method not in ("average", "min"):
        raise ValueError(f"method must be average/min/ordinal, got {method!r}")
    return _shared_ranks(values, method)


def _shared_ranks(values: np.ndarray, method: str) -> np.ndarray:
    """:func:`rank_values` for ``"average"`` / ``"min"``: no term order needed."""
    n = values.size
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    if n == 0:
        return ranks
    # Boundaries of runs of equal sorted values; every member of a run
    # shares one rank derived from the run's start/end positions.
    sorted_values = values[order]
    run_start_mask = np.empty(n, dtype=bool)
    run_start_mask[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=run_start_mask[1:])
    run_ids = np.cumsum(run_start_mask) - 1
    run_starts = np.flatnonzero(run_start_mask)
    if method == "average":
        run_ends = np.append(run_starts[1:], n) - 1
        shared = (run_starts + run_ends) / 2.0 + 1.0
    else:  # min / competition ranking
        shared = run_starts + 1.0
    ranks[order] = shared[run_ids]
    return ranks


def rank_terms(
    model: LanguageModel,
    terms: list[str],
    metric: str = "df",
    method: str = "average",
) -> np.ndarray:
    """Rank ``terms`` by descending ``metric`` within ``model``.

    Rank 1 is the most frequent term.  ``method`` controls ties:

    * ``"average"`` — tied terms share the mean of their positions
      (fractional ranks; standard for Spearman correlation);
    * ``"min"`` — tied terms share the best position (competition
      ranking; the paper's rdiff discussion of "multiple terms can
      occupy each rank" corresponds to this);
    * ``"ordinal"`` — ties broken deterministically by term string.
    """
    return rank_values(_metric_values(model, terms, metric), terms, method)


def common_terms(a: LanguageModel, b: LanguageModel) -> list[str]:
    """The shared vocabulary, sorted for determinism."""
    return sorted(a.vocabulary & b.vocabulary)


def spearman_rank_correlation(
    learned: LanguageModel,
    actual: LanguageModel,
    metric: str = "df",
    tie_correction: bool = True,
) -> float:
    """Spearman rank correlation of the two models' term rankings.

    The paper's Section 4.3.3 metric: terms appearing in both models
    are ranked by ``metric`` within each model; the coefficient is 1.0
    for identical rankings, 0.0 for uncorrelated, -1.0 for reversed.

    With ``tie_correction`` (default) the coefficient is the Pearson
    correlation of fractional ranks, which is exact in the presence of
    ties.  Without it, the paper's textbook formula
    ``1 - 6 Σ d² / (n³ - n)`` is used.
    """
    terms = common_terms(learned, actual)
    n = len(terms)
    if n == 0:
        return 0.0
    if n == 1:
        return 1.0
    learned_ranks = rank_terms(learned, terms, metric)
    actual_ranks = rank_terms(actual, terms, metric)
    return spearman_from_ranks(learned_ranks, actual_ranks, tie_correction)


def spearman_from_ranks(
    learned_ranks: np.ndarray,
    actual_ranks: np.ndarray,
    tie_correction: bool = True,
) -> float:
    """The Spearman coefficient of two pre-computed rank vectors.

    Shared by :func:`spearman_rank_correlation` and
    :func:`repro.experiments.runner.measure_run` so both produce
    bit-identical values.  Callers handle the degenerate n ∈ {0, 1}
    cases.
    """
    if tie_correction:
        learned_std = learned_ranks.std()
        actual_std = actual_ranks.std()
        if learned_std == 0 or actual_std == 0:
            # A constant ranking (all ties) carries no ordering information.
            return 0.0
        covariance = np.mean(
            (learned_ranks - learned_ranks.mean()) * (actual_ranks - actual_ranks.mean())
        )
        return float(covariance / (learned_std * actual_std))
    n = learned_ranks.size
    differences = learned_ranks - actual_ranks
    return float(1.0 - 6.0 * np.sum(differences**2) / (n**3 - n))


def rdiff(
    model_a: LanguageModel,
    model_b: LanguageModel,
    metric: str = "df",
    method: str = "min",
) -> float:
    """The paper's rdiff convergence metric (Section 6).

    ``rdiff = (1 / n²) · Σ |d_i|`` where ``d_i`` is the rank difference
    of common term ``i`` and ``n`` the number of common terms: the
    average distance, as a fraction of the number of ranks, each term
    must move to convert one ranking into the other.  Comparing the
    learned model at time *t* with the model at *t + δ*, a small and
    falling rdiff signals convergence — the basis of the paper's
    observable stopping criterion.
    """
    terms = common_terms(model_a, model_b)
    n = len(terms)
    if n == 0:
        return 0.0
    ranks_a = rank_terms(model_a, terms, metric, method=method)
    ranks_b = rank_terms(model_b, terms, metric, method=method)
    return float(np.abs(ranks_a - ranks_b).sum() / (n * n))


def rdiff_of_values(values_a: np.ndarray, values_b: np.ndarray) -> float:
    """:func:`rdiff` (``method="min"``) of two models' metric values on their common terms.

    ``values_a[i]`` and ``values_b[i]`` belong to the same common term,
    in any term order: competition ranks do not depend on it, and every
    rank difference is an integer, so the sum is exact in any order and
    the result equals :func:`rdiff`'s bit for bit.
    """
    n = values_a.size
    if n == 0:
        return 0.0
    ranks_a = _shared_ranks(values_a, "min")
    ranks_b = _shared_ranks(values_b, "min")
    return float(np.abs(ranks_a - ranks_b).sum() / (n * n))
