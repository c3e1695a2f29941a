"""Metrics comparing language models (paper Sections 4.3 and 6).

All metrics follow the paper's protocol: they are computed over the
vocabulary the two models share (the learned model is first projected
into the database's term space by the caller — see
:meth:`repro.lm.model.LanguageModel.project`), because "learned and
actual language models were compared only on words that appeared in
both language models".

This module decides two things for the package: which column a metric
name reads (:func:`metric_values`), and how two term tables are aligned
(:func:`join`: on their common terms, in no particular order, each
side's counts gathered in one C-level pass).  Every metric is that join
plus one vectorised core (:class:`Join`); ``tests/reference/compare.py``
keeps the per-term definitions as the referee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.lm.model import LanguageModel

#: The metric names a model's terms are ranked by (paper Section 5.2).
METRICS = ("df", "ctf", "avg_tf")

#: How :meth:`Join.rdiff` ranks tied terms: competition ranks.
_RDIFF_TIES = "min"


def metric_values(metric: str, df: np.ndarray, ctf: np.ndarray) -> np.ndarray:
    """``metric`` (df, ctf or avg_tf) per row of the parallel ``df`` / ``ctf`` columns, as float64.

    avg_tf is ``ctf / df``, and 0.0 where df is 0: a model accepts a
    df-0 term, which ranks last rather than dividing by zero.
    """
    if metric == "df":
        return df.astype(np.float64)
    if metric == "ctf":
        return ctf.astype(np.float64)
    if metric == "avg_tf":
        denominators = df.astype(np.float64)
        ratios = np.zeros(denominators.size, dtype=np.float64)
        return np.divide(ctf, denominators, out=ratios, where=denominators > 0)
    raise ValueError(f"metric must be one of df/ctf/avg_tf, got {metric!r}")


def rank_values(values: np.ndarray, method: str = "average") -> np.ndarray:
    """Rank ``values`` in descending order (rank 1 is the largest), as float64.

    ``method`` says what tied values share: ``"average"`` the mean of
    their positions (fractional ranks, the standard for Spearman
    correlation), ``"min"`` the best position (competition ranks).
    Ties are found with one sort, so no term order enters the ranks.
    """
    if method not in ("average", "min"):
        raise ValueError(f"method must be average/min, got {method!r}")
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
    else:
        shared = run_starts + 1.0
    ranks[order] = shared[run_ids]
    return ranks


def spearman_from_ranks(
    learned_ranks: np.ndarray,
    actual_ranks: np.ndarray,
    tie_correction: bool = True,
) -> float:
    """The Spearman coefficient of two rank vectors of two or more terms.

    Shared by :meth:`Join.spearman` and
    :func:`repro.experiments.runner.measure_run`, so both produce
    bit-identical values.
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


class Join:
    """Two term tables' df and ctf on their common terms: row ``i`` of each column is one term.

    :func:`join` aligns two models on their common terms; a caller whose
    columns are aligned already (two snapshots of one run) makes one
    directly.  Where a metric tells the sides apart, ``a`` is learned.
    """

    __slots__ = ("df_a", "ctf_a", "df_b", "ctf_b")

    def __init__(self, df_a: np.ndarray, ctf_a: np.ndarray, df_b: np.ndarray, ctf_b: np.ndarray):
        self.df_a, self.ctf_a, self.df_b, self.ctf_b = df_a, ctf_a, df_b, ctf_b

    @property
    def size(self) -> int:
        """The number of common terms."""
        return self.df_a.size

    def _ranks(self, metric: str, method: str) -> tuple[np.ndarray, np.ndarray]:
        return (
            rank_values(metric_values(metric, self.df_a, self.ctf_a), method),
            rank_values(metric_values(metric, self.df_b, self.ctf_b), method),
        )

    def spearman(self, metric: str = "df", tie_correction: bool = True) -> float:
        """Spearman's coefficient of the sides' ``metric`` rankings (0.0 on 0 terms, 1.0 on 1)."""
        if self.size < 2:
            return 1.0 if self.size else 0.0
        return spearman_from_ranks(*self._ranks(metric, "average"), tie_correction)

    def rdiff(self, metric: str = "df") -> float:
        """``Σ |rank difference| / n²`` of the sides' ``metric`` rankings (0.0 on no terms).

        Competition ranks depend on the values alone and each rank
        difference is an integer, so no row order changes a bit.
        """
        n = self.size
        if n == 0:
            return 0.0
        ranks_a, ranks_b = self._ranks(metric, _RDIFF_TIES)
        return float(np.abs(ranks_a - ranks_b).sum() / (n * n))


def _term_keys(model: LanguageModel) -> dict[str, int]:
    """A dict whose keys are ``model``'s terms: its df dict, or a view's term → row table."""
    df = model._df
    return df if isinstance(df, dict) else df.table.rows


def gather(
    model: LanguageModel, terms: list[str], columns: tuple[str, ...] = ("df", "ctf")
) -> tuple[np.ndarray, ...]:
    """``model``'s ``columns`` (df and ctf by default) for ``terms``, every one of which it holds.

    One C-level pass per column: a dict-held model's ``__getitem__``
    over the terms, or a column view's rows looked up once and each
    column gathered with one ``take``.
    """
    df, count = model._df, len(terms)
    if isinstance(df, dict):
        tables = {"df": df, "ctf": model._ctf}
        return tuple(
            np.fromiter(map(tables[column].__getitem__, terms), dtype=np.int64, count=count)
            for column in columns
        )
    rows = np.fromiter(map(df.table.rows.__getitem__, terms), dtype=np.intp, count=count)
    held = dict(zip(("df", "ctf"), model.count_columns()))
    return tuple(held[column].take(rows) for column in columns)


def _common_terms(a: LanguageModel, b: LanguageModel) -> list[str]:
    """The terms ``a`` and ``b`` both hold, in no particular order."""
    return list(_term_keys(a).keys() & _term_keys(b).keys())


def join(a: LanguageModel, b: LanguageModel) -> Join:
    """``a`` and ``b`` on the terms both hold, in no particular order.

    No metric depends on the order of the rows.  Every rank is a
    multiple of 0.5 and the mean rank is ``(n + 1) / 2``, so each
    deviation is a multiple of 0.5 and each product or square of two a
    multiple of 0.25.  A sum of those is exact in any order while the
    sum of their magnitudes, at most ``n**3 / 4``, stays below ``2**51``:
    up to about 200,000 common terms.
    """
    terms = _common_terms(a, b)
    return Join(*gather(a, terms), *gather(b, terms))


def percentage_learned(learned: LanguageModel, actual: LanguageModel) -> float:
    """Fraction of the actual vocabulary present in the learned model.

    The paper's Section 4.3.1 metric (and its caveat: most of a text
    database's vocabulary is near-hapax terms that carry little
    information, so this metric understates model quality).
    """
    if len(actual) == 0:
        return 0.0
    return len(_common_terms(learned, actual)) / len(actual)


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
    (covered,) = gather(actual, _common_terms(learned, actual), ("ctf",))
    # Summed as Python integers: exact at any count.
    return sum(covered.tolist()) / total


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
    return join(learned, actual).spearman(metric, tie_correction)


def rdiff(model_a: LanguageModel, model_b: LanguageModel, metric: str = "df") -> float:
    """The paper's rdiff convergence metric (Section 6).

    ``rdiff = (1 / n²) · Σ |d_i|`` where ``d_i`` is the rank difference
    of common term ``i`` and ``n`` the number of common terms: the
    average distance, as a fraction of the number of ranks, each term
    must move to convert one ranking into the other.  Tied terms share a
    competition rank ("multiple terms can occupy each rank").  Comparing
    the learned model at time *t* with the model at *t + δ*, a small and
    falling rdiff signals convergence — the basis of the paper's
    observable stopping criterion.
    """
    return join(model_a, model_b).rdiff(metric)
