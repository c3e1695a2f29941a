"""Query-term selection strategies (paper Sections 4.4 and 5.2).

All strategies enforce the paper's eligibility rules: a query term
"could not be a number and was required to be 3 or more characters
long", and a term is never reused within one sampling run.

The strategies tested by the paper:

* ``Random, llm`` — uniform choice from the *learned* language model
  (the paper's empirical baseline, and its best performer);
* ``df / ctf / avg-tf, llm`` — highest-frequency eligible term from the
  learned model under each frequency metric (the paper's falsified
  "frequent terms give random samples" hypothesis);
* ``Random, olm`` — uniform choice from some *other*, more complete
  language model (the paper's "olm" hypothesis; learns faster per
  document but runs many failing queries — Table 3).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Protocol, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro.lm.compare import METRICS, gather, metric_values
from repro.lm.model import LanguageModel

#: Minimum query-term length (paper Section 4.4).
MIN_QUERY_TERM_LENGTH = 3


def is_eligible_query_term(term: str, min_length: int = MIN_QUERY_TERM_LENGTH) -> bool:
    """Apply the paper's query-term requirements.

    A term is eligible when it is one whole token
    (:data:`repro.text.tokenizer.TOKEN_PATTERN` under ``fullmatch``),
    not a number (:data:`~repro.text.tokenizer.NUMERIC_PATTERN`) and
    long enough.  ASCII and alphanumeric is exactly ``[A-Za-z0-9]+``,
    and an ASCII string of digits exactly ``[0-9]+``, so three ``str``
    methods decide it — a pool screens a whole vocabulary per sampler,
    and the two regex matches were most of that cost.
    """
    return (
        len(term) >= min_length
        and term.isascii()
        and term.isalnum()
        and not term.isdigit()
    )


class QueryTermSelector(Protocol):
    """Chooses the next query term, or ``None`` when out of candidates."""

    name: str

    def select(
        self,
        learned: LanguageModel,
        used: set[str],
        rng: np.random.Generator,
    ) -> str | None:
        """Return the next query term not in ``used``, or ``None``."""
        ...  # pragma: no cover - protocol


#: Per model and minimum length: the vocabulary size screened and the
#: sorted eligible terms.  A vocabulary only grows, so an entry is good
#: while the model's length is unchanged.  Every sampler drawing from
#: one reference model (a ``RandomFromOther`` per database and round)
#: starts its pool from here instead of screening and sorting the whole
#: vocabulary again.
_ELIGIBLE: WeakKeyDictionary[LanguageModel, dict[int, tuple[int, list[str]]]] = (
    WeakKeyDictionary()
)


def _eligible_terms(model: LanguageModel, min_length: int) -> list[str]:
    """``sorted(t for t in model if eligible(t))``, screened once per model
    and length; the list is shared — do not mutate."""
    by_length = _ELIGIBLE.setdefault(model, {})
    size = len(model)
    screened = by_length.get(min_length)
    if screened is None or screened[0] != size:
        terms = sorted(t for t in model if is_eligible_query_term(t, min_length))
        by_length[min_length] = screened = (size, terms)
    return screened[1]


class _UnusedPool:
    """The eligible terms of one model that ``used`` does not hold, sorted.

    Always equal to ``sorted(t for t in model if eligible(t) and t not
    in used)`` — the candidate list every strategy chooses from — but
    maintained between calls rather than rebuilt on each.  A model's
    vocabulary only grows, eligibility depends on nothing but the term,
    and within one run ``used`` only grows, so a call has to look only
    at what is new: vocabulary added since the last call
    (:meth:`LanguageModel.terms_since`) is screened once and inserted in
    order, and terms that entered ``used`` since then (a C-level set
    difference) are taken out by bisection.  A uniform draw is then an
    index into this list, the same index into the same list a rebuild
    would give, so query sequences do not depend on the bookkeeping.

    Anything else starts the pool over from the whole vocabulary: a
    different model object, a model that shrank, or a ``used`` that
    lost terms the pool had already taken out (a checkpoint restore
    swaps both mid-run; a selector handed to a second sampler sees a
    fresh ``used``).  A start-over copies the model's sorted eligible
    terms (:func:`_eligible_terms`, screened once per model).
    """

    def __init__(self, min_length: int) -> None:
        self.min_length = min_length
        self._model: LanguageModel | None = None
        #: ``len(model)`` when the vocabulary was last screened.
        self._scanned = 0
        #: The terms of ``used`` already taken out of the pool.
        self._synced: set[str] = set()
        self._terms: list[str] = []

    def sync(self, model: LanguageModel, used: set[str]) -> list[str]:
        """Bring the pool up to date; the list is shared — do not mutate."""
        newly_used = used - self._synced
        if (
            model is not self._model
            or len(model) < self._scanned
            # used ⊇ synced exactly when the difference is this small.
            or len(newly_used) != len(used) - len(self._synced)
        ):
            self._model = model
            self._scanned = len(model)
            self._synced = set()
            self._terms = list(_eligible_terms(model, self.min_length))
            newly_used = used
        terms = self._terms
        synced = self._synced
        for term in newly_used:
            position = bisect_left(terms, term)
            if position < len(terms) and terms[position] == term:
                del terms[position]
        synced.update(newly_used)
        if len(model) != self._scanned:
            min_length = self.min_length
            added = [
                term
                for term in model.terms_since(self._scanned)
                if term not in synced and is_eligible_query_term(term, min_length)
            ]
            if terms:
                for term in added:
                    insort(terms, term)
            else:
                # Everything at once: a pool emptied or started empty.
                added.sort()
                terms.extend(added)
            self._scanned = len(model)
        return terms


def _draw(terms: list[str], rng: np.random.Generator) -> str | None:
    """One uniform draw from ``terms`` (``None`` and no draw when empty)."""
    if not terms:
        return None
    return terms[int(rng.integers(len(terms)))]


class RandomFromLearned:
    """Uniform random choice from the learned model's vocabulary."""

    name = "random_llm"

    def __init__(self, min_length: int = MIN_QUERY_TERM_LENGTH) -> None:
        self.min_length = min_length
        self._pool = _UnusedPool(min_length)

    def select(
        self, learned: LanguageModel, used: set[str], rng: np.random.Generator
    ) -> str | None:
        """Pick an unused eligible learned term uniformly at random."""
        return _draw(self._pool.sync(learned, used), rng)


class FrequencyFromLearned:
    """Highest-frequency eligible term from the learned model.

    ``metric`` is one of ``"df"``, ``"ctf"``, or ``"avg_tf"`` — the
    three frequency criteria the paper tests in Section 5.2.
    """

    def __init__(self, metric: str = "df", min_length: int = MIN_QUERY_TERM_LENGTH) -> None:
        if metric not in METRICS:
            raise ValueError(f"metric must be df/ctf/avg_tf, got {metric!r}")
        self.metric = metric
        self.min_length = min_length
        self.name = f"{metric}_llm"
        self._pool = _UnusedPool(min_length)

    def select(
        self, learned: LanguageModel, used: set[str], rng: np.random.Generator
    ) -> str | None:
        """Pick the highest-frequency unused eligible learned term."""
        candidates = self._pool.sync(learned, used)
        if not candidates:
            return None
        # argmax keeps the first of equal values and the pool is sorted,
        # so ties go to the alphabetically first term.
        values = metric_values(self.metric, *gather(learned, candidates))
        return candidates[int(np.argmax(values))]


class RandomFromOther:
    """Uniform random choice from a reference ("other") language model.

    The paper's olm strategy: draw query terms from a complete language
    model of some other collection.  Terms the target database has never
    seen simply fail (zero hits), which is why this strategy runs about
    twice as many queries per sampled document (Table 3).
    """

    name = "random_olm"

    def __init__(
        self, other: LanguageModel, min_length: int = MIN_QUERY_TERM_LENGTH
    ) -> None:
        self.other = other
        self.min_length = min_length
        self._pool = _UnusedPool(min_length)

    def select(
        self, learned: LanguageModel, used: set[str], rng: np.random.Generator
    ) -> str | None:
        """Pick an unused eligible term from the other model at random."""
        return _draw(self._pool.sync(self.other, used), rng)


def screen_reference(selector: QueryTermSelector) -> None:
    """Screen the reference model a :class:`RandomFromOther` draws from.

    Fills this process's :func:`_eligible_terms` cache, which changes no
    draw; a forked child inherits the entry instead of screening the
    whole reference vocabulary again and losing the result on exit.
    """
    if isinstance(selector, RandomFromOther):
        _eligible_terms(selector.other, selector.min_length)


class ListBootstrap:
    """Draws terms from a fixed list, in order, skipping used terms.

    Convenient as an explicit, reproducible source of initial query
    terms when no reference language model is available.
    """

    name = "list"

    def __init__(self, terms: Sequence[str], min_length: int = MIN_QUERY_TERM_LENGTH) -> None:
        self.terms = [t for t in terms if is_eligible_query_term(t, min_length)]
        if not self.terms:
            raise ValueError("no eligible terms in bootstrap list")

    def select(
        self, learned: LanguageModel, used: set[str], rng: np.random.Generator
    ) -> str | None:
        """Return the first unused term of the list."""
        for term in self.terms:
            if term not in used:
                return term
        return None
