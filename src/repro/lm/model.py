"""The :class:`LanguageModel` data structure.

Stores per-term document frequency (df — how many seen documents
contain the term) and collection term frequency (ctf — total
occurrences), plus how many documents and tokens the model was built
from.  Both *actual* models (exported from an index) and *learned*
models (accumulated from sampled documents) use this one class, so
every metric compares like with like.

Storage follows one rule: dicts while a model grows, columns once
nothing changes it.  A learned model counts into two plain dicts; an
index's export (:meth:`LanguageModel.over_columns`) reads the index's
own term table and df / ctf columns through two :class:`ColumnCounts`
and copies nothing.  No caller chooses: the first mutation of a
column-backed model copies it into dicts, and every read answers the
same either way.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Iterable, Iterator, Mapping, Sequence, cast

import numpy as np

from repro.text.analyzer import Analyzer


def _count_into(table: dict[str, int], elements: Iterable[str]) -> None:
    """Add one to ``table[element]`` for every element, at C level.

    ``Counter.update`` runs its counting loop in C and asks nothing of
    its receiver beyond being a ``dict``, so it is borrowed here for
    the model's plain dicts.  That spares an intermediate ``Counter``
    per batch, and spares the model ``Counter`` fields: ``Counter``
    defines ``__delitem__`` in Python, which sends every
    ``table[term] = n`` of the scalar mutators through slot dispatch
    (2.5x slower, measured).
    """
    Counter.update(cast("Counter[str]", table), elements)


def narrow(values: np.ndarray) -> np.ndarray:
    """Non-negative ``values`` in the narrowest unsigned dtype holding the largest.

    Read-only.  ``uint8`` when empty.  Consumers that compute with a
    value (numpy keeps a narrow dtype's arithmetic narrow) convert it
    first; indexing and slicing take any width.
    """
    largest = int(values.max()) if values.size else 0
    column = values.astype(np.min_scalar_type(largest), copy=False)
    column.flags.writeable = False
    return column


class ColumnCounts(Mapping[str, int]):
    """A read-only term → count mapping over a term → id table and a count column.

    ``ids`` maps each term to its row, ``0, 1, …`` in key order (an
    index's term table); ``column[row]`` is the term's count.  Neither
    is copied and neither may change afterwards.  Iteration follows
    ``ids``.  A lookup is a dict probe plus a :class:`memoryview` index,
    which yields a Python ``int`` without a numpy scalar.  Pickles as
    its table and its column alone.
    """

    __slots__ = ("_ids", "_column", "_values")

    def __init__(self, ids: dict[str, int], column: np.ndarray) -> None:
        if len(ids) != column.size:
            raise ValueError("ids and column must be parallel")
        self._ids = ids
        self._column = column
        self._values = memoryview(column)

    def __getitem__(self, term: str) -> int:
        return self._values[self._ids[term]]

    def get(self, term: str, default: Any = None) -> Any:  # type: ignore[override]
        row = self._ids.get(term)
        return default if row is None else self._values[row]

    def __contains__(self, term: object) -> bool:
        return term in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __reversed__(self) -> Iterator[str]:
        return reversed(self._ids)

    def values(self) -> list[int]:  # type: ignore[override]
        """The counts in iteration order."""
        return self._column.tolist()

    def items(self) -> Iterator[tuple[str, int]]:  # type: ignore[override]
        """``(term, count)`` pairs in iteration order."""
        return zip(self._ids, self._column.tolist())

    def copy(self) -> dict[str, int]:
        """A plain dict with the same items, in the same order."""
        return dict(zip(self._ids, self._column.tolist()))

    def __reduce__(self) -> tuple[type, tuple[dict[str, int], np.ndarray]]:
        return (type(self), (self._ids, self._column))


@dataclass(frozen=True)
class TermStats:
    """Frequency statistics for one term."""

    term: str
    df: int
    ctf: int

    @property
    def avg_tf(self) -> float:
        """Average within-document frequency, ``ctf / df`` (paper §5.2)."""
        if self.df == 0:
            return 0.0
        return self.ctf / self.df


class LanguageModel:
    """A vocabulary with df/ctf statistics, built incrementally.

    Parameters
    ----------
    name:
        Label used in reports and serialization.
    """

    def __init__(self, name: str = "lm") -> None:
        self.name = name
        # Plain dicts, or ColumnCounts until the first mutation (_thaw).
        # Every mutator adds a new term to both at once, so the two
        # always list the same terms in the same order.
        self._df: dict[str, int] | ColumnCounts = {}
        self._ctf: dict[str, int] | ColumnCounts = {}
        # Running Σ ctf, maintained by every mutator so total_ctf is
        # O(1) — ctf_ratio calls it once per metric evaluation.
        self._total_ctf: int = 0
        #: Number of documents folded into the model.
        self.documents_seen: int = 0
        #: Number of tokens folded into the model.
        self.tokens_seen: int = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_statistics(
        cls,
        name: str,
        terms: Sequence[str],
        dfs: np.ndarray | Sequence[int],
        ctfs: np.ndarray | Sequence[int],
    ) -> "LanguageModel":
        """Build a model from parallel term/df/ctf arrays in one shot.

        The bulk equivalent of an :meth:`add_term` loop (validation
        vectorized, dicts built by ``zip``), used by the model-file
        reader (:mod:`repro.lm.io`) and by a snapshot's model
        (:attr:`repro.sampling.result.Snapshot.model`).
        ``documents_seen`` / ``tokens_seen`` are left at zero for the
        caller to set.
        """
        df_array = np.asarray(dfs, dtype=np.int64)
        ctf_array = np.asarray(ctfs, dtype=np.int64)
        if not (len(terms) == df_array.size == ctf_array.size):
            raise ValueError("terms, dfs, and ctfs must be parallel")
        if (df_array < 0).any() or (ctf_array < 0).any():
            raise ValueError("df and ctf must be non-negative")
        if (df_array > ctf_array).any():
            bad = int(np.argmax(df_array > ctf_array))
            raise ValueError(
                f"df ({int(df_array[bad])}) cannot exceed ctf "
                f"({int(ctf_array[bad])}) for {terms[bad]!r}"
            )
        model = cls(name=name)
        model._df = dict(zip(terms, df_array.tolist()))
        model._ctf = dict(zip(terms, ctf_array.tolist()))
        if len(model._df) != len(terms):
            raise ValueError("terms must be distinct")
        if ctf_array.size and int(ctf_array.max()) > np.iinfo(np.int64).max // ctf_array.size:
            # int64 addition wraps; a column that could reach 2**63 is
            # summed in Python integers instead.
            model._total_ctf = sum(ctf_array.tolist())
        else:
            model._total_ctf = int(ctf_array.sum())
        return model

    @classmethod
    def over_columns(
        cls,
        name: str,
        ids: dict[str, int],
        dfs: np.ndarray,
        ctfs: np.ndarray,
        *,
        documents_seen: int,
        tokens_seen: int,
        total_ctf: int,
    ) -> "LanguageModel":
        """A model reading ``ids``' terms' counts from ``dfs`` / ``ctfs``, in O(1).

        ``ids`` maps each term to its row, ``0, 1, …`` in key order, and
        ``total_ctf`` is the sum of ``ctfs``; nothing is copied or
        checked, so the caller vouches for both and never changes the
        three containers.  :meth:`repro.index.InvertedIndex.language_model`
        exports an index this way.  The first mutation copies the model
        into dicts; until then it stores no per-term object of its own.
        """
        model = cls(name=name)
        model._df = ColumnCounts(ids, dfs)
        model._ctf = ColumnCounts(ids, ctfs)
        model._total_ctf = total_ctf
        model.documents_seen = documents_seen
        model.tokens_seen = tokens_seen
        return model

    def _thaw(self) -> tuple[dict[str, int], dict[str, int]]:
        """The model's dicts, copied out of its columns first if it has none."""
        if type(self._df) is not dict:
            self._df = self._df.copy()
            self._ctf = self._ctf.copy()
        return cast("dict[str, int]", self._df), cast("dict[str, int]", self._ctf)

    def add_term(self, term: str, df: int, ctf: int) -> None:
        """Accumulate statistics for one term."""
        if df < 0 or ctf < 0:
            raise ValueError("df and ctf must be non-negative")
        if df > ctf:
            raise ValueError(f"df ({df}) cannot exceed ctf ({ctf}) for {term!r}")
        df_table, ctf_table = self._thaw()
        df_table[term] = df_table.get(term, 0) + df
        ctf_table[term] = ctf_table.get(term, 0) + ctf
        self._total_ctf += ctf

    def add_document(self, terms: Iterable[str]) -> None:
        """Fold one document's terms into the model.

        ``terms`` is the document's token sequence *after* the client's
        analyzer; each distinct term gains df 1 and ctf equal to its
        occurrence count.
        """
        counts = Counter(terms)
        df_table, ctf_table = self._thaw()
        for term, count in counts.items():
            df_table[term] = df_table.get(term, 0) + 1
            ctf_table[term] = ctf_table.get(term, 0) + count
        tokens = sum(counts.values())
        self._total_ctf += tokens
        self.documents_seen += 1
        self.tokens_seen += tokens

    def add_documents(self, documents: Iterable[Sequence[str]]) -> None:
        """Fold a batch of documents' term sequences into the model.

        Statistically identical to calling :meth:`add_document` once
        per member (each document contributes df 1 and ctf equal to its
        occurrence count for every distinct term; empty documents still
        count toward ``documents_seen``), but no Python code runs per
        term: the concatenated token stream is counted straight into
        the model's ctf table, and the concatenation of each document's
        distinct terms (``dict.fromkeys`` per document) straight into
        its df table, both by :func:`_count_into`'s C loop — no
        intermediate tables.  A new term enters both tables at its
        first occurrence in the batch, so insertion order — which only
        :meth:`terms_since` relies on — is the order the per-document
        loop produces.  String counting is hash-bound, so this beats an
        ``np.unique``-based variant too (string arrays sort far slower
        than they hash).  The scalar
        loop survives as ``add_documents_scalar`` in
        ``tests/reference/index.py``, the equivalence reference.
        """
        # Each document is walked twice, so generators are materialized.
        doc_lists = [terms if isinstance(terms, list) else list(terms) for terms in documents]
        df_table, ctf_table = self._thaw()
        _count_into(ctf_table, chain.from_iterable(doc_lists))
        _count_into(df_table, chain.from_iterable(map(dict.fromkeys, doc_lists)))
        tokens = sum(map(len, doc_lists))
        self._total_ctf += tokens
        self.documents_seen += len(doc_lists)
        self.tokens_seen += tokens

    def merge(self, other: "LanguageModel") -> "LanguageModel":
        """Return a new model combining this one with ``other``.

        Statistics add; this is the "union of samples" of the paper's
        Section 8 (it assumes the two models saw disjoint documents).
        """
        merged = LanguageModel(name=f"{self.name}+{other.name}")
        for model in (self, other):
            for term in model._df:
                merged.add_term(term, df=model._df[term], ctf=model._ctf[term])
        merged.documents_seen = self.documents_seen + other.documents_seen
        merged.tokens_seen = self.tokens_seen + other.tokens_seen
        return merged

    def copy(self, name: str | None = None) -> "LanguageModel":
        """Deep copy, held in dicts whatever this model's storage."""
        duplicate = LanguageModel(name=name or self.name)
        duplicate._df = self._df.copy()
        duplicate._ctf = self._ctf.copy()
        duplicate._total_ctf = self._total_ctf
        duplicate.documents_seen = self.documents_seen
        duplicate.tokens_seen = self.tokens_seen
        return duplicate

    def project(self, analyzer: Analyzer, name: str | None = None) -> "LanguageModel":
        """Map this model's vocabulary through ``analyzer``.

        Used by the comparison protocol of Section 4.1: project the
        *learned* (raw-token) model through the database's pipeline so
        stopwords drop out and suffix variants conflate.  Conflated
        variants' df values add, which can overcount documents that
        contained several variants — an approximation inherent in
        comparing models built under different pipelines, and the same
        one the paper makes.
        """
        projected = LanguageModel(name=name or f"{self.name}-projected")
        for term, df in self._df.items():
            mapped = analyzer.project_term(term)
            if mapped is None:
                continue
            projected.add_term(mapped, df=df, ctf=self._ctf[term])
        projected.documents_seen = self.documents_seen
        projected.tokens_seen = self.tokens_seen
        return projected

    # -- queries ----------------------------------------------------------------

    def df(self, term: str) -> int:
        """Document frequency of ``term`` (0 if unknown)."""
        return self._df.get(term, 0)

    def ctf(self, term: str) -> int:
        """Collection term frequency of ``term`` (0 if unknown)."""
        return self._ctf.get(term, 0)

    def avg_tf(self, term: str) -> float:
        """Average term frequency ``ctf / df`` (0.0 if unknown)."""
        df = self._df.get(term, 0)
        if df == 0:
            return 0.0
        return self._ctf[term] / df

    def stats(self, term: str) -> TermStats:
        """Full :class:`TermStats` for ``term`` (zeros if unknown)."""
        return TermStats(term=term, df=self._df.get(term, 0), ctf=self._ctf.get(term, 0))

    def __contains__(self, term: str) -> bool:
        return term in self._df

    def __len__(self) -> int:
        return len(self._df)

    def __iter__(self) -> Iterator[str]:
        return iter(self._df)

    @property
    def vocabulary(self) -> set[str]:
        """The set of known terms (a fresh set; safe to mutate)."""
        return set(self._df)

    def terms_since(self, start: int) -> list[str]:
        """Terms added at insertion index ``start`` or later.

        The vocabulary only grows, and dicts preserve insertion order,
        so ``terms_since(k)`` is exactly the terms a caller that
        previously saw ``len(model) == k`` has not yet seen.  Query-term
        selectors use this to keep their candidate pools up to date
        instead of rescanning the whole vocabulary every query — so the
        tail is read from the end of the dict, at a cost that depends
        on how many terms are new, not on how many there are.

        Insertion order holds within this one model object only: a
        model reloaded from a file or checkpoint lists its terms
        sorted, so an index from one object means nothing to another.
        """
        newest = list(islice(reversed(self._df), max(0, len(self._df) - start)))
        newest.reverse()
        return newest

    @property
    def total_ctf(self) -> int:
        """Sum of ctf over the vocabulary (cached running total, O(1))."""
        return self._total_ctf

    def top_terms(self, k: int, key: str = "ctf") -> list[TermStats]:
        """The ``k`` highest-ranked terms by ``key`` (df, ctf, or avg_tf).

        Ties break alphabetically so output is deterministic.  Selection
        is a size-k heap over the vocabulary — O(V log k) rather than a
        full O(V log V) sort — with the same ``(-score, term)`` key, so
        results are identical to sorting.
        """
        # avg_tf mirrors TermStats.avg_tf's df=0 guard: add_term (and
        # the lm.io loader) accept df=0 terms, which must rank at 0.0,
        # not crash the ranking.
        keyed = {
            "df": lambda term: self._df[term],
            "ctf": lambda term: self._ctf[term],
            "avg_tf": lambda term: (self._ctf[term] / self._df[term]) if self._df[term] else 0.0,
        }
        if key not in keyed:
            raise ValueError(f"key must be one of df/ctf/avg_tf, got {key!r}")
        score = keyed[key]
        if k <= 0:
            return []
        ranked = heapq.nsmallest(k, self._df, key=lambda term: (-score(term), term))
        return [self.stats(term) for term in ranked]

    def items(self) -> Iterator[TermStats]:
        """Iterate :class:`TermStats` for every known term."""
        for term in self._df:
            yield self.stats(term)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LanguageModel(name={self.name!r}, terms={len(self._df)}, "
            f"documents_seen={self.documents_seen})"
        )
