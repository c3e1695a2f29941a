"""The :class:`LanguageModel` data structure.

Stores per-term document frequency (df — how many seen documents
contain the term) and collection term frequency (ctf — total
occurrences), plus how many documents and tokens the model was built
from.  Both *actual* models (exported from an index) and *learned*
models (accumulated from sampled documents) use this one class, so
every metric compares like with like.

Storage follows one rule: dicts while a model grows, columns once
nothing changes it.  A learned model counts into two plain dicts.  A
model nobody changes is two :class:`ColumnCounts` over one
:class:`TermRows` (:meth:`LanguageModel.over_columns`): an index's
export reads the index's own term table and df / ctf columns, a model
read from its file (:func:`repro.lm.io.unpack_language_model`) the
file's sorted terms and columns, and a model a forked sampler hands
back (:meth:`repro.sampling.SamplingPool.learn`) its terms in insertion
order and two narrow columns.  A view builds its term → row table at
its first lookup, so one that is only verified or written back never
builds it, and it writes its columns with one gather each.  No caller
chooses: the first mutation of a column-backed model copies it into
dicts, and every read answers the same either way.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Iterable, Iterator, Mapping, Sequence, cast

import numpy as np

from repro.lm.compare import metric_values
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


#: The row numbers ``0, 1, …`` every table :attr:`TermRows.rows` builds
#: maps its terms to, so that a row past 256 is one int object however
#: many tables hold it.
_ROW_NUMBERS: list[int] = []


class TermRows:
    """Distinct terms in row order (``0, 1, …``) and their term → row table.

    Made over a term → row dict whose ids are ``0, 1, …`` in key order
    (an index's term table: the table is the dict itself), or over a
    list, whose table is built on the first lookup, over the shared row
    numbers — so a model read from its file or handed back by a forked
    sampler is read, verified and written again without one, and a
    looked-up one costs its dict alone.  ``is_sorted`` says the terms
    are in sorted order, so a writer that wants them sorted (the model
    file) takes the rows as they are.  Neither container may change
    afterwards.
    """

    __slots__ = ("_terms", "_rows", "is_sorted")

    def __init__(self, terms: list[str] | dict[str, int], is_sorted: bool = False) -> None:
        self._terms = terms
        self._rows = terms if isinstance(terms, dict) else None
        self.is_sorted = is_sorted

    @property
    def rows(self) -> dict[str, int]:
        """The term → row table (built now if it does not exist yet)."""
        global _ROW_NUMBERS
        rows = self._rows
        if rows is None:
            numbers = _ROW_NUMBERS
            if len(numbers) < len(self._terms):
                # A longer list replaces the shared one whole (reusing its
                # ints), so a table built from it on another thread is not
                # built from a list that grows.
                numbers = _ROW_NUMBERS = numbers + list(range(len(numbers), len(self._terms)))
            rows = self._rows = dict(zip(self._terms, numbers))
        return rows

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[str]:
        return iter(self._terms)

    def __reversed__(self) -> Iterator[str]:
        return reversed(self._terms)

    def sorted_rows(self) -> tuple[list[str], np.ndarray | None]:
        """The terms in sorted order, and their rows (``None`` when those are ``0, 1, …``)."""
        terms = self._terms if isinstance(self._terms, list) else list(self._terms)
        if self.is_sorted:
            return terms, None
        order = sorted(range(len(terms)), key=terms.__getitem__)
        return list(map(terms.__getitem__, order)), np.array(order, dtype=np.intp)

    def __reduce__(self) -> tuple[type, tuple[list[str] | dict[str, int], bool]]:
        return (type(self), (self._terms, self.is_sorted))


class ColumnCounts(Mapping[str, int]):
    """A read-only term → count mapping: a :class:`TermRows` and a count column.

    ``column[row]`` is the count of the table's term at ``row``.
    Neither is copied and neither may change afterwards.  Iteration
    follows the table's rows.  A lookup is a table probe plus a
    :class:`memoryview` index, which yields a Python ``int`` without a
    numpy scalar (the column must therefore be aligned).  Pickles as its
    table and its column alone.
    """

    __slots__ = ("table", "column", "_values")

    def __init__(self, table: TermRows, column: np.ndarray) -> None:
        if len(table) != column.size:
            raise ValueError("table and column must be parallel")
        self.table = table
        self.column = column
        self._values = memoryview(column)

    def __getitem__(self, term: str) -> int:
        return self._values[self.table.rows[term]]

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator[str]:
        return iter(self.table)

    def __reversed__(self) -> Iterator[str]:
        return reversed(self.table)

    def values(self) -> list[int]:  # type: ignore[override]
        """The counts in iteration order."""
        return self.column.tolist()

    def copy(self) -> dict[str, int]:
        """A plain dict with the same items, in the same order."""
        return dict(zip(self.table, self.column.tolist()))

    def __reduce__(self) -> tuple[type, tuple[TermRows, np.ndarray]]:
        return (type(self), (self.table, self.column))


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
        # Plain dicts (a _ColumnModel's are ColumnCounts until it thaws).
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
        vectorized, dicts built by ``zip``), used by a snapshot's model
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
        terms: dict[str, int] | list[str],
        dfs: np.ndarray,
        ctfs: np.ndarray,
        *,
        documents_seen: int,
        tokens_seen: int,
        total_ctf: int,
        is_sorted: bool = False,
    ) -> "LanguageModel":
        """A model reading ``terms``' counts from ``dfs`` / ``ctfs``, in O(1).

        ``terms`` is a term → row dict whose rows are ``0, 1, …`` in key
        order, or the distinct terms in row order (their term → row
        table is then built on the first lookup, see :class:`TermRows`);
        ``is_sorted`` says they are sorted, and ``total_ctf`` is the sum
        of ``ctfs``.  Nothing is copied or checked, so the caller vouches
        for all of it and never changes the three containers.
        :meth:`repro.index.InvertedIndex.language_model` exports an index
        this way, :func:`repro.lm.io.unpack_language_model` reads a model
        file this way, and :meth:`repro.sampling.SamplingPool.learn`
        takes a forked child's models this way.  The first mutation
        copies the model into dicts; until then it stores no per-term
        object of its own beyond the terms.
        """
        table = TermRows(terms, is_sorted)
        model = _ColumnModel(name, ColumnCounts(table, dfs), ColumnCounts(table, ctfs))
        model._total_ctf = total_ctf
        model.documents_seen = documents_seen
        model.tokens_seen = tokens_seen
        return model

    def _thaw(self) -> tuple[dict[str, int], dict[str, int]]:
        """The model's dicts (a :class:`_ColumnModel` copies its columns into them first)."""
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
            for term, df, ctf in model._rows_in_order():
                merged.add_term(term, df=df, ctf=ctf)
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
        for term, df, ctf in self._rows_in_order():
            mapped = analyzer.project_term(term)
            if mapped is None:
                continue
            projected.add_term(mapped, df=df, ctf=ctf)
        projected.documents_seen = self.documents_seen
        projected.tokens_seen = self.tokens_seen
        return projected

    # -- queries ----------------------------------------------------------------

    def _rows_in_order(self) -> Iterator[tuple[str, int, int]]:
        """``(term, df, ctf)`` for every term, in iteration order, without lookups."""
        return zip(self._df, self._df.values(), self._ctf.values())

    def df(self, term: str) -> int:
        """Document frequency of ``term`` (0 if unknown)."""
        return self._df.get(term, 0)

    def ctf(self, term: str) -> int:
        """Collection term frequency of ``term`` (0 if unknown)."""
        return self._ctf.get(term, 0)

    def avg_tf(self, term: str) -> float:
        """Average term frequency ``ctf / df`` (0.0 if unknown)."""
        df = self.df(term)
        if df == 0:
            return 0.0
        return self.ctf(term) / df

    def stats(self, term: str) -> TermStats:
        """Full :class:`TermStats` for ``term`` (zeros if unknown)."""
        return TermStats(term=term, df=self.df(term), ctf=self.ctf(term))

    def __contains__(self, term: str) -> bool:
        return term in self._df

    def __len__(self) -> int:
        return len(self._df)

    def __iter__(self) -> Iterator[str]:
        return iter(self._df)

    def count_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """df and ctf per term, in iteration order, as narrow read-only columns."""
        df, ctf = self._df, self._ctf
        if isinstance(df, ColumnCounts) and isinstance(ctf, ColumnCounts):
            return df.column, ctf.column
        size = len(df)
        return (
            narrow(np.fromiter(df.values(), dtype=np.int64, count=size)),
            narrow(np.fromiter(ctf.values(), dtype=np.int64, count=size)),
        )

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

        Ties break alphabetically so output is deterministic.  The
        scores are :func:`~repro.lm.compare.metric_values` of the
        model's columns, and selection is a size-k heap of ``(-score,
        term)`` pairs — O(V log k) rather than a full O(V log V) sort,
        with the same order as sorting.
        """
        scores = metric_values(key, *self.count_columns())
        if k <= 0:
            return []
        ranked = heapq.nsmallest(k, zip((-scores).tolist(), self._df))
        return [self.stats(term) for _, term in ranked]

    def items(self) -> Iterator[TermStats]:
        """Iterate :class:`TermStats` for every known term."""
        for term in self._df:
            yield self.stats(term)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LanguageModel(name={self.name!r}, terms={len(self._df)}, "
            f"documents_seen={self.documents_seen})"
        )


class _ColumnModel(LanguageModel):
    """A :class:`LanguageModel` that began over two :class:`ColumnCounts` of one table.

    What :meth:`LanguageModel.over_columns` makes; every read answers
    as a dict-held model's would.  ``in``, :meth:`df` and :meth:`ctf`
    go past the views' own lookups: they probe ``_keys`` — the views'
    term → row table, taken from the table at the first lookup (which
    builds it if it is not built yet) — and index the counts'
    memoryviews.  The first mutation copies the counts into dicts, after
    which ``_keys`` is the df dict and the memoryviews are ``None``.
    A model that starts in dicts is a plain :class:`LanguageModel` and
    never pays for these branches.
    """

    def __init__(self, name: str, df: ColumnCounts, ctf: ColumnCounts) -> None:
        super().__init__(name)
        self._hold(df, ctf)

    def _hold(
        self, df: dict[str, int] | ColumnCounts, ctf: dict[str, int] | ColumnCounts
    ) -> None:
        """Make ``df`` / ``ctf`` the model's counts: two views of one table, or two dicts."""
        self._df = df
        self._ctf = ctf
        self._keys: dict[str, int] | None
        self._df_counts: memoryview | None
        self._ctf_counts: memoryview | None
        if isinstance(df, ColumnCounts) and isinstance(ctf, ColumnCounts):
            self._keys = None
            self._df_counts, self._ctf_counts = df._values, ctf._values
        else:
            self._keys = cast("dict[str, int]", df)
            self._df_counts = self._ctf_counts = None

    def _row_table(self) -> dict[str, int]:
        rows = self._keys = cast(ColumnCounts, self._df).table.rows
        return rows

    def _thaw(self) -> tuple[dict[str, int], dict[str, int]]:
        if self._df_counts is not None:
            self._hold(self._df.copy(), self._ctf.copy())
        return cast("dict[str, int]", self._df), cast("dict[str, int]", self._ctf)

    def df(self, term: str) -> int:
        counts = self._df_counts
        if counts is None:
            return self._df.get(term, 0)
        keys = self._keys
        row = (self._row_table() if keys is None else keys).get(term)
        return 0 if row is None else counts[row]

    def ctf(self, term: str) -> int:
        counts = self._ctf_counts
        if counts is None:
            return self._ctf.get(term, 0)
        keys = self._keys
        row = (self._row_table() if keys is None else keys).get(term)
        return 0 if row is None else counts[row]

    def __contains__(self, term: str) -> bool:
        keys = self._keys
        return term in (self._row_table() if keys is None else keys)

    def __getstate__(self) -> dict[str, Any]:
        # Memoryviews do not pickle; _hold makes them again.
        state = self.__dict__.copy()
        for derived in ("_keys", "_df_counts", "_ctf_counts"):
            del state[derived]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._hold(self._df, self._ctf)
