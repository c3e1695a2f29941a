"""The inverted index, on contiguous array storage.

Built in one pass over a corpus under a given analyzer.  Terms are
interned into a dense integer vocabulary (string ↔ term-id, ids
assigned in first-occurrence order), and postings live in CSR-style
flat arrays: one document-index array, one parallel term-frequency
array, and a per-term offsets array slicing both.  Document frequency
(df), collection term frequency (ctf), and document lengths are dense
vectors computed in the same pass, so every aggregate the rest of the
system consumes is a single array lookup.  Every column but the
document lengths is held in the narrowest unsigned dtype that fits its
largest value.

:meth:`InvertedIndex.postings` still hands out a frozen
:class:`PostingList` per term — a zero-copy view into the CSR arrays —
so per-term consumers are unchanged; batch consumers — the search plan
and the hit counter — concatenate the rows
:meth:`InvertedIndex.term_rows` hands out, across databases too.

The scalar dict-of-lists construction this replaced survives as
``build_index_scalar`` in ``tests/reference/index.py``, the equivalence
reference the property tests compare against.

The index is the database's *actual language model* in the paper's
sense; :meth:`InvertedIndex.language_model` exports it as a
:class:`~repro.lm.model.LanguageModel` for evaluation.

:func:`build_indexes` builds a federation's indexes on every usable
CPU: forked children send back only each index's :class:`IndexColumns`
and the analyzer-memo entries they added, and the parent reassembles
indexes identical to serially built ones, over one term table string
per distinct term and one id int per id.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from repro.corpus.collection import Corpus
from repro.lm.model import LanguageModel
from repro.text.analyzer import Analyzer
from repro.utils.fork import fork_map, usable_cpus

#: Sentinel distinguishing "never analyzed" from a memoized ``None``.
_UNSEEN: Any = object()

#: Shared token → analyzed-term memos, one per analyzer *value*, with a
#: companion token → -1 map of every token the analyzer drops.
#: Normalization, stopping, and stemming depend only on the token and
#: the analyzer configuration (a pure function), so the mapping is
#: memoized across index builds — the same trade the global
#: :func:`repro.text.stemmer.stem` cache already makes one level down.
#: The dropped map is corpus-independent (a stopword never gets a term
#: id anywhere), so fresh interners preseed from it wholesale.
_SHARED_TERM_MEMOS: dict[Analyzer, tuple[dict[bytes, str | None], dict[bytes, int]]] = {}


class _TermInterner(dict):
    """Maps byte tokens to dense term ids while building one index.

    A ``dict`` subclass whose ``__missing__`` analyzes a token on first
    sight: consult the analyzer's shared token → term memo (filling it
    on a miss), then assign the term the next dense id — so ids come
    out in first-occurrence order, matching the scalar reference build.
    Stopped tokens map to -1 and are preseeded from the analyzer's
    shared dropped map.  Every repeat
    occurrence is a single C-level dict probe inside ``np.fromiter``,
    with no per-token python frames.
    """

    __slots__ = ("terms", "_shared", "_dropped", "_analyze_token")

    def __init__(self, analyzer: Analyzer) -> None:
        shared, dropped = _SHARED_TERM_MEMOS.setdefault(analyzer, ({}, {}))
        super().__init__(dropped)
        self.terms: dict[str, int] = {}
        self._shared = shared
        self._dropped = dropped
        self._analyze_token = analyzer.analyze_token

    def __missing__(self, token: bytes) -> int:
        shared = self._shared
        term = shared.get(token, _UNSEEN)
        if term is _UNSEEN:
            # token_bytes already case-folded: the token is a term-to-be.
            shared[token] = term = self._analyze_token(token.decode("ascii"))
            if term is None:
                self._dropped[token] = -1
        if term is None:
            term_id = -1
        else:
            terms = self.terms
            maybe_id = terms.get(term)
            if maybe_id is None:
                terms[term] = term_id = len(terms)
            else:
                term_id = maybe_id
        self[token] = term_id
        return term_id


@dataclass(frozen=True)
class PostingList:
    """Frozen postings for one term: parallel doc-index and tf arrays."""

    doc_indices: np.ndarray
    term_frequencies: np.ndarray

    def __post_init__(self) -> None:
        if self.doc_indices.shape != self.term_frequencies.shape:
            raise ValueError("doc_indices and term_frequencies must be parallel")

    @property
    def document_frequency(self) -> int:
        """Number of documents containing the term (df)."""
        return int(self.doc_indices.size)

    def __len__(self) -> int:
        return int(self.doc_indices.size)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _narrow(values: np.ndarray) -> np.ndarray:
    """Non-negative ``values`` in the narrowest unsigned dtype holding the largest.

    Read-only.  ``uint8`` when empty.  Consumers that compute with a
    value (numpy keeps a narrow dtype's arithmetic narrow) convert it
    first; indexing and slicing take any width.
    """
    largest = int(values.max()) if values.size else 0
    return _read_only(values.astype(np.min_scalar_type(largest), copy=False))


class IndexColumns(NamedTuple):
    """What a build computes: everything in an index but its corpus and analyzer."""

    term_ids: dict[str, int]
    post_docs: np.ndarray
    post_tfs: np.ndarray
    offsets: np.ndarray
    df: np.ndarray
    ctf: np.ndarray
    doc_lengths: np.ndarray


#: Documents tokenized per block in phase 1 of a build.  The ``bytes``
#: token objects of one block are the build's only per-token python
#: objects, dropped as soon as the block is mapped to term ids, so the
#: transient is O(block) rather than O(corpus tokens); 256 documents is
#: large enough that the per-block ``np.fromiter`` set-up is noise.
_BLOCK_DOCS = 256


class InvertedIndex:
    """Term → postings over a corpus, under one analyzer.

    Parameters
    ----------
    corpus:
        The documents to index.
    analyzer:
        The text pipeline defining this database's index terms.  The
        default mirrors the paper's Inquery setup (stoplist + Porter
        stemmer).
    """

    def __init__(self, corpus: Corpus, analyzer: Analyzer | None = None) -> None:
        self.corpus = corpus
        self.analyzer = analyzer or Analyzer.inquery_style()
        self._term_to_id: dict[str, int] = {}
        self._id_to_term: list[str] = []
        # Every column but the document lengths is as narrow as its
        # largest value (:func:`_narrow`): on the benchmark's federation
        # a posting costs 3 bytes and a term's offset, df and ctf 6.3.
        empty = _narrow(np.empty(0, dtype=np.int64))
        self._post_docs: np.ndarray = empty
        self._post_tfs: np.ndarray = empty
        self._offsets: np.ndarray = _narrow(np.zeros(1, dtype=np.int64))
        self._df: np.ndarray = empty
        self._ctf: np.ndarray = empty
        self._doc_lengths: np.ndarray = np.zeros(len(corpus), dtype=np.int64)
        self._build()

    @classmethod
    def from_columns(cls, corpus: Corpus, columns: IndexColumns) -> InvertedIndex:
        """The index ``InvertedIndex(corpus)`` would build, from its :meth:`columns`."""
        index = cls.__new__(cls)
        index.corpus = corpus
        index.analyzer = Analyzer.inquery_style()
        index._term_to_id = columns.term_ids
        index._id_to_term = list(columns.term_ids)
        # Read-only as they were built: pickling keeps an array's flag.
        index._post_docs = columns.post_docs
        index._post_tfs = columns.post_tfs
        index._offsets = columns.offsets
        index._df = columns.df
        index._ctf = columns.ctf
        index._doc_lengths = columns.doc_lengths
        return index

    def columns(self) -> IndexColumns:
        """This index's term table and arrays (no copies)."""
        return IndexColumns(
            self._term_to_id,
            self._post_docs,
            self._post_tfs,
            self._offsets,
            self._df,
            self._ctf,
            self._doc_lengths,
        )

    def _build(self) -> None:
        # Phase 1 (python, unavoidable): intern the token stream, one
        # block of documents at a time.  Each document is tokenized by
        # one C-level translate/split pass
        # (:meth:`Tokenizer.token_bytes`), and the block's tokens are
        # mapped to dense term ids by one ``np.fromiter`` over a
        # :class:`_TermInterner` — each *distinct* token is analyzed
        # once (memoized across builds), every other occurrence is a
        # C-level dict probe.  Only the block's int32 id array outlives
        # the block.  The interner is shared by all blocks, so term ids
        # come out in first-occurrence order, keeping vocabulary
        # iteration identical to the scalar reference build.
        num_docs = len(self.corpus)
        if num_docs == 0:
            return
        interner = _TermInterner(self.analyzer)
        raw_lengths = np.empty(num_docs, dtype=np.int64)
        id_blocks = []
        for start in range(0, num_docs, _BLOCK_DOCS):
            stop = min(start + _BLOCK_DOCS, num_docs)
            raw_lengths[start:stop], block_ids = self._intern_block(start, stop, interner)
            id_blocks.append(block_ids)
        token_ids = np.concatenate(id_blocks)
        self._term_to_id = interner.terms
        self._id_to_term = list(interner.terms)
        # Phase 2's transients are the build's peak: what only phase 1
        # needed (the token → id map, the per-block id arrays) goes first.
        del interner, id_blocks, block_ids

        # Phase 2 (numpy): all statistics in bulk.  The stream is
        # document-major, so a *stable* sort by term id alone yields
        # postings directly in CSR order — term-major, document
        # ascending within each term — and run-length encoding the
        # sorted (term, doc) keys aggregates per-posting frequencies.
        doc_type = np.min_scalar_type(num_docs - 1)
        token_docs = np.repeat(np.arange(num_docs, dtype=doc_type), raw_lengths)
        kept = token_ids >= 0
        token_ids = token_ids[kept]
        token_docs = token_docs[kept]
        vocabulary_size = len(self._id_to_term)
        self._doc_lengths = np.bincount(token_docs, minlength=num_docs).astype(
            np.int64, copy=False
        )
        self._ctf = _narrow(np.bincount(token_ids, minlength=vocabulary_size))
        # numpy's stable sort is a radix sort for small integer dtypes;
        # term ids are dense, so narrow when the vocabulary allows.
        if vocabulary_size <= np.iinfo(np.int16).max:
            order = np.argsort(token_ids.astype(np.int16), kind="stable")
        else:
            order = np.argsort(token_ids, kind="stable")
        stream_terms = token_ids[order]
        stream_docs = token_docs[order]
        total = stream_terms.size
        if total:
            keys = stream_terms.astype(np.int64) * num_docs + stream_docs
            boundary = np.empty(total, dtype=bool)
            boundary[0] = True
            np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
            starts = np.flatnonzero(boundary)
            # Trailing documents without index terms can leave the
            # largest stored index below ``num_docs - 1``.
            self._post_docs = _narrow(stream_docs[starts])
            self._post_tfs = _narrow(np.diff(starts, append=total))
            df = np.bincount(stream_terms[starts], minlength=vocabulary_size)
        else:
            df = np.zeros(vocabulary_size, dtype=np.int64)
        self._df = _narrow(df)
        offsets = np.zeros(vocabulary_size + 1, dtype=np.int64)
        np.cumsum(df, out=offsets[1:])
        self._offsets = _narrow(offsets)

    def _intern_block(
        self, start: int, stop: int, interner: _TermInterner
    ) -> tuple[list[int], np.ndarray]:
        """Raw token counts and term ids (-1 = dropped) of documents ``[start, stop)``.

        The block's ``bytes`` tokens live only inside this call.
        """
        corpus = self.corpus
        token_bytes = self.analyzer.tokenizer.token_bytes
        raw_lists = [token_bytes(corpus[i].text) for i in range(start, stop)]
        lengths = list(map(len, raw_lists))
        # int32 is ample: term ids are bounded by the token count, and a
        # corpus with 2**31 tokens does not fit this in-memory index.
        token_ids = np.fromiter(
            map(interner.__getitem__, chain.from_iterable(raw_lists)),
            dtype=np.int32,
            count=sum(lengths),
        )
        return lengths, token_ids

    # -- lookups --------------------------------------------------------------

    def postings(self, term: str) -> PostingList | None:
        """Postings for ``term`` (as analyzed), or ``None`` if absent.

        The returned arrays are zero-copy read-only views into the
        index's flat CSR storage.
        """
        term_id = self._term_to_id.get(term)
        if term_id is None:
            return None
        start = self._offsets[term_id]
        end = self._offsets[term_id + 1]
        return PostingList(
            doc_indices=self._post_docs[start:end],
            term_frequencies=self._post_tfs[start:end],
        )

    def df(self, term: str) -> int:
        """Document frequency of ``term`` (0 if absent; cached at build)."""
        term_id = self._term_to_id.get(term)
        return 0 if term_id is None else int(self._df[term_id])

    def ctf(self, term: str) -> int:
        """Collection term frequency of ``term`` (0 if absent; cached at build)."""
        term_id = self._term_to_id.get(term)
        return 0 if term_id is None else int(self._ctf[term_id])

    def term_id(self, term: str) -> int:
        """Dense id of an analyzed ``term``, or -1 if unindexed."""
        term_id = self._term_to_id.get(term)
        return -1 if term_id is None else term_id

    def term_rows(self, terms: Sequence[str]) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The CSR rows of the indexed members of ``terms`` (order kept).

        Two parallel lists of zero-copy views — each indexed term's
        document indices and term frequencies; a row's length is the
        term's df.  This is what a search plan concatenates, across
        databases, to gather every query term's postings in one pass.
        """
        lookup = self._term_to_id.get
        offsets = self._offsets
        doc_rows = []
        tf_rows = []
        for term in terms:
            term_id = lookup(term)
            if term_id is not None:
                start = offsets.item(term_id)
                stop = offsets.item(term_id + 1)
                doc_rows.append(self._post_docs[start:stop])
                tf_rows.append(self._post_tfs[start:stop])
        return doc_rows, tf_rows

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    # -- flat-array access (batch consumers) -----------------------------------

    @property
    def postings_doc_indices(self) -> np.ndarray:
        """Flat CSR document-index array (read-only)."""
        return self._post_docs

    @property
    def postings_term_frequencies(self) -> np.ndarray:
        """Flat CSR term-frequency array (read-only)."""
        return self._post_tfs

    @property
    def postings_offsets(self) -> np.ndarray:
        """Per-term ``[start, end)`` offsets into the flat arrays (read-only)."""
        return self._offsets

    @property
    def document_frequencies(self) -> np.ndarray:
        """df per term id (read-only)."""
        return self._df

    @property
    def collection_frequencies(self) -> np.ndarray:
        """ctf per term id (read-only)."""
        return self._ctf

    @property
    def vocabulary(self) -> Iterable[str]:
        """All indexed terms, in term-id (first-occurrence) order."""
        return self._term_to_id.keys()

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct indexed terms."""
        return len(self._term_to_id)

    @property
    def num_documents(self) -> int:
        """Number of indexed documents."""
        return len(self.corpus)

    @property
    def total_terms(self) -> int:
        """Total term occurrences across the collection."""
        return int(self._doc_lengths.sum())

    @property
    def doc_lengths(self) -> np.ndarray:
        """Per-document index-term counts (read-only view)."""
        view = self._doc_lengths.view()
        view.flags.writeable = False
        return view

    @property
    def average_doc_length(self) -> float:
        """Mean index terms per document (0.0 for an empty corpus)."""
        if len(self.corpus) == 0:
            return 0.0
        return float(self._doc_lengths.mean())

    def language_model(self) -> LanguageModel:
        """Export the index as the database's *actual* language model."""
        model = LanguageModel.from_statistics(
            name=f"{self.corpus.name}-actual",
            terms=self._id_to_term,
            dfs=self._df,
            ctfs=self._ctf,
        )
        model.documents_seen = self.num_documents
        model.tokens_seen = self.total_terms
        return model


#: Corpora whose texts total fewer characters than this are indexed in
#: this process: a fork and a pickled reply cost more than the build.
_FORK_MIN_CHARS = 2_000_000


def build_indexes(corpora: Sequence[Corpus]) -> list[InvertedIndex]:
    """``[InvertedIndex(corpus) for corpus in corpora]``, on every usable CPU.

    The corpora are dealt into groups of about equal text, one per usable
    CPU (:func:`~repro.utils.fork.usable_cpus`), and each group is built
    in a forked child (:func:`~repro.utils.fork.fork_map`), which sends
    back only each index's :class:`IndexColumns` and the entries it added
    to the analyzer's shared token → term memo, so later builds here
    start warm.  This process waits and reassembles: its heap then holds
    the columns alone, not also the holes its own builds' transients
    would leave.  Term ids depend on nothing but the corpus, so every
    index equals its serial build.  The term tables are reassembled over
    one string object per distinct term and one int object per id, across
    the federation (:func:`_shared_term_tables`).  Where
    :func:`~repro.utils.fork.fork_map` cannot fork (another thread is
    running, or one usable CPU is left), and for corpora too small to
    repay a fork, the indexes are built here, in order.  A child that
    fails to deliver has its group built here too.
    """
    groups = _balanced_groups(corpora)
    if len(groups) > 1:
        groups.insert(0, [])  # fork_map's first task runs here: nothing
    memos: tuple[dict[bytes, Any], ...] = _SHARED_TERM_MEMOS.setdefault(
        Analyzer.inquery_style(), ({}, {})
    )
    parent = os.getpid()

    def build_group(group: list[int]) -> tuple[list[IndexColumns], list[dict[bytes, Any]]]:
        sizes = [len(memo) for memo in memos]
        columns = [InvertedIndex(corpora[i]).columns() for i in group]
        if os.getpid() == parent:
            return columns, []
        added = [dict(islice(memo.items(), size, None)) for memo, size in zip(memos, sizes)]
        return columns, added

    built: dict[int, IndexColumns] = {}
    children_added = []
    for group, (columns, added) in zip(groups, fork_map(build_group, groups)):
        built.update(zip(group, columns))
        children_added.append(added)
    tables, canonical = _shared_term_tables([built[i].term_ids for i in range(len(corpora))])
    for added in children_added:
        for memo, entries in zip(memos, added):
            # Entries already here (this process's, or an earlier child's)
            # stay; a new one names its term by the tables' string.
            for token in entries.keys() - memo.keys():
                term = entries[token]
                memo[token] = canonical.get(term, term)
    return [
        InvertedIndex.from_columns(corpus, built[i]._replace(term_ids=table))
        for i, (corpus, table) in enumerate(zip(corpora, tables))
    ]


def _shared_term_tables(
    tables: Sequence[dict[str, int]],
) -> tuple[list[dict[str, int]], dict[str, str]]:
    """``tables`` rebuilt over one string per distinct term and one int per id.

    Equal to ``tables``, key order included (a table's ids are 0, 1, …
    in key order, as a build assigns them).  A child's tables arrive
    unpickled, one string copy per child; and one process's builds can
    hold a term as several objects (one per token that analyzes to it).
    Also returns the term → string map used.
    """
    canonical: dict[str, str] = {}
    ids = list(range(max(map(len, tables), default=0)))
    shared = []
    for table in tables:
        terms = [canonical.setdefault(term, term) for term in table]
        shared.append(dict(zip(terms, ids)))
    return shared, canonical


def _balanced_groups(corpora: Sequence[Corpus]) -> list[list[int]]:
    """Corpus positions in groups of about equal text, one per usable CPU.

    Largest corpus first, each to the lightest group; positions ascend
    within a group.  One group when the texts total under
    :data:`_FORK_MIN_CHARS`.
    """
    sizes = [sum(len(document.text) for document in corpus) for corpus in corpora]
    workers = min(usable_cpus(), len(corpora))
    if sum(sizes) < _FORK_MIN_CHARS:
        workers = 1
    groups: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for position in sorted(range(len(corpora)), key=sizes.__getitem__, reverse=True):
        lightest = loads.index(min(loads))
        groups[lightest].append(position)
        loads[lightest] += sizes[position]
    return [sorted(group) for group in groups if group]
