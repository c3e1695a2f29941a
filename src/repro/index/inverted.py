"""The inverted index, on contiguous array storage.

Built in one pass over a corpus under a given analyzer.  Terms are
interned into a dense integer vocabulary (string ↔ term-id, ids
assigned in first-occurrence order), and postings live in CSR-style
flat arrays: one document-index array, one parallel term-frequency
array, and a per-term offsets array slicing both.  Document frequency
(df), collection term frequency (ctf), and document lengths are dense
vectors computed in the same pass, so every aggregate the rest of the
system consumes is a single array lookup.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Sequence

import numpy as np

from repro.corpus.collection import Corpus
from repro.lm.model import LanguageModel
from repro.text.analyzer import Analyzer

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
    Dropped tokens (stopped, too short, numeric) map to -1 and are
    preseeded from the analyzer's shared dropped map.  Every repeat
    occurrence is a single C-level dict probe inside ``np.fromiter``,
    with no per-token python frames.
    """

    __slots__ = ("terms", "_shared", "_dropped", "_normalize", "_analyze_token")

    def __init__(self, analyzer: Analyzer) -> None:
        shared, dropped = _SHARED_TERM_MEMOS.setdefault(analyzer, ({}, {}))
        super().__init__(dropped)
        self.terms: dict[str, int] = {}
        self._shared = shared
        self._dropped = dropped
        self._normalize = analyzer.tokenizer.normalize
        self._analyze_token = analyzer.analyze_token

    def __missing__(self, token: bytes) -> int:
        shared = self._shared
        term = shared.get(token, _UNSEEN)
        if term is _UNSEEN:
            # token_bytes already case-folded, so normalize's lowercase
            # step is a no-op; its length/numeric filters still apply.
            term = self._normalize(token.decode("ascii"))
            if term is not None:
                term = self._analyze_token(term)
            shared[token] = term
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
        # One posting costs 8 bytes: document indices and in-document
        # frequencies are int32 (both bounded by the token count, see
        # ``_build``); offsets and per-term aggregates are int64.
        self._post_docs: np.ndarray = np.empty(0, dtype=np.int32)
        self._post_tfs: np.ndarray = np.empty(0, dtype=np.int32)
        self._offsets: np.ndarray = np.zeros(1, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self._df: np.ndarray = empty
        self._ctf: np.ndarray = empty
        self._doc_lengths: np.ndarray = np.zeros(len(corpus), dtype=np.int64)
        self._build()

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
        token_docs = np.repeat(np.arange(num_docs, dtype=np.int32), raw_lengths)
        kept = token_ids >= 0
        token_ids = token_ids[kept]
        token_docs = token_docs[kept]
        vocabulary_size = len(self._id_to_term)
        self._doc_lengths = np.bincount(token_docs, minlength=num_docs).astype(
            np.int64, copy=False
        )
        self._ctf = _read_only(
            np.bincount(token_ids, minlength=vocabulary_size).astype(np.int64, copy=False)
        )
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
            self._post_docs = _read_only(stream_docs[starts])
            self._post_tfs = _read_only(np.diff(starts, append=total).astype(np.int32))
            self._df = _read_only(
                np.bincount(stream_terms[starts], minlength=vocabulary_size).astype(
                    np.int64, copy=False
                )
            )
        else:
            self._df = _read_only(np.zeros(vocabulary_size, dtype=np.int64))
        offsets = np.zeros(vocabulary_size + 1, dtype=np.int64)
        np.cumsum(self._df, out=offsets[1:])
        self._offsets = _read_only(offsets)

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
