"""Where an index's memory is — and the places it must not be.

A database is held once: its text (the corpus) and its postings (the
CSR columns, 8 bytes each).  Nothing proportional to the *token* count
survives a build, the build's own transient is one block of documents'
tokens, and no module-level cache keeps a corpus alive.  Measured with
``tracemalloc`` on a small synthetic corpus; no timing anywhere.
"""

from __future__ import annotations

import gc
import inspect
import sys
import tracemalloc
import weakref
from itertools import chain

import numpy as np
import pytest

from repro.corpus import Corpus, Document
from repro.index import DatabaseServer, InvertedIndex, inverted
from repro.synth import wsj88_like
from repro.text import Analyzer, Tokenizer
from tests.reference import build_index_scalar

BLOCK = inverted._BLOCK_DOCS


@pytest.fixture(scope="module")
def documents() -> list[Document]:
    documents = list(wsj88_like().build(seed=5, scale=0.07))
    assert len(documents) >= 3 * BLOCK + 7
    return documents


def _token_lists(documents: list[Document]) -> list[list[bytes]]:
    token_bytes = Analyzer.inquery_style().tokenizer.token_bytes
    return [token_bytes(document.text) for document in documents]


def _weight(token_lists: list[list[bytes]]) -> int:
    """Bytes the ``bytes`` tokens of these documents occupy while alive."""
    return sum(sys.getsizeof(tokens) + sum(map(sys.getsizeof, tokens)) for tokens in token_lists)


def test_only_distinct_tokens_outlive_a_build(documents):
    corpus = Corpus(documents[: 2 * BLOCK], name="retained")
    token_lists = _token_lists(documents[: 2 * BLOCK])
    distinct = set(chain.from_iterable(token_lists))
    distinct_weight = sum(map(sys.getsizeof, distinct))
    # The corpus repeats itself enough for a per-token memo to show.
    assert _weight(token_lists) > 10 * distinct_weight
    del token_lists

    source, first_line = inspect.getsourcelines(Tokenizer.token_bytes)
    token_bytes_lines = range(first_line, first_line + len(source))
    tokenizer_file = inspect.getsourcefile(Tokenizer)
    gc.collect()
    tracemalloc.start()
    try:
        server = DatabaseServer(corpus)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    alive = [
        stat
        for stat in snapshot.statistics("lineno")
        if stat.traceback[0].filename == tokenizer_file
        and stat.traceback[0].lineno in token_bytes_lines
    ]
    # What token_bytes allocated and is still referenced can only be keys
    # of the analyzer's shared token → term memo: one per distinct token
    # (fewer when an earlier build in this process already filled it).
    assert sum(stat.count for stat in alive) <= len(distinct)
    assert sum(stat.size for stat in alive) <= distinct_weight
    assert server.index.num_documents == 2 * BLOCK


def _build_transient(corpus: Corpus) -> int:
    """``peak - retained`` traced bytes over one index build."""
    gc.collect()
    tracemalloc.start()
    try:
        index = InvertedIndex(corpus)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.num_documents == len(corpus)
    return peak - retained


def test_build_transient_does_not_grow_with_the_token_stream(documents):
    one_block = Corpus(documents[:BLOCK], name="one-block")
    two_blocks = Corpus(documents[: 2 * BLOCK], name="two-blocks")
    InvertedIndex(two_blocks)  # fill the analyzer's shared memos: retained, not transient
    token_lists = _token_lists(documents[: 2 * BLOCK])
    block_weight = max(_weight(token_lists[:BLOCK]), _weight(token_lists[BLOCK:]))
    del token_lists
    growth = _build_transient(two_blocks) - _build_transient(one_block)
    # Twice the documents: the numpy transients of phase 2 double (about
    # a fifth of a block's tokens), the python tokens alive at once do
    # not — a build holding every document's tokens grows by more than a
    # whole block here.
    assert growth < block_weight / 2


def test_postings_columns_are_four_bytes_wide(documents):
    index = DatabaseServer(Corpus(documents[:BLOCK], name="narrow")).index
    assert index.postings_doc_indices.itemsize == 4
    assert index.postings_term_frequencies.itemsize == 4
    assert index.postings_doc_indices.size == index.postings_term_frequencies.size > 0
    empty = InvertedIndex(Corpus(name="empty"))
    assert empty.postings_doc_indices.itemsize == empty.postings_term_frequencies.itemsize == 4


def test_nothing_keeps_a_corpus_alive_after_its_last_reference(documents):
    corpus = Corpus(documents[:50], name="mortal")
    server = DatabaseServer(corpus)
    assert server.run_query("market") is not None
    alive = weakref.ref(corpus)
    del server, corpus
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize(
    "analyzer", [Analyzer.inquery_style(), Analyzer.raw()], ids=["inquery", "raw"]
)
def test_blocked_build_equals_scalar_build_around_block_edges(documents, size, analyzer):
    corpus = Corpus(documents[:size], name=f"first-{size}")
    index = InvertedIndex(corpus, analyzer)
    scalar = build_index_scalar(corpus, analyzer)
    vocabulary = scalar.vocabulary
    assert list(index.vocabulary) == vocabulary  # first-occurrence order, across blocks
    assert np.array_equal(index.doc_lengths, scalar.doc_lengths)
    assert index.document_frequencies.tolist() == [scalar.df[term] for term in vocabulary]
    assert index.collection_frequencies.tolist() == [scalar.ctf[term] for term in vocabulary]
    assert index.postings_offsets.tolist() == [
        0,
        *np.cumsum([scalar.df[term] for term in vocabulary]).tolist(),
    ]
    assert index.postings_doc_indices.tolist() == list(
        chain.from_iterable(scalar.postings[term][0] for term in vocabulary)
    )
    assert index.postings_term_frequencies.tolist() == list(
        chain.from_iterable(scalar.postings[term][1] for term in vocabulary)
    )
