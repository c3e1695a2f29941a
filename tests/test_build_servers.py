"""A federation's servers built on every CPU equal serially built ones.

:func:`~repro.index.server.build_servers` forks where it can and builds
serially where it cannot; either way every index must match
``DatabaseServer(corpus)`` in term order, every column, document ids and
the exported language model, and the parent's analyzer memo must end up
holding what a serial build would have put there.  Either way the
federation's term tables hold one string per distinct term and one int
per id, and databases whose columns differ in width answer one search
plan exactly as each answers alone.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.corpus import Corpus
from repro.federation.testbed import build_skewed_partition
from repro.index import inverted
from repro.index.search import search_databases
from repro.index.server import DatabaseServer, build_servers
from repro.lm.io import pack_language_model
from repro.synth.profiles import wsj88_like
from repro.text.analyzer import Analyzer
from tests.reference import search_scalar


@pytest.fixture(scope="module")
def parts():
    corpus = wsj88_like().build(seed=21, scale=0.05)
    return build_skewed_partition(corpus, num_databases=5, seed=3)


@pytest.fixture()
def forks(monkeypatch):
    """Count the processes the build forks, with no floor on corpus size."""
    started = []
    real_fork = os.fork

    def counting_fork():
        started.append(1)
        return real_fork()

    monkeypatch.setattr(inverted, "_FORK_MIN_BYTES", 0)
    monkeypatch.setattr(os, "fork", counting_fork)
    return started


@pytest.fixture()
def two_cpus(monkeypatch):
    """Two groups even where this machine has one CPU."""
    monkeypatch.setattr(inverted, "usable_cpus", lambda: 2)


def _assert_identical(built, expected):
    assert [server.name for server in built] == [server.name for server in expected]
    for server, reference in zip(built, expected):
        index, ref = server.index, reference.index
        assert index.corpus is ref.corpus
        assert list(index.vocabulary) == list(ref.vocabulary)
        assert index.corpus.doc_ids == ref.corpus.doc_ids
        for name in (
            "postings_doc_indices",
            "postings_term_frequencies",
            "postings_offsets",
            "document_frequencies",
            "collection_frequencies",
            "doc_lengths",
        ):
            column, ref_column = getattr(index, name), getattr(ref, name)
            assert column.dtype == ref_column.dtype, name
            assert np.array_equal(column, ref_column), name
            assert not column.flags.writeable, name
        assert index.analyzer == ref.analyzer
        assert pack_language_model(server.actual_language_model()) == pack_language_model(
            reference.actual_language_model()
        )
        assert server.run_query("market trade", 5) == reference.run_query("market trade", 5)


def test_forked_build_equals_serial(parts, forks, two_cpus):
    expected = [DatabaseServer(part) for part in parts]
    built = build_servers(parts)
    assert len(forks) == 2
    _assert_identical(built, expected)


def test_children_send_back_their_memo_entries(parts, forks, two_cpus, monkeypatch):
    memos: dict = {}
    monkeypatch.setattr(inverted, "_SHARED_TERM_MEMOS", memos)
    build_servers(parts)
    assert len(forks) == 2
    forked_memo = memos[Analyzer.inquery_style()]
    memos.clear()
    for part in parts:
        DatabaseServer(part)
    serial_memo = memos[Analyzer.inquery_style()]
    assert [dict(memo) for memo in forked_memo] == [dict(memo) for memo in serial_memo]


def test_a_running_thread_means_a_serial_build(parts, forks):
    expected = [DatabaseServer(part) for part in parts]
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        built = build_servers(parts)
    finally:
        release.set()
        thread.join()
    assert forks == []
    _assert_identical(built, expected)


def test_one_cpu_means_a_serial_build(parts, forks, monkeypatch):
    monkeypatch.setattr(inverted, "usable_cpus", lambda: 1)
    expected = [DatabaseServer(part) for part in parts]
    built = build_servers(parts)
    assert forks == []
    _assert_identical(built, expected)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_pinned_to_one_cpu_means_a_serial_build(parts, forks):
    expected = [DatabaseServer(part) for part in parts]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        built = build_servers(parts)
    finally:
        os.sched_setaffinity(0, allowed)
    assert forks == []
    _assert_identical(built, expected)


def test_small_corpora_are_built_here(parts, forks, two_cpus, monkeypatch):
    monkeypatch.setattr(inverted, "_FORK_MIN_BYTES", 10**9)
    expected = [DatabaseServer(part) for part in parts]
    built = build_servers(parts)
    assert forks == []
    _assert_identical(built, expected)


def test_no_corpora_no_servers():
    assert build_servers([]) == []


def _assert_one_object_per_term_and_id(servers):
    strings: dict[str, int] = {}
    ints: dict[int, int] = {}
    for server in servers:
        table = server.index.columns().term_ids
        for term, term_id in table.items():
            assert strings.setdefault(term, id(term)) == id(term), term
            assert ints.setdefault(term_id, id(term_id)) == id(term_id), term_id
    assert len(strings) < sum(server.index.vocabulary_size for server in servers)
    assert max(ints) > 256  # past CPython's small-int cache


def test_a_forked_federation_shares_its_term_tables(parts, forks, two_cpus):
    built = build_servers(parts)
    assert len(forks) == 2
    _assert_one_object_per_term_and_id(built)


def test_a_serial_federation_shares_its_term_tables(parts, forks, monkeypatch):
    monkeypatch.setattr(inverted, "usable_cpus", lambda: 1)
    built = build_servers(parts)
    assert forks == []
    _assert_one_object_per_term_and_id(built)


@pytest.fixture(scope="module")
def mixed_widths(parts):
    """A federation whose columns differ in width: one database over 256 documents."""
    large = Corpus([document for part in parts[:3] for document in part], name="large")
    assert len(large) > 256 > max(len(part) for part in parts[3:])
    return build_servers([large, *parts[3:]])


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_mixed_widths_answer_one_plan_as_each_alone(mixed_widths, n):
    widths = {server.index.postings_doc_indices.dtype for server in mixed_widths}
    assert widths == {np.dtype(np.uint8), np.dtype(np.uint16)}
    engines = [server.engine for server in mixed_widths]
    large, small = mixed_widths[0].index.corpus, mixed_widths[-1].index.corpus
    words = large[0].text.split() + small[0].text.split()
    queries = [words[1], " ".join(words[:3]), " ".join(words[2:9] + words[2:4]),
               " ".join(words[-6:]), f"{words[-1]} zzzunknown"]
    matched = 0
    for query in queries:
        for hits, engine in zip(search_databases(engines, query, n), engines):
            alone = engine.search(query, n)
            assert hits.results() == alone
            assert alone == search_scalar(engine.index, query, n)
            matched += len(alone)
    assert matched > 0
