"""A corpus's text lives in its document file, and only there.

Every :class:`~repro.corpus.collection.Corpus` appends its texts and
titles to an unlinked temporary file and builds a
:class:`~repro.corpus.document.Document` on access.  These tests pin
what that design promises: answers equal to the documents put in,
views that share a file, no file or descriptor left behind, forked
children that read their parent's bytes and write only their own, a
corpus that pickles by value, and a serving path that reads no text.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import pickle
import tempfile

import pytest

from repro.corpus import (
    Corpus,
    Document,
    partition_by_topic,
    partition_chunks,
    partition_round_robin,
    read_jsonl,
    write_jsonl,
)
from repro.corpus.collection import DocumentFile
from repro.federation import SearchRequest, build_skewed_partition
from repro.gateway import GatewayClient, GatewayServer
from repro.index import DatabaseServer
from repro.serving import frontend_from_servers, queries_from_models
from repro.synth import cacm_like, wsj88_like
from repro.synth.generator import CorpusGenerator, GeneratorConfig
from repro.utils.fork import fork_map

DOCUMENTS = [
    Document("a", "Plain ASCII text.", "First", "sports"),
    Document("b", "Café déjà vu — naïve façade.", "Accentué", None),
    Document("c", "", "", "finance"),
    Document("d", "Last one 😀 with an emoji.", "", "sports"),
    Document("e", "A lone \ud800 surrogate, as JSON may carry.", "\udfff", None),
]


def _open_descriptors() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


class TestCorpusStorage:
    def test_documents_come_back_equal(self):
        corpus = Corpus(DOCUMENTS, name="values")
        assert list(corpus) == DOCUMENTS
        assert [corpus[i] for i in range(len(DOCUMENTS))] == DOCUMENTS
        assert corpus[-1] == DOCUMENTS[-1]
        assert corpus.get("b") == DOCUMENTS[1]
        assert corpus.size_bytes == sum(d.size_bytes for d in DOCUMENTS)
        assert corpus.topic_labels == [d.topic for d in DOCUMENTS]

    def test_a_document_is_built_on_each_access(self):
        corpus = Corpus(DOCUMENTS, name="values")
        assert corpus[0] == corpus[0] and corpus[0] is not corpus[0]

    def test_out_of_range_positions_raise_index_error(self):
        corpus = Corpus(DOCUMENTS, name="values")
        with pytest.raises(IndexError):
            corpus[len(DOCUMENTS)]
        with pytest.raises(IndexError):
            Corpus(name="empty")[0]

    def test_text_bytes_are_the_utf8_text(self):
        corpus = Corpus(DOCUMENTS, name="values")
        assert [corpus.text_bytes(i) for i in range(len(corpus))] == [
            d.text.encode("utf-8", "surrogatepass") for d in DOCUMENTS
        ]

    def test_a_failed_extend_adds_nothing(self):
        corpus = Corpus(DOCUMENTS[:2], name="values")
        with pytest.raises(ValueError, match="duplicate doc_id 'x'"):
            corpus.extend(["x", "x"], ["1", "2"], ["", ""], [None, None])
        with pytest.raises(ValueError, match="duplicate doc_id 'a'"):
            corpus.extend(["y", "a"], ["1", "2"], ["", ""], [None, None])
        with pytest.raises(ValueError, match="non-empty"):
            corpus.extend(["y", ""], ["1", "2"], ["", ""], [None, None])
        assert list(corpus) == DOCUMENTS[:2]

    def test_subset_is_a_view_sharing_the_file(self):
        corpus = Corpus(DOCUMENTS, name="values")
        part = corpus.subset([3, 1], "part")
        assert part.file is corpus.file
        assert list(part) == [DOCUMENTS[3], DOCUMENTS[1]]
        assert "a" not in part and part.get("d") == DOCUMENTS[3]
        with pytest.raises(ValueError, match="repeat"):
            corpus.subset([0, 0], "twice")

    def test_appending_to_a_view_leaves_its_source_as_it_was(self):
        corpus = Corpus(DOCUMENTS[:2], name="values")
        view = Corpus(corpus, name="copy")
        assert view.file is corpus.file
        view.add(DOCUMENTS[2])
        corpus.add(DOCUMENTS[3])
        assert list(view) == DOCUMENTS[:3]
        assert list(corpus) == [*DOCUMENTS[:2], DOCUMENTS[3]]

    def test_partitions_share_the_file(self):
        corpus = Corpus(DOCUMENTS, name="values")
        for parts in (
            partition_round_robin(corpus, 2),
            partition_chunks(corpus, 3),
            partition_by_topic(corpus),
        ):
            assert all(part.file is corpus.file for part in parts)
            assert sorted(d.doc_id for part in parts for d in part) == ["a", "b", "c", "d", "e"]

    def test_a_corpus_pickles_by_value(self):
        corpus = Corpus(DOCUMENTS, name="values")
        copy = pickle.loads(pickle.dumps(corpus))
        assert copy.name == "values" and list(copy) == DOCUMENTS
        assert copy.file is not corpus.file
        del corpus
        gc.collect()
        assert list(copy) == DOCUMENTS

    def test_reads_do_not_move_with_appends(self):
        corpus = Corpus(DOCUMENTS[:1], name="values")
        for number in range(300):
            corpus.add(Document(f"n{number}", f"text {number} " * (number % 7)))
        assert corpus[0] == DOCUMENTS[0]
        assert corpus.get("n299").text == "text 299 " * (299 % 7)


class TestNothingOutlivesItsCorpus:
    def test_two_thousand_corpora_leave_no_file_and_no_descriptor(
        self, tmp_path, monkeypatch
    ):
        temporary = tmp_path / "tmp"
        temporary.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temporary))
        source = tmp_path / "source.jsonl"
        write_jsonl(Corpus(DOCUMENTS[:3], name="source"), source)
        space = cacm_like().topic_space(seed=0, scale=0.002)
        config = GeneratorConfig(num_documents=6)
        gc.collect()
        before = _open_descriptors()
        made = 0
        for round_number in range(400):
            generated = CorpusGenerator(space, config, seed=round_number).generate()
            read = read_jsonl(source)
            parts = partition_round_robin(generated, 2)
            view = read.subset([1, 2], "view")
            made += 2 + len(parts) + 1
            assert os.listdir(temporary) == []
            assert read.get("b") == DOCUMENTS[1] and list(view) == DOCUMENTS[1:3]
            assert parts[1][0] == generated[1]
            del generated, read, parts, view
        assert made == 2_000
        gc.collect()
        assert _open_descriptors() == before
        assert os.listdir(temporary) == []

    def test_a_dropped_corpus_closes_its_descriptor(self):
        gc.collect()
        before = _open_descriptors()
        corpus = Corpus(DOCUMENTS, name="values")
        views = partition_round_robin(corpus, 2)
        assert len(_open_descriptors() - before) == 1
        del corpus
        assert len(_open_descriptors() - before) == 1  # the views hold the file
        del views
        assert _open_descriptors() == before


def _skip_unless_forked(child: int) -> None:
    if child == os.getpid():
        pytest.skip("another thread is running: fork_map ran every task here")


class TestForkedChildren:
    def test_a_child_reads_the_bytes_its_parent_reads(self):
        corpus = wsj88_like().build(seed=3, scale=0.02)

        def digest(task: int) -> tuple[int, str]:
            text = "".join(f"{d.doc_id}{d.title}{d.topic}{d.text}" for d in corpus)
            return os.getpid(), hashlib.sha256(text.encode("utf-8")).hexdigest()

        (parent, here), (child, there) = fork_map(digest, [0, 1])
        _skip_unless_forked(child)
        assert parent == os.getpid()
        assert here == there

    def test_a_child_appends_to_its_own_copy(self):
        corpus = Corpus(DOCUMENTS[:2], name="values")
        size = corpus.file.size

        def append(task: int) -> tuple[int, list[Document]]:
            if task:
                corpus.add(Document("child", "written in the child"))
            return os.getpid(), list(corpus)

        (_, here), (child, there) = fork_map(append, [0, 1])
        _skip_unless_forked(child)
        assert there == [*DOCUMENTS[:2], Document("child", "written in the child")]
        assert here == DOCUMENTS[:2]
        # Nothing landed past this process's end of the file.
        assert corpus.file.read(size, 1 << 10) == b""
        corpus.add(DOCUMENTS[2])
        assert list(corpus) == DOCUMENTS[:3]


class TestServingReadsNoText:
    """The serving path answers from index columns and models alone.

    After the federation is indexed its document file refuses reads,
    and the answers must not change: the day a text read enters the
    serving path, this fails.
    """

    @staticmethod
    def _answers(responses) -> str:
        rows = [
            (r.query, r.searched, [(hit.doc_id, hit.database, hit.score) for hit in r.results])
            for r in responses
        ]
        return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()

    def test_frontend_and_gateway_answer_with_reads_refused(self, monkeypatch):
        corpus = wsj88_like().build(seed=11, scale=0.04)
        parts = build_skewed_partition(corpus, num_databases=3, seed=7)
        servers = {part.name: DatabaseServer(part) for part in parts}
        models = {name: server.actual_language_model() for name, server in servers.items()}
        requests = [
            SearchRequest(query=query, n=8) for query in queries_from_models(models, 12)
        ]
        with frontend_from_servers(servers) as frontend:
            expected = self._answers([frontend.search(request) for request in requests])

        def refuse(self: DocumentFile, offset: int, size: int) -> bytes:
            raise AssertionError("the serving path read document text")

        monkeypatch.setattr(DocumentFile, "read", refuse)
        with pytest.raises(AssertionError, match="read document text"):
            corpus[0]

        async def over_the_wire(frontend):
            async with GatewayServer(frontend) as server:
                host, port = server.address
                async with GatewayClient(host, port) as client:
                    replies = [await client.search(request) for request in requests]
            assert all(reply.ok for reply in replies)
            return [reply.response for reply in replies]

        with frontend_from_servers(servers) as frontend:
            assert self._answers([frontend.search(request) for request in requests]) == expected
        with frontend_from_servers(servers) as frontend:
            assert self._answers(asyncio.run(over_the_wire(frontend))) == expected
