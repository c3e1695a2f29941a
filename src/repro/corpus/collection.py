"""The :class:`Corpus` container and its statistics.

A :class:`Corpus` is an ordered, id-addressable collection of
documents.  Its text does not live on the heap: every document's text
and title are appended, UTF-8 encoded (a lone surrogate, which JSON can
carry, round-trips), to a :class:`DocumentFile` — an
unlinked temporary file — and the corpus keeps only each document's
offset and byte sizes beside its id and topic label.  A
:class:`~repro.corpus.document.Document` is a value built on access
(``corpus[i]``, :meth:`Corpus.get`, iteration) from one ``os.pread``.
Partitions of a corpus (:meth:`Corpus.subset`) share its file, so the
text of a federation carved from one generated corpus is held once, in
the page cache, and in no process's heap.

:class:`CorpusStats` computes the quantities reported in the paper's
Table 1 — size in bytes, size in documents, unique terms, and total
terms — under a given analyzer, so the same corpus can be described
both "raw" and "as indexed".
"""

from __future__ import annotations

import os
import tempfile
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.corpus.document import Document
from repro.text.analyzer import Analyzer

#: Bytes copied per read when a forked child takes its own copy of a file.
_COPY_CHUNK = 1 << 20


class DocumentFile:
    """Append-only document bytes in an unlinked temporary file, read by offset.

    Reads are ``os.pread``, never ``mmap``: the pages a process maps and
    touches count in its resident set, the pages it reads do not.  The
    descriptor is closed when the last corpus holding the file is
    dropped.  A forked child reads its parent's bytes through the
    inherited descriptor; its first append moves it to a copy of its
    own, so a child's writes never land in the file its parent appends
    to.  Not safe for concurrent appends from several threads (reads are).
    """

    __slots__ = ("_handle", "_pid", "size")

    def __init__(self) -> None:
        self._handle = tempfile.TemporaryFile(buffering=0)
        self._pid = os.getpid()
        #: Bytes written so far; the next append starts here.
        self.size = 0

    def __del__(self) -> None:
        handle = getattr(self, "_handle", None)
        if handle is not None:
            handle.close()

    def append(self, data: bytes) -> int:
        """Write ``data`` at the end of the file; the offset it starts at."""
        if self._pid != os.getpid():
            self._copy_for_this_process()
        offset = self.size
        fd = self._handle.fileno()
        view = memoryview(data)
        written = 0
        while written < len(view):
            written += os.pwrite(fd, view[written:], offset + written)
        self.size = offset + written
        return offset

    def read(self, offset: int, size: int) -> bytes:
        """The ``size`` bytes starting at ``offset``."""
        return os.pread(self._handle.fileno(), size, offset)

    def _copy_for_this_process(self) -> None:
        """Write from here on into a new file holding the bytes written so far."""
        inherited = self._handle
        copy = tempfile.TemporaryFile(buffering=0)
        try:
            copied = 0
            while copied < self.size:
                chunk = os.pread(inherited.fileno(), min(_COPY_CHUNK, self.size - copied), copied)
                if not chunk:
                    raise OSError(f"document file ends at {copied} of {self.size} bytes")
                copy.write(chunk)
                copied += len(chunk)
        except BaseException:
            copy.close()
            raise
        self._handle, self._pid = copy, os.getpid()
        inherited.close()


class Corpus:
    """An ordered collection of documents with O(1) id lookup.

    Memory holds per document its id, topic label, file offset and the
    byte sizes of its text and title; the text and title are in
    :attr:`file`, and a :class:`~repro.corpus.document.Document` is
    built each time one is asked for.  ``Corpus(other_corpus)`` is a
    view of every document of ``other_corpus``, sharing its file (see
    :meth:`subset`).  A corpus pickles by value.
    """

    def __init__(self, documents: Iterable[Document] = (), name: str = "corpus") -> None:
        self.name = name
        self.file: DocumentFile | None = None
        self._doc_ids: list[str] = []
        self._by_id: dict[str, int] = {}
        self._topics: list[str | None] = []
        self._starts = array("q")
        self._text_sizes = array("q")
        self._title_sizes = array("q")
        if isinstance(documents, Corpus):
            self._take_rows(documents, range(len(documents)))
            return
        for document in documents:
            self.add(document)

    def add(self, document: Document) -> None:
        """Append ``document``; raises on duplicate ids."""
        self.extend([document.doc_id], [document.text], [document.title], [document.topic])

    def extend(
        self,
        doc_ids: Sequence[str],
        texts: Sequence[str],
        titles: Sequence[str],
        topics: Sequence[str | None],
    ) -> None:
        """Append documents given as parallel columns, their bytes in one write.

        Raises on an empty or duplicate id, before anything is added.
        """
        count = len(doc_ids)
        if not len(texts) == len(titles) == len(topics) == count:
            raise ValueError("doc_ids, texts, titles and topics must be parallel")
        if not all(doc_ids):
            raise ValueError("doc_id must be non-empty")
        fresh = dict.fromkeys(doc_ids)
        if len(fresh) < count or not fresh.keys().isdisjoint(self._by_id):
            self._raise_duplicate(doc_ids)
        if not count:
            return
        pieces = [piece for pair in zip(texts, titles) for piece in pair]
        joined = "".join(pieces)
        if joined.isascii():
            blob = joined.encode("ascii")
            sizes = list(map(len, pieces))
        else:
            encoded = [piece.encode("utf-8", "surrogatepass") for piece in pieces]
            blob = b"".join(encoded)
            sizes = list(map(len, encoded))
        if self.file is None:
            self.file = DocumentFile()
        start = self.file.append(blob)
        first = len(self._doc_ids)
        self._doc_ids.extend(doc_ids)
        self._by_id.update(zip(doc_ids, range(first, first + count)))
        self._topics.extend(topics)
        for text_size, title_size in zip(sizes[::2], sizes[1::2]):
            self._starts.append(start)
            self._text_sizes.append(text_size)
            self._title_sizes.append(title_size)
            start += text_size + title_size

    def _raise_duplicate(self, doc_ids: Sequence[str]) -> None:
        seen = set(self._by_id)
        for doc_id in doc_ids:
            if doc_id in seen:
                raise ValueError(f"duplicate doc_id {doc_id!r} in corpus {self.name!r}")
            seen.add(doc_id)

    def subset(self, rows: Iterable[int], name: str) -> Corpus:
        """The documents at positions ``rows``, in that order, sharing this corpus's file.

        Nothing is read or written: the new corpus is a view.  Appending
        to either afterwards leaves the other as it was.
        """
        part = Corpus(name=name)
        part._take_rows(self, list(rows))
        return part

    def _take_rows(self, source: Corpus, rows: Sequence[int]) -> None:
        doc_ids = [source._doc_ids[row] for row in rows]
        by_id = dict(zip(doc_ids, range(len(doc_ids))))
        if len(by_id) < len(doc_ids):
            raise ValueError(f"rows repeat a document of corpus {source.name!r}")
        self.file = source.file
        self._doc_ids = doc_ids
        self._by_id = by_id
        self._topics = [source._topics[row] for row in rows]
        self._starts = array("q", [source._starts[row] for row in rows])
        self._text_sizes = array("q", [source._text_sizes[row] for row in rows])
        self._title_sizes = array("q", [source._title_sizes[row] for row in rows])

    def _document(self, row: int) -> Document:
        text_size = self._text_sizes[row]
        size = text_size + self._title_sizes[row]
        data = self.file.read(self._starts[row], size)  # type: ignore[union-attr]
        return Document(
            self._doc_ids[row],
            data[:text_size].decode("utf-8", "surrogatepass"),
            data[text_size:].decode("utf-8", "surrogatepass"),
            self._topics[row],
        )

    def text_bytes(self, row: int) -> bytes:
        """The UTF-8 bytes of the text at position ``row``, read and not decoded."""
        return self.file.read(self._starts[row], self._text_sizes[row])  # type: ignore[union-attr]

    def get(self, doc_id: str) -> Document:
        """Return the document with ``doc_id`` (KeyError if absent)."""
        return self._document(self._by_id[doc_id])

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def __getitem__(self, index: int) -> Document:
        return self._document(range(len(self._doc_ids))[index])

    def __iter__(self) -> Iterator[Document]:
        return map(self._document, range(len(self._doc_ids)))

    def __len__(self) -> int:
        return len(self._doc_ids)

    def __reduce__(self) -> tuple:
        return (Corpus, (list(self), self.name))

    @property
    def doc_ids(self) -> list[str]:
        """Document ids in corpus order."""
        return list(self._doc_ids)

    @property
    def size_bytes(self) -> int:
        """UTF-8 bytes of every document's text (read from no file)."""
        return sum(self._text_sizes)

    def topics(self) -> set[str]:
        """The set of topic labels present (empty for unlabeled corpora)."""
        return {topic for topic in self._topics if topic is not None}

    @property
    def topic_labels(self) -> list[str | None]:
        """Each document's topic label, in corpus order (read from no file)."""
        return list(self._topics)

    def stats(self, analyzer: Analyzer | None = None) -> "CorpusStats":
        """Compute Table 1-style statistics under ``analyzer``.

        With no analyzer, raw case-folded tokens are counted.
        """
        analyzer = analyzer or Analyzer.raw()
        vocabulary: set[str] = set()
        total_terms = 0
        for document in self:
            terms = analyzer.analyze(document.text)
            vocabulary.update(terms)
            total_terms += len(terms)
        return CorpusStats(
            name=self.name,
            size_bytes=self.size_bytes,
            num_documents=len(self),
            unique_terms=len(vocabulary),
            total_terms=total_terms,
        )


@dataclass(frozen=True)
class CorpusStats:
    """One row of the paper's Table 1."""

    name: str
    size_bytes: int
    num_documents: int
    unique_terms: int
    total_terms: int

    def as_row(self) -> dict[str, object]:
        """Render as a Table 1 row dictionary."""
        return {
            "name": self.name,
            "size_bytes": self.size_bytes,
            "size_documents": self.num_documents,
            "size_unique_terms": self.unique_terms,
            "size_total_terms": self.total_terms,
        }
