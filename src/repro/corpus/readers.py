"""Corpus readers and writers.

Three on-disk formats are supported:

* **JSONL** — one JSON object per line with ``doc_id``/``text`` and
  optional ``title``/``topic``.  The library's native interchange
  format; synthetic corpora round-trip through it.
* **Plain directories** — every ``*.txt`` file becomes a document whose
  id is the file stem.  Convenient for ad-hoc collections.
* **TREC SGML** — the ``<DOC><DOCNO>…`` format of the TREC CDs the paper
  used (WSJ88 and TREC-123 are distributed this way).  If a user has
  real TREC data, they can drop it in and rerun every experiment on it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterator

from repro.corpus.collection import Corpus
from repro.corpus.document import Document
from repro.utils.atomic import atomic_writer

_DOC_PATTERN = re.compile(r"<DOC>(.*?)</DOC>", re.DOTALL | re.IGNORECASE)
_DOCNO_PATTERN = re.compile(r"<DOCNO>\s*(.*?)\s*</DOCNO>", re.DOTALL | re.IGNORECASE)
_TEXT_PATTERN = re.compile(r"<TEXT>(.*?)</TEXT>", re.DOTALL | re.IGNORECASE)
_TITLE_PATTERN = re.compile(r"<(?:HL|TITLE|HEAD)>(.*?)</(?:HL|TITLE|HEAD)>", re.DOTALL | re.IGNORECASE)
_TAG_PATTERN = re.compile(r"<[^>]+>")
#: A UTF-16 surrogate code point: ``read_jsonl`` accepts a lone one
#: from a ``\udXXX`` escape, and UTF-8 has no bytes for it.
_SURROGATE = re.compile("[\ud800-\udfff]")


#: The fields :func:`read_jsonl` reads; each is a JSON string.
_JSONL_FIELDS = ("doc_id", "text", "title", "topic")

#: Fields that may be absent; ``null`` counts as absent.
_OPTIONAL = ("title", "topic")


def read_jsonl(path: str | Path, name: str | None = None) -> Corpus:
    """Load a corpus from a JSONL file.

    Every field is a string: anything else is refused with the
    ``path:line:`` of its record, as is a record without ``doc_id`` or
    ``text``.  A ``null`` title or topic counts as absent.
    """
    path = Path(path)
    corpus = Corpus(name=name or path.stem)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict) or "doc_id" not in record or "text" not in record:
                raise ValueError(f"{path}:{line_number}: record needs 'doc_id' and 'text'")
            for field in _JSONL_FIELDS:
                value = record.get(field)
                if not (isinstance(value, str) or (value is None and field in _OPTIONAL)):
                    raise ValueError(
                        f"{path}:{line_number}: {field!r} must be a string, "
                        f"not {type(value).__name__}"
                    )
            corpus.add(
                Document(
                    doc_id=record["doc_id"],
                    text=record["text"],
                    title=record.get("title") or "",
                    topic=record.get("topic"),
                )
            )
    return corpus


def write_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write ``corpus`` to a JSONL file that :func:`read_jsonl` reads back.

    Text is UTF-8, except that a surrogate code point is written as
    its ``\\udXXX`` escape (a high surrogate followed by a low one
    therefore reads back as the one character they pair into).  The
    lines stream to a temporary file beside ``path`` that replaces it
    only once complete: a failed write leaves an existing file as it was.
    """
    with atomic_writer(path) as handle:
        for document in corpus:
            record: dict[str, object] = {"doc_id": document.doc_id, "text": document.text}
            if document.title:
                record["title"] = document.title
            if document.topic is not None:
                record["topic"] = document.topic
            line = json.dumps(record, ensure_ascii=False)
            line = _SURROGATE.sub(lambda match: f"\\u{ord(match.group()):04x}", line)
            handle.write(line.encode("utf-8") + b"\n")


def read_directory(path: str | Path, pattern: str = "*.txt", name: str | None = None) -> Corpus:
    """Load every file matching ``pattern`` under ``path`` as a document."""
    path = Path(path)
    if not path.is_dir():
        raise NotADirectoryError(f"{path} is not a directory")
    corpus = Corpus(name=name or path.name)
    for file_path in sorted(path.glob(pattern)):
        corpus.add(Document(doc_id=file_path.stem, text=file_path.read_text(encoding="utf-8")))
    return corpus


def _iter_trec_documents(raw: str) -> Iterator[Document]:
    for match in _DOC_PATTERN.finditer(raw):
        body = match.group(1)
        docno_match = _DOCNO_PATTERN.search(body)
        if docno_match is None:
            raise ValueError("TREC <DOC> block without <DOCNO>")
        doc_id = docno_match.group(1)
        text_match = _TEXT_PATTERN.search(body)
        if text_match is not None:
            text = text_match.group(1)
        else:
            # Some TREC sources put prose directly in the DOC body.
            text = _DOCNO_PATTERN.sub("", body)
        title_match = _TITLE_PATTERN.search(body)
        title = _TAG_PATTERN.sub(" ", title_match.group(1)).strip() if title_match else ""
        yield Document(doc_id=doc_id, text=_TAG_PATTERN.sub(" ", text).strip(), title=title)


def write_trec_sgml(corpus: Corpus, path: str | Path) -> None:
    """Write ``corpus`` as a TREC SGML file.

    The complement of :func:`read_trec_sgml`, so any corpus —
    including synthetic ones — can be exchanged with tools that speak
    the TREC CD format.  Topic labels have no TREC field and are not
    preserved; titles map to ``<HL>``.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for document in corpus:
            handle.write("<DOC>\n")
            handle.write(f"<DOCNO> {document.doc_id} </DOCNO>\n")
            if document.title:
                handle.write(f"<HL> {document.title} </HL>\n")
            handle.write("<TEXT>\n")
            handle.write(document.text)
            handle.write("\n</TEXT>\n</DOC>\n")


def read_trec_sgml(path: str | Path, name: str | None = None) -> Corpus:
    """Load a corpus from a TREC SGML file (or directory of them)."""
    path = Path(path)
    corpus = Corpus(name=name or path.stem)
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    for file_path in files:
        if file_path.is_dir():
            continue
        raw = file_path.read_text(encoding="utf-8", errors="replace")
        for document in _iter_trec_documents(raw):
            corpus.add(document)
    return corpus
