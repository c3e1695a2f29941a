"""The :class:`Document` value object."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Document:
    """A full-text document.

    A value: a :class:`~repro.corpus.collection.Corpus` stores its
    fields, not the object, and builds a new one each time a document is
    asked for.

    Parameters
    ----------
    doc_id:
        Stable unique identifier within its corpus.
    text:
        The full body text.  This is what a database returns to the
        sampling client, and the only thing the client may analyze.
    title:
        Optional display title.
    topic:
        Optional topic label.  Synthetic generators record the topic a
        document was drawn from; the selection-accuracy extension
        experiment uses it as a relevance oracle.  Real corpora leave it
        ``None``.
    """

    doc_id: str
    text: str
    title: str = ""
    topic: str | None = None

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")

    @property
    def size_bytes(self) -> int:
        """UTF-8 size of the document body (Table 1's byte accounting).

        An ASCII text (``isascii`` reads a flag CPython keeps) is as many
        bytes as characters: only other texts are encoded to be measured.
        A lone surrogate counts the 3 bytes a corpus stores it in.
        """
        text = self.text
        return len(text) if text.isascii() else len(text.encode("utf-8", "surrogatepass"))

    def __len__(self) -> int:
        return len(self.text)
